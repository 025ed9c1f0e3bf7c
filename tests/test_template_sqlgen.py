"""Templates, one-hot encodings, SQL rendering (no Spark needed)."""
import numpy as np
import pytest

from repro.core.qti import TemplatePredictor, identify_templates
from repro.core.config import TINY
from repro.core.space import Predicate, Query
from repro.core.sqlgen import build_sql, literal, predicate_sql, where_sql
from repro.core.template import PAPER_AGGS, QueryTemplate, one_hot, template_count


class TestTemplate:
    def test_paper_has_15_aggs(self):
        assert len(PAPER_AGGS) == 15

    def test_quadruple_fields(self):
        t = QueryTemplate(("SUM", "AVG"), ("price",), ("dept", "ts"), ("cname",))
        assert t.aggs == ("SUM", "AVG")

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValueError):
            QueryTemplate(("GEOMEAN",), ("a",), ("b",), ("k",))

    def test_template_count(self):
        assert template_count(6) == 64  # paper Example 8: 2^6
        assert template_count(10) == 1024

    def test_one_hot_paper_example(self):
        # universe {A..F}, combo {A,C,E,F} → [1,0,1,0,1,1] (§VI-C2)
        u = ("A", "B", "C", "D", "E", "F")
        np.testing.assert_array_equal(one_hot({"A", "C", "E", "F"}, u),
                                      [1, 0, 1, 0, 1, 1])

    def test_one_hot_unknown_attr_raises(self):
        with pytest.raises(ValueError):
            one_hot({"Z"}, ("A", "B"))


class TestLiterals:
    def test_string_quoting_and_escape(self):
        assert literal("Electronics", "string") == "'Electronics'"
        assert literal("O'Brien", "string") == "'O''Brien'"

    def test_numbers(self):
        assert literal(3, "number") == "3"
        assert literal(3.5, "number") == "3.5"

    def test_date_and_timestamp(self):
        assert literal("2023-07-01", "date") == "DATE '2023-07-01'"
        assert literal("2023-07-01 10:00:00", "timestamp").startswith("TIMESTAMP ")


class TestPredicateSQL:
    def test_eq(self):
        p = Predicate("dept", "eq", "string", value="Electronics")
        assert predicate_sql(p) == "dept = 'Electronics'"

    def test_two_sided_range(self):
        p = Predicate("ts", "range", "number", lo=1, hi=9)
        assert predicate_sql(p) == "ts >= 1 AND ts <= 9"

    def test_one_sided_low(self):
        assert predicate_sql(Predicate("ts", "range", "number", lo=5)) == "ts >= 5"

    def test_one_sided_high(self):
        assert predicate_sql(Predicate("ts", "range", "number", hi=5)) == "ts <= 5"

    def test_where_empty_when_no_predicates(self):
        q = Query("SUM", "a", (), ("k",))
        assert where_sql(q) == ""


def _q(agg, preds=(), keys=("k",)):
    return Query(agg, "a", tuple(preds), keys)


class TestBuildSQL:
    @pytest.mark.parametrize("agg", [a for a in PAPER_AGGS
                                     if a not in ("ENTROPY", "MAD", "KURTOSIS")])
    def test_simple_aggs_shape(self, agg):
        sql = build_sql(_q(agg), "R")
        assert sql.startswith("SELECT k, ")
        assert "AS feature FROM R" in sql
        assert sql.endswith("GROUP BY k")

    def test_count_distinct(self):
        assert "COUNT(DISTINCT a)" in build_sql(_q("COUNT_DISTINCT"), "R")

    @pytest.mark.parametrize("agg", ["ENTROPY", "MAD"])
    def test_two_level_shared_dialects(self, agg):
        s1 = build_sql(_q(agg), "R", "spark")
        s2 = build_sql(_q(agg), "R", "duckdb")
        assert s1 == s2
        assert s1.startswith("WITH flt AS")

    def test_kurtosis_dialects_differ(self):
        spark = build_sql(_q("KURTOSIS"), "R", "spark")
        duck = build_sql(_q("KURTOSIS"), "R", "duckdb")
        assert "KURTOSIS(a)" in spark
        assert "POW" in duck and "KURTOSIS" not in duck

    def test_predicates_rendered_in_where(self):
        q = _q("SUM", [Predicate("d", "eq", "string", value="x"),
                       Predicate("t", "range", "number", lo=1, hi=2)])
        sql = build_sql(q, "R")
        assert "WHERE d = 'x' AND t >= 1 AND t <= 2" in sql

    def test_composite_keys(self):
        q = Query("AVG", "a", (), ("k1", "k2"))
        sql = build_sql(q, "R")
        assert "SELECT k1, k2," in sql and sql.endswith("GROUP BY k1, k2")

    def test_two_level_with_predicate_and_composite_keys(self):
        q = Query("MAD", "a", (Predicate("d", "eq", "string", value="x"),), ("k1", "k2"))
        sql = build_sql(q, "R")
        assert "WHERE d = 'x'" in sql
        assert "flt.k1 = st.k1 AND flt.k2 = st.k2" in sql

    def test_unknown_agg_and_dialect(self):
        with pytest.raises(ValueError):
            build_sql(Query("FOO", "a", (), ("k",)), "R")
        with pytest.raises(ValueError):
            build_sql(_q("SUM"), "R", dialect="mysql")


class TestQTIPure:
    """identify_templates over a synthetic effectiveness function."""

    UNIVERSE = ("A", "B", "C", "D", "E", "F")

    @staticmethod
    def _eff(combo):
        # planted: {A, C} is the best pair; singletons A > C > rest
        s = set(combo)
        score = 0.0
        score += 2.0 if "A" in s else 0.0
        score += 1.0 if "C" in s else 0.0
        score += 1.5 if {"A", "C"} <= s else 0.0
        return score - 0.1 * len(s)

    def test_finds_planted_combo(self):
        combos, stats = identify_templates(
            self.UNIVERSE, self._eff, TINY.scaled(qti_beam=2, qti_depth=3),
            n_templates=3)
        assert ("A", "C") in [c[:2] if len(c) >= 2 else c for c in combos] or \
               any(set(c) >= {"A", "C"} for c in combos)

    def test_layer1_evaluates_all_singletons(self):
        _, stats = identify_templates(self.UNIVERSE, self._eff,
                                      TINY.scaled(qti_beam=1, qti_depth=2),
                                      n_templates=2)
        assert stats.layer_sizes[0] == len(self.UNIVERSE)

    def test_predictor_prunes_children(self):
        _, with_pred = identify_templates(self.UNIVERSE, self._eff,
                                          TINY.scaled(qti_beam=2, qti_depth=3),
                                          n_templates=2, use_predictor=True)
        _, no_pred = identify_templates(self.UNIVERSE, self._eff,
                                        TINY.scaled(qti_beam=2, qti_depth=3),
                                        n_templates=2, use_predictor=False)
        assert with_pred.n_nodes_evaluated < no_pred.n_nodes_evaluated
        assert with_pred.n_nodes_predicted_only > 0

    def test_cost_bound_matches_paper_formula(self):
        # (|attr| + Σ_{i=2}^{depth} β) · cost_p with the O2 predictor
        beta, depth = 2, 3
        _, stats = identify_templates(self.UNIVERSE, self._eff,
                                      TINY.scaled(qti_beam=beta, qti_depth=depth),
                                      n_templates=2, use_predictor=True)
        assert stats.n_nodes_evaluated <= len(self.UNIVERSE) + (depth - 1) * beta

    def test_returns_requested_count(self):
        combos, _ = identify_templates(self.UNIVERSE, self._eff,
                                       TINY.scaled(qti_beam=1, qti_depth=2),
                                       n_templates=4)
        assert len(combos) == 4
        assert len(set(map(tuple, combos))) == 4

    def test_depth_capped_by_universe(self):
        combos, _ = identify_templates(("A", "B"), self._eff,
                                       TINY.scaled(qti_beam=1, qti_depth=5),
                                       n_templates=2)
        assert all(len(c) <= 2 for c in combos)


class TestTemplatePredictor:
    def test_learns_additive_scores(self):
        u = ("A", "B", "C")
        combos = [("A",), ("B",), ("C",), ("A", "B")]
        scores = [3.0, 1.0, 0.5, 4.0]
        p = TemplatePredictor(u, alpha=0.01).fit(combos, scores)
        pred = p.predict([("A", "C"), ("B", "C")])
        assert pred[0] > pred[1]  # A-containing combo predicted stronger
