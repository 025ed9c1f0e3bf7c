"""QueryExecutor: Catalyst execution and memoisation; Definition-3 merge."""
from types import SimpleNamespace

import numpy as np
import pandas as pd

from repro.core.executor import merge_features
from repro.core.space import Predicate, Query
from repro.core.sqlgen import build_sql
from repro.oracle import assert_equivalent


class TestFeatureFrame:
    def test_matches_pandas_groupby(self, lineitem_executor, lineitem_small):
        q = Query("SUM", "l_extendedprice", (), ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "f_sum")
        pdf = lineitem_small.toPandas()
        expected = pdf.groupby("l_orderkey")["l_extendedprice"].sum()
        got = f.frame.set_index("l_orderkey")["f_sum"]
        pd.testing.assert_series_equal(got.sort_index(), expected.sort_index(),
                                       check_names=False, rtol=1e-9)

    def test_predicate_filters_rows(self, lineitem_executor, lineitem_small):
        q = Query("COUNT", "l_quantity",
                  (Predicate("l_returnflag", "eq", "string", value="N"),),
                  ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "f_cnt")
        pdf = lineitem_small.toPandas()
        expected = pdf[pdf.l_returnflag == "N"].groupby("l_orderkey").size()
        got = f.frame.set_index("l_orderkey")["f_cnt"]
        pd.testing.assert_series_equal(got.sort_index().astype(int),
                                       expected.sort_index().astype(int),
                                       check_names=False)

    def test_frame_columns_are_keys_plus_name(self, lineitem_executor):
        q = Query("AVG", "l_quantity", (), ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "myfeat")
        assert list(f.frame.columns) == ["l_orderkey", "myfeat"]
        assert f.keys == ("l_orderkey",)
        assert f.sql == build_sql(q, lineitem_executor.view)


class TestMemoisation:
    def test_cache_hit_on_repeat(self, lineitem_executor):
        q = Query("MIN", "l_quantity", (), ("l_orderkey",))
        before_q = lineitem_executor.n_queries
        lineitem_executor.feature_frame(q, "a")
        mid_hits = lineitem_executor.n_cache_hits
        lineitem_executor.feature_frame(q, "b")  # same SQL, new name
        assert lineitem_executor.n_queries == before_q + 1
        assert lineitem_executor.n_cache_hits == mid_hits + 1

    def test_renamed_output_does_not_mutate_cache(self, lineitem_executor):
        q = Query("MAX", "l_quantity", (), ("l_orderkey",))
        a = lineitem_executor.feature_frame(q, "n1")
        b = lineitem_executor.feature_frame(q, "n2")
        assert "n1" in a.frame.columns and "n2" in b.frame.columns


class TestAugment:
    """merge_features is Definition 3: D LEFT JOIN q(R), absent groups → 0."""

    def test_definition3_matches_oracle(self, lineitem_executor, lineitem_small):
        # D keyed by the composite (l_orderkey, l_linenumber); one feature
        # joins on the full key, one on the subset (l_orderkey,), and D
        # holds a key that no q(R) row has.
        pdf = lineitem_small.toPandas()
        D = pdf[["l_orderkey", "l_linenumber"]].drop_duplicates().head(200)
        missing = int(pdf["l_orderkey"].max()) + 10_000
        D = pd.concat([D, pd.DataFrame({"l_orderkey": [missing], "l_linenumber": [1]})],
                      ignore_index=True)
        D["base"] = np.arange(len(D), dtype=float)
        q_full = Query("AVG", "l_extendedprice",
                       (Predicate("l_quantity", "range", "number", lo=10),),
                       ("l_orderkey", "l_linenumber"))
        q_sub = Query("COUNT", "l_quantity",
                      (Predicate("l_returnflag", "eq", "string", value="N"),),
                      ("l_orderkey",))
        feats = [lineitem_executor.feature_frame(q_full, "f_full"),
                 lineitem_executor.feature_frame(q_sub, "f_sub")]
        merged = D.assign(**dict(zip(["f_full", "f_sub"], merge_features(D, feats).T)))
        oracle_sql = (
            f"WITH q1 AS ({build_sql(q_full, 'li', 'duckdb')}), "
            f"q2 AS ({build_sql(q_sub, 'li', 'duckdb')}) "
            "SELECT d.l_orderkey, d.l_linenumber, d.base, "
            "COALESCE(q1.feature, 0) AS f_full, COALESCE(q2.feature, 0) AS f_sub "
            "FROM d LEFT JOIN q1 ON d.l_orderkey = q1.l_orderkey "
            "AND d.l_linenumber = q1.l_linenumber "
            "LEFT JOIN q2 ON d.l_orderkey = q2.l_orderkey"
        )
        assert_equivalent(SimpleNamespace(toPandas=lambda: merged), oracle_sql,
                          d=D, li=lineitem_small)

    def test_missing_groups_filled_zero(self, lineitem_executor):
        q = Query("COUNT", "l_quantity",
                  (Predicate("l_returnflag", "eq", "string", value="N"),),
                  ("l_orderkey",))
        f = lineitem_executor.feature_frame(q, "cnt_n")
        missing_key = int(f.frame["l_orderkey"].max()) + 10_000
        D = pd.DataFrame({"l_orderkey": [missing_key]})
        assert merge_features(D, [f]).tolist() == [[0.0]]
