"""Domain profiling and query-vector spaces over Spark DataFrames."""
import numpy as np
import pandas as pd
import pytest

from repro.core.space import QuerySpace, lift_config, profile_domains
from repro.core.template import QueryTemplate


@pytest.fixture(scope="module")
def typed_df(spark):
    pdf = pd.DataFrame({
        "cat": ["a", "a", "a", "b", "b", "c"] * 20,
        "num_i": list(range(120)),
        "num_f": np.linspace(0.0, 1.0, 120),
        "d": pd.to_datetime("2023-01-01") + pd.to_timedelta(range(120), unit="D"),
        "flag": [True, False] * 60,
    })
    pdf["d_date"] = pdf["d"].dt.date
    return spark.createDataFrame(pdf)


class TestProfileDomains:
    def test_categorical_string(self, typed_df):
        d = profile_domains(typed_df, ["cat"], cat_cap=2)["cat"]
        assert d.kind == "categorical" and d.sql_type == "string"
        assert d.values == ("a", "b")  # top-2 by frequency

    def test_boolean_is_categorical(self, typed_df):
        d = profile_domains(typed_df, ["flag"])["flag"]
        assert d.kind == "categorical"
        assert {v.lower() for v in d.values} == {"true", "false"}

    def test_integer_grid(self, typed_df):
        d = profile_domains(typed_df, ["num_i"], grid=5)["num_i"]
        assert d.kind == "numeric" and d.sql_type == "number"
        assert all(isinstance(v, int) for v in d.values)
        assert d.values[0] == 0 and d.values[-1] == 119

    def test_float_grid_sorted_unique(self, typed_df):
        d = profile_domains(typed_df, ["num_f"], grid=9)["num_f"]
        assert list(d.values) == sorted(set(d.values))

    def test_timestamp_grid(self, typed_df):
        d = profile_domains(typed_df, ["d"], grid=5)["d"]
        assert d.sql_type == "timestamp"
        assert d.values[0].startswith("2023-01-01")

    def test_date_grid(self, typed_df):
        d = profile_domains(typed_df, ["d_date"], grid=5)["d_date"]
        assert d.sql_type == "date"
        assert d.values[0] == "2023-01-01"

    def test_missing_attr_raises(self, typed_df):
        with pytest.raises(KeyError):
            profile_domains(typed_df, ["nope"])


@pytest.fixture(scope="module")
def space(typed_df):
    domains = profile_domains(typed_df, ["cat", "num_i"], cat_cap=3, grid=5)
    t = QueryTemplate(("SUM", "AVG", "COUNT"), ("num_f",),
                      ("cat", "num_i"), ("k1", "k2"))
    return QuerySpace(t, domains)


class TestQuerySpace:
    def test_dims(self, space):
        names = [d.name for d in space.dims]
        assert names == ["agg", "agg_attr", "eq:cat", "lo:num_i", "hi:num_i",
                         "key:k1", "key:k2"]
        # None + 3 cat values; None + 5 grid points
        assert space.shape == (3, 1, 4, 6, 6, 2, 2)

    def test_sample_in_bounds(self, space):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cfg = space.sample(rng)
            assert all(0 <= c < s for c, s in zip(cfg, space.shape))

    def test_decode_no_predicates(self, space):
        q = space.decode((0, 0, 0, 0, 0, 1, 1))
        assert q.agg == "SUM" and q.agg_attr == "num_f"
        assert q.predicates == ()
        assert q.keys == ("k1", "k2")

    def test_decode_eq_predicate(self, space):
        q = space.decode((1, 0, 1, 0, 0, 1, 0))
        (p,) = q.predicates
        assert p.kind == "eq" and p.attr == "cat"
        assert q.keys == ("k1",)  # key subset (k ⊆ K)

    def test_decode_range_swaps_bounds(self, space):
        lo_opts = space.dims[3].options
        q = space.decode((0, 0, 0, 5, 1, 1, 1))  # lo option > hi option
        (p,) = q.predicates
        assert p.lo <= p.hi
        assert p.lo == lo_opts[1] and p.hi == lo_opts[5]

    def test_decode_one_sided(self, space):
        q = space.decode((0, 0, 0, 2, 0, 1, 1))
        (p,) = q.predicates
        assert p.hi is None and p.lo is not None

    def test_all_zero_keys_fall_back_to_full_key(self, space):
        q = space.decode((0, 0, 0, 0, 0, 0, 0))
        assert q.keys == ("k1", "k2")

    def test_single_key_has_no_key_dims(self, typed_df):
        domains = profile_domains(typed_df, ["cat"])
        t = QueryTemplate(("SUM",), ("num_f",), ("cat",), ("k",))
        s = QuerySpace(t, domains)
        assert [d.name for d in s.dims] == ["agg", "agg_attr", "eq:cat"]
        assert s.decode((0, 0, 0)).keys == ("k",)

    def test_wrong_config_length_raises(self, space):
        with pytest.raises(ValueError):
            space.decode((0, 0))


class TestLiftConfig:
    def test_parent_query_preserved(self, typed_df):
        domains = profile_domains(typed_df, ["cat", "num_i"], cat_cap=3, grid=5)
        t_parent = QueryTemplate(("SUM", "AVG"), ("num_f",), ("cat",), ("k",))
        t_child = QueryTemplate(("SUM", "AVG"), ("num_f",), ("cat", "num_i"), ("k",))
        sp, sc = QuerySpace(t_parent, domains), QuerySpace(t_child, domains)
        cfg = (1, 0, 2)  # AVG, num_f, cat = 2nd value
        lifted = lift_config(sp, sc, cfg)
        assert sp.decode(cfg) == sc.decode(lifted)  # same SQL in child pool
