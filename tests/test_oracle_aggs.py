"""DuckDB-oracle equivalence of every generated SQL shape.

Every aggregation function × predicate shape is rendered by
:mod:`repro.core.sqlgen` in both dialects and executed on Spark (Catalyst)
and DuckDB over identical TPC-H-lite input; rows must match. This is what
catches a wrong CTE for ENTROPY/MAD, a mis-rendered literal, or a kurtosis
semantics drift — not just "it ran".
"""
import pytest

from repro import synth_data
from repro.core.space import Predicate, Query
from repro.core.sqlgen import build_sql
from repro.core.template import PAPER_AGGS
from repro.oracle import assert_equivalent

# MODE is checked separately on tie-free data (tie-breaking is
# implementation-defined in both engines).
ORACLE_AGGS = [a for a in PAPER_AGGS if a != "MODE"]

PRED_SHAPES = {
    "none": (),
    "eq": (Predicate("l_returnflag", "eq", "string", value="N"),),
    "range": (Predicate("l_quantity", "range", "number", lo=10, hi=40),),
    "one_sided_ts": (Predicate("l_shipdate", "range", "timestamp",
                               lo="1994-01-01 00:00:00"),),
    "conjunction": (
        Predicate("l_returnflag", "eq", "string", value="A"),
        Predicate("l_quantity", "range", "number", lo=5, hi=45),
        Predicate("l_shipdate", "range", "timestamp",
                  hi="1997-06-01 00:00:00"),
    ),
}


@pytest.fixture(scope="module")
def li(spark, lineitem_small):
    lineitem_small.createOrReplaceTempView("li")
    return lineitem_small


@pytest.mark.parametrize("agg", ORACLE_AGGS)
@pytest.mark.parametrize("shape", list(PRED_SHAPES))
def test_spark_matches_duckdb(spark, li, agg, shape):
    q = Query(agg, "l_extendedprice", PRED_SHAPES[shape], ("l_orderkey",))
    spark_df = spark.sql(build_sql(q, "li", "spark"))
    assert_equivalent(spark_df, build_sql(q, "li", "duckdb"), li=li)


@pytest.mark.parametrize("agg", ["SUM", "AVG", "COUNT", "ENTROPY", "MEDIAN"])
def test_composite_group_keys(spark, li, agg):
    q = Query(agg, "l_quantity", (), ("l_orderkey", "l_linenumber"))
    spark_df = spark.sql(build_sql(q, "li", "spark"))
    assert_equivalent(spark_df, build_sql(q, "li", "duckdb"), li=li)


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "VAR", "MAD"])
def test_integer_agg_attr(spark, li, agg):
    q = Query(agg, "l_linenumber",
              (Predicate("l_returnflag", "eq", "string", value="R"),),
              ("l_orderkey",))
    spark_df = spark.sql(build_sql(q, "li", "spark"))
    assert_equivalent(spark_df, build_sql(q, "li", "duckdb"), li=li)


def test_mode_on_tie_free_data(spark):
    import pandas as pd
    pdf = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 2, 2],
        "v": [5.0, 5.0, 9.0, 1.0, 1.0, 1.0, 3.0],  # unique modes per group
    })
    spark.createDataFrame(pdf).createOrReplaceTempView("modes")
    q = Query("MODE", "v", (), ("k",))
    spark_df = spark.sql(build_sql(q, "modes", "spark"))
    assert_equivalent(spark_df, build_sql(q, "modes", "duckdb"), modes=pdf)


def test_date_predicate_literals(spark):
    import pandas as pd
    pdf = pd.DataFrame({
        "k": [1, 1, 2, 2],
        "d": pd.to_datetime(["2023-01-01", "2023-06-01", "2023-02-01", "2023-09-01"]).date,
        "v": [1.0, 2.0, 3.0, 4.0],
    })
    spark.createDataFrame(pdf).createOrReplaceTempView("dts")
    q = Query("SUM", "v",
              (Predicate("d", "range", "date", lo="2023-01-15", hi="2023-07-01"),),
              ("k",))
    spark_df = spark.sql(build_sql(q, "dts", "spark"))
    assert_equivalent(spark_df, build_sql(q, "dts", "duckdb"), dts=pdf)


def test_entropy_of_constant_group_is_zero(spark):
    import pandas as pd
    pdf = pd.DataFrame({"k": [1, 1, 1], "v": [4.0, 4.0, 4.0]})
    spark.createDataFrame(pdf).createOrReplaceTempView("ent1")
    q = Query("ENTROPY", "v", (), ("k",))
    row = spark.sql(build_sql(q, "ent1", "spark")).collect()[0]
    assert row["feature"] == pytest.approx(0.0)


def test_entropy_uniform_two_values_is_one_bit(spark):
    import pandas as pd
    pdf = pd.DataFrame({"k": [1] * 4, "v": [1.0, 1.0, 2.0, 2.0]})
    spark.createDataFrame(pdf).createOrReplaceTempView("ent2")
    q = Query("ENTROPY", "v", (), ("k",))
    row = spark.sql(build_sql(q, "ent2", "spark")).collect()[0]
    assert row["feature"] == pytest.approx(1.0)


def test_mad_hand_computed(spark):
    import pandas as pd
    pdf = pd.DataFrame({"k": [1] * 5, "v": [1.0, 2.0, 4.0, 8.0, 16.0]})
    # median=4; |v-4| = [3,2,0,4,12]; median = 3
    spark.createDataFrame(pdf).createOrReplaceTempView("madt")
    q = Query("MAD", "v", (), ("k",))
    row = spark.sql(build_sql(q, "madt", "spark")).collect()[0]
    assert row["feature"] == pytest.approx(3.0)


@pytest.mark.parametrize("agg", ["SUM", "KURTOSIS", "MAD"])
@pytest.mark.parametrize("dialect", ["spark", "duckdb"])
def test_double_space_literal_matches_its_rows(spark, agg, dialect):
    """A string literal reaches the engine as written: 'Acme  Co' (two
    spaces) selects its own rows, not those of 'Acme Co'. Expected rows come
    from pandas, not from another rendering of the same query."""
    import duckdb
    import pandas as pd
    pdf = pd.DataFrame({
        "k": [1, 1, 1, 1, 2, 2, 2, 2, 2],
        "brand": ["Acme  Co"] * 4 + ["Acme Co"] * 5,
        "v": [1.0, 2.0, 4.0, 9.0, 3.0, 5.0, 6.0, 10.0, 20.0],
    })
    q = Query(agg, "v", (Predicate("brand", "eq", "string", value="Acme  Co"),), ("k",))
    sql = build_sql(q, "dsp", dialect)
    assert "'Acme  Co'" in sql
    if dialect == "spark":
        spark.createDataFrame(pdf).createOrReplaceTempView("dsp")
        got = spark.sql(sql).toPandas()
    else:
        with duckdb.connect() as con:
            con.register("dsp", pdf)
            got = con.execute(sql).fetchdf()
    v = pdf.loc[pdf.brand == "Acme  Co", "v"]
    dev = v - v.mean()
    expected = {
        "SUM": v.sum(),
        "KURTOSIS": (dev ** 4).mean() / (dev ** 2).mean() ** 2 - 3,
        "MAD": (v - v.median()).abs().median(),
    }[agg]
    assert got["k"].tolist() == [1]
    assert got["feature"].iloc[0] == pytest.approx(expected)
