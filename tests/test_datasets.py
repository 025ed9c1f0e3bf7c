"""Synthetic dataset generators: schema contracts + planted-signal checks."""
import numpy as np
import pytest
from pyspark.sql import types as T

from repro.core.proxy import mutual_information
from repro.datasets import ONE_TO_MANY, ONE_TO_ONE, make_dataset

ALL = {**ONE_TO_MANY, **ONE_TO_ONE}
SCALE = 0.12


@pytest.fixture(scope="module")
def bundles(spark):
    return {n: g(spark, scale=SCALE, seed=7) for n, g in ALL.items()}


@pytest.mark.parametrize("name", list(ALL))
class TestSchema:
    def test_keys_unique_in_D(self, bundles, name):
        b = bundles[name]
        assert not b.D_pandas.duplicated(subset=list(b.keys)).any()

    def test_label_present_and_valid(self, bundles, name):
        b = bundles[name]
        lbl = b.D_pandas["label"]
        if b.task == "binary":
            assert set(lbl.unique()) == {0, 1}
        elif b.task == "multiclass":
            assert len(set(lbl.unique())) >= 3
        else:
            assert lbl.dtype.kind == "f"

    def test_where_attrs_exist_in_R(self, bundles, name):
        b = bundles[name]
        rcols = set(b.R.columns)
        assert set(b.where_attrs) <= rcols
        assert set(b.agg_attrs) <= rcols
        assert set(b.keys) <= rcols

    def test_base_features_numeric_in_D(self, bundles, name):
        b = bundles[name]
        for c in b.base_features:
            assert np.issubdtype(b.D_pandas[c].dtype, np.number), c

    def test_deterministic(self, spark, bundles, name):
        b2 = make_dataset(name, spark, scale=SCALE, seed=7)
        assert b2.D_pandas.equals(bundles[name].D_pandas)

    def test_splits_ratios(self, bundles, name):
        s = bundles[name].splits(0)
        n = len(bundles[name].D_pandas)
        assert len(s.train) == int(n * 0.6)
        assert len(s.train) + len(s.valid) + len(s.test) == n


@pytest.mark.parametrize("name", list(ONE_TO_MANY))
def test_one_to_many_relationship(bundles, name):
    b = bundles[name]
    per_key = b.R.groupBy(*b.keys).count().toPandas()["count"]
    assert per_key.mean() > 3  # genuinely one-to-many


@pytest.mark.parametrize("name", list(ONE_TO_ONE))
def test_one_to_one_relationship(bundles, name):
    b = bundles[name]
    assert b.R.count() == len(b.D_pandas)


class TestPlantedSignal:
    """The predicate-aware aggregation must carry more label information
    than its predicate-free counterpart — the contract that makes the paper's
    FeatAug-vs-Featuretools comparison meaningful on synthetic data."""

    def _mi(self, b, series):
        D = b.D_pandas
        x = series.reindex(
            D.set_index(list(b.keys)).index if len(b.keys) > 1 else D[b.keys[0]],
            fill_value=0.0,
        ).to_numpy(dtype=float)
        return mutual_information(x, D["label"].to_numpy(), task=b.task)

    def test_tmall_recency_predicate_beats_plain_count(self, bundles):
        b = bundles["Tmall"]
        R = b.R.toPandas()
        keys = list(b.keys)
        sig = R[(R.action_type == "purchase") & (R.ts_day >= 150)].groupby(keys).size()
        plain = R.groupby(keys).size()
        assert self._mi(b, sig) > self._mi(b, plain)

    def test_instacart_predicate_beats_plain_count(self, bundles):
        b = bundles["Instacart"]
        R = b.R.toPandas()
        sig = R[(R.department == "produce") & (R.reordered == 1)
                & (R.days_ago <= 90)].groupby("user_id").size()
        plain = R.groupby("user_id").size()
        assert self._mi(b, sig) > self._mi(b, plain)

    def test_student_checkpoint_elapsed_signal(self, bundles):
        b = bundles["Student"]
        R = b.R.toPandas()
        sig = R[(R.event_name == "checkpoint") & R.level.between(5, 15)] \
            .groupby("session_id")["elapsed"].mean()
        plain = R.groupby("session_id")["elapsed"].mean()
        assert self._mi(b, sig) > self._mi(b, plain)

    def test_merchant_grocery_sum_signal(self, bundles):
        b = bundles["Merchant"]
        R = b.R.toPandas()
        sig = R[(R.category_2 == "groceries") & (R.month_lag >= -3)] \
            .groupby("merchant_id")["purchase_amount"].sum()
        plain = R.groupby("merchant_id")["purchase_amount"].sum()
        assert self._mi(b, sig) > self._mi(b, plain)


def test_make_dataset_unknown_raises(spark):
    with pytest.raises(KeyError):
        make_dataset("Imagenet", spark)


def test_tmall_composite_key(bundles):
    assert bundles["Tmall"].keys == ("user_id", "merchant_id")


def test_merchant_label_std_near_four(spark):
    b = make_dataset("Merchant", spark, scale=0.5, seed=7)
    assert 3.0 < b.D_pandas["label"].std() < 5.0
