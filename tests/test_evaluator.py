"""Split handling and downstream evaluation (pandas/numpy only)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluator import DownstreamEvaluator, make_splits
from repro.core.executor import FeatureFrame, merge_features


def _toy_table(n=300, seed=0):
    rng = np.random.default_rng(seed)
    sig = rng.normal(0, 1, n)
    return pd.DataFrame({
        "k": np.arange(n),
        "b1": rng.normal(0, 1, n),
        "sig": sig,
        "label": (sig + 0.4 * rng.normal(0, 1, n) > 0).astype(int),
    }), sig


class TestMakeSplits:
    def test_ratios(self):
        D, _ = _toy_table(1000)
        s = make_splits(D, ("k",), ("b1",), "binary", seed=0)
        assert len(s.train) == 600 and len(s.valid) == 200 and len(s.test) == 200

    def test_disjoint_and_complete(self):
        D, _ = _toy_table(200)
        s = make_splits(D, ("k",), ("b1",), "binary", seed=1)
        ks = np.concatenate([s.train.k, s.valid.k, s.test.k])
        assert len(ks) == 200 and len(set(ks)) == 200

    def test_seed_changes_split(self):
        D, _ = _toy_table(200)
        a = make_splits(D, ("k",), ("b1",), "binary", seed=0)
        b = make_splits(D, ("k",), ("b1",), "binary", seed=1)
        assert set(a.train.k) != set(b.train.k)

    def test_bad_ratios_raise(self):
        D, _ = _toy_table(50)
        with pytest.raises(ValueError):
            make_splits(D, ("k",), ("b1",), "binary", ratios=(0.5, 0.5, 0.5))


def _feature(D: pd.DataFrame, col: str, name: str) -> FeatureFrame:
    f = D[["k", col]].rename(columns={col: name})
    return FeatureFrame(name=name, keys=("k",), frame=f)


class TestMergeFeatures:
    def test_left_join_and_fill(self):
        base = pd.DataFrame({"k": [1, 2, 3, 4, 5], "x": [0.0] * 5})
        f = FeatureFrame("f1", ("k",), pd.DataFrame(
            {"k": [1, 3, 4, 5], "f1": [5.0, 7.0, np.nan, -np.inf]}))
        out = merge_features(base, [f])
        # absent key 2 and the NULL aggregate of present key 4 both read 0;
        # inf is left for the model-input step to clamp
        assert out[:, 0].tolist() == [5.0, 0.0, 7.0, 0.0, -np.inf]

    def test_composite_key_merge(self):
        base = pd.DataFrame({"a": [1, 1], "b": [1, 2], "x": [0, 0]})
        f = FeatureFrame("g", ("a", "b"),
                         pd.DataFrame({"a": [1], "b": [2], "g": [9.0]}))
        out = merge_features(base, [f])
        assert out[:, 0].tolist() == [0.0, 9.0]

    def test_no_features_noop(self):
        base = pd.DataFrame({"k": [1]})
        assert merge_features(base, []).shape == (1, 0)


class TestDownstreamEvaluator:
    def test_signal_feature_lowers_loss(self):
        D, _ = _toy_table(400)
        s = make_splits(D, ("k",), ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        base_loss = ev.valid_loss([])
        sig_loss = ev.valid_loss([_feature(D, "sig", "f_sig")])
        assert sig_loss < base_loss - 0.1

    def test_evaluate_reports_test_metric(self):
        D, _ = _toy_table(400)
        s = make_splits(D, ("k",), ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        res = ev.evaluate([_feature(D, "sig", "f")])
        assert 0.8 < res.test_metric <= 1.0
        assert res.valid_loss == pytest.approx(1 - res.valid_metric)
        assert res.n_features == 1 and res.feature_names == ("f",)

    def test_counts_fits(self):
        D, _ = _toy_table(200)
        s = make_splits(D, ("k",), ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        ev.valid_loss([])
        ev.valid_loss([])
        assert ev.n_fits == 2

    def test_feature_on_aligns_rows(self):
        D, _ = _toy_table(100)
        s = make_splits(D, ("k",), ("b1",), "binary", seed=0)
        ev = DownstreamEvaluator(s, "LR", seed=0)
        x = ev.features("train", [_feature(D, "sig", "f")])[:, 0]
        expected = D.set_index("k").loc[s.train["k"], "sig"].to_numpy()
        np.testing.assert_allclose(x, expected)

    def test_deterministic(self):
        D, _ = _toy_table(200)
        s = make_splits(D, ("k",), ("b1",), "binary", seed=0)
        r1 = DownstreamEvaluator(s, "XGB", seed=2).evaluate([])
        r2 = DownstreamEvaluator(s, "XGB", seed=2).evaluate([])
        assert r1.test_metric == r2.test_metric
