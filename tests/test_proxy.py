"""Low-cost proxies: MI, Spearman, LR."""
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluator import DownstreamEvaluator, make_splits
from repro.core.executor import FeatureFrame
from repro.core.proxy import _bin_feature, make_proxy, mutual_information, spearman


class TestBinning:
    def test_nan_own_bin(self):
        x = np.array([1.0, np.nan, 2.0, np.nan])
        b = _bin_feature(x, 4)
        assert (b[[1, 3]] == -1).all()
        assert (b[[0, 2]] >= 0).all()

    def test_all_nan(self):
        assert (_bin_feature(np.array([np.nan, np.nan]), 4) == -1).all()

    def test_quantile_bins_roughly_balanced(self):
        x = np.random.default_rng(0).normal(0, 1, 1000)
        b = _bin_feature(x, 4)
        counts = np.bincount(b)
        assert counts.min() > 150


class TestMI:
    def test_dependent_beats_independent(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 2000)
        x_dep = y + 0.3 * rng.normal(0, 1, 2000)
        x_ind = rng.normal(0, 1, 2000)
        assert mutual_information(x_dep, y) > mutual_information(x_ind, y) + 0.2

    def test_perfect_dependency_close_to_entropy(self):
        y = np.array([0, 1] * 500)
        x = y.astype(float)
        assert mutual_information(x, y) == pytest.approx(1.0, abs=0.05)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert mutual_information(rng.normal(0, 1, 200), rng.integers(0, 3, 200)) >= 0.0

    def test_regression_labels_binned(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 1000)
        x = y + 0.1 * rng.normal(0, 1, 1000)
        assert mutual_information(x, y, task="regression") > 0.5

    def test_constant_feature_zero(self):
        y = np.array([0, 1] * 100)
        assert mutual_information(np.ones(200), y) == pytest.approx(0.0, abs=1e-9)


class TestSpearman:
    def test_monotonic_is_one(self):
        x = np.arange(100, dtype=float)
        assert spearman(x, np.exp(x / 20)) == pytest.approx(1.0)

    def test_anti_monotonic_abs(self):
        x = np.arange(100, dtype=float)
        assert spearman(x, -x) == pytest.approx(1.0)

    def test_constant_zero(self):
        assert spearman(np.ones(50), np.arange(50.0)) == 0.0

    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        assert spearman(rng.normal(0, 1, 2000), rng.normal(0, 1, 2000)) < 0.1


def _evaluator(n=600, seed=0):
    """An LR evaluator on a toy binary table, plus a signal and a noise
    feature keyed like it."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    D = pd.DataFrame({"k": np.arange(n), "b1": rng.normal(0, 1, n),
                      "b2": rng.normal(0, 1, n), "label": y})
    ev = DownstreamEvaluator(make_splits(D, ("k",), ("b1", "b2"), "binary"), "LR")
    sig = y + 0.2 * rng.normal(0, 1, n)
    feats = [FeatureFrame(name, ("k",), pd.DataFrame({"k": D.k, name: x}))
             for name, x in (("sig", sig), ("noise", rng.normal(0, 1, n)))]
    return ev, feats


class TestMakeProxy:
    def test_mi_and_sc_callables(self):
        ev, (sig, noise) = _evaluator()
        for name in ("MI", "SC"):
            p = make_proxy(name, ev)
            assert p(sig) > p(noise)

    def test_mi_and_sc_read_the_train_column(self):
        ev, (sig, _) = _evaluator()
        x, y = ev.features("train", [sig])[:, 0], ev.splits.labels("train")
        assert make_proxy("MI", ev)(sig) == mutual_information(x, y)
        assert make_proxy("SC", ev)(sig) == spearman(x, y)

    def test_lr_scores_signal_higher(self):
        ev, (sig, noise) = _evaluator(seed=4)
        p = make_proxy("LR", ev)
        assert p(sig) > p(noise)

    def test_unknown_raises(self):
        ev, _ = _evaluator()
        with pytest.raises(ValueError):
            make_proxy("XGB", ev)
