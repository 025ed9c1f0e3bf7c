"""TPE: convergence, warm-start, API contracts."""
import numpy as np
import pytest

from repro.core.tpe import TPE, run_tpe


def _planted_objective(shape, optimum, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)

    def f(cfg):
        dist = sum(c != o for c, o in zip(cfg, optimum))
        return dist + (noise * rng.normal() if noise else 0.0)

    return f


class TestSuggest:
    def test_respects_shape(self):
        tpe = TPE((3, 5, 2), seed=0)
        for _ in range(20):
            cfg = tpe.suggest([])
            assert len(cfg) == 3
            assert all(0 <= c < s for c, s in zip(cfg, (3, 5, 2)))

    def test_startup_avoids_repeats(self):
        tpe = TPE((4, 4), seed=0, n_startup=10)
        seen = []
        for _ in range(8):
            cfg = tpe.suggest([(c, 0.0) for c in seen])
            assert cfg not in seen
            seen.append(cfg)

    def test_exploits_good_region(self):
        # history strongly favours option 0 on every dim
        shape = (6, 6)
        trials = [((0, 0), 0.0), ((0, 1), 0.1), ((1, 0), 0.1)]
        trials += [((i, j), 10.0) for i in range(2, 6) for j in range(2, 6)]
        tpe = TPE(shape, seed=1, n_startup=1)
        hits = sum(tpe.suggest(trials + [((5, 5), 10.0 + k)])[0] <= 1 for k in range(10))
        assert hits >= 7

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            TPE((3, 0))


class TestRunTPE:
    def test_beats_random_on_planted_optimum(self):
        shape = (8, 8, 8)
        optimum = (3, 5, 1)
        f = _planted_objective(shape, optimum)
        trials = run_tpe(f, shape, 60, seed=0)
        best_tpe = min(l for _, l in trials)

        rng = np.random.default_rng(0)
        best_rand = min(
            f(tuple(int(rng.integers(0, s)) for s in shape)) for _ in range(60)
        )
        assert best_tpe <= best_rand
        assert best_tpe <= 1  # got within hamming distance 1 of the optimum

    def test_warm_start_helps(self):
        shape = (10, 10, 10, 10)
        optimum = (7, 2, 9, 4)
        f = _planted_objective(shape, optimum)
        near = [(tuple((o + d) % 10 for o in optimum), f(tuple((o + d) % 10 for o in optimum)))
                for d in (0, 1)]
        warm = run_tpe(f, shape, 15, seed=3, warm_start=near, n_startup=0)
        cold = run_tpe(f, shape, 15, seed=3)
        assert min(l for _, l in warm) <= min(l for _, l in cold)

    def test_warm_start_replaces_random_startup(self):
        shape = (6, 6, 6)
        f = _planted_objective(shape, (1, 4, 2))
        near = [((1, 4, 3), f((1, 4, 3))), ((0, 4, 2), f((0, 4, 2)))]
        assert (run_tpe(f, shape, 8, seed=2, warm_start=near)
                == run_tpe(f, shape, 8, seed=2, warm_start=near, n_startup=0))

    def test_history_includes_warm_start(self):
        f = _planted_objective((3, 3), (0, 0))
        seed_obs = [((2, 2), 4.0)]
        trials = run_tpe(f, (3, 3), 5, warm_start=seed_obs)
        assert trials[0] == ((2, 2), 4.0)
        assert len(trials) == 6

    def test_nan_objective_recorded_as_inf(self):
        trials = run_tpe(lambda cfg: float("nan"), (4,), 3, seed=0)
        assert all(l == float("inf") for _, l in trials)

    def test_deterministic(self):
        f = _planted_objective((5, 5), (1, 1))
        t1 = run_tpe(f, (5, 5), 20, seed=9)
        t2 = run_tpe(f, (5, 5), 20, seed=9)
        assert t1 == t2

    def test_single_option_dims(self):
        trials = run_tpe(lambda cfg: 1.0, (1, 1, 3), 5, seed=0)
        assert all(c[:2] == (0, 0) for c, _ in trials)
