"""Tree-structured Parzen Estimator over finite-domain spaces (§V-B).

hyperopt is not installed, so this reimplements Bergstra et al. (2011)'s
categorical TPE, which is exactly what FeatAug needs: every query-vector
dimension (agg function, agg attr, predicate value grids, key bits) is a
finite domain (§V-A / Example 10).

Mechanics per ``suggest`` call, given the observation history (config tuple,
loss to *minimise*):

1. split observations into "good" (best ``GAMMA`` quantile, the paper's
   10–15%) and "bad";
2. per dimension, build smoothed count densities ``Pg`` / ``Pb`` (Laplace
   ``PRIOR`` = uniform Parzen prior over the options);
3. draw ``N_CANDIDATES`` configs from ``Pg`` and keep the one maximising
   ``Σ log Pg − log Pb`` — the Expected-Improvement surrogate being the
   density ratio — preferring configurations not yet evaluated.

Warm-starting (§V-C) is just seeding the history with proxy-selected,
real-evaluated observations before the loop.
"""
from __future__ import annotations

import math

import numpy as np

Config = tuple[int, ...]
Trial = tuple[Config, float]

#: share of observations that are "good"
GAMMA = 0.15
#: candidates drawn from Pg per suggestion
N_CANDIDATES = 24
#: Laplace pseudo-count per option
PRIOR = 1.0
#: random suggestions before the densities take over, in a cold-started run
N_STARTUP = 6


class TPE:
    def __init__(self, shape: tuple[int, ...], *, seed: int = 0,
                 n_startup: int = N_STARTUP):
        if any(s < 1 for s in shape):
            raise ValueError("every dimension needs at least one option")
        self.shape = shape
        self.n_startup = n_startup
        self.rng = np.random.default_rng(seed)

    # -- densities ----------------------------------------------------------
    def _density(self, configs: list[Config], dim: int) -> np.ndarray:
        k = self.shape[dim]
        counts = np.full(k, PRIOR)
        for c in configs:
            counts[c[dim]] += 1.0
        return counts / counts.sum()

    def _random(self) -> Config:
        return tuple(int(self.rng.integers(0, s)) for s in self.shape)

    def suggest(self, trials: list[Trial]) -> Config:
        """Next configuration to evaluate, given (config, loss) history."""
        seen = {c for c, _ in trials}
        if len(trials) < self.n_startup:
            for _ in range(50):
                c = self._random()
                if c not in seen:
                    return c
            return self._random()
        order = sorted(trials, key=lambda t: t[1])
        n_good = max(1, math.ceil(GAMMA * len(order)))
        good = [c for c, _ in order[:n_good]]
        bad = [c for c, _ in order[n_good:]] or good
        pg = [self._density(good, d) for d in range(len(self.shape))]
        pb = [self._density(bad, d) for d in range(len(self.shape))]
        log_ratio = [np.log(g) - np.log(b) for g, b in zip(pg, pb)]

        best, best_score = None, -np.inf
        fallback, fallback_score = None, -np.inf
        for _ in range(N_CANDIDATES):
            c = tuple(
                int(self.rng.choice(self.shape[d], p=pg[d]))
                for d in range(len(self.shape))
            )
            score = float(sum(log_ratio[d][c[d]] for d in range(len(self.shape))))
            if score > fallback_score:
                fallback, fallback_score = c, score
            if c not in seen and score > best_score:
                best, best_score = c, score
        if best is not None:
            return best
        # all candidates already seen — perturb the best-scoring one
        c = list(fallback)
        d = int(self.rng.integers(0, len(self.shape)))
        c[d] = int(self.rng.integers(0, self.shape[d]))
        return tuple(c)


def run_tpe(objective, shape: tuple[int, ...], n_iters: int, *, seed: int = 0,
            warm_start: list[Trial] | None = None,
            n_startup: int = N_STARTUP) -> list[Trial]:
    """Drive a TPE loop: ``objective(config) -> loss`` (lower is better).

    Returns the full trial history (warm-start observations included).
    A warm start replaces the ``n_startup`` random suggestions: the seeded
    observations already give the densities something to model.
    Objective values that are NaN are recorded as +inf so broken
    configurations (e.g. degenerate queries) are never "good".
    """
    trials: list[Trial] = list(warm_start or [])
    tpe = TPE(shape, seed=seed, n_startup=0 if trials else n_startup)
    for _ in range(n_iters):
        cfg = tpe.suggest(trials)
        loss = float(objective(cfg))
        if math.isnan(loss):
            loss = float("inf")
        trials.append((cfg, loss))
    return trials
