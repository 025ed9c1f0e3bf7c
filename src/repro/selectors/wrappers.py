"""Wrapper selectors: Forward / Backward greedy search (§VII-A3).

Forward adds, per step, the candidate whose inclusion most improves the
downstream model's validation metric; Backward starts from the pool and
removes the most harmful feature per step.

Budget substitution (DESIGN.md §5): a full wrapper pass is
O(n·|pool|) downstream-model fits, infeasible for the DeepFM grid, so the
pool is pre-screened to ``selector_pool_cap`` by MI and each greedy step
scores a random sample of ``selector_sample_cap`` candidates — classic
stochastic-greedy selection.
"""
from __future__ import annotations

import numpy as np

from repro.core.config import BENCH, BudgetProfile
from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import FeatureFrame
from repro.selectors.filters import mi_select


def _prescreen(pool, evaluator, cap: int):
    return mi_select(pool, evaluator, cap) if len(pool) > cap else list(pool)


def forward_select(pool: list[FeatureFrame], evaluator: DownstreamEvaluator,
                   n: int, *, seed: int = 0, budget: BudgetProfile | None = None):
    budget = budget or BENCH
    cand = _prescreen(pool, evaluator, budget.selector_pool_cap)
    rng = np.random.default_rng(seed)
    chosen: list[FeatureFrame] = []
    while len(chosen) < n and cand:
        k = min(budget.selector_sample_cap, len(cand))
        sample_idx = rng.choice(len(cand), size=k, replace=False)
        losses = [evaluator.valid_loss([*chosen, cand[i]]) for i in sample_idx]
        j = int(np.argmin(losses))
        chosen.append(cand.pop(int(sample_idx[j])))
    return chosen


def backward_select(pool: list[FeatureFrame], evaluator: DownstreamEvaluator,
                    n: int, *, seed: int = 0, budget: BudgetProfile | None = None):
    budget = budget or BENCH
    chosen = _prescreen(pool, evaluator, budget.selector_pool_cap)
    rng = np.random.default_rng(seed)
    while len(chosen) > n:
        k = min(budget.selector_sample_cap, len(chosen))
        sample_idx = rng.choice(len(chosen), size=k, replace=False)
        losses = [
            evaluator.valid_loss([f for j, f in enumerate(chosen) if j != i])
            for i in sample_idx
        ]
        worst = int(sample_idx[int(np.argmin(losses))])
        chosen.pop(worst)
    return chosen
