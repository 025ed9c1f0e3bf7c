"""Embedded selectors: LR / GBDT feature importances (§VII-A3).

"Featuretools + LR/GBDT Selector": fit the selector model on base features
plus the whole FT pool, rank the pooled features by the model's importance
(|coefficient| for LR, total split gain for GBDT), keep the top-n.
"""
from __future__ import annotations

import numpy as np

from repro.core.evaluator import DownstreamEvaluator
from repro.models.gbdt import GBDT
from repro.models.logistic import LogisticRegression


def _top_by_importance(pool, evaluator: DownstreamEvaluator, model, n: int):
    """Fit ``model`` on base + pool (train split) and keep the ``n`` pooled
    features it ranks most important."""
    s = evaluator.splits
    model.fit(evaluator.design("train", pool), s.labels("train"))
    pooled = model.feature_importances()[len(s.base_features):]
    order = np.argsort(-pooled, kind="stable")[:n]
    return [pool[i] for i in order]


def lr_importance_select(pool, evaluator, n: int, *, seed: int = 0):
    m = LogisticRegression(task=evaluator.splits.task, seed=seed)
    return _top_by_importance(pool, evaluator, m, n)


def gbdt_importance_select(pool, evaluator, n: int, *, seed: int = 0):
    m = GBDT(task=evaluator.splits.task, n_rounds=20, seed=seed)
    return _top_by_importance(pool, evaluator, m, n)
