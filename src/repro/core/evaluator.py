"""Downstream-model evaluation of candidate features (Problem 1).

The training table is split 0.6/0.2/0.2 into train/valid/test (the paper's
ratios, §VII-A6). A candidate feature set is scored by training the chosen
downstream model on the augmented train split and measuring validation
*loss* (1−AUC, 1−macroF1 or RMSE); the test split is touched only for final
reporting.

The split frames live driver-side (the training table is small; the heavy
table is the relevant one, which stays in Spark). ``DownstreamEvaluator.features``
is the one place that turns per-key feature frames into row-aligned numpy
columns of a split (Definition 3, through ``merge_features``); the search
loop, the proxies, the selectors and the baselines all read features through
it. Each evaluation then trains a fresh, seeded numpy model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.executor import FeatureFrame, merge_features
from repro.models import make_model
from repro.models.metrics import task_loss, task_metric


def clean(X: np.ndarray) -> np.ndarray:
    """A model's input: NaN → 0, ±inf → ±1e12 (degenerate aggregates).

    The only place inf is clamped, right before a fit; the proxies see the
    unclamped Definition-3 block (MI bins non-finite values on their own).
    """
    return np.nan_to_num(X, nan=0.0, posinf=1e12, neginf=-1e12)


@dataclass
class TableSplits:
    """Driver-side train/valid/test slices of the training table D."""

    train: pd.DataFrame
    valid: pd.DataFrame
    test: pd.DataFrame
    keys: tuple[str, ...]
    base_features: tuple[str, ...]
    task: str
    label: str = "label"

    def labels(self, part: str) -> np.ndarray:
        """The label column of split ``part`` ("train", "valid" or "test")."""
        return getattr(self, part)[self.label].to_numpy()

    def base(self, part: str) -> np.ndarray:
        """The base-feature block of split ``part``."""
        return getattr(self, part)[list(self.base_features)].to_numpy(dtype=float)


def make_splits(D: pd.DataFrame, keys, base_features, task: str, *,
                seed: int = 0, ratios=(0.6, 0.2, 0.2)) -> TableSplits:
    """Shuffle-split D by the paper's 0.6/0.2/0.2 ratios."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(D))
    n_tr = int(len(D) * ratios[0])
    n_va = int(len(D) * ratios[1])
    D = D.reset_index(drop=True)
    return TableSplits(
        train=D.iloc[idx[:n_tr]].reset_index(drop=True),
        valid=D.iloc[idx[n_tr : n_tr + n_va]].reset_index(drop=True),
        test=D.iloc[idx[n_tr + n_va :]].reset_index(drop=True),
        keys=tuple(keys),
        base_features=tuple(base_features),
        task=task,
    )


@dataclass
class EvalResult:
    valid_loss: float
    valid_metric: float
    test_metric: float
    n_features: int = 0
    feature_names: tuple[str, ...] = field(default_factory=tuple)


class DownstreamEvaluator:
    """Trains the downstream model on (base + candidate) features."""

    def __init__(self, splits: TableSplits, model_name: str, *, seed: int = 0):
        self.splits = splits
        self.model_name = model_name
        self.seed = seed
        self.n_fits = 0

    def features(self, part: str, feats: list[FeatureFrame]) -> np.ndarray:
        """Definition-3 block of split ``part``: one column per feature,
        absent groups and NULL values 0.0, ±inf left as is."""
        return merge_features(getattr(self.splits, part), feats)

    def design(self, part: str, feats: list[FeatureFrame]) -> np.ndarray:
        """A model's input on split ``part``: base features, then ``feats``,
        column-major like the blocks it is stacked from."""
        X = np.hstack([self.splits.base(part), self.features(part, feats)])
        return clean(np.asfortranarray(X))

    def _fit(self, feats: list[FeatureFrame]):
        model = make_model(self.model_name, self.splits.task, seed=self.seed)
        model.fit(self.design("train", feats), self.splits.labels("train"))
        self.n_fits += 1
        return model

    def valid_loss(self, feats: list[FeatureFrame]) -> float:
        """L(A(D^q_train), D^q_valid) — the search objective (Problem 1)."""
        model = self._fit(feats)
        return task_loss(self.splits.task, self.splits.labels("valid"), model,
                         self.design("valid", feats))

    def evaluate(self, feats: list[FeatureFrame]) -> EvalResult:
        """Full report: valid loss/metric + held-out test metric."""
        model = self._fit(feats)
        Xv, yv = self.design("valid", feats), self.splits.labels("valid")
        Xt, yt = self.design("test", feats), self.splits.labels("test")
        return EvalResult(
            valid_loss=task_loss(self.splits.task, yv, model, Xv),
            valid_metric=task_metric(self.splits.task, yv, model, Xv),
            test_metric=task_metric(self.splits.task, yt, model, Xt),
            n_features=len(feats),
            feature_names=tuple(f.name for f in feats),
        )
