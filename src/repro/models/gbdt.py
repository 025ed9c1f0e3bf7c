"""Second-order gradient boosting — the "XGB" stand-in.

xgboost is not installed, so this implements its core: additive shallow
trees fit to per-example gradients/hessians of logistic, softmax or squared
loss, with shrinkage and XGBoost leaf weights -G/(H+λ) (see
``repro.models.tree``). Also doubles as the "GBDT selector" model
(importance by total split gain).
"""
from __future__ import annotations

import numpy as np

from repro.models.tree import RegressionTree


#: depth of each boosted tree
MAX_DEPTH = 3
#: shrinkage applied to each tree's output
LEARNING_RATE = 0.3
#: minimum rows per leaf
MIN_LEAF = 4
#: L2 penalty λ on leaf weights
REG_LAMBDA = 1.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


class GBDT:
    def __init__(self, task: str = "binary", *, n_rounds: int = 30, seed: int = 0):
        self.task = task
        self.n_rounds = n_rounds
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBDT":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y).ravel()
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self._gains = np.zeros(X.shape[1])
        if self.task == "multiclass":
            self.classes_ = np.unique(y)
            k = len(self.classes_)
            Y = np.column_stack([(y == c).astype(float) for c in self.classes_])
            self.base_ = np.zeros(k)
            F = np.zeros((n, k))
            self.trees_: list = []
            for _ in range(self.n_rounds):
                P = np.exp(F - F.max(axis=1, keepdims=True))
                P /= P.sum(axis=1, keepdims=True)
                round_trees = []
                for c in range(k):
                    g = P[:, c] - Y[:, c]
                    h = np.maximum(P[:, c] * (1 - P[:, c]), 1e-6)
                    t = self._fit_tree(X, g, h, rng)
                    F[:, c] += LEARNING_RATE * t.predict(X)
                    round_trees.append(t)
                self.trees_.append(round_trees)
        else:
            if self.task == "binary":
                self.classes_ = np.unique(y)
                yb = (y == self.classes_[-1]).astype(float)
                p0 = np.clip(yb.mean(), 1e-3, 1 - 1e-3)
                self.base_ = float(np.log(p0 / (1 - p0)))
            else:
                yb = y.astype(float)
                self.base_ = float(yb.mean())
            F = np.full(n, self.base_)
            self.trees_ = []
            for _ in range(self.n_rounds):
                if self.task == "binary":
                    p = _sigmoid(F)
                    g, h = p - yb, np.maximum(p * (1 - p), 1e-6)
                else:
                    g, h = F - yb, np.ones(n)
                t = self._fit_tree(X, g, h, rng)
                F += LEARNING_RATE * t.predict(X)
                self.trees_.append(t)
        return self

    def _fit_tree(self, X, g, h, rng) -> RegressionTree:
        t = RegressionTree(max_depth=MAX_DEPTH, min_leaf=MIN_LEAF,
                           reg_lambda=REG_LAMBDA, seed=int(rng.integers(0, 2**31)))
        t.fit(X, g, h)
        self._gains += t.gains_
        return t

    def _raw(self, X: np.ndarray):
        X = np.asarray(X, dtype=float)
        if self.task == "multiclass":
            F = np.tile(self.base_, (X.shape[0], 1))
            for round_trees in self.trees_:
                for c, t in enumerate(round_trees):
                    F[:, c] += LEARNING_RATE * t.predict(X)
            return F
        F = np.full(X.shape[0], self.base_)
        for t in self.trees_:
            F += LEARNING_RATE * t.predict(X)
        return F

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task == "binary":
            p = _sigmoid(self._raw(X))
            return np.column_stack([1 - p, p])
        if self.task == "multiclass":
            F = self._raw(X)
            P = np.exp(F - F.max(axis=1, keepdims=True))
            return P / P.sum(axis=1, keepdims=True)
        raise ValueError("predict_proba undefined for regression")

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            return self._raw(X)
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def feature_importances(self) -> np.ndarray:
        tot = self._gains.sum()
        return self._gains / tot if tot > 0 else self._gains
