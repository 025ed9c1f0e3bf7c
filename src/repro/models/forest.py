"""Random forest — bagged histogram trees (sklearn RandomForest stand-in).

Classification trains one one-vs-rest probability forest per class on
bootstrap samples; ``predict_proba`` averages leaf class-probabilities and
``feature_importances()`` exposes total impurity gain per feature (used by
the Gini selector and by ARDA's noise-probe ranking).
"""
from __future__ import annotations

import numpy as np

from repro.models.tree import RegressionTree


#: depth of each bagged tree
MAX_DEPTH = 5
#: minimum rows per leaf
MIN_LEAF = 4
#: share of features each split considers
FEATURE_FRAC = 0.6


class RandomForest:
    def __init__(self, task: str = "binary", *, n_trees: int = 14, seed: int = 0):
        self.task = task
        self.n_trees = n_trees
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y).ravel()
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self._gains = np.zeros(X.shape[1])
        if self.task == "regression":
            self.classes_ = None
            targets = [("reg", y.astype(float))]
        else:
            self.classes_ = np.unique(y)
            # one regression forest per class on the 0/1 indicator; averaging
            # bootstrapped mean-leaf trees approximates class frequencies
            targets = [(c, (y == c).astype(float)) for c in self.classes_]
        self.trees_: dict = {key: [] for key, _ in targets}
        for key, t in targets:
            for b in range(self.n_trees):
                idx = rng.integers(0, n, n)
                tree = RegressionTree(
                    max_depth=MAX_DEPTH, min_leaf=MIN_LEAF,
                    feature_frac=FEATURE_FRAC,
                    seed=int(rng.integers(0, 2**31)),
                )
                tree.fit(X[idx], t[idx])
                self.trees_[key].append(tree)
                self._gains += tree.gains_
        return self

    def _raw(self, X: np.ndarray, key) -> np.ndarray:
        preds = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees_[key]:
            preds += tree.predict(X)
        return preds / self.n_trees

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            raise ValueError("predict_proba undefined for regression")
        P = np.column_stack([self._raw(X, c) for c in self.classes_])
        P = np.clip(P, 1e-9, None)
        return P / P.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            return self._raw(X, "reg")
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def feature_importances(self) -> np.ndarray:
        tot = self._gains.sum()
        return self._gains / tot if tot > 0 else self._gains
