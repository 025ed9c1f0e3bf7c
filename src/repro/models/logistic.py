"""(Multinomial) logistic regression with L2, trained by full-batch GD.

Stand-in for ``sklearn.linear_model.LogisticRegression`` (the paper's "LR"
downstream model and the "LR" low-cost proxy / selector model). Inputs are
standardised internally so one learning rate works across feature scales.
For ``task="regression"`` it degrades to ridge linear regression (closed
form), which the paper uses on the Merchant regression dataset.
"""
from __future__ import annotations

import numpy as np


#: L2 regularisation strength (the bias is not penalised)
L2 = 1e-3
#: full-batch gradient-descent step size
STEP = 0.5


def _standardise(X: np.ndarray):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd < 1e-12] = 1.0
    return (X - mu) / sd, mu, sd


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class LogisticRegression:
    """Softmax regression (binary is the 2-class special case).

    ``n_iter`` is the number of full-batch steps; ``seed`` is accepted for a
    uniform model API (training is deterministic without it).
    """

    def __init__(self, task: str = "binary", *, n_iter: int = 200, seed: int = 0):
        self.task = task
        self.n_iter = n_iter
        self.seed = seed
        self.coef_: np.ndarray | None = None

    # -- classification ----------------------------------------------------
    def _fit_classifier(self, X: np.ndarray, y: np.ndarray) -> None:
        self.classes_ = np.unique(y)
        k = len(self.classes_)
        n, d = X.shape
        Y = np.zeros((n, k))
        for i, c in enumerate(self.classes_):
            Y[y == c, i] = 1.0
        W = np.zeros((d + 1, k))
        Xb = np.hstack([X, np.ones((n, 1))])
        for _ in range(self.n_iter):
            P = _softmax(Xb @ W)
            G = Xb.T @ (P - Y) / n
            G[:-1] += L2 * W[:-1]
            W -= STEP * G
        self.coef_ = W

    def _fit_regressor(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        Xb = np.hstack([X, np.ones((n, 1))])
        reg = L2 * np.eye(d + 1)
        reg[-1, -1] = 0.0
        self.coef_ = np.linalg.solve(Xb.T @ Xb / n + reg, Xb.T @ y / n).reshape(-1, 1)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y).ravel()
        Xs, self._mu, self._sd = _standardise(X)
        if self.task == "regression":
            self._fit_regressor(Xs, y.astype(float))
        else:
            self._fit_classifier(Xs, y)
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Xs = (X - self._mu) / self._sd
        return np.hstack([Xs, np.ones((X.shape[0], 1))])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            raise ValueError("predict_proba undefined for regression")
        return _softmax(self._transform(X) @ self.coef_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            return (self._transform(X) @ self.coef_).ravel()
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def feature_importances(self) -> np.ndarray:
        """|coefficient| magnitude per input feature (used by the LR selector)."""
        return np.abs(self.coef_[:-1]).sum(axis=1)
