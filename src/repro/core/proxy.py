"""Low-cost proxies for feature quality (§V-C warm-up, §VI-C1, §VII-E2).

Three proxies from the paper's Table VIII, all returning *higher = better*
scores for a single candidate feature against the labels; ``make_proxy``
reads the feature's columns through the downstream evaluator:

- ``MI``  — binned mutual information (base 2); features are quantile-binned
  (missing values form their own bin), regression labels are quantile-binned
  too;
- ``SC``  — |Spearman rank correlation|;
- ``LR``  — the validation metric of a logistic-regression model trained on
  base features + the candidate (the most expensive proxy).
"""
from __future__ import annotations

import numpy as np
import pandas as pd


#: quantile bins per column for MI (and the Chi2 selector's contingency table)
N_BINS = 8


def _bin_feature(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile-bin a float column; non-finite values become their own bin id."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -1, dtype=int)
    ok = np.isfinite(x)
    if ok.sum() == 0:
        return out
    xs = x[ok]
    edges = np.unique(np.quantile(xs, np.linspace(0, 1, n_bins + 1)[1:-1]))
    out[ok] = np.searchsorted(edges, xs, side="right")
    return out


def mutual_information(x: np.ndarray, y: np.ndarray, *, task: str = "binary") -> float:
    """I(X;Y) in bits from the joint histogram of binned X and (binned) Y."""
    bx = _bin_feature(x, N_BINS)
    if task == "regression":
        by = _bin_feature(np.asarray(y, dtype=float), N_BINS)
    else:
        _, by = np.unique(np.asarray(y), return_inverse=True)
    n = bx.size
    if n == 0:
        return 0.0
    joint: dict[tuple[int, int], int] = {}
    for a, b in zip(bx, by):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    px: dict[int, float] = {}
    py: dict[int, float] = {}
    for (a, b), c in joint.items():
        px[a] = px.get(a, 0) + c
        py[b] = py.get(b, 0) + c
    mi = 0.0
    for (a, b), c in joint.items():
        p = c / n
        mi += p * np.log2(p * n * n / (px[a] * py[b]))
    return float(max(mi, 0.0))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """|Spearman ρ| — monotonic dependency strength (Table VIII "SC")."""
    x = pd.Series(np.asarray(x, dtype=float)).fillna(0.0)
    y = pd.Series(np.asarray(y, dtype=float))
    rx, ry = x.rank(), y.rank()
    sx, sy = rx.std(), ry.std()
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    rho = float(np.corrcoef(rx, ry)[0, 1])
    return abs(rho) if np.isfinite(rho) else 0.0


def make_proxy(name: str, evaluator):
    """Build ``proxy(feature) -> score`` (higher = better) for one candidate
    :class:`~repro.core.executor.FeatureFrame`, read through ``evaluator``.

    ``MI`` and ``SC`` read only the training rows. ``LR`` trains a logistic /
    ridge model on base features + candidate and scores the validation rows.
    """
    splits = evaluator.splits
    task = splits.task
    if name == "MI":
        return lambda f: mutual_information(
            evaluator.features("train", [f])[:, 0], splits.labels("train"), task=task)
    if name == "SC":
        return lambda f: spearman(evaluator.features("train", [f])[:, 0],
                                  splits.labels("train"))
    if name == "LR":
        from repro.models.logistic import LogisticRegression
        from repro.models.metrics import task_loss

        def stacked(part, f):
            return np.column_stack([splits.base(part), np.nan_to_num(
                evaluator.features(part, [f]), nan=0.0)])

        def _lr_proxy(f):
            m = LogisticRegression(task=task, n_iter=80).fit(
                stacked("train", f), splits.labels("train"))
            return -task_loss(task, splits.labels("valid"), m, stacked("valid", f))

        return _lr_proxy
    raise ValueError(f"unknown proxy {name!r} (expected MI, SC or LR)")
