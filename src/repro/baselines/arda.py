"""ARDA (Chepurko et al., VLDB'20) — random-injection feature selection.

For one-to-one relationship tables the relevant table's columns can be
joined directly; ARDA ranks them by training a random forest on the real
candidates *plus injected random-noise probes* and keeps candidates whose
importance clears a multiple of the noise level, picking the threshold that
maximises validation performance.
"""
from __future__ import annotations

import numpy as np

from repro.core.evaluator import clean
from repro.core.executor import FeatureFrame
from repro.core.feataug import DatasetContext, FeatAugOutput
from repro.models.forest import RandomForest

#: injected random-noise probe columns
N_NOISE = 8
#: importance multiples of the noise level tried as keep-thresholds
THRESHOLDS = (0.5, 1.0, 2.0)


def direct_join_pool(ctx: DatasetContext, prefix: str) -> list[FeatureFrame]:
    """Each non-key relevant-table column as a directly-joinable feature."""
    Rp = ctx.executor.R.toPandas()
    keys = list(ctx.bundle.keys)
    pool = []
    for c in Rp.columns:
        if c in keys:
            continue
        col = Rp[[*keys, c]].copy()
        if col[c].dtype == object:  # categorical → frequency encoding
            col[c] = col[c].map(col[c].value_counts()).astype(float)
        name = f"{prefix}_{c}"
        pool.append(FeatureFrame(name=name, keys=ctx.bundle.keys,
                                 frame=col.rename(columns={c: name}),
                                 sql=f"direct join {c}"))
    return pool


def run_arda(ctx: DatasetContext, model_name: str, *, seed: int = 0) -> FeatAugOutput:
    bundle, budget = ctx.bundle, ctx.budget
    evaluator = ctx.evaluator(model_name, seed=seed)
    rng = np.random.default_rng(seed + 31)
    pool = direct_join_pool(ctx, prefix=f"arda{seed}")

    F = evaluator.features("train", pool)
    X = clean(np.hstack([F, rng.normal(0, 1, (F.shape[0], N_NOISE))]))
    y = evaluator.splits.labels("train")
    rf = RandomForest(task=bundle.task, n_trees=12, seed=seed).fit(X, y)
    imps = rf.feature_importances()
    feat_imp, noise_imp = imps[: len(pool)], imps[len(pool):]
    level = max(float(np.median(noise_imp)), 1e-12)

    best = None
    for tau in THRESHOLDS:
        keep = [pool[i] for i in np.argsort(-feat_imp)
                if feat_imp[i] > tau * level][: budget.n_features]
        if not keep:
            continue
        loss = evaluator.valid_loss(keep)
        if best is None or loss < best[0]:
            best = (loss, keep, tau)
    if best is None:  # nothing beats noise — fall back to top-n by importance
        keep = [pool[i] for i in np.argsort(-feat_imp)[: budget.n_features]]
        best = (evaluator.valid_loss(keep), keep, 0.0)

    result = evaluator.evaluate(best[1])
    return FeatAugOutput(result=result, features=best[1], templates=[],
                         stats={"method": "ARDA", "tau": best[2]})
