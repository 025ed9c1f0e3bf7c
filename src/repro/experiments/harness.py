"""Shared experiment utilities: budgets, result IO, method dispatch."""
from __future__ import annotations

import os
import time
from pathlib import Path

import pandas as pd

from repro.baselines import (
    featuretools_features,
    run_arda,
    run_autofeature,
    run_random,
)
from repro.core.config import BENCH, BudgetProfile
from repro.core.feataug import DatasetContext, run_feataug
from repro.models.metrics import metric_name
from repro.selectors import NotApplicableError, select

#: default data scale for benches — R tables ~18–22k rows, D ~1–1.5k rows
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.6"))
DEFAULT_SEED = int(os.environ.get("REPRO_SEED", "0"))

#: low-cost proxies of the Table VIII sweep
PROXIES = ("SC", "MI", "LR")
#: FeatAug method name → run_feataug kwargs: the Table VII ablations and
#: the Table VIII proxies
FEATAUG_VARIANTS = {
    "FeatAug": {},
    "FeatAug(Full)": {},
    "FeatAug(NoQTI)": {"use_qti": False},
    "FeatAug(NoWU)": {"use_warmup": False},
    **{f"FeatAug({p})": {"proxy": p} for p in PROXIES},
}


def budget_from_env(base: BudgetProfile = BENCH) -> BudgetProfile:
    """Benchmark budget, shrunken further when REPRO_FAST=1."""
    if os.environ.get("REPRO_FAST") == "1":
        return base.scaled(warmup_iters=10, warmup_topk=3, gen_iters=5,
                           n_templates=3, queries_per_template=3,
                           qti_samples=6, selector_pool_cap=16,
                           selector_sample_cap=4)
    return base


def results_dir() -> Path:
    d = Path(os.environ.get("REPRO_RESULTS", Path(__file__).resolve().parents[3] / "results"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def save_and_print(df: pd.DataFrame, name: str) -> pd.DataFrame:
    """Write results/<name>.csv and print a paper-shaped pivot."""
    out = results_dir() / f"{name}.csv"
    df.to_csv(out, index=False)
    print(f"\n=== {name} (written to {out}) ===")
    if {"dataset", "model", "method", "value"} <= set(df.columns):
        for model, g in df.groupby("model", sort=False):
            pivot = g.pivot_table(index="method", columns="dataset",
                                  values="value", sort=False)
            print(f"\n-- model: {model}")
            print(pivot.round(4).to_string())
    else:
        print(df.to_string(index=False))
    return df


def run_method(method: str, ctx: DatasetContext, pool, model: str, *,
               seed: int = 0) -> dict:
    """Run one paper-table method for one (dataset, model) scenario.

    Returns {method, dataset, model, metric, value, seconds}; ``value`` is
    NaN when the selector is undefined for the task (paper's "-").
    """
    budget = ctx.budget
    t0 = time.time()
    value = float("nan")
    try:
        if method == "FT":
            value = ctx.evaluator(model).evaluate(pool[: budget.n_features]).test_metric
        elif method.startswith("FT+"):
            ev = ctx.evaluator(model)
            chosen = select(method[3:], pool, ev, budget.n_features,
                            seed=seed, budget=budget)
            value = ev.evaluate(chosen).test_metric
        elif method == "Random":
            value = run_random(ctx, model, seed=seed).result.test_metric
        elif method in FEATAUG_VARIANTS:
            out = run_feataug(ctx, model, seed=seed, **FEATAUG_VARIANTS[method])
            value = out.result.test_metric
        elif method == "ARDA":
            value = run_arda(ctx, model, seed=seed).result.test_metric
        elif method.startswith("AutoFeat-"):
            value = run_autofeature(ctx, model, mode=method.split("-")[1],
                                    seed=seed).result.test_metric
        else:
            raise ValueError(f"unknown method {method!r}")
    except NotApplicableError:
        pass  # Chi2 / Gini on regression — paper reports "-"
    return {
        "dataset": ctx.bundle.name,
        "model": model,
        "method": method,
        "metric": metric_name(ctx.bundle.task),
        "value": value,
        "seconds": round(time.time() - t0, 2),
    }


def build_context(spark, gen, *, scale: float, budget: BudgetProfile,
                  seed: int) -> tuple[DatasetContext, list]:
    """Dataset bundle + context + the shared Featuretools feature pool."""
    bundle = gen(spark, scale=scale, seed=7)
    ctx = DatasetContext(spark, bundle, budget, seed=seed)
    pool = featuretools_features(ctx.executor, bundle)
    return ctx, pool


def run_grid(spark, gens: dict, name: str, *, scale: float,
             budget: BudgetProfile, seed: int, datasets, models, methods,
             save: bool) -> pd.DataFrame:
    """datasets × models × methods; writes results/<name>.csv if ``save``."""
    rows = []
    for ds in datasets:
        ctx, pool = build_context(spark, gens[ds], scale=scale,
                                  budget=budget, seed=seed)
        for model in models:
            for method in methods:
                rows.append(run_method(method, ctx, pool, model, seed=seed))
        ctx.close()
    df = pd.DataFrame(rows)
    return save_and_print(df, name) if save else df
