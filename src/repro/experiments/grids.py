"""Tables III, VI, VII and VIII — the paper's result grids.

Each table is one :func:`~repro.experiments.harness.run_grid` call over
datasets × models × methods. Metrics are measured on the held-out test
split, exactly one seeded repetition (the paper averages 5; DESIGN.md §5).
"""
from __future__ import annotations

import pandas as pd

from repro.core.config import SWEEP, BudgetProfile
from repro.datasets import ONE_TO_MANY, ONE_TO_ONE
from repro.experiments.harness import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    PROXIES,
    budget_from_env,
    run_grid,
)

MODELS = ("LR", "XGB", "RF", "DeepFM")
#: Featuretools + 7 selectors + Random + FeatAug (paper Table III rows)
TABLE3_METHODS = ("FT", "FT+LR", "FT+GBDT", "FT+MI", "FT+Chi2", "FT+Gini",
                  "FT+Forward", "FT+Backward", "Random", "FeatAug")
TABLE6_MODELS = ("LR", "XGB", "RF")
TABLE6_METHODS = ("FT", "FT+LR", "FT+GBDT", "FT+MI", "FT+Chi2", "FT+Gini",
                  "ARDA", "AutoFeat-MAB", "AutoFeat-DQN", "Random", "FeatAug")
VARIANTS = ("FeatAug(NoQTI)", "FeatAug(NoWU)", "FeatAug(Full)")


def run_table3(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_MANY), models=MODELS,
               methods=TABLE3_METHODS, save: bool = True) -> pd.DataFrame:
    """Table III — overall performance on the four one-to-many datasets.

    Grid: {Tmall, Instacart, Student, Merchant} × {LR, XGB, RF, DeepFM} ×
    {FT, FT+LR, FT+GBDT, FT+MI, FT+Chi2, FT+Gini, FT+Forward, FT+Backward,
    Random, FeatAug}. Metrics: AUC (binary) / RMSE (Merchant regression).
    """
    return run_grid(spark, ONE_TO_MANY, "table3", scale=scale,
                    budget=budget or budget_from_env(), seed=seed,
                    datasets=datasets, models=models, methods=methods, save=save)


def run_table6(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_ONE), models=TABLE6_MODELS,
               methods=TABLE6_METHODS, save: bool = True) -> pd.DataFrame:
    """Table VI — single-table & one-to-one performance (Covtype, Household).

    Grid: {Covtype, Household} × {LR, XGB, RF} (DeepFM excluded — multiclass,
    §VII-C) × {FT, FT+LR, FT+GBDT, FT+MI, FT+Chi2, FT+Gini, ARDA,
    AutoFeat-MAB, AutoFeat-DQN, Random, FeatAug}. Forward/Backward are "-"
    in the paper's Table VI and are omitted here too. Metric: macro-F1.
    """
    return run_grid(spark, ONE_TO_ONE, "table6", scale=scale,
                    budget=budget or budget_from_env(), seed=seed,
                    datasets=datasets, models=models, methods=methods, save=save)


def run_table7(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_MANY), models=MODELS,
               save: bool = True) -> pd.DataFrame:
    """Table VII — ablation: NoQTI / NoWU / Full FeatAug.

    Grid: 4 one-to-many datasets × 4 models × 3 variants.
    - NoQTI: one template over all candidate WHERE attributes (no beam search);
    - NoWU: TPE on real loss only, for warmup_topk+gen_iters iterations (the
      paper's 50+40=90-iteration accounting);
    - Full: both components on.
    """
    return run_grid(spark, ONE_TO_MANY, "table7", scale=scale,
                    budget=budget or budget_from_env(SWEEP), seed=seed,
                    datasets=datasets, models=models, methods=VARIANTS, save=save)


def run_table8(spark, *, scale: float = DEFAULT_SCALE,
               budget: BudgetProfile | None = None, seed: int = DEFAULT_SEED,
               datasets=tuple(ONE_TO_MANY), models=MODELS, proxies=PROXIES,
               save: bool = True) -> pd.DataFrame:
    """Table VIII — low-cost proxy sweep: SC vs MI vs LR.

    Grid: 4 one-to-many datasets × 4 models × 3 proxies. The proxy drives
    both the QTI node evaluations and the warm-up round; everything else is
    Full FeatAug.
    """
    return run_grid(spark, ONE_TO_MANY, "table8", scale=scale,
                    budget=budget or budget_from_env(SWEEP), seed=seed,
                    datasets=datasets, models=models,
                    methods=tuple(f"FeatAug({p})" for p in proxies), save=save)
