"""The benchmark's workloads and the inputs each one is given.

Every workload is the Tmall stand-in at a fixed generator seed and a fixed
search seed. The ``--seed`` permutes the rows of the relevant table ``R``
before Spark caches it. That changes the physical layout Spark scans and the
order rows reach the driver, and nothing that a generated query means (the
output checks hold every run to that). Floating-point sums over ``R`` may
still differ in their last bits between seeds, which can move a tree split:
the RF test loss varies by about 2 % across seeds, the LR one by 0.1 %.

Scales and budgets are smaller than the paper-table runs so that one
warm-up plus one or more timed samples fit the benchmark's run length; the
traced run shows that each workload's dominant layer is the one named in
README.md.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.config import TINY
from repro.datasets import make_dataset
from repro.datasets.base import DatasetBundle, to_spark

DATASET = "Tmall"
GENERATOR_SEED = 7
RUN_SEED = 0
BUDGET = TINY.scaled(qti_samples=2, warmup_iters=3, gen_iters=2)


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float   # make_dataset scale: |R| = 36k x scale, |D| = 2.4k x scale
    model: str     # downstream model of run_feataug
    warm: bool     # timed runs reuse one context whose SQL cache is full


# Why each workload was chosen: README.md, "Workloads".
WORKLOADS = {w.name: w for w in (
    Workload("tmall_lr_cold", 0.6, "LR", False),
    Workload("tmall_rf_warm", 0.6, "RF", True),
    Workload("tmall_lr_bigr", 3.0, "LR", False),
)}


def permute_rows(pdf: pd.DataFrame, seed: int) -> pd.DataFrame:
    """``pdf`` in an order drawn from ``seed``."""
    order = np.random.default_rng(seed).permutation(len(pdf))
    return pdf.iloc[order].reset_index(drop=True)


def make_inputs(spark, wl: Workload, seed: int) -> tuple[DatasetBundle, pd.DataFrame]:
    """The workload's dataset with ``R`` permuted by ``seed``; also returns
    that ``R`` as pandas, for the output checks."""
    bundle = make_dataset(DATASET, spark, scale=wl.scale, seed=GENERATOR_SEED)
    R = permute_rows(bundle.R.toPandas(), seed)
    return dataclasses.replace(bundle, R=to_spark(spark, R), info=dict(bundle.info)), R
