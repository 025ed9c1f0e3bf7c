"""Household stand-in — Costa-Rica poverty level (multiclass-4, macro-F1).

One-to-one scenario (§VII-C): 5 features stay in the training table, the
remaining household attributes move to the relevant table keyed by
``data_index``. The poverty level derives mostly from relevant-table columns
(education, rent, dwelling quality, overcrowding), so *any* method that
surfaces those columns (a direct 1:1 join like ARDA/AutoFeature, or
Featuretools AVG aggregations) gains a lot; FeatAug's gated variants add a
further margin — the paper's Table VI shape.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import DatasetBundle, standardise, to_spark


def household(spark: SparkSession, *, scale: float = 1.0, seed: int = 7) -> DatasetBundle:
    rng = np.random.default_rng(seed + 5)
    n = max(80, int(1500 * scale))

    rooms = rng.integers(1, 9, n)
    adults = rng.integers(1, 6, n)
    children = rng.integers(0, 5, n)
    region = rng.integers(1, 7, n)
    urban = rng.integers(0, 2, n)

    education = rng.gamma(4.0, 2.2, n)
    rent = np.exp(rng.normal(11.0, 0.8, n))
    floor_q = rng.integers(1, 4, n)
    roof_q = rng.integers(1, 4, n)
    wall_q = rng.integers(1, 4, n)
    overcrowd = (adults + children) / rooms + rng.normal(0, 0.3, n)
    water = rng.integers(0, 2, n)
    electricity = (rng.random(n) < 0.9).astype(int)
    tablets = rng.integers(0, 4, n)
    refrig = rng.integers(0, 2, n)
    dependency = children / np.maximum(adults, 1) + rng.normal(0, 0.2, n)

    # Additive terms are recoverable by a direct join / predicate-free AVG
    # (what FT/ARDA see); the *gated* terms need predicate-aware features —
    # e.g. rent only matters with piped water, education only below the
    # overcrowding threshold (AVG(x) WHERE gate over a 1-row group = x·I).
    zedu = standardise(education)
    zrent = standardise(np.log(rent))
    zover = standardise(overcrowd)
    q = (
        0.55 * zedu
        + 0.45 * zrent
        + 0.4 * standardise(floor_q + roof_q + wall_q)
        - 0.45 * zover
        + 0.3 * standardise(rooms)
        + 0.9 * zrent * (water == 1)
        + 0.9 * zedu * (zover < 0.3)
        - 0.8 * zover * (tablets == 0)
        + 0.7 * rng.normal(0, 1, n)
    )
    # 4 poverty levels by population quantiles (imbalanced like the Kaggle data)
    edges = np.quantile(q, [0.15, 0.4, 0.7])
    label = np.digitize(q, edges)

    D = pd.DataFrame(
        {
            "data_index": np.arange(1, n + 1),
            "rooms": rooms,
            "adults": adults,
            "children": children,
            "region": region,
            "urban": urban,
            "label": label,
        }
    )
    R = pd.DataFrame(
        {
            "data_index": np.arange(1, n + 1),
            "education_years": np.round(education, 2),
            "monthly_rent": np.round(rent, 2),
            "floor_quality": floor_q,
            "roof_quality": roof_q,
            "wall_quality": wall_q,
            "overcrowding": np.round(overcrowd, 3),
            "water": water,
            "electricity": electricity,
            "tablets": tablets,
            "refrig": refrig,
            "dependency_ratio": np.round(dependency, 3),
        }
    )

    return DatasetBundle(
        name="Household",
        R=to_spark(spark, R),
        D_pandas=D,
        keys=("data_index",),
        base_features=("rooms", "adults", "children", "region", "urban"),
        agg_attrs=("education_years", "monthly_rent", "floor_quality",
                   "roof_quality", "wall_quality", "overcrowding", "tablets",
                   "dependency_ratio"),
        where_attrs=("education_years", "overcrowding", "monthly_rent",
                     "floor_quality", "water", "tablets"),
        task="multiclass",
        info={"n_tables": 1, "planted": "thresholds on relevant-table columns"},
    )
