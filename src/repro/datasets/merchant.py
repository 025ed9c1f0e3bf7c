"""Merchant stand-in — Elo merchant loyalty score (regression, RMSE).

Training table = merchants with a continuous loyalty label; relevant table
= the historical transaction log. Planted signal: recent grocery revenue —
``SUM(purchase_amount) WHERE category_2='groceries' AND month_lag>=-3``.
The label's mixing weights give it std ≈ 4, so the no-signal RMSE sits near
4.0 and full signal recovery reaches ≈ 3.2, matching the paper's Table III
value range (3.93–4.16).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import DatasetBundle, standardise, to_spark

CATEGORIES = np.array(["groceries", "fuel", "clothing", "electronics", "restaurants"])
CAT_P = np.array([0.3, 0.2, 0.2, 0.15, 0.15])


def merchant(spark: SparkSession, *, scale: float = 1.0, seed: int = 7) -> DatasetBundle:
    rng = np.random.default_rng(seed + 3)
    n_merchants = max(60, int(2000 * scale))
    n_tx = max(900, int(30000 * scale))

    w = rng.gamma(1.2, 1.0, n_merchants)
    mid = rng.choice(np.arange(1, n_merchants + 1), size=n_tx, p=w / w.sum())
    R = pd.DataFrame(
        {
            "merchant_id": mid,
            "purchase_amount": np.round(np.exp(rng.normal(3.0, 1.0, n_tx)), 2),
            "installments": rng.integers(0, 13, n_tx),
            "month_lag": rng.integers(-13, 1, n_tx),
            "category_1": rng.choice(["A", "B"], n_tx, p=[0.7, 0.3]),
            "category_2": rng.choice(CATEGORIES, n_tx, p=CAT_P),
            "city": rng.choice([f"c_{i}" for i in range(1, 16)], n_tx),
        }
    )

    grp = R.groupby("merchant_id")
    sig = grp.apply(
        lambda g: float(g.loc[(g["category_2"] == "groceries")
                              & (g["month_lag"] >= -3), "purchase_amount"].sum()),
        include_groups=False,
    )
    total_n = grp.size()
    keys = np.arange(1, n_merchants + 1)
    s1 = sig.reindex(keys, fill_value=0.0).to_numpy(dtype=float)
    tn = total_n.reindex(keys, fill_value=0).to_numpy(dtype=float)

    sales_lag3 = np.round(rng.normal(100, 25, n_merchants), 2)
    # std ≈ sqrt(2.6² + 0.5² + 0.6² + 2.95²) ≈ 4.0
    label = (
        2.6 * standardise(np.log1p(s1))
        + 0.5 * standardise(np.log1p(tn))
        + 0.6 * standardise(sales_lag3)
        + 2.95 * rng.normal(0, 1, n_merchants)
    )
    D = pd.DataFrame(
        {
            "merchant_id": keys,
            "avg_sales_lag3": sales_lag3,
            "active_months": rng.integers(1, 14, n_merchants),
            "label": np.round(label, 4),
        }
    )

    return DatasetBundle(
        name="Merchant",
        R=to_spark(spark, R),
        D_pandas=D,
        keys=("merchant_id",),
        base_features=("avg_sales_lag3", "active_months"),
        agg_attrs=("purchase_amount", "month_lag", "installments"),
        where_attrs=("category_1", "category_2", "city", "installments", "month_lag"),
        task="regression",
        info={"n_tables": 3,
              "planted": "SUM(purchase_amount) WHERE category_2='groceries' AND month_lag>=-3"},
    )
