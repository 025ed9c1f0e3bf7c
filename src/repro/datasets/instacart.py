"""Instacart stand-in — "will buy a Banana product" (binary, AUC).

Training table = users; relevant table = the joined historical order-line
table (department / aisle / reordered / recency). Planted signal: recent
reordered produce purchases —
``COUNT(*) WHERE department='produce' AND reordered>=1 AND days_ago<=90`` —
diluted by total order volume and noise.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import DatasetBundle, standardise, to_spark

DEPARTMENTS = np.array([
    "produce", "dairy", "snacks", "beverages", "frozen",
    "pantry", "bakery", "household", "meat", "personal_care",
])
DEPT_P = np.array([0.18, 0.13, 0.11, 0.10, 0.09, 0.11, 0.08, 0.07, 0.07, 0.06])


def instacart(spark: SparkSession, *, scale: float = 1.0, seed: int = 7) -> DatasetBundle:
    rng = np.random.default_rng(seed + 1)
    n_users = max(60, int(2000 * scale))
    n_lines = max(800, int(32000 * scale))

    w = rng.gamma(1.0, 1.0, n_users)
    uid = rng.choice(np.arange(1, n_users + 1), size=n_lines, p=w / w.sum())
    R = pd.DataFrame(
        {
            "user_id": uid,
            "department": rng.choice(DEPARTMENTS, n_lines, p=DEPT_P / DEPT_P.sum()),
            "aisle": rng.choice([f"a_{i}" for i in range(1, 26)], n_lines),
            "reordered": rng.integers(0, 2, n_lines),
            "order_dow": rng.integers(0, 7, n_lines),
            "days_ago": rng.integers(0, 366, n_lines),
            "add_to_cart_order": rng.integers(1, 21, n_lines),
            "price": np.round(np.exp(rng.normal(1.4, 0.7, n_lines)), 2),
        }
    )

    grp = R.groupby("user_id")
    prod_recent = grp.apply(
        lambda g: int(((g["department"] == "produce") & (g["reordered"] == 1)
                       & (g["days_ago"] <= 90)).sum()),
        include_groups=False,
    )
    total = grp.size()
    keys = np.arange(1, n_users + 1)
    pr = prod_recent.reindex(keys, fill_value=0).to_numpy(dtype=float)
    tt = total.reindex(keys, fill_value=0).to_numpy(dtype=float)

    avg_cart = rng.normal(10, 3, n_users).clip(1)
    score = (
        1.7 * standardise(np.log1p(pr))
        + 0.4 * standardise(np.log1p(tt))
        + 0.25 * standardise(avg_cart)
        + 1.0 * rng.normal(0, 1, n_users)
    )
    label = (score > np.quantile(score, 0.6)).astype(int)

    D = pd.DataFrame(
        {
            "user_id": keys,
            "n_orders": tt.astype(int),
            "avg_cart_size": np.round(avg_cart, 2),
            "label": label,
        }
    )

    return DatasetBundle(
        name="Instacart",
        R=to_spark(spark, R),
        D_pandas=D,
        keys=("user_id",),
        base_features=("n_orders", "avg_cart_size"),
        agg_attrs=("price", "days_ago", "add_to_cart_order"),
        where_attrs=("department", "aisle", "reordered", "order_dow",
                     "days_ago", "add_to_cart_order"),
        task="binary",
        info={"n_tables": 4,
              "planted": "COUNT WHERE department='produce' AND reordered=1 AND days_ago<=90"},
    )
