"""Tables I & II — dataset and query-template descriptor tables.

The paper's Table I reports per one-to-many dataset: # of tables, # of rows
in the relevant table, train/valid/test sizes. Table II reports the query
template ingredients: F, #A, #attr, K, and the template-set size 2^|attr|.
We emit the same rows for our synthetic stand-ins (paper values are diffed
in EXPERIMENTS.md).
"""
from __future__ import annotations

import pandas as pd

from repro.core.template import template_count
from repro.datasets import ONE_TO_MANY


def _bundles(spark, names, gens, *, scale: float):
    return [gens[n](spark, scale=scale, seed=7) for n in names]


def table1_rows(spark, *, scale: float = 0.6,
                gens: dict | None = None) -> pd.DataFrame:
    gens = gens or ONE_TO_MANY
    rows = []
    for b in _bundles(spark, list(gens), gens, scale=scale):
        s = b.splits(0)
        rows.append({
            "dataset": b.name,
            "n_tables": b.info.get("n_tables", 2),
            "rows_in_R": b.R.count(),
            "train/valid/test": f"{len(s.train)}/{len(s.valid)}/{len(s.test)}",
        })
    return pd.DataFrame(rows)


def table2_rows(spark, *, scale: float = 0.6,
                gens: dict | None = None) -> pd.DataFrame:
    gens = gens or ONE_TO_MANY
    rows = []
    for b in _bundles(spark, list(gens), gens, scale=scale):
        rows.append({
            "dataset": b.name,
            "F": f"{len(b.aggs)} fns ({', '.join(b.aggs[:5])}, …)",
            "n_A": len(b.agg_attrs),
            "n_attr": len(b.where_attrs),
            "K": ", ".join(b.keys),
            "n_T": template_count(len(b.where_attrs)),
        })
    return pd.DataFrame(rows)
