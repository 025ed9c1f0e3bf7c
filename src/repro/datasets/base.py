"""Dataset bundle shared by every generator and experiment harness."""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.evaluator import TableSplits, make_splits
from repro.core.template import PAPER_AGGS


@dataclass
class DatasetBundle:
    """A training table D, a relevant table R, and template ingredients.

    ``R`` is a Spark DataFrame (the dataflow side); ``D_pandas`` is the
    small training table, kept driver-side for the evaluator.
    ``where_attrs`` is the paper's "# of attr" candidate set for WHERE
    clauses, ``agg_attrs`` its "A" aggregation attributes, ``keys`` the
    group-by/foreign keys "K".
    """

    name: str
    R: DataFrame
    D_pandas: pd.DataFrame
    keys: tuple[str, ...]
    base_features: tuple[str, ...]
    agg_attrs: tuple[str, ...]
    where_attrs: tuple[str, ...]
    task: str                      # "binary" | "multiclass" | "regression"
    aggs: tuple[str, ...] = PAPER_AGGS
    info: dict = field(default_factory=dict)

    def splits(self, seed: int = 0) -> TableSplits:
        return make_splits(self.D_pandas, self.keys, self.base_features,
                           self.task, seed=seed)

def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """createDataFrame with stable column order (Arrow path is enabled)."""
    return spark.createDataFrame(pdf)


def standardise(x) -> pd.Series:
    """z-score a vector (used to mix planted signals on a common scale)."""
    x = pd.Series(x).astype(float)
    sd = x.std()
    return (x - x.mean()) / (sd if sd > 1e-12 else 1.0)
