"""Query templates (Definition 1) and their one-hot encodings (§VI-C2).

A query template ``T = (F, A, P, K)`` fixes the aggregation-function set,
the aggregatable attributes, the WHERE-clause attribute combination and the
foreign-key attributes; the query pool ``Q_T`` (Definition 2) it induces is
materialised lazily by :mod:`repro.core.space`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The paper's Table II aggregation-function set (15 functions).
PAPER_AGGS: tuple[str, ...] = (
    "SUM", "MIN", "MAX", "COUNT", "AVG",
    "COUNT_DISTINCT", "VAR", "VAR_SAMPLE",
    "STD", "STD_SAMPLE", "ENTROPY",
    "KURTOSIS", "MODE", "MAD", "MEDIAN",
)


@dataclass(frozen=True)
class QueryTemplate:
    """T = (F, A, P, K): aggs, agg attrs, WHERE attr combination, keys."""

    aggs: tuple[str, ...]
    agg_attrs: tuple[str, ...]
    where_attrs: tuple[str, ...]
    keys: tuple[str, ...]

    def __post_init__(self):
        for agg in self.aggs:
            if agg not in PAPER_AGGS:
                raise ValueError(f"unknown aggregation function {agg!r}")


def one_hot(combo, attr_universe: tuple[str, ...]) -> np.ndarray:
    """Encode a WHERE-attribute combination as the paper's one-hot vector.

    e.g. universe {A..F}, combo {A,C,E,F} → [1,0,1,0,1,1] (§VI-C2).
    """
    s = set(combo)
    unknown = s - set(attr_universe)
    if unknown:
        raise ValueError(f"combo attrs not in universe: {sorted(unknown)}")
    return np.array([1.0 if a in s else 0.0 for a in attr_universe])


def template_count(n_attrs: int) -> int:
    """|S_attr| = 2^|attr| (Definition 4)."""
    return 2**n_attrs
