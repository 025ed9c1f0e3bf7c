"""Featuretools-style feature generation ("FT", Kanter & Veeramachaneni'15).

Featuretools' deep feature synthesis over a one-to-many relationship reduces
to materialising every predicate-free group-by aggregation
``SELECT k, agg(a) FROM R GROUP BY k`` for agg ∈ F, a ∈ A — exactly the
paper's Example 3. This module computes the whole |F|×|A| feature matrix in
a *single wide Spark aggregation pass* for the 13 builtin functions, plus
one generated CTE query per attribute for ENTROPY and MAD (no Spark
builtin), then slices it into individual :class:`FeatureFrame`s.

Feature order is agg-major over the paper's F list (SUM of every attribute,
then MIN of every attribute, ...), so "FT without a selector" truncated to
the n-feature budget keeps a diverse mix of basic statistics.
"""
from __future__ import annotations

from repro.core.executor import FeatureFrame, QueryExecutor
from repro.core.space import Query
from repro.core.sqlgen import SIMPLE_AGGS
from repro.datasets.base import DatasetBundle


def ft_name(agg: str, attr: str) -> str:
    return f"ft_{agg.lower()}_{attr}"


def featuretools_features(executor: QueryExecutor, bundle: DatasetBundle
                          ) -> list[FeatureFrame]:
    """All |F|×|A| predicate-free aggregation features, agg-major order."""
    keys = list(bundle.keys)
    wide_cols = []
    for agg in bundle.aggs:
        if agg in SIMPLE_AGGS:
            for a in bundle.agg_attrs:
                wide_cols.append((agg, a, SIMPLE_AGGS[agg].format(a=a)))
    select = ", ".join(f"{expr} AS {ft_name(agg, a)}" for agg, a, expr in wide_cols)
    sql = (f"SELECT {', '.join(keys)}, {select} "
           f"FROM {executor.view} GROUP BY {', '.join(keys)}")
    wide = executor.run_sql(sql)

    frames: dict[tuple[str, str], FeatureFrame] = {}
    for agg, a, _ in wide_cols:
        name = ft_name(agg, a)
        frames[(agg, a)] = FeatureFrame(
            name=name, keys=bundle.keys,
            frame=wide[[*keys, name]], sql=f"{name} (wide pass)",
        )
    for agg in ("ENTROPY", "MAD"):
        if agg not in bundle.aggs:
            continue
        for a in bundle.agg_attrs:
            q = Query(agg, a, (), bundle.keys)
            frames[(agg, a)] = executor.feature_frame(q, ft_name(agg, a))

    ordered = []
    for agg in bundle.aggs:
        for a in bundle.agg_attrs:
            if (agg, a) in frames:
                ordered.append(frames[(agg, a)])
    return ordered
