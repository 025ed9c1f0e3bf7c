"""Query vectors, attribute domains and the query-pool search space (§V-A).

A query in the pool ``Q_T`` is encoded as a vector of finite-domain choices
(the paper's Example 9): one dim for the aggregation function, one for the
aggregated attribute, one dim per categorical WHERE attribute (its value or
``None`` = predicate absent), two dims per numeric/datetime WHERE attribute
(range lower / upper bound, each possibly ``None``), and one binary dim per
foreign-key attribute (``k ⊆ K``). Domains are *profiled from the relevant
Spark DataFrame*: top-k frequent values for categoricals, quantile grids for
numerics — so the discrete space TPE searches covers the data's actual value
distribution.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as fn
from pyspark.sql import types as T

from repro.core.template import QueryTemplate

#: sentinel meaning "no predicate on this dimension"
NONE = None


@dataclass(frozen=True)
class Predicate:
    """One rendered WHERE-clause conjunct (Definition 2)."""

    attr: str
    kind: str                  # "eq" | "range"
    sql_type: str              # "string" | "number" | "date" | "timestamp"
    value: object = None       # eq value
    lo: object = None          # range bounds; None = unbounded side
    hi: object = None


@dataclass(frozen=True)
class Query:
    """A fully instantiated predicate-aware SQL query (one point of Q_T)."""

    agg: str
    agg_attr: str
    predicates: tuple[Predicate, ...]
    keys: tuple[str, ...]


@dataclass(frozen=True)
class AttrDomain:
    """Profiled domain of one relevant-table attribute."""

    name: str
    kind: str                  # "categorical" | "numeric"
    sql_type: str              # "string" | "number" | "date" | "timestamp"
    values: tuple = ()         # categorical values or sorted quantile grid


def profile_domains(R: DataFrame, attrs: list[str], *, cat_cap: int = 12,
                    grid: int = 9) -> dict[str, AttrDomain]:
    """Profile WHERE-attribute domains from the relevant Spark DataFrame.

    Categorical (string/boolean) attributes keep their ``cat_cap`` most
    frequent values (one groupBy per attribute); numeric/date/timestamp
    attributes keep a deduplicated ``grid``-point quantile grid via
    ``approxQuantile`` (dates/timestamps are profiled on their epoch cast and
    mapped back).
    """
    schema = {f.name: f.dataType for f in R.schema.fields}
    out: dict[str, AttrDomain] = {}
    probs = list(np.linspace(0.0, 1.0, grid))
    for a in attrs:
        if a not in schema:
            raise KeyError(f"attribute {a!r} not in relevant table columns {sorted(schema)}")
        dt = schema[a]
        if isinstance(dt, (T.StringType, T.BooleanType)):
            rows = (
                R.where(fn.col(a).isNotNull())
                .groupBy(a).count()
                .orderBy(fn.desc("count"), fn.asc(a))
                .limit(cat_cap)
                .collect()
            )
            out[a] = AttrDomain(a, "categorical", "string",
                                tuple(str(r[a]) for r in rows))
        elif isinstance(dt, T.DateType):
            num = R.select(fn.datediff(fn.col(a), fn.lit("1970-01-01")).alias("v"))
            qs = num.na.drop().approxQuantile("v", probs, 0.001)
            days = sorted(set(int(q) for q in qs))
            vals = tuple(
                (pd.Timestamp("1970-01-01") + pd.Timedelta(days=d)).date().isoformat()
                for d in days
            )
            out[a] = AttrDomain(a, "numeric", "date", vals)
        elif isinstance(dt, T.TimestampType):
            num = R.select(fn.unix_timestamp(fn.col(a)).alias("v"))
            qs = num.na.drop().approxQuantile("v", probs, 0.001)
            secs = sorted(set(int(q) for q in qs))
            vals = tuple(
                pd.Timestamp(s, unit="s").strftime("%Y-%m-%d %H:%M:%S") for s in secs
            )
            out[a] = AttrDomain(a, "numeric", "timestamp", vals)
        elif isinstance(dt, T.NumericType):
            qs = R.select(a).na.drop().approxQuantile(a, probs, 0.001)
            if isinstance(dt, T.IntegralType):
                vals = tuple(sorted(set(int(round(q)) for q in qs)))
            else:
                vals = tuple(sorted(set(float(q) for q in qs)))
            out[a] = AttrDomain(a, "numeric", "number", vals)
        else:
            raise TypeError(f"unsupported WHERE-attribute type {dt} for {a!r}")
    return out


@dataclass
class Dim:
    """One finite search dimension: pick an index into ``options``."""

    name: str
    options: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.options)


class QuerySpace:
    """The vector space V of a query pool Q_T (§V-A), over finite dims.

    Configs are tuples of option indices — the representation TPE operates
    on; ``decode`` turns a config into an executable :class:`Query`.
    """

    def __init__(self, template: QueryTemplate, domains: dict[str, AttrDomain]):
        self.template = template
        self.domains = domains
        dims: list[Dim] = [
            Dim("agg", tuple(template.aggs)),
            Dim("agg_attr", tuple(template.agg_attrs)),
        ]
        for p in template.where_attrs:
            d = domains[p]
            if d.kind == "categorical":
                dims.append(Dim(f"eq:{p}", (NONE, *d.values)))
            else:
                dims.append(Dim(f"lo:{p}", (NONE, *d.values)))
                dims.append(Dim(f"hi:{p}", (NONE, *d.values)))
        # k ⊆ K: one inclusion bit per key when the foreign key is composite
        self._key_dims = len(template.keys) > 1
        if self._key_dims:
            for k in template.keys:
                dims.append(Dim(f"key:{k}", (0, 1)))
        self.dims = dims

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.dims)

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(int(rng.integers(0, len(d))) for d in self.dims)

    def decode(self, config: tuple[int, ...]) -> Query:
        """Config tuple → Query. Range bounds are swapped if lo > hi; an
        all-zero key-subset falls back to the full foreign key (a GROUP BY
        needs at least one key to join back on)."""
        if len(config) != len(self.dims):
            raise ValueError(f"config has {len(config)} dims, space has {len(self.dims)}")
        vals = {d.name: d.options[c] for d, c in zip(self.dims, config)}
        preds: list[Predicate] = []
        for p in self.template.where_attrs:
            d = self.domains[p]
            if d.kind == "categorical":
                v = vals[f"eq:{p}"]
                if v is not NONE:
                    preds.append(Predicate(p, "eq", d.sql_type, value=v))
            else:
                lo, hi = vals[f"lo:{p}"], vals[f"hi:{p}"]
                if lo is not NONE and hi is not NONE and lo > hi:
                    lo, hi = hi, lo
                if lo is not NONE or hi is not NONE:
                    preds.append(Predicate(p, "range", d.sql_type, lo=lo, hi=hi))
        if self._key_dims:
            keys = tuple(k for k in self.template.keys if vals[f"key:{k}"] == 1)
            if not keys:
                keys = self.template.keys
        else:
            keys = self.template.keys
        return Query(vals["agg"], vals["agg_attr"], tuple(preds), keys)


def lift_config(src: "QuerySpace", dst: "QuerySpace", cfg: tuple[int, ...]
                ) -> tuple[int, ...]:
    """Map a config between spaces of nested templates (shared domains).

    Dimensions present in both spaces keep their option index (they share
    the same profiled domain); dimensions only in ``dst`` get index 0 —
    ``None`` for predicate dims — so a parent node's query decodes to the
    *same* SQL inside the child's pool. Used to warm-start beam-search child
    nodes from their parent's best queries.
    """
    src_map = {d.name: c for d, c in zip(src.dims, cfg)}
    return tuple(
        min(src_map.get(d.name, 0), len(d) - 1) for d in dst.dims
    )
