"""Output checks for one FeatAug scenario.

A scenario passes when it kept at least one feature, its test loss is
finite, and every kept feature's frame equals its SQL re-run in DuckDB over
the same ``R`` (through :mod:`repro.oracle`). Two dialect points:

- Spark's ``KURTOSIS`` is the population excess kurtosis, DuckDB's
  ``KURTOSIS_POP``;
- ``MODE`` may break ties either way in either engine, so a MODE feature
  passes when each group's value is one of the group's most frequent values.
"""
from __future__ import annotations

import math
import re

import duckdb
import pandas as pd

from repro.oracle import assert_equivalent

_MODE = re.compile(
    r"SELECT (?P<keys>[\w, ]+), MODE\((?P<attr>\w+)\) AS feature "
    r"FROM (?P<table>\w+) (?:(?P<where>WHERE .*) )?GROUP BY (?P=keys)",
    re.DOTALL,
)


class _Collected:
    """A driver-side frame in the form :func:`assert_equivalent` reads."""

    def __init__(self, pdf: pd.DataFrame) -> None:
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self._pdf


def held_out_loss(out) -> float:
    """1 - test AUC (every workload is a binary task)."""
    return 1.0 - float(out.result.test_metric)


def _check_mode(got: pd.DataFrame, m: re.Match, R: pd.DataFrame) -> None:
    keys, attr, table = m["keys"], m["attr"], m["table"]
    flt = f"(SELECT * FROM {table} {m['where'] or ''}) flt"
    con = duckdb.connect()
    try:
        con.register(table, R)
        groups = con.execute(f"SELECT {keys} FROM {flt} GROUP BY {keys}").fetchdf()
        modal = con.execute(
            f"WITH c AS (SELECT {keys}, {attr} AS v, COUNT(*) AS n FROM {flt} "
            f"WHERE {attr} IS NOT NULL GROUP BY {keys}, {attr}) "
            f"SELECT {keys}, v FROM c WHERE n = "
            f"(SELECT MAX(n) FROM c AS c2 WHERE "
            + " AND ".join(f"c2.{k} = c.{k}" for k in keys.split(", "))
            + ")"
        ).fetchdf()
    finally:
        con.close()
    key_cols = keys.split(", ")
    if len(got) != len(groups):
        raise AssertionError(f"MODE: {len(got)} groups, expected {len(groups)}")
    allowed = set(modal.itertuples(index=False, name=None))
    has_value = {t[:-1] for t in allowed}
    for row in got[[*key_cols, "feature"]].itertuples(index=False, name=None):
        k, v = row[:-1], row[-1]
        ok = (k not in has_value) if pd.isna(v) else ((*k, v) in allowed)
        if not ok:
            raise AssertionError(f"MODE: group {k} got {v!r}, not a most frequent value")


def check_output(out, view: str, R: pd.DataFrame) -> list[str]:
    """Problems found in one ``run_feataug`` output; empty when it passes."""
    problems = []
    if out.result.n_features < 1 or not out.features:
        problems.append("no feature kept")
    if not math.isfinite(held_out_loss(out)):
        problems.append(f"test loss {held_out_loss(out)!r} is not finite")
    for f in out.features:
        got = f.frame[[*f.keys, f.name]].rename(columns={f.name: "feature"})
        try:
            m = _MODE.fullmatch(f.sql)
            if m:
                _check_mode(got, m, R)
            else:
                sql = re.sub(r"\bKURTOSIS\(", "KURTOSIS_POP(", f.sql)
                assert_equivalent(_Collected(got), sql, **{view: R})
        except AssertionError as e:
            problems.append(f"{f.name} ({f.sql!r}): {e}")
    return problems
