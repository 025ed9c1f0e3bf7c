"""The layer boundaries of ``repro`` and the per-layer metrics read from them.

Each boundary is patched where its caller looks it up:
``profile_domains``, ``generate_queries``, ``identify_templates`` and
``make_proxy`` are imported by name into ``repro.core.feataug``;
``merge_features`` is imported by name into ``repro.core.evaluator``;
``QueryExecutor``, ``TPE`` and the model classes are patched on the class.
The benchmark itself records the two roots of each sample: ``setup``
(building the ``DatasetContext``) and ``scenario`` (one ``run_feataug``).
"""
from __future__ import annotations

import numpy as np

import repro.core.evaluator as evaluator_mod
import repro.core.executor as executor_mod
import repro.core.feataug as feataug_mod
import repro.core.tpe as tpe_mod
import repro.models as models
from tracer import Tracer

#: boundaries that fire on every workload; zero calls means a boundary was
#: renamed or moved, and must not read as "0 s"
REQUIRED = ("setup", "scenario", "executor.init", "space.profile",
            "executor.query", "qti", "qti.effectiveness", "generation",
            "evaluator.align", "models.fit", "proxy", "tpe.suggest")

#: per-layer metric → unit, in the order they are reported
UNITS = {
    "executor.init_s": "s",
    "executor.queries": "count",
    "executor.cache_hit_ratio": "ratio",
    "executor.busy_s": "s",
    "executor.query_p50_ms": "ms",
    "executor.query_p90_ms": "ms",
    "executor.rows_returned": "count",
    "space.profile_s": "s",
    "evaluator.align_calls": "count",
    "evaluator.align_s": "s",
    "models.fit_calls": "count",
    "models.fit_s": "s",
    "proxy.calls": "count",
    "proxy.s": "s",
    "tpe.suggest_calls": "count",
    "tpe.suggest_s": "s",
    "generation.proxy_evals": "count",
    "generation.real_evals": "count",
    "generation.self_s": "s",
    "qti.nodes_evaluated": "count",
    "qti.s": "s",
    "qti.self_s": "s",
    "feataug.self_s": "s",
    "search.useful_ratio": "ratio",
    "host.steal_s": "s",
    "driver.cpu_s": "s",
    "jvm.cpu_s": "s",
    "trace.overhead_s": "s",
}


def _run_sql(sp, fn, ex, sql, *args, **kwargs):
    n0 = ex.n_queries
    pdf = fn(ex, sql, *args, **kwargs)
    sp["miss"] = ex.n_queries > n0
    sp["rows"] = len(pdf)
    sp["sql"] = sql
    return pdf


def _generate(sp, fn, *args, **kwargs):
    pairs, stats = fn(*args, **kwargs)
    sp["proxy_evals"] = stats.n_proxy_evals
    sp["real_evals"] = stats.n_real_evals
    return pairs, stats


def install(tr: Tracer) -> None:
    """Patch every boundary; ``tr.restore()`` undoes it."""
    def identify(sp, fn, attrs, effectiveness, *args, **kwargs):
        combos, stats = fn(attrs, tr.traced(effectiveness, "qti.effectiveness"),
                           *args, **kwargs)
        sp["nodes_evaluated"] = stats.n_nodes_evaluated
        return combos, stats

    def proxy(sp, fn, *args, **kwargs):
        return tr.traced(fn(*args, **kwargs), "proxy")

    ex = executor_mod.QueryExecutor
    tr.wrap(ex, "__init__", "executor.init")
    tr.wrap(ex, "run_sql", "executor.query", _run_sql)
    tr.wrap(feataug_mod, "profile_domains", "space.profile")
    tr.wrap(feataug_mod, "identify_templates", "qti", identify)
    tr.wrap(feataug_mod, "generate_queries", "generation", _generate)
    tr.wrap(feataug_mod, "make_proxy", "proxy.make", proxy)
    tr.wrap(evaluator_mod, "merge_features", "evaluator.align")
    tr.wrap(tpe_mod.TPE, "suggest", "tpe.suggest")
    for cls in (models.LogisticRegression, models.GBDT, models.RandomForest,
                models.DeepFM):
        tr.wrap(cls, "fit", "models.fit")


def check_fired(tr: Tracer) -> None:
    """Raise unless every required boundary recorded at least one call."""
    seen = {sp["name"] for sp in tr.spans}
    missing = [name for name in REQUIRED if name not in seen]
    if missing:
        raise RuntimeError(f"boundaries recorded zero calls: {missing}")


def sample_metrics(tr: Tracer, run: int, *, n_features: int, queries: int,
                   hits: int, wrapper_cost_s: float) -> dict[str, float]:
    """Per-layer metrics of sample ``run``: the set-up ones if it built a
    context, the scenario ones if it ran a scenario. Host readings are added
    by the caller."""
    selfs = tr.self_times()
    mine = [(sp, selfs[i]) for i, sp in enumerate(tr.spans) if sp["run"] == run]

    def spans(name):
        return [sp for sp, _ in mine if sp["name"] == name]

    def total(name):
        return sum(sp["end"] - sp["start"] for sp in spans(name))

    def self_total(name):
        return sum(s for sp, s in mine if sp["name"] == name)

    out: dict[str, float] = {}
    if spans("setup"):
        out["executor.init_s"] = total("executor.init")
        out["space.profile_s"] = total("space.profile")
    if not spans("scenario"):
        return out
    q = spans("executor.query")
    miss_ms = [1000 * (sp["end"] - sp["start"]) for sp in q if sp["miss"]]
    distinct = len({sp["sql"] for sp in q})
    gen = spans("generation")
    out.update({
        "executor.queries": queries,
        "executor.cache_hit_ratio": hits / (hits + queries) if hits + queries else 0.0,
        "executor.busy_s": total("executor.query"),
        "executor.query_p50_ms": float(np.percentile(miss_ms, 50)) if miss_ms else 0.0,
        "executor.query_p90_ms": float(np.percentile(miss_ms, 90)) if miss_ms else 0.0,
        "executor.rows_returned": sum(sp["rows"] for sp in q if sp["miss"]),
        "evaluator.align_calls": len(spans("evaluator.align")),
        "evaluator.align_s": total("evaluator.align"),
        "models.fit_calls": len(spans("models.fit")),
        "models.fit_s": total("models.fit"),
        "proxy.calls": len(spans("proxy")),
        "proxy.s": total("proxy"),
        "tpe.suggest_calls": len(spans("tpe.suggest")),
        "tpe.suggest_s": total("tpe.suggest"),
        "generation.proxy_evals": sum(sp["proxy_evals"] for sp in gen),
        "generation.real_evals": sum(sp["real_evals"] for sp in gen),
        "generation.self_s": self_total("generation"),
        "qti.nodes_evaluated": sum(sp["nodes_evaluated"] for sp in spans("qti")),
        "qti.s": total("qti"),
        "qti.self_s": self_total("qti"),
        "feataug.self_s": self_total("scenario"),
        "search.useful_ratio": n_features / distinct if distinct else 0.0,
        "trace.overhead_s": wrapper_cost_s * len(mine),
    })
    return out
