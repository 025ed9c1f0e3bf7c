"""The FEATAUG framework end to end (Figure 2).

``DatasetContext`` prepares the shared, method-independent state for one
dataset (cached relevant-table view, profiled WHERE-attribute domains,
train/valid/test splits); ``run_feataug`` then executes the two components:

1. Query Template Identification (optional — the NoQTI ablation replaces it
   with the single user-provided template over all candidate attributes);
2. SQL Query Generation per identified template (warm-up + TPE; the NoWU
   ablation drops the proxy warm-up round).

The output is the augmented-table evaluation (validation + held-out test
metric of the downstream model trained with base + generated features).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BudgetProfile
from repro.core.evaluator import DownstreamEvaluator, EvalResult
from repro.core.executor import FeatureFrame, QueryExecutor
from repro.core.generation import PoolSearcher, generate_queries
from repro.core.proxy import make_proxy
from repro.core.qti import identify_templates
from repro.core.space import QuerySpace, lift_config, profile_domains
from repro.core.template import QueryTemplate
from repro.datasets.base import DatasetBundle

_uid = itertools.count()


class DatasetContext:
    """Method-independent per-dataset state, shared across methods/models."""

    def __init__(self, spark, bundle: DatasetBundle, budget: BudgetProfile,
                 *, seed: int = 0):
        self.spark = spark
        self.bundle = bundle
        self.budget = budget
        self.seed = seed
        self.executor = QueryExecutor(spark, bundle.R, view=f"rel_{bundle.name.lower()}_{next(_uid)}")
        self.domains = profile_domains(
            bundle.R, list(bundle.where_attrs),
            cat_cap=budget.cat_domain_cap, grid=budget.grid_size,
        )
        self.splits = bundle.splits(seed)

    def space(self, combo) -> QuerySpace:
        t = QueryTemplate(self.bundle.aggs, self.bundle.agg_attrs,
                          tuple(combo), self.bundle.keys)
        return QuerySpace(t, self.domains)

    def evaluator(self, model_name: str, *, seed: int | None = None) -> DownstreamEvaluator:
        return DownstreamEvaluator(self.splits, model_name,
                                   seed=self.seed if seed is None else seed)

    def close(self) -> None:
        self.executor.unpersist()


@dataclass
class FeatAugOutput:
    result: EvalResult
    features: list[FeatureFrame]
    templates: list[tuple[str, ...]]
    stats: dict = field(default_factory=dict)


def _combo_rng(seed: int, combo, universe) -> np.random.Generator:
    idx = [universe.index(a) for a in combo]
    return np.random.default_rng([seed, 1000003, *idx])


def run_feataug(ctx: DatasetContext, model_name: str, *, seed: int = 0,
                use_qti: bool = True, use_warmup: bool = True,
                proxy: str = "MI") -> FeatAugOutput:
    """Run FeatAug for one (dataset, downstream model) scenario.

    ``use_qti=False`` → NoQTI ablation, ``use_warmup=False`` → NoWU
    ablation, ``proxy`` ∈ {"MI", "SC", "LR"} → Table VIII sweep.
    """
    bundle, budget = ctx.bundle, ctx.budget
    evaluator = ctx.evaluator(model_name, seed=seed)
    proxy_fn = make_proxy(proxy, evaluator)
    run_tag = next(_uid)
    universe = tuple(bundle.where_attrs)

    stats: dict = {"proxy": proxy, "use_qti": use_qti, "use_warmup": use_warmup}
    n_queries0 = ctx.executor.n_queries
    searchers: dict[tuple, PoolSearcher] = {}

    def get_searcher(combo) -> PoolSearcher:
        combo = tuple(combo)
        if combo not in searchers:
            searchers[combo] = PoolSearcher(
                ctx.space(combo), ctx.executor, evaluator, proxy_fn,
                prefix=f"f{run_tag}t{len(searchers)}",
            )
        return searchers[combo]

    if use_qti:
        def effectiveness(combo) -> float:
            # Optimization O1: short in-pool TPE search maximising the proxy
            # — the node's effectiveness estimate (best query's proxy value).
            # Child nodes warm-start from their parents' best queries (the
            # parent's pool embeds in the child's with the new dim = None),
            # so beam expansion refines instead of restarting.
            combo = tuple(combo)
            s = get_searcher(combo)
            rng = _combo_rng(seed, combo, universe)
            warm = []
            for drop in combo:
                parent = searchers.get(tuple(a for a in combo if a != drop))
                if parent is not None:
                    warm += [lift_config(parent.space, s.space, cfg)
                             for cfg in parent.best[:2]]
            trials = s.proxy_round(budget.qti_samples,
                                   seed=int(rng.integers(0, 2**31)), warm=warm,
                                   n_startup=max(2, budget.qti_samples // 2))
            return -min(loss for _, loss in trials)

        combos, qti_stats = identify_templates(
            universe, effectiveness, budget,
            n_templates=budget.n_templates, seed=seed,
        )
        stats["qti_nodes_evaluated"] = qti_stats.n_nodes_evaluated
        per_pool = budget.queries_per_template
    else:
        combos = [universe]
        per_pool = budget.n_features

    # SQL Query Generation per template (§V).
    chosen: list[tuple[FeatureFrame, float]] = []
    for i, combo in enumerate(combos):
        pairs, _ = generate_queries(
            get_searcher(combo), budget, seed=seed + 101 * (i + 1),
            use_warmup=use_warmup, top_m=per_pool,
        )
        chosen.extend(pairs)

    # Dedupe across pools (identical SQL and near-identical value columns —
    # e.g. COUNT(price) vs COUNT(quantity) under the same predicate), keep
    # the paper's feature budget. Value-dedupe keeps the small budget from
    # being burned on redundant columns.
    chosen.sort(key=lambda t: t[1])
    feats: list[FeatureFrame] = []
    seen_sql: set[str] = set()
    kept_cols: list[np.ndarray] = []
    cols = evaluator.features("train", [f for f, _ in chosen])
    for j, (f, _) in enumerate(chosen):
        if f.sql in seen_sql:
            continue
        col = cols[:, j]
        sd = col.std()
        if sd < 1e-12:
            continue  # constant feature
        corrs = [np.corrcoef(col, c)[0, 1] for c in kept_cols]
        if any(np.isfinite(r) and abs(r) > 0.985 for r in corrs):
            continue
        seen_sql.add(f.sql)
        kept_cols.append(col)
        feats.append(f)
        if len(feats) >= budget.n_features:
            break

    result = evaluator.evaluate(feats)
    stats.update(
        n_features=len(feats),
        n_spark_queries=ctx.executor.n_queries - n_queries0,
        n_model_fits=evaluator.n_fits,
    )
    return FeatAugOutput(result=result, features=feats,
                         templates=[tuple(c) for c in combos], stats=stats)
