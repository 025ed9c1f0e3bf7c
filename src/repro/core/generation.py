"""SQL Query Generation component (§V, Figure 3).

Two TPE rounds over the query pool of a fixed template:

1. **Warm-Up Phase** — a proxy round (``PoolSearcher.proxy_round``): TPE
   maximises a *low-cost proxy* (default MI between the generated feature
   and the labels), warm-started from the pool's best proxy queries so far
   (QTI's node evaluation runs the same round). The top-k distinct proxy
   queries are then evaluated with the real downstream model and become the
   seeded surrogate observations.
2. **Query-Generation Phase** — TPE minimises the *real* validation loss,
   warm-started from those observations.

The NoWU ablation (paper Table VII) replaces both rounds with a single
real-loss TPE run of ``warmup_topk + gen_iters`` iterations — the paper's
"50+40=90 iterations" accounting, which charges the warm-up's real
evaluations to the baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BudgetProfile
from repro.core.evaluator import DownstreamEvaluator
from repro.core.executor import FeatureFrame, QueryExecutor
from repro.core.space import QuerySpace
from repro.core.tpe import N_STARTUP, Config, Trial, run_tpe


@dataclass
class GenerationStats:
    n_proxy_evals: int = 0
    n_real_evals: int = 0


class PoolSearcher:
    """Decode→execute→proxy/real-eval per config for one pool.

    Proxy scores and real losses are memoised per config; query results
    are memoised by the executor's SQL-text cache. ``best`` holds the
    configs of the three best trials of the latest proxy round.
    """

    def __init__(self, space: QuerySpace, executor: QueryExecutor,
                 evaluator: DownstreamEvaluator, proxy_fn, *, prefix: str):
        self.space = space
        self.executor = executor
        self.evaluator = evaluator
        self.proxy_fn = proxy_fn
        self.prefix = prefix
        self.best: list[Config] = []
        self._proxy: dict[tuple, float] = {}
        self._real: dict[tuple, float] = {}

    def frame(self, cfg: tuple) -> FeatureFrame:
        name = f"{self.prefix}_" + "_".join(map(str, cfg))
        return self.executor.feature_frame(self.space.decode(cfg), name)

    def proxy_score(self, cfg: tuple) -> float:
        """Higher = better; degenerate features score 0."""
        if cfg not in self._proxy:
            self._proxy[cfg] = float(self.proxy_fn(self.frame(cfg)))
        return self._proxy[cfg]

    def proxy_round(self, n_iters: int, *, seed: int, warm: list[Config],
                    n_startup: int = N_STARTUP) -> list[Trial]:
        """A short TPE search maximising the proxy in this pool, seeded with
        the ``warm`` configs; returns its (config, −proxy) trials."""
        trials = run_tpe(lambda cfg: -self.proxy_score(cfg), self.space.shape,
                         n_iters, seed=seed, n_startup=n_startup,
                         warm_start=[(c, -self.proxy_score(c)) for c in warm])
        self.best = [c for c, _ in sorted(trials, key=lambda t: t[1])[:3]]
        return trials

    def real_loss(self, cfg: tuple) -> float:
        if cfg not in self._real:
            self._real[cfg] = float(self.evaluator.valid_loss([self.frame(cfg)]))
        return self._real[cfg]

    @property
    def n_proxy(self) -> int:
        return len(self._proxy)

    @property
    def n_real(self) -> int:
        return len(self._real)


def generate_queries(searcher: PoolSearcher, budget: BudgetProfile, *, seed: int,
                     use_warmup: bool = True, top_m: int | None = None
                     ) -> tuple[list[tuple[FeatureFrame, float]], GenerationStats]:
    """Search one query pool; return the top-m (feature, real-loss) pairs.

    The warm-up round starts from ``searcher.best``, the best proxy queries
    the QTI component's node evaluation found in this pool (if any).
    """
    top_m = top_m if top_m is not None else budget.queries_per_template
    shape = searcher.space.shape

    if use_warmup:
        proxy_trials = searcher.proxy_round(budget.warmup_iters, seed=seed,
                                            warm=searcher.best)
        # Top-k distinct configs by proxy, real-evaluated → seed surrogate.
        seen: set[tuple] = set()
        ranked = [c for c, _ in sorted(proxy_trials, key=lambda t: t[1])
                  if not (c in seen or seen.add(c))]
        warm = [(cfg, searcher.real_loss(cfg)) for cfg in ranked[: budget.warmup_topk]]
        trials = run_tpe(searcher.real_loss, shape, budget.gen_iters,
                         seed=seed + 1, warm_start=warm)
    else:
        trials = run_tpe(searcher.real_loss, shape,
                         budget.warmup_topk + budget.gen_iters, seed=seed + 1)

    stats = GenerationStats(n_proxy_evals=searcher.n_proxy,
                            n_real_evals=searcher.n_real)

    # Rank all real-evaluated configs (deduped) by validation loss.
    best: dict[tuple, float] = {}
    for cfg, loss in trials:
        best[cfg] = min(loss, best.get(cfg, float("inf")))
    ranked = sorted(best.items(), key=lambda t: t[1])[:top_m]
    return [(searcher.frame(cfg), loss) for cfg, loss in ranked], stats
