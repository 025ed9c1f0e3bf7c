"""SQL Query Generation + QTI over a real (tiny) Spark context."""
import numpy as np
import pytest

import repro.core.evaluator as evaluator_mod
from repro.core.config import TINY
from repro.core.generation import PoolSearcher, generate_queries
from repro.core.proxy import make_proxy


def _searcher(ctx, combo, prefix) -> PoolSearcher:
    evaluator = ctx.evaluator("LR")
    return PoolSearcher(ctx.space(combo), ctx.executor, evaluator,
                        make_proxy("MI", evaluator), prefix=prefix)


@pytest.fixture()
def searcher(tmall_ctx):
    return _searcher(tmall_ctx, ("action_type", "ts_day"), "tgen")


class TestPoolSearcher:
    def test_frame_cached_per_config(self, searcher):
        cfg = searcher.space.sample(np.random.default_rng(0))
        f1 = searcher.frame(cfg)
        n_queries = searcher.executor.n_queries
        f2 = searcher.frame(cfg)
        assert searcher.executor.n_queries == n_queries
        assert f2.sql == f1.sql and f2.name == f1.name

    def test_proxy_and_real_memoised(self, searcher):
        cfg = searcher.space.sample(np.random.default_rng(1))
        p1, p2 = searcher.proxy_score(cfg), searcher.proxy_score(cfg)
        assert p1 == p2 and searcher.n_proxy == 1
        l1, l2 = searcher.real_loss(cfg), searcher.real_loss(cfg)
        assert l1 == l2 and searcher.n_real == 1

    def test_proxy_nonnegative_mi(self, searcher):
        cfg = searcher.space.sample(np.random.default_rng(2))
        assert searcher.proxy_score(cfg) >= 0.0

    def test_mi_proxy_aligns_train_split_only(self, searcher, monkeypatch):
        calls = []
        merge = evaluator_mod.merge_features
        monkeypatch.setattr(evaluator_mod, "merge_features",
                            lambda base, feats: calls.append(len(base)) or merge(base, feats))
        searcher.proxy_score(searcher.space.sample(np.random.default_rng(3)))
        assert calls == [len(searcher.evaluator.splits.train)]


class TestGenerateQueries:
    def test_warmup_path(self, searcher):
        pairs, stats = generate_queries(searcher, TINY, seed=0, use_warmup=True)
        assert 1 <= len(pairs) <= TINY.queries_per_template
        losses = [l for _, l in pairs]
        assert losses == sorted(losses)
        assert stats.n_proxy_evals > 0
        # real evals = warmup_topk seeds + gen_iters (minus memo repeats)
        assert stats.n_real_evals <= TINY.warmup_topk + TINY.gen_iters

    def test_warmup_real_evaluates_best(self, tmall_ctx):
        # a config handed over in ``best`` (as QTI does) with a dominant
        # proxy score must reach the real-loss round
        s = _searcher(tmall_ctx, ("action_type", "ts_day"), "tbest")
        target = s.space.sample(np.random.default_rng(7))
        target_sql = s.frame(target).sql
        s.proxy_fn = lambda f: 1.0 if f.sql == target_sql else 0.0
        s.best = [target]
        real, real_loss = [], s.real_loss
        s.real_loss = lambda cfg: real.append(cfg) or real_loss(cfg)
        generate_queries(s, TINY, seed=0)
        assert target in real

    def test_nowu_path_skips_proxy(self, tmall_ctx):
        s = _searcher(tmall_ctx, ("category",), "tnowu")
        pairs, stats = generate_queries(s, TINY, seed=0, use_warmup=False)
        assert stats.n_proxy_evals == 0
        assert len(pairs) >= 1

    def test_deterministic(self, tmall_ctx):
        def run(prefix):
            s = _searcher(tmall_ctx, ("brand",), prefix)
            pairs, _ = generate_queries(s, TINY, seed=5)
            return [(f.sql, round(l, 12)) for f, l in pairs]

        assert run("d1") == run("d2")

    def test_top_m_respected(self, searcher):
        pairs, _ = generate_queries(searcher, TINY, seed=1, top_m=1)
        assert len(pairs) == 1
