"""FeatAug end-to-end on the tiny Tmall context (all ablations/proxies)."""
import pytest

from repro.core.feataug import run_feataug


class TestFullRun:
    @pytest.fixture(scope="class")
    def full(self, tmall_ctx):
        return run_feataug(tmall_ctx, "LR", seed=0)

    def test_produces_features_within_budget(self, tmall_ctx, full):
        assert 1 <= len(full.features) <= tmall_ctx.budget.n_features
        assert len({f.sql for f in full.features}) == len(full.features)

    def test_templates_within_depth(self, tmall_ctx, full):
        assert len(full.templates) == tmall_ctx.budget.n_templates
        assert all(1 <= len(t) <= tmall_ctx.budget.qti_depth for t in full.templates)
        assert all(set(t) <= set(tmall_ctx.bundle.where_attrs) for t in full.templates)

    def test_beats_base_features(self, tmall_ctx, full):
        base = tmall_ctx.evaluator("LR").evaluate([]).test_metric
        assert full.result.test_metric > base

    def test_stats_recorded(self, full):
        for k in ("n_spark_queries", "n_model_fits", "qti_nodes_evaluated"):
            assert full.stats[k] > 0

    def test_deterministic(self, tmall_ctx, full):
        again = run_feataug(tmall_ctx, "LR", seed=0)
        assert again.result.test_metric == full.result.test_metric
        assert [f.sql for f in again.features] == [f.sql for f in full.features]
        assert again.stats["n_spark_queries"] == 0  # all served by the SQL cache


class TestAblations:
    def test_noqti_single_template(self, tmall_ctx):
        out = run_feataug(tmall_ctx, "LR", seed=0, use_qti=False)
        assert out.templates == [tuple(tmall_ctx.bundle.where_attrs)]
        assert out.stats["use_qti"] is False

    def test_nowu_runs(self, tmall_ctx):
        out = run_feataug(tmall_ctx, "LR", seed=0, use_warmup=False)
        assert out.stats["use_warmup"] is False
        assert len(out.features) >= 1


class TestProxies:
    @pytest.mark.parametrize("proxy", ["SC", "LR"])
    def test_alternative_proxies_run(self, tmall_ctx, proxy):
        out = run_feataug(tmall_ctx, "LR", seed=0, proxy=proxy)
        assert out.stats["proxy"] == proxy
        assert 0.0 <= out.result.test_metric <= 1.0

    def test_unknown_proxy_raises(self, tmall_ctx):
        with pytest.raises(ValueError):
            run_feataug(tmall_ctx, "LR", seed=0, proxy="RMSE")


class TestModels:
    @pytest.mark.parametrize("model", ["XGB", "DeepFM"])
    def test_other_downstream_models(self, tmall_ctx, model):
        out = run_feataug(tmall_ctx, model, seed=0)
        assert 0.0 <= out.result.test_metric <= 1.0
