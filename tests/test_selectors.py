"""The seven FT selectors over the tiny Household feature pool."""
import pytest

from repro.baselines import featuretools_features
from repro.core.config import TINY
from repro.selectors import SELECTOR_NAMES, select


@pytest.fixture(scope="module")
def household_pool(household_ctx):
    return featuretools_features(household_ctx.executor, household_ctx.bundle)


@pytest.mark.parametrize("method", SELECTOR_NAMES)
def test_returns_n_distinct_pool_members(household_ctx, household_pool, method):
    n = TINY.n_features
    chosen = select(method, household_pool, household_ctx.evaluator("LR"), n,
                    seed=0, budget=TINY)
    names = [f.name for f in chosen]
    assert len(names) == n and len(set(names)) == n
    assert set(names) <= {f.name for f in household_pool}


def test_forward_fits_one_model_per_sampled_candidate(household_ctx, household_pool):
    ev = household_ctx.evaluator("LR")
    n = TINY.n_features
    select("Forward", household_pool, ev, n, seed=0, budget=TINY)
    remaining = min(len(household_pool), TINY.selector_pool_cap)
    assert ev.n_fits == sum(min(TINY.selector_sample_cap, remaining - step)
                            for step in range(n))
