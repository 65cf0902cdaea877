"""Agent-vs-fast equivalence for the lower-bound spread process.

Completes the cross-engine test triad (Algorithm 3 and Algorithm 2 have
their own equivalence tests): the two implementations of the information-
spreading process must produce statistically indistinguishable completion
times.
"""

import numpy as np
import pytest

from repro.core.colony import informed_spread_factory
from repro.core.lower_bound import IgnorantPolicy
from repro.model.nests import NestConfig
from repro.sim.run import run_trials
from tests.helpers.runs import fast_runs


@pytest.mark.parametrize(
    "policy", [IgnorantPolicy.WAIT, IgnorantPolicy.MIXED]
)
def test_spread_distributional_match(policy):
    n, k, trials = 96, 8, 15
    nests = NestConfig.single_good(k, good_nest=1)
    agent = run_trials(
        informed_spread_factory(policy),
        n,
        nests,
        n_trials=trials,
        base_seed=21,
        max_rounds=2000,
    )
    fast = fast_runs(
        "spread",
        n,
        nests,
        range(3000, 3000 + trials),
        max_rounds=2000,
        params={"policy": policy.value},
    )
    fast_median = float(np.median([r.converged_round for r in fast]))
    assert agent.success_rate == 1.0
    assert all(r.converged for r in fast)
    assert abs(fast_median - agent.median_rounds) <= 0.4 * max(
        fast_median, agent.median_rounds
    )


def test_fast_spread_search_policy_matches_coupon_collector_scale():
    """With pure searching (no recruitment), each ignorant ant finds the
    good nest w.p. 1/k per round; the colony completion time is the max of
    n geometric variables ≈ k·ln n.  The measured median should sit within
    a factor ~2 of that (discreteness + max-statistics slack)."""
    n, k = 512, 8
    expected = k * np.log(n)
    rounds = [
        r.rounds_to_convergence
        for r in fast_runs(
            "spread",
            n,
            NestConfig.single_good(k, good_nest=1),
            range(10),
            params={"policy": IgnorantPolicy.SEARCH.value},
        )
    ]
    measured = float(np.median(rounds))
    assert expected / 2 <= measured <= expected * 2
