"""Property-based tests (hypothesis) for core invariants.

These attack the substrate with generated inputs: the recruitment matcher
(the model's trickiest component), the environment's conservation laws, the
table formatter, and the statistics helpers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import wilson_interval
from repro.model.nests import NestConfig
from repro.model.recruitment import match_arrays
from repro.sim.rng import RandomSource
from tests.helpers.runs import fast_run


@st.composite
def matcher_inputs(draw):
    """A participant set: activity flags, targets, and a seed."""
    m = draw(st.integers(min_value=1, max_value=64))
    active = draw(
        st.lists(st.booleans(), min_size=m, max_size=m).map(
            lambda flags: np.asarray(flags, dtype=bool)
        )
    )
    targets = draw(
        st.lists(
            st.integers(min_value=1, max_value=8), min_size=m, max_size=m
        ).map(lambda values: np.asarray(values, dtype=np.int64))
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return active, targets, seed


class TestMatcherProperties:
    @given(matcher_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matching_is_well_formed(self, inputs):
        active, targets, seed = inputs
        results, recruiter_of, is_recruiter = match_arrays(
            active, targets, np.random.default_rng(seed)
        )
        m = len(active)
        # 1. Only active slots ever recruit.
        assert not np.any(is_recruiter & ~active)
        # 2. recruiter_of points at actual recruiters (or -1).
        recruited = recruiter_of != -1
        assert np.all(is_recruiter[recruiter_of[recruited]])
        # 3. Each recruiter recruits exactly one slot.
        recruiters, counts = np.unique(recruiter_of[recruited], return_counts=True)
        assert np.all(counts == 1)
        assert len(recruiters) == int(is_recruiter.sum())
        # 4. A slot is never both a recruiter and someone else's recruitee.
        both = is_recruiter & recruited
        assert np.all(recruiter_of[both] == np.flatnonzero(both))
        # 5. Results: recruited slots echo their recruiter's target, the
        #    rest echo their own.
        expected = targets.copy()
        expected[recruited] = targets[recruiter_of[recruited]]
        assert np.array_equal(results, expected)

    @given(matcher_inputs())
    @settings(max_examples=100, deadline=None)
    def test_deterministic_in_seed(self, inputs):
        active, targets, seed = inputs
        first = match_arrays(active, targets, np.random.default_rng(seed))
        second = match_arrays(active, targets, np.random.default_rng(seed))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestEnvironmentProperties:
    @given(
        n=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rounds=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_ants_are_conserved(self, n, k, seed, rounds):
        from repro.model.environment import Environment

        rng = np.random.default_rng(seed)
        env = Environment(n, NestConfig.all_good(k))
        for _ in range(rounds):
            destinations = rng.integers(0, k + 1, size=n)
            env.apply_moves(destinations)
            counts = env.counts()
            assert counts.sum() == n
            assert counts.min() >= 0
        # Every ant's current location is known to it.
        for ant in range(n):
            assert env.knows(ant, env.location_of(ant))


class TestSimulationProperties:
    @given(
        n=st.integers(min_value=2, max_value=48),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_simple_algorithm_total_population_invariant(self, n, k, seed):
        result = fast_run(
            "simple", n, NestConfig.all_good(k), seed=seed, max_rounds=4000,
            record_history=True,
        )
        history = result.population_history
        assert (history.sum(axis=1) == n).all()
        if result.converged:
            assert result.chosen_nest is not None
            assert 1 <= result.chosen_nest <= k
            assert result.final_counts[result.chosen_nest] == n

    @given(
        n=st.integers(min_value=2, max_value=48),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_optimal_algorithm_population_invariant(self, n, k, seed):
        result = fast_run(
            "optimal", n, NestConfig.all_good(k), seed=seed, max_rounds=4000,
            record_history=True,
        )
        history = result.population_history
        assert (history.sum(axis=1) == n).all()


class TestStatsProperties:
    @given(
        trials=st.integers(min_value=1, max_value=10_000),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_wilson_interval_sane(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


class TestRandomSourceProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        name=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_streams_reproducible_for_any_name(self, seed, name):
        a = RandomSource(seed).stream(name).random(3)
        b = RandomSource(seed).stream(name).random(3)
        assert np.array_equal(a, b)
