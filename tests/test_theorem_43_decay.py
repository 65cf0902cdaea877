"""Theorem 4.3's engine: the surviving-nest count decays geometrically.

The proof shows E[k_{r+4}] <= (65/66)·k_r for the number of competing
nests under Algorithm 2.  Measured decay is far faster (Lemma 4.2's 1/66
is very conservative); this test checks both directions: the per-block
decay beats the paper's bound, and at least one nest always survives.
"""

import numpy as np

from repro.analysis.theory import theorem_4_3_block_decay
from repro.model.nests import NestConfig
from tests.helpers.runs import fast_runs


def surviving_series(history: np.ndarray) -> list[int]:
    """Competing-nest counts at consecutive B2 sub-rounds."""
    counts = []
    for row in range(2, len(history), 4):
        competing = int((history[row][1:] > 0).sum())
        if competing == 0:
            break
        counts.append(competing)
    return counts


class TestSurvivorDecay:
    def collect(self, n=2048, k=16, trials=20):
        nests = NestConfig.all_good(k)
        transitions = []
        for result in fast_runs(
            "optimal", n, nests, range(trials), max_rounds=20_000,
            record_history=True,
        ):
            series = surviving_series(result.population_history)
            transitions.extend(zip(series, series[1:]))
        return transitions

    def test_decay_beats_the_paper_bound(self):
        transitions = self.collect()
        multi = [(a, b) for a, b in transitions if a > 1]
        assert multi, "no competitive transitions observed"
        ratios = [b / a for a, b in multi]
        assert np.mean(ratios) <= theorem_4_3_block_decay()

    def test_at_least_one_nest_always_survives(self):
        transitions = self.collect(trials=10)
        assert all(b >= 1 for _, b in transitions)

    def test_survivors_never_increase(self):
        transitions = self.collect(trials=10)
        assert all(b <= a for a, b in transitions)
