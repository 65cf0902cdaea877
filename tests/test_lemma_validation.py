"""Direct statistical validation of the paper's inner lemmas.

The benchmark experiments (E1–E14) cover the headline claims; these tests
pin the *intermediate* lemmas the proofs chain through, each measured on
exactly the process the lemma describes.  Thresholds are set with wide
margins so the tests are deterministic in practice at the given seeds.
"""

import numpy as np

from repro.core.lower_bound import IgnorantPolicy
from repro.model.nests import NestConfig
from repro.model.recruitment import match_arrays
from tests.helpers.runs import fast_runs


def informed_histories(n, k, seeds, max_rounds):
    """Informed-ant curves of fast spread runs (WAIT policy, good nest 1)."""
    reports = fast_runs(
        "spread",
        n,
        NestConfig.single_good(k, good_nest=1),
        seeds,
        max_rounds=max_rounds,
        params={"policy": IgnorantPolicy.WAIT.value},
    )
    return [np.asarray(r.extras["informed_history"]) for r in reports]


class TestLemma31IgnorancePersistence:
    """Lemma 3.1: an ignorant ant stays ignorant each round w.p. >= 1/4."""

    def test_per_round_survival_rate(self):
        # Aggregate ignorant->ignorant transition frequencies over full
        # spread runs in the most aggressive setting (everyone waits at
        # home where recruitment pressure is maximal).
        stayed = 0
        exposed = 0
        for history in informed_histories(256, 4, range(20), max_rounds=4000):
            ignorant = 256 - history
            for r in range(len(history) - 1):
                if ignorant[r] > 0:
                    exposed += ignorant[r]
                    stayed += ignorant[r + 1]
        survival = stayed / exposed
        assert survival >= 0.25

    def test_survival_rate_higher_with_fewer_recruiters(self):
        # Early rounds (few informed ants) must show higher ignorance
        # survival than late rounds (many recruiters) — the monotonicity
        # behind the lemma's worst-case constant.
        early, late = [], []
        for history in informed_histories(512, 8, range(20), max_rounds=4000):
            ignorant = 512 - history
            mid = len(history) // 2
            if ignorant[1] > 0:
                early.append(ignorant[2] / ignorant[1])
            if 0 < mid < len(history) - 1 and ignorant[mid] > 0:
                late.append(ignorant[mid + 1] / max(ignorant[mid], 1))
        assert np.mean(early) > np.mean(late)


class TestLemma52RateOrdering:
    """Lemma 5.2's consequence: the bigger nest's per-capita drift is no
    worse than the smaller nest's at matched recruit probability — in
    aggregate, bigger nests grow at the smaller nests' expense."""

    def test_bigger_nest_grows_at_smaller_nests_expense(self):
        gains_big, gains_small = [], []
        for result in fast_runs(
            "simple",
            2048,
            NestConfig.all_good(4),
            range(30),
            max_rounds=4000,
            record_history=True,
        ):
            shares = result.population_history[::2, 1:].astype(float) / 2048
            for row in range(min(6, len(shares) - 1)):
                current, nxt = shares[row], shares[row + 1]
                order = np.argsort(current)
                small, big = order[0], order[-1]
                if current[big] > current[small] > 0:
                    gains_big.append(nxt[big] - current[big])
                    gains_small.append(nxt[small] - current[small])
        assert np.mean(gains_big) > 0 > np.mean(gains_small)


class TestLemma57GapAmplification:
    """Lemma 5.7: E[ε(i,j,r+2)] >= (1 + 1/(2dk))·E[ε(i,j,r)] while both
    nests hold an Ω(1/k) share — the gap grows multiplicatively."""

    def test_expected_gap_grows(self):
        k, n, d = 4, 4096, 64
        threshold = 1.0 / (d * k)
        ratios = []
        for result in fast_runs(
            "simple",
            n,
            NestConfig.all_good(k),
            range(25),
            max_rounds=4000,
            record_history=True,
        ):
            shares = result.population_history[::2, 1:].astype(float) / n
            for row in range(len(shares) - 1):
                current, nxt = shares[row], shares[row + 1]
                # Track the top-two nests while both are above threshold.
                order = np.argsort(current)
                hi, lo = order[-1], order[-2]
                if current[lo] <= threshold or nxt[lo] == 0:
                    break
                eps_now = current[hi] / current[lo] - 1.0
                eps_next = max(nxt[hi], nxt[lo]) / min(nxt[hi], nxt[lo]) - 1.0
                if eps_now > 0:
                    ratios.append(eps_next / eps_now)
        # Multiplicative growth on average, comfortably above the paper's
        # (1 + 1/(2dk)) ≈ 1.002 floor.
        assert np.mean(ratios) > 1.002
        assert len(ratios) > 100


class TestLemma21Extremes:
    """Lemma 2.1 at its corner cases, directly on the matcher."""

    def test_two_ants_both_recruiting(self):
        rng = np.random.default_rng(3)
        active = np.ones(2, dtype=bool)
        targets = np.array([1, 2], dtype=np.int64)
        success = 0
        trials = 2000
        for _ in range(trials):
            _, recruiter_of, is_recruiter = match_arrays(active, targets, rng)
            success += int(is_recruiter[0] and recruiter_of[0] != 0)
        # Recruiting *another* ant with c(0,r)=2 and full contention: the
        # rate must still clear 1/16.
        assert success / trials >= 1 / 16

    def test_probability_decreases_with_contention(self):
        rng = np.random.default_rng(4)
        rates = []
        for fraction_active in (0.1, 0.5, 1.0):
            active = np.zeros(64, dtype=bool)
            active[0] = True
            active[1 : 1 + int(fraction_active * 63)] = True
            targets = np.arange(64, dtype=np.int64)
            success = sum(
                int(match_arrays(active, targets, rng)[2][0]) for _ in range(800)
            )
            rates.append(success / 800)
        assert rates[0] > rates[1] > rates[2] >= 1 / 16
