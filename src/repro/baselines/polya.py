"""Pólya-urn reference dynamics.

Section 5 motivates Algorithm 3 as "similar to the well-known Polya's urn
model [2]": recruiting with probability proportional to population is a
rich-get-richer reinforcement, so large nests swamp small ones.  This
module provides the urn itself so experiment E14 can compare the two
processes' *dominance curves* (probability the initially larger nest wins,
as a function of its initial share):

- :class:`PolyaUrn` — the generalized urn of Chung–Handjani–Jungreis [2]:
  at each step one ball is added to urn ``i`` with probability
  ``c_i^γ / Σ_j c_j^γ``.  For ``γ > 1`` ("superlinear" feedback) one urn
  eventually takes *all* new balls — the analogue of Algorithm 3's
  convergence to a single nest; for ``γ = 1`` shares converge to a random
  (Beta/Dirichlet-distributed) limit and no single winner emerges.
- :func:`polya_batch` — the registry's ``polya`` kernel: many urns on one
  ``(trials, k)`` count plane, bit-identical to a :class:`PolyaUrn` each.
- :func:`urn_win_probability` — Monte-Carlo dominance curve.

Algorithm 3 effectively runs the γ=2 urn (a nest gains ants at rate
∝ p·(p − Σ²); its *relative* gain is superlinear in p), which is why a
single winner emerges there while the classical γ=1 urn would stabilize at
a random split.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: Steps whose uniforms :func:`polya_batch` draws per trial at once, so its
#: scratch is ``O(trials x DRAW_BLOCK)`` however long the run.
DRAW_BLOCK = 1024


class PolyaUrn:
    """A generalized Pólya urn with feedback exponent ``gamma``."""

    def __init__(self, counts: list[int] | np.ndarray, gamma: float = 1.0) -> None:
        values = np.asarray(counts, dtype=object)
        if values.ndim != 1 or len(values) < 2:
            raise ConfigurationError("need initial counts for at least two urns")
        if not any(values) or not all(
            isinstance(c, numbers.Real) and float(c).is_integer() and c >= 0
            for c in values
        ):
            raise ConfigurationError(
                "initial urn counts must be whole numbers >= 0, not all zero; "
                f"got {values.tolist()}"
            )
        if not isinstance(gamma, numbers.Real) or not 0 < gamma < math.inf:
            raise ConfigurationError(
                f"gamma must be a positive finite number, got {gamma!r}"
            )
        self.counts = values.astype(np.int64)
        self.gamma = float(gamma)

    @property
    def total(self) -> int:
        """Total number of balls."""
        return int(self.counts.sum())

    def shares(self) -> np.ndarray:
        """Current share of each urn."""
        return self.counts / self.counts.sum()

    def step(self, rng: np.random.Generator) -> int:
        """Add one ball; return the index of the reinforced urn."""
        weights = self.counts.astype(float) ** self.gamma
        chosen = int(rng.choice(len(self.counts), p=weights / weights.sum()))
        self.counts[chosen] += 1
        return chosen

    def run(self, steps: int, rng: np.random.Generator) -> np.ndarray:
        """Run ``steps`` reinforcements; return the share trajectory.

        The returned array has shape ``(steps + 1, k)`` (row 0 = initial
        shares).
        """
        counts, history = polya_batch(
            self.counts, self.gamma, steps, [rng], record_history=True
        )
        self.counts = counts[0]
        return history[0] / history[0].sum(axis=1, keepdims=True)


def polya_batch(
    counts: Sequence[int] | np.ndarray,
    gamma: float,
    steps: int,
    rngs: Sequence[np.random.Generator],
    record_history: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One urn per generator, all moved one step at a time.

    Returns the final ``(trials, k)`` counts and, with ``record_history``,
    the ``(trials, steps + 1, k)`` counts after each step (else ``None``).
    Trial ``t`` is bit-identical to ``PolyaUrn(counts, gamma)`` stepped on
    ``rngs[t]``: it draws the same uniforms (in blocks of
    :data:`DRAW_BLOCK`), and each step applies ``Generator.choice(p=)``'s
    own float operations row by row (docs/PERFORMANCE.md §2).
    """
    urn = PolyaUrn(counts, gamma)
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    trials, k = len(rngs), len(urn.counts)
    # The largest total weight a run can reach is k * (balls at the end)^gamma.
    top = urn.gamma * math.log(urn.total + steps) + math.log(k)
    if top >= math.log(sys.float_info.max):
        raise ConfigurationError(f"gamma={gamma!r} overflows the urn weights")
    plane = np.tile(urn.counts, (trials, 1))
    history = np.empty((trials, steps + 1, k), np.int64) if record_history else None
    if history is not None:
        history[:, 0] = plane
    rows = np.arange(trials)
    uniforms = np.empty((trials, min(steps, DRAW_BLOCK)))
    for start in range(0, steps, DRAW_BLOCK):
        block = uniforms[:, : min(DRAW_BLOCK, steps - start)]
        for row, rng in zip(block, rngs):
            rng.random(out=row)
        for step, u in enumerate(block.T, start + 1):
            weights = plane.astype(float) ** urn.gamma
            cdf = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            plane[rows, (cdf <= u[:, None]).sum(axis=1)] += 1
            if history is not None:
                history[:, step] = plane
    return plane, history


def urn_win_probability(
    initial_a: int,
    initial_b: int,
    steps: int,
    trials: int,
    rng: np.random.Generator,
    gamma: float = 2.0,
) -> float:
    """Monte-Carlo probability that urn A holds the larger share after
    ``steps`` reinforcements of a two-urn race.

    With ``gamma=2`` (Algorithm 3's effective feedback) this approximates
    the probability that the initially-larger nest wins the house-hunt; the
    curve sharpens as the initial gap grows — Lemma 5.7's multiplicative
    gap amplification in urn form.

    Trial ``t`` draws from the child stream ``rng.spawn(trials)[t]``, so
    all trials run as one :func:`polya_batch`.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    counts, _ = polya_batch([initial_a, initial_b], gamma, steps, rng.spawn(trials))
    return float(np.mean(counts[:, 0] > counts[:, 1]))
