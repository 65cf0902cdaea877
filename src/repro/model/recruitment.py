"""The randomized recruitment pairing process (the paper's Algorithm 1).

Every ant located at the home nest in a round participates in recruitment,
either actively (``recruit(1, i)``) or passively (``recruit(0, i)``).  The
environment pairs recruiters with recruitees through the following process,
quoted from Section 2:

1. Draw a uniform random permutation ``P`` of the participant set ``R``.
2. Scan ``R`` in permutation order.  Each active ant ``a`` that has not
   itself been recruited picks a uniformly random ant ``a'`` from ``R``
   (*including possibly itself* — the Theorem 3.2 proof relies on forced
   self-recruitment when ``c(0, r) < 2``).  If ``a'`` has neither recruited
   nor been recruited, the ordered pair ``(a, a')`` joins the matching ``M``.
3. An ant that appears as a recruitee in ``M`` learns its recruiter's target
   nest; every other ant just gets its own input nest back.

The paper stresses this is "a centralized process run by the environment",
not a distributed algorithm — accordingly it lives here in the model layer
and is invoked by the engine once per round.

The core routine :func:`match_arrays` is array-based so the measurement
processes (:mod:`repro.api.processes`) can share it; :func:`run_recruitment`
is the object-level wrapper used by the agent-based engine.

Two draw schedules implement the same pairing law:

- **v1** (:func:`match_arrays`): the literal transcription — scan a fresh
  uniform permutation, each attempt drawing its choice lazily.  Used by the
  agent engine, the reference every fast kernel is tested against.
- **v2** (:func:`match_arrays_v2`): fixed slot-order scan with one choice
  pre-drawn per *wanting* slot.  Statistically equivalent to v1 (exactly
  so per round over exchangeable states; see docs/PERFORMANCE.md §3 for
  the precise scope) and data-independent, which is what lets
  :mod:`repro.fast.batch_matcher` resolve whole trial batches with array
  operations.  ``match_arrays_v2`` is the sequential *specification*; the
  batched resolver is tested bit-identical against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import AntId, NestId


@dataclass(frozen=True, slots=True)
class RecruitRequest:
    """One ant's participation in a recruitment round."""

    ant: AntId
    active: bool
    target: NestId


@dataclass(frozen=True)
class MatchOutcome:
    """Result of one recruitment round.

    Attributes
    ----------
    assignments:
        Nest id ``j`` returned to each participating ant.
    recruited_by:
        For each ant that was recruited, the recruiting ant's id (an ant
        paired with itself maps to its own id).
    successful_recruiters:
        Ants that appear as the first element of a pair in ``M``.
    """

    assignments: dict[AntId, NestId]
    recruited_by: dict[AntId, AntId]
    successful_recruiters: frozenset[AntId]

    @property
    def pairs(self) -> tuple[tuple[AntId, AntId], ...]:
        """The matching ``M`` as ``(recruiter, recruitee)`` pairs."""
        return tuple(
            (recruiter, recruitee)
            for recruitee, recruiter in sorted(self.recruited_by.items())
        )

    def was_recruited(self, ant: AntId) -> bool:
        """Whether ``ant`` was the second element of a pair in ``M``."""
        return ant in self.recruited_by


def match_arrays(
    active: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run Algorithm 1 over participant *slots* ``0..m-1``.

    Parameters
    ----------
    active:
        Boolean array of shape ``(m,)``; slot ``s`` called ``recruit(1, ·)``.
    targets:
        Integer array of shape ``(m,)``; the nest argument of each call.
    rng:
        Random generator for the permutation and the recruiters' choices.

    Returns
    -------
    results:
        Shape ``(m,)``; the nest id returned to each slot.
    recruiter_of:
        Shape ``(m,)``; ``recruiter_of[s]`` is the slot that recruited ``s``
        or ``-1`` if ``s`` was not recruited.  A self-pair yields
        ``recruiter_of[s] == s``.
    is_recruiter:
        Boolean shape ``(m,)``; slots that successfully recruited.
    """
    m = len(active)
    if len(targets) != m:
        raise ValueError("active and targets must have the same length")
    recruiter_of = np.full(m, -1, dtype=np.int64)
    is_recruiter = np.zeros(m, dtype=bool)
    results = targets.astype(np.int64, copy=True)
    if m == 0:
        return results, recruiter_of, is_recruiter

    permutation = rng.permutation(m)
    # Pre-draw one uniform choice per *potential* attempt.  An attempt is
    # made only by active slots that are still unrecruited when scanned, so
    # at most the number of active slots; drawing the block up front keeps
    # the per-slot work trivial.
    n_active = int(np.count_nonzero(active))
    choices = rng.integers(0, m, size=n_active) if n_active else np.empty(0, np.int64)
    cursor = 0
    for slot in permutation:
        if not active[slot] or recruiter_of[slot] != -1:
            continue
        chosen = int(choices[cursor])
        cursor += 1
        if not is_recruiter[chosen] and recruiter_of[chosen] == -1:
            is_recruiter[slot] = True
            recruiter_of[chosen] = slot

    recruited_mask = recruiter_of != -1
    results[recruited_mask] = targets[recruiter_of[recruited_mask]]
    return results, recruiter_of, is_recruiter


def match_arrays_v2(
    wants: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1 under the v2 draw schedule (sequential reference).

    Scans slots in slot order; every wanting slot gets one pre-drawn
    uniform choice (a single ``rng.integers(0, m, size=n_wanting)`` call,
    skipped entirely when nothing wants to recruit).  Same return triple as
    :func:`match_arrays`.  This loop is the executable specification of the
    batched resolver in :mod:`repro.fast.batch_matcher`, which must agree
    with it bit-for-bit for every trial in any batch.
    """
    m = len(wants)
    if len(targets) != m:
        raise ValueError("wants and targets must have the same length")
    recruiter_of = np.full(m, -1, dtype=np.int64)
    is_recruiter = np.zeros(m, dtype=bool)
    results = targets.astype(np.int64, copy=True)
    n_wanting = int(np.count_nonzero(wants))
    if m == 0 or n_wanting == 0:
        return results, recruiter_of, is_recruiter

    choice_of = np.empty(m, dtype=np.int64)
    choice_of[np.flatnonzero(wants)] = rng.integers(0, m, size=n_wanting)
    for slot in range(m):
        if not wants[slot] or recruiter_of[slot] != -1:
            continue
        chosen = int(choice_of[slot])
        if not is_recruiter[chosen] and recruiter_of[chosen] == -1:
            is_recruiter[slot] = True
            recruiter_of[chosen] = slot

    recruited_mask = recruiter_of != -1
    results[recruited_mask] = targets[recruiter_of[recruited_mask]]
    return results, recruiter_of, is_recruiter


def run_recruitment(
    requests: list[RecruitRequest],
    rng: np.random.Generator,
) -> MatchOutcome:
    """Object-level Algorithm 1 over a list of :class:`RecruitRequest`."""
    if not requests:
        return MatchOutcome(
            assignments={}, recruited_by={}, successful_recruiters=frozenset()
        )
    ants = np.array([req.ant for req in requests], dtype=np.int64)
    active = np.array([req.active for req in requests], dtype=bool)
    targets = np.array([req.target for req in requests], dtype=np.int64)

    results, recruiter_of, is_recruiter = match_arrays(active, targets, rng)

    assignments = {int(ants[s]): int(results[s]) for s in range(len(requests))}
    recruited_by = {
        int(ants[s]): int(ants[recruiter_of[s]])
        for s in range(len(requests))
        if recruiter_of[s] != -1
    }
    successful = frozenset(int(a) for a in ants[is_recruiter])
    return MatchOutcome(
        assignments=assignments,
        recruited_by=recruited_by,
        successful_recruiters=successful,
    )
