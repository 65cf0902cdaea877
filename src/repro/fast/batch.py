"""Trial-parallel fast engines: whole sweeps as ``(trials, ants)`` arrays.

Each ``simulate_*_batch`` kernel runs ``B`` independent trials of one
workload simultaneously.  Per-ant state lives in ``(B, n)`` arrays, one
round of the round loop advances *every* live trial at once, and trials
drop out of the per-round work as they converge (the live arrays are
compacted), so a batch costs roughly one trial's worth of Python overhead
plus vectorized array work proportional to the surviving trials.

Randomness is strictly per-trial: trial ``b`` draws only from its own
:class:`~repro.sim.rng.RandomSource` streams, in an order determined by its
own trajectory.  Consequently **batching is invisible to the bits**: trial
``t`` produces the same result alone (``B = 1``), in any chunk of any
batch, and under any worker count — the invariant
:func:`repro.api.run_batch` and its tests rely on.

All kernels use the v2 matcher schedule (:mod:`repro.fast.batch_matcher`);
round semantics otherwise mirror the agent implementations
(:class:`repro.core.simple.SimpleAnt`, :class:`repro.core.optimal.OptimalAnt`,
:class:`repro.core.lower_bound.InformedSpreadAnt`,
:class:`repro.baselines.quorum.QuorumAnt`,
:class:`repro.baselines.uniform.UniformRecruitAnt`), which run the v1
schedule (:func:`repro.model.recruitment.match_arrays`).

**Allocation discipline** (PR 5; see docs/PERFORMANCE.md §5): per-round
temporaries come from the process-local :func:`~repro.fast.arena.
shared_arena` and are written with ``out=`` ufunc forms, so a round loop
steady-state allocates (almost) nothing; per-ant state is dtype-tightened
(``int32``/``bool_``/``int8`` — every value is bounded by ``n < 2**31``);
compaction recycles the live arrays in place
(:func:`~repro.fast.arena.compact_rows`) instead of reallocating.
Outputs are converted back to ``int64`` at finalize time, and the RNG
draw schedule is untouched, so results are **bit-identical** to the
pre-arena kernels — ``tests/test_golden_digests.py`` pins this against
fixed-seed digests captured from PR-4 HEAD.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.core.lower_bound import IgnorantPolicy
from repro.exceptions import ConfigurationError
from repro.extensions.estimation import EncounterNoise
from repro.fast import profiling
from repro.fast.arena import compact_rows, shared_arena
from repro.fast.backends import (
    PerturbedState,
    pair_resolver,
    perturbed_ops,
    resolve_backend,
)
from repro.fast.batch_matcher import (
    match_pairs_batch,
    match_positions_batch,
)
from repro.fast.results import FastRunResult, SpreadResult
from repro.fast.tiling import resolve_tile_width, tile_spans
from repro.lintkit.sanitize import sanitized
from repro.model.nests import NestConfig
from repro.sim.asynchrony import DelayModel
from repro.sim.faults import (
    BYZANTINE_MAX_SEARCH_ROUNDS,
    CrashMode,
    FaultPlan,
)
from repro.sim.noise import CountNoise
from repro.sim.rng import RandomSource
from repro.types import GOOD_THRESHOLD

RateMultiplier = Callable[[int], float]


def _check_batch(n: int, sources: Sequence[RandomSource]) -> None:
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if not sources:
        raise ConfigurationError("batch kernels need at least one RandomSource")


def _row_bincount(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row ``bincount(minlength=k+1)`` of an ``(L, n)`` nest-id array."""
    n_rows = values.shape[0]
    offsets = np.arange(n_rows, dtype=np.int64)[:, None] * (k + 1)
    flat = np.bincount((values + offsets).ravel(), minlength=n_rows * (k + 1))
    return flat.reshape(n_rows, k + 1)


def _row_offsets(n_rows: int, k: int) -> np.ndarray:
    """Column vector of per-row bin offsets for flat count lookups."""
    return np.arange(n_rows, dtype=np.int64)[:, None] * (k + 1)


def _assess(values: np.ndarray, k: int, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row nest populations and each ant's own-nest count, in one pass.

    Returns ``(counts, count, flat_ids)``: the ``(L, k+1)`` population
    matrix, the ``(L, n)`` gather of each ant's nest population, and the
    flat bin index of each ant (``values + offsets``) for incremental
    maintenance.
    """
    n_rows = values.shape[0]
    flat_ids = values + offsets
    flat = np.bincount(flat_ids.ravel(), minlength=n_rows * (k + 1))
    return flat.reshape(n_rows, k + 1), flat[flat_ids], flat_ids


def _gather_counts(
    counts: np.ndarray, values: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-ant lookup ``counts[row, values[row, ant]]`` via flat indexing."""
    return counts.ravel()[values + offsets]


def _fill_rows(
    buffer: np.ndarray, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Per-trial uniform coins drawn straight into a reusable buffer."""
    view = buffer[: len(rngs)]
    for row, rng in enumerate(rngs):
        rng.random(out=view[row])
    return view


def _filter_lists(keep: np.ndarray, *lists: list) -> tuple[list, ...]:
    kept = np.flatnonzero(keep)
    return tuple([lst[i] for i in kept] for lst in lists)


def _draw_initial_nests(
    view: np.ndarray, env_rngs: Sequence[np.random.Generator], k: int
) -> np.ndarray:
    """Round-1 search destinations drawn row by row into ``view``.

    Consumes each trial's environment stream exactly like the historical
    ``np.stack([rng.integers(1, k + 1, size=n) for ...])`` while reusing
    the (dtype-tightened) state buffer.
    """
    n = view.shape[1]
    for row, rng in enumerate(env_rngs):
        view[row] = rng.integers(1, k + 1, size=n)
    return view


def _unanimous_choice(nest_rows: np.ndarray) -> np.ndarray:
    """Batched ``chosen_nest``: each row's first nest if unanimous, else 0.

    The vectorized replacement for the historical per-row
    ``int(nest[row, 0]) if np.all(nest[row] == nest[row, 0]) else None``
    finalize scan, shared by the simple/optimal/quorum kernels.
    """
    ref = nest_rows[:, 0]
    same = np.logical_and.reduce(nest_rows == ref[:, None], axis=1)
    return np.where(same, ref, 0)


class _NoisePerturber:
    """Per-trial measurement noise covering the full ``CountNoise`` and
    ``EncounterNoise`` models (Gaussian count error, mechanistic
    encounter-rate estimates, and binary quality flips).

    The Gaussian path mirrors ``simulate_simple``'s ``perturb``
    draw-for-draw on each trial's own noise stream, so pre-existing
    Gaussian-noise batches stay bit-identical; the flip and encounter draws
    are new schedules, consumed strictly per trial in trajectory order so
    batching composition stays invisible to the bits.
    """

    def __init__(
        self,
        noise: CountNoise | EncounterNoise | None,
        sources: Sequence[RandomSource],
        n: int,
    ):
        null = noise is None or noise.is_null
        self.noise = noise
        self.n = n
        self.flip_prob = 0.0 if null else float(noise.quality_flip_prob)
        self.estimator = None if null else getattr(noise, "estimator", None)
        gaussian = (
            not null
            and self.estimator is None
            and (noise.relative_sigma > 0.0 or noise.absolute_sigma > 0.0)
        )
        #: Whether count readings are perturbed at all.
        self.active = gaussian or self.estimator is not None
        draws = self.active or self.flip_prob > 0.0
        self.rngs = [s.noise for s in sources] if draws else []

    def filter(self, keep: np.ndarray) -> None:
        if self.rngs:
            (self.rngs,) = _filter_lists(keep, self.rngs)

    def __call__(
        self, values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Perturbed (rounded, clamped) per-ant count readings.

        With ``out`` given (an integer array of ``values.shape``), the
        result is written there and the only steady-state allocations left
        are the estimator path's per-row binomial draws (``Generator.
        binomial`` has no ``out=`` form).  The Gaussian path consumes each
        trial's noise stream draw-for-draw as before (``standard_normal``
        into a scratch row is the same stream as ``standard_normal(n)``),
        so pre-existing Gaussian-noise batches stay bit-identical.
        """
        if not self.active:
            if out is not None and out is not values:
                out[...] = values
                return out
            return values
        n = self.n
        width = values.shape[1]
        arena = shared_arena()
        # Row-at-a-time processing: the float scratch is two (n,) rows
        # shared by every trial, not an (L, n) plane — the perturber's
        # contribution to peak memory is O(n), independent of the batch.
        # Every elementwise op and every draw happens per row in the same
        # order as the historical plane-wide form, so results (and stream
        # consumption) are bit-identical.
        row_buf = arena.buf("noise.row", (width,), np.float64)
        result = np.empty(values.shape, dtype=np.int64) if out is None else out
        if self.estimator is not None:
            trials, capacity = self.estimator.trials, self.estimator.capacity
            for row, rng in enumerate(self.rngs):
                np.divide(values[row], capacity, out=row_buf)
                np.minimum(row_buf, 1.0, out=row_buf)
                # Generator.binomial has no out= form; the per-row draw is
                # the estimator path's one steady-state allocation.
                drawn = rng.binomial(trials, row_buf)
                np.divide(drawn, trials, out=row_buf)
                row_buf *= capacity
                np.rint(row_buf, out=row_buf)
                np.clip(row_buf, 0, n, out=row_buf)
                result[row] = row_buf
        else:
            noise = self.noise
            g = arena.buf("noise.g", (width,), np.float64)
            for row, rng in enumerate(self.rngs):
                row_buf[...] = values[row]  # the float working copy
                if noise.relative_sigma > 0.0:
                    rng.standard_normal(out=g)
                    np.multiply(g, noise.relative_sigma, out=g)
                    g += 1.0
                    row_buf *= g
                if noise.absolute_sigma > 0.0:
                    rng.standard_normal(out=g)
                    np.multiply(g, noise.absolute_sigma, out=g)
                    row_buf += g
                np.rint(row_buf, out=row_buf)
                np.clip(row_buf, 0, n, out=row_buf)
                # row_buf is integral after rint, so the cast-on-assign
                # truncation equals the historical astype(np.int64).
                result[row] = row_buf
        return result

    def flip_tile(self, width: int) -> np.ndarray | None:
        """Per-ant quality-flip mask for one ``width``-wide column tile.

        Each trial's flip coins are consumed in global ant order: calling
        this over consecutive tiles draws the same per-row stream as one
        full-width :meth:`flip_rows` call (``Generator.random`` fills
        element-wise), so tiling is invisible to the flip schedule.
        """
        # 0.0 is an exact "flips off" sentinel set verbatim from config,
        # never produced by arithmetic.
        if self.flip_prob == 0.0:  # reprolint: disable=D104 -- exact sentinel
            return None
        flips = np.empty((len(self.rngs), width), dtype=bool)
        for row, rng in enumerate(self.rngs):
            flips[row] = rng.random(width) < self.flip_prob
        return flips

    def flip_rows(self) -> np.ndarray | None:
        """Per-ant quality-flip mask for one full ``(L, n)`` observation."""
        return self.flip_tile(self.n)

    def flip_draws(self, row: int, size: int) -> np.ndarray:
        """Quality-flip coins for ``size`` observations of one trial."""
        if self.flip_prob == 0.0 or size == 0:  # reprolint: disable=D104 -- exact sentinel
            return np.zeros(size, dtype=bool)
        return self.rngs[row].random(size) < self.flip_prob


# ---------------------------------------------------------------------------
# Algorithm 3 ("simple"), its rate-schedule variant, and the uniform ablation
# ---------------------------------------------------------------------------


@sanitized
def simulate_simple_batch(
    n: int,
    nests: NestConfig,
    sources: Sequence[RandomSource],
    max_rounds: int = 100_000,
    rate_multiplier: RateMultiplier | None = None,
    quality_weighted: bool = False,
    noise: CountNoise | EncounterNoise | None = None,
    recruit_probability: float | None = None,
    record_history: bool = False,
    fault_plan: FaultPlan | None = None,
    delay_model: DelayModel | None = None,
    criterion: str | None = None,
    kernel_backend: str | None = None,
) -> list[FastRunResult]:
    """Batched Algorithm 3 (plus the E9/E10 variants and the E8 ablation).

    Round semantics per trial are those of
    :class:`repro.core.simple.SimpleAnt` under the v2 matcher schedule:
    round 1 everyone searches and good-nest finders are *active*; even
    rounds everyone is home for one Algorithm 1 matching, where an active
    ant recruits with probability ``count/n`` (times ``rate_multiplier``
    of the recruitment phase, clipped to 1) and a recruited passive ant
    activates; odd rounds everyone assesses its nest's population.
    ``recruit_probability`` switches in the constant-rate
    ``uniform`` baseline.  Returns one :class:`FastRunResult` per source,
    in order.

    ``noise`` covers the full :class:`~repro.sim.noise.CountNoise` model
    (Gaussian count error *and* quality flips) plus the mechanistic
    :class:`~repro.extensions.estimation.EncounterNoise` estimator.
    ``fault_plan`` (crash and Byzantine rows) and ``delay_model``
    (per-ant stalls) route the batch through the general per-round kernel
    (:func:`_simulate_simple_perturbed`), which tracks each ant's drifting
    action phase exactly as the agent-engine wrappers do; unperturbed
    batches keep the two-sub-rounds-per-iteration fast path bit-for-bit.
    ``criterion`` selects the convergence notion (``None``/"good" or the
    fault experiments' "good_healthy").  ``kernel_backend`` pins the
    kernel realization (see :mod:`repro.fast.backends`); every backend
    is bit-identical, so this only affects speed.
    """
    _check_batch(n, sources)
    if criterion not in (None, "good", "good_healthy"):
        raise ConfigurationError(
            f"the simple batch kernel cannot evaluate criterion {criterion!r}"
        )
    faulted = fault_plan is not None and (
        fault_plan.n_crashed(n) + fault_plan.n_byzantine(n) > 0
    )
    delayed = delay_model is not None and not delay_model.is_null
    if faulted or delayed:
        return _simulate_simple_perturbed(
            n,
            nests,
            sources,
            max_rounds=max_rounds,
            rate_multiplier=rate_multiplier,
            quality_weighted=quality_weighted,
            noise=noise,
            recruit_probability=recruit_probability,
            record_history=record_history,
            fault_plan=fault_plan if faulted else None,
            delay_model=delay_model if delayed else None,
            criterion=criterion,
            kernel_backend=kernel_backend,
        )
    resolve = pair_resolver(resolve_backend(kernel_backend)[0])
    prof = profiling.active()
    if prof is not None:
        prof.batches += 1
    n_trials = len(sources)
    env_rngs = [s.environment for s in sources]
    mat_rngs = [s.matcher for s in sources]
    col_rngs = [s.colony for s in sources]
    perturb = _NoisePerturber(noise, sources, n)

    k = nests.k
    qualities = np.concatenate([[0.0], nests.quality_array()])
    good = qualities > nests.good_threshold
    accept_threshold = 0.0 if quality_weighted else nests.good_threshold

    out: list[FastRunResult | None] = [None] * n_trials
    histories: list[list[np.ndarray]] = [[] for _ in range(n_trials)]
    live = np.arange(n_trials)
    arena = shared_arena()
    shape = (n_trials, n)
    # Ant-axis tiling (ROADMAP item 5, docs/PERFORMANCE.md §8): the
    # elementwise per-round work runs in ``t_width``-wide column tiles, so
    # the float64 scratch is (trials, tile) instead of (trials, n).  When
    # untiled, ``t_width == n`` and the single span reproduces the classic
    # full-plane pass verbatim.  Tiling never touches a draw schedule —
    # every stream is consumed in global ant order — so it is bit-invisible
    # (the golden-digest tile matrix pins this).
    tile = resolve_tile_width(n)
    t_width = n if tile is None else tile
    # State (arena-recycled, compacted in place; every value < n+1 so the
    # working dtype is int32 — outputs go back to int64 at finalize).
    nest = _draw_initial_nests(arena.buf("s.nest", shape, np.int32), env_rngs, k)
    count = arena.buf("s.count", shape, np.int32)
    active = arena.buf("s.active", shape, np.bool_)
    flat_ids = arena.buf("s.flat", shape, np.int32)
    # Per-round scratch, shared across kernels through the arena.
    coins = arena.buf("coins", (n_trials, t_width), np.float64)
    prob = arena.buf("prob", (n_trials, t_width), np.float64)
    wants = arena.buf("b.wants", shape, np.bool_)
    qmul = (
        arena.buf("qmul", (n_trials, t_width), np.float64)
        if quality_weighted
        else None
    )

    offsets32 = (np.arange(n_trials, dtype=np.int32) * (k + 1))[:, None]

    # Round 1: search.  Quality readings may flip (drawn before the count
    # perturbation, mirroring the agent wrapper's quality-then-count order);
    # a flipped reading inverts the ant's initial active/passive call.
    np.add(nest, offsets32, out=flat_ids)
    countsf = np.bincount(
        flat_ids.ravel(), minlength=n_trials * (k + 1)
    ).astype(np.int32)
    counts = countsf.reshape(n_trials, k + 1)
    np.take(countsf, flat_ids, out=count, mode="clip")
    # Perceived qualities tile by tile: each trial's flip coins are drawn
    # in global ant order (all tiles, then the count perturbation), the
    # exact stream order of the historical full-width pass.
    perc = arena.buf("b.perc", (n_trials, t_width), np.float64)
    for lo, hi in tile_spans(n, t_width):
        pw = perc[:, : hi - lo]
        np.take(qualities, nest[:, lo:hi], out=pw, mode="clip")
        flips = perturb.flip_tile(hi - lo)
        if flips is not None:
            pw = np.where(flips, 1.0 - pw, pw)
        np.greater(pw, accept_threshold, out=active[:, lo:hi])
    perturb(count, out=count)
    rounds = 1
    if record_history:
        for row, gid in enumerate(live):
            histories[gid].append(counts[row].astype(np.int64))

    home_row = np.concatenate([[n], np.zeros(k, dtype=np.int64)])

    def finalize_rows(row_idx: np.ndarray, conv_round: int | None) -> None:
        """Batched report construction for every finishing row at once."""
        if not len(row_idx):
            return
        chosen_arr = _unanimous_choice(nest[row_idx])
        counts_rows = counts[row_idx].astype(np.int64)
        for j, row in enumerate(row_idx):
            gid = live[row]
            chosen = int(chosen_arr[j])
            out[gid] = FastRunResult(
                converged=conv_round is not None,
                converged_round=conv_round,
                rounds_executed=rounds,
                chosen_nest=chosen if chosen > 0 else None,
                final_counts=counts_rows[j],
                population_history=(
                    np.vstack(histories[gid]) if record_history else None
                ),
            )

    # The uniform baseline's constant rate never changes: fill once.
    prob_static = (
        recruit_probability is not None
        and not quality_weighted
        and rate_multiplier is None
    )
    if recruit_probability is not None:
        prob.fill(float(recruit_probability))

    phase = 0
    while live.size and rounds + 2 <= max_rounds:
        phase += 1
        if prof is not None:
            prof.rounds += 2
            t0 = perf_counter()
        # Recruitment round (everyone at home): decide the per-ant rates,
        # draw the coins, and resolve who wants to recruit — one column
        # tile at a time.  Each trial's colony stream is consumed in
        # global ant order across the tiles (Generator.random fills
        # element-wise), so the draw schedule is identical to the classic
        # full-plane pass; untiled, the single span IS that pass.  The
        # rate multiplier is evaluated once per round (it may be stateful),
        # never once per tile.
        mult = rate_multiplier(phase) if rate_multiplier is not None else None
        for lo, hi in tile_spans(n, t_width):
            w = hi - lo
            cw = coins[:, :w]
            pw = prob[:, :w]
            if not prob_static:
                if recruit_probability is not None:
                    pw.fill(float(recruit_probability))
                else:
                    np.divide(count[:, lo:hi], n, out=pw)  # already in [0, 1]
                if quality_weighted:
                    qw = qmul[:, :w]
                    np.take(qualities, nest[:, lo:hi], out=qw, mode="clip")
                    pw *= qw
                if mult is not None:
                    pw *= mult
                if quality_weighted or mult is not None:
                    np.clip(pw, 0.0, 1.0, out=pw)
            for row, rng in enumerate(col_rngs):
                rng.random(out=cw[row])
            np.less(cw, pw, out=wants[:, lo:hi])
            wants[:, lo:hi] &= active[:, lo:hi]
        if prof is not None:
            t0 = prof.tick("draw", t0)
        sel_src, sel_dst = match_pairs_batch(
            wants, mat_rngs, resolve=resolve, segmented=tile is not None
        )
        if prof is not None:
            t0 = prof.tick("match", t0)

        # Only recruited slots can change state: they adopt the recruiter's
        # nest (a no-op for same-nest pairs) and wake if actually moved.
        nest_flat = nest.ravel()
        new_nests = nest_flat.take(sel_src, mode="clip")
        old_nests = nest_flat.take(sel_dst, mode="clip")
        changed = np.flatnonzero(new_nests != old_nests)
        moved = sel_dst.take(changed, mode="clip")
        moved_new = new_nests.take(changed, mode="clip")
        moved_old = old_nests.take(changed, mode="clip")
        nest_flat[sel_dst] = new_nests
        active.ravel()[moved] = True
        # Population counts change only at the moved ants' old/new bins.
        flat_ids_flat = flat_ids.ravel()
        old_bins = flat_ids_flat.take(moved, mode="clip")
        new_bins = old_bins - moved_old + moved_new
        np.subtract.at(countsf, old_bins, 1)
        np.add.at(countsf, new_bins, 1)
        flat_ids_flat[moved] = new_bins
        rounds += 1
        if prof is not None:
            t0 = prof.tick("move", t0)
        if record_history:
            for gid in live:
                histories[gid].append(home_row)
        # Unanimity on a good nest, read off the O(L*k) counts matrix:
        # everyone sits in ant 0's nest iff that nest holds all n ants.
        first = nest[:, 0]
        converged = (countsf.take(flat_ids[:, 0], mode="clip") == n) & good[first]

        # Assessment round (everyone at its nest).
        np.take(countsf, flat_ids, out=count, mode="clip")
        perturb(count, out=count)
        rounds += 1
        if record_history:
            for row, gid in enumerate(live):
                # History rows must own their storage: they outlive
                # compaction and widen int32 state to the int64 output.
                histories[gid].append(counts[row].astype(np.int64))  # reprolint: disable=K201 -- history rows own their storage
        if prof is not None:
            t0 = prof.tick("bookkeep", t0)

        if converged.any():
            finalize_rows(np.flatnonzero(converged), rounds - 1)
            keep_idx = np.flatnonzero(~converged)
            nest, count, active, counts, live = compact_rows(
                keep_idx, nest, count, active, counts, live
            )
            keep = ~converged
            env_rngs, mat_rngs, col_rngs = _filter_lists(
                keep, env_rngs, mat_rngs, col_rngs
            )
            perturb.filter(keep)
            m = len(live)
            coins, prob, wants = coins[:m], prob[:m], wants[:m]
            if qmul is not None:
                qmul = qmul[:m]
            countsf = counts.ravel()
            flat_ids = flat_ids[:m]
            np.add(nest, offsets32[:m], out=flat_ids)
            if prof is not None:
                t0 = prof.tick("compact", t0)

    finalize_rows(np.arange(len(live)), None)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Algorithm 3 under fault and asynchrony layers (general per-round loop)
# ---------------------------------------------------------------------------

# An ant's next pending action in the general loop (the SimpleAnt phase).
_NEXT_RECRUIT, _NEXT_ASSESS = np.int8(0), np.int8(1)

#: Sentinel crash round for ants that never crash.
_NEVER = np.iinfo(np.int64).max


def compile_fault_masks(
    fault_plan: FaultPlan | None, n: int, sources: Sequence[RandomSource]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(crash_mask, crash_round, byzantine_mask)`` per trial.

    Consumes each trial's ``faults`` stream draw-for-draw as
    :meth:`~repro.sim.faults.FaultPlan.apply` does (one ``choice`` for the
    faulty set, then crash rounds drawn while walking ants in id order), so
    the *same trial* gets the same faulty ants and crash times on either
    engine — the fault schedule itself is never a source of divergence in
    the agent-vs-fast equivalence tests.
    """
    n_trials = len(sources)
    crash_mask = np.zeros((n_trials, n), dtype=bool)
    byz_mask = np.zeros((n_trials, n), dtype=bool)
    crash_round = np.full((n_trials, n), _NEVER, dtype=np.int64)
    if fault_plan is None:
        return crash_mask, crash_round, byz_mask
    n_crashed = fault_plan.n_crashed(n)
    n_byzantine = fault_plan.n_byzantine(n)
    if n_crashed + n_byzantine == 0:
        return crash_mask, crash_round, byz_mask
    lo, hi = fault_plan.crash_round_range
    for row, source in enumerate(sources):
        rng = source.faults
        chosen = rng.choice(n, size=n_crashed + n_byzantine, replace=False)
        crashed = sorted(int(ant) for ant in chosen[:n_crashed])
        crash_mask[row, crashed] = True
        byz_mask[row, [int(ant) for ant in chosen[n_crashed:]]] = True
        for ant in crashed:
            crash_round[row, ant] = int(rng.integers(lo, hi + 1))
    return crash_mask, crash_round, byz_mask


def _simulate_simple_perturbed(
    n: int,
    nests: NestConfig,
    sources: Sequence[RandomSource],
    max_rounds: int,
    rate_multiplier: RateMultiplier | None,
    quality_weighted: bool,
    noise: CountNoise | EncounterNoise | None,
    recruit_probability: float | None,
    record_history: bool,
    fault_plan: FaultPlan | None,
    delay_model: DelayModel | None,
    criterion: str | None,
    kernel_backend: str | None = None,
) -> list[FastRunResult]:
    """Algorithm 3 with crash/Byzantine rows and per-ant stalls, vectorized.

    Unlike the synchronous fast path (which exploits the rigid
    recruit/assess alternation to advance two rounds per iteration), this
    kernel executes **one engine round per iteration** and tracks each
    ant's own pending action — because that is what the agent-engine
    wrappers actually do:

    - a stalled ant (:class:`~repro.sim.asynchrony.DelayedAnt`) holds its
      position and carries its already-decided action (recruit coin
      included) to its next unstalled round, so ants drift out of phase
      with the global round parity, recruit into mixed home-nest pools,
      and act on stale counts;
    - a crashed ant (:class:`~repro.sim.faults.CrashedAnt`) freezes: the
      ``at_home`` zombie squats in every matching as an unrecruiting,
      unrecruitable-in-effect body, the ``at_nest`` zombie inflates its
      frozen nest's population forever;
    - a Byzantine ant (:class:`~repro.sim.faults.ByzantineAnt`) searches
      (through the trial's quality-flip noise, if any) until it finds a bad
      nest — perturbing assessed counts as it wanders — then recruits to it
      at full rate in every round it is not stalled.

    Per-trial draws (coins, stalls, searches, noise, matcher choices) are
    strictly trajectory-ordered on each trial's own streams, so results are
    bit-identical for any batch composition, chunking, or worker count.
    Convergence is evaluated every round: ``criterion="good_healthy"``
    demands unanimity of the currently-healthy ants on a good nest (the
    E12 notion), the default "good" demands it of every ant's commitment
    (Byzantine ants commit to their push target).

    Performance structure (PR 5): all per-round temporaries live in the
    shared arena and are written in place; the fault machinery is gated —
    zombie/healthy masks are only recomputed while crashes can still land
    (they are static after the last scheduled crash round), Byzantine
    bookkeeping is skipped entirely for fault-free batches and its search
    block stops once every Byzantine ant holds a push target; matching
    consumes the sparse pair form and scatter-updates exactly the
    recruited ants.  None of this touches a draw: the stream schedule is
    the PR-4 one, golden-digest-pinned.

    Backend structure (PR 9): this function is the *driver* — setup, RNG
    fills, the Byzantine search draws, the post-match scatter, convergence
    bookkeeping and report construction — over the per-round ops interface
    (``decide_move`` / ``participants`` / ``match`` / ``observe`` /
    ``blend`` / ``advance`` / ``converged``) of
    :mod:`repro.fast.backends`.  ``kernel_backend`` pins the realization
    (``numpy`` or ``cext``); both consume the same driver-drawn planes
    and ``cext`` reproduces the numpy realization bit-for-bit (the
    golden-digest suite runs the perturbed cases under each), so selection
    is a pure performance knob.
    """
    prof = profiling.active()
    if prof is not None:
        prof.batches += 1
    backend_name, _ = resolve_backend(kernel_backend)
    ops = perturbed_ops(backend_name)
    n_trials = len(sources)
    env_rngs = [s.environment for s in sources]
    mat_rngs = [s.matcher for s in sources]
    col_rngs = [s.colony for s in sources]
    delayed = delay_model is not None
    delay_rngs = [s.delays for s in sources] if delayed else []
    delay_prob = delay_model.delay_probability if delayed else 0.0
    perturb = _NoisePerturber(noise, sources, n)
    crash_mask, crash_round_raw, byz_mask = compile_fault_masks(
        fault_plan, n, sources
    )
    crash_at_home = (
        fault_plan is None or fault_plan.crash_mode is CrashMode.AT_HOME
    )
    seek_bad = fault_plan.seek_bad if fault_plan is not None else True
    healthy_only = criterion == "good_healthy"
    has_crash = bool(crash_mask.any())
    has_byz = bool(byz_mask.any())
    # After the last scheduled crash lands, the zombie set is frozen and
    # the per-round zombie/healthy recomputation is skipped.
    max_crash_round = (
        int(crash_round_raw[crash_mask].max()) if has_crash else 0
    )

    k = nests.k
    qualities = np.concatenate([[0.0], nests.quality_array()])
    good = qualities > nests.good_threshold
    accept_threshold = 0.0 if quality_weighted else nests.good_threshold

    out: list[FastRunResult | None] = [None] * n_trials
    histories: list[list[np.ndarray]] = [[] for _ in range(n_trials)]
    live = np.arange(n_trials)
    arena = shared_arena()
    shape = (n_trials, n)

    # The state bundle the backend ops read and write (see
    # repro.fast.backends.state for the contract).  Scalar config first.
    st = PerturbedState()
    st.n = n
    st.k = k
    st.qualities = qualities
    st.good = good
    st.quality_weighted = quality_weighted
    st.rate_mult = rate_multiplier is not None
    st.recruit_probability = recruit_probability
    st.delayed = delayed
    st.delay_prob = delay_prob
    st.has_byz = has_byz
    st.crash_at_home = crash_at_home
    st.healthy_only = healthy_only
    st.byz_seeking = has_byz
    st.byz_mask = byz_mask
    st.row_idx = np.arange(n_trials)
    st.offsets32 = (np.arange(n_trials, dtype=np.int32) * (k + 1))[:, None]

    # Per-ant state (arena-recycled, dtype-tightened, compacted in place).
    st.nest = _draw_initial_nests(
        arena.buf("p.nest", shape, np.int32), env_rngs, k
    )
    st.position = arena.buf("p.pos", shape, np.int32)
    np.copyto(st.position, st.nest)
    st.count = arena.buf("p.count", shape, np.int64)
    st.active = arena.buf("p.active", shape, np.bool_)
    # The SimpleAnt phase is binary, so it lives as a bool plane (True =
    # next action is the assessment trip) and advances with logical ops —
    # masked integer writes are ~20x slower than bool passes at this shape.
    st.phase_assess = arena.buf("p.phase", shape, np.bool_)
    st.phase_assess.fill(False)
    st.pending_bit = arena.buf("p.pend", shape, np.bool_)
    st.pending_bit.fill(False)
    st.latched = arena.buf("p.latch", shape, np.bool_)
    st.latched.fill(False)
    st.zombie = arena.buf("p.zombie", shape, np.bool_)
    st.healthy = arena.buf("p.healthy", shape, np.bool_)
    st.unhealthy = arena.buf("p.unhealthy", shape, np.bool_)
    # Crash rounds fit int32 (the sentinel saturates to int32 max).
    crash_round = arena.buf("p.crash_round", shape, np.int32)
    np.minimum(
        crash_round_raw,
        np.iinfo(np.int32).max,
        out=crash_round,
        casting="unsafe",
    )
    if rate_multiplier is not None:
        # Per-ant recruitment-phase counter for the rate schedule: the
        # agent engine's AdaptiveSimpleAnt advances its schedule once per
        # *its own* recruit decision, so under delays a stalled ant's
        # schedule lags the global round — indexing the multiplier by the
        # global round would decay the boost too fast for delayed ants (a
        # measurable law change).
        st.ant_phase = arena.buf("p.antphase", shape, np.int32)
        st.ant_phase.fill(0)
        mult_list: list[float] = [1.0]  # mult_list[p] = rate_multiplier(p)
        st.mult_arr = np.asarray(mult_list)
    else:
        st.ant_phase = None
        st.mult_arr = None
    if has_byz:
        st.byz_target = arena.buf("p.byzt", shape, np.int32)
        st.byz_target.fill(0)
        byz_searches = arena.buf("p.byzs", shape, np.int32)
        byz_searches.fill(0)
    else:
        st.byz_target = byz_searches = None

    # Per-round scratch (arena names shared across kernels where shapes
    # coincide; every buffer below is fully overwritten before it is read).
    st.coins = arena.buf("coins", shape, np.float64)
    st.prob = arena.buf("prob", shape, np.float64)
    st.is_rec = arena.buf("b.isrec", shape, np.bool_)
    st.latch = arena.buf("b.latch", shape, np.bool_)
    st.want = arena.buf("b.want", shape, np.bool_)
    st.exec_rec = arena.buf("b.execrec", shape, np.bool_)
    st.exec_go = arena.buf("b.execgo", shape, np.bool_)
    st.part = arena.buf("b.part", shape, np.bool_)
    st.att = arena.buf("b.att", shape, np.bool_)
    st.scr1 = arena.buf("b.scr1", shape, np.bool_)
    st.scr2 = arena.buf("b.scr2", shape, np.bool_)
    st.eqb = arena.buf("b.eq", shape, np.bool_)
    st.notb = arena.buf("b.not", shape, np.bool_)
    st.ibuf = arena.buf("p.ibuf", shape, np.int32)
    st.gath = arena.buf("p.gath", shape, np.int64)
    st.itmp = arena.buf("p.itmp", shape, np.int64)
    st.postmp = arena.buf("p.postmp", shape, np.int32)
    if delayed:
        st.stalls = arena.buf("stalls", shape, np.float64)
        st.stall = arena.buf("b.stall", shape, np.bool_)
        st.execb = arena.buf("b.exec", shape, np.bool_)
    else:
        st.stalls = st.stall = st.execb = None
    st.fresh = (
        arena.buf("p.fresh", shape, np.int64) if perturb.active else None
    )
    st.qmul = (
        arena.buf("qmul", shape, np.float64)
        if quality_weighted or rate_multiplier is not None
        else None
    )
    st.cbuf = (
        arena.buf("p.comm", shape, np.int32)
        if has_byz and not healthy_only
        else None
    )

    # Round 1: everyone searches — the healthy commit (through flipped
    # quality readings, if any), Byzantine seekers take their first sample.
    np.add(st.position, st.offsets32, out=st.ibuf)
    st.counts2d = np.bincount(
        st.ibuf.ravel(), minlength=n_trials * (k + 1)
    ).reshape(n_trials, k + 1)
    perceived = qualities[st.nest]
    flips = perturb.flip_rows()
    if flips is not None:
        perceived = np.where(flips, 1.0 - perceived, perceived)
    np.add(st.nest, st.offsets32, out=st.ibuf)
    np.take(st.counts2d.ravel(), st.ibuf, out=st.gath, mode="clip")
    perturb(st.gath, out=st.count)
    np.greater(perceived, accept_threshold, out=st.active)
    if has_byz:
        np.logical_not(st.byz_mask, out=st.scr1)
        st.active &= st.scr1
        byz_searches[st.byz_mask] = 1
        bad = perceived <= GOOD_THRESHOLD
        grab = st.byz_mask & (bad if seek_bad else np.ones_like(bad))
        st.byz_target[grab] = st.nest[grab]
    rounds = 1
    counts_stale = False
    if record_history:
        for row, gid in enumerate(live):
            histories[gid].append(st.counts2d[row].copy())

    def refresh_counts() -> None:
        """Recompute the census after observer-free rounds skipped it."""
        nonlocal counts_stale
        rows_now = len(live)
        np.add(st.position, st.offsets32[:rows_now], out=st.ibuf)
        st.counts2d = np.bincount(
            st.ibuf.ravel(), minlength=rows_now * (k + 1)
        ).reshape(rows_now, k + 1)
        counts_stale = False

    def finalize_rows(row_sel: np.ndarray, conv_round: int | None) -> None:
        """Batched report construction for every finishing row at once."""
        if not len(row_sel):
            return
        if counts_stale:
            refresh_counts()
        sub_byz = st.byz_mask[row_sel]
        zombie_end = crash_mask[row_sel] & (crash_round[row_sel] <= rounds)
        sub_nest = st.nest[row_sel]
        committed = (
            np.where(sub_byz, st.byz_target[row_sel], sub_nest)
            if has_byz
            else sub_nest
        )
        healthy_end = ~sub_byz & ~zombie_end
        has_healthy = healthy_end.any(axis=1)
        # The vote reference: the first healthy ant's commitment, or ant 0's
        # when no healthy ants remain (then every ant votes).
        first = np.where(has_healthy, np.argmax(healthy_end, axis=1), 0)
        ref = committed[np.arange(len(row_sel)), first]
        eq = committed == ref[:, None]
        unanimous = np.logical_and.reduce(
            np.where(has_healthy[:, None], eq | ~healthy_end, eq), axis=1
        )
        chosen_arr = np.where(unanimous & (ref > 0), ref, 0)
        counts_rows = st.counts2d[row_sel].copy()
        for j, row in enumerate(row_sel):
            gid = live[row]
            chosen = int(chosen_arr[j])
            out[gid] = FastRunResult(
                converged=conv_round is not None,
                converged_round=conv_round,
                rounds_executed=rounds,
                chosen_nest=chosen if chosen > 0 else None,
                final_counts=counts_rows[j],
                population_history=(
                    np.vstack(histories[gid]) if record_history else None
                ),
            )

    def refresh_healthy_stats() -> None:
        # Static per-row convergence ingredients under "good_healthy": the
        # healthy set only changes while crashes land (and on compaction).
        if healthy_only:
            st.h_nonempty = st.healthy.any(axis=1)
            st.h_first = np.argmax(st.healthy, axis=1)

    def compress(keep: np.ndarray) -> None:
        nonlocal crash_mask, crash_round, byz_searches, live
        nonlocal env_rngs, mat_rngs, col_rngs, delay_rngs
        st.epoch += 1  # planes rebind below: backends drop cached views
        keep_idx = np.flatnonzero(keep)
        (
            st.nest,
            st.position,
            st.count,
            st.active,
            st.phase_assess,
            st.pending_bit,
            st.latched,
            st.zombie,
            st.healthy,
            st.unhealthy,
            crash_mask,
            crash_round,
            st.byz_mask,
            live,
            st.counts2d,
        ) = compact_rows(
            keep_idx,
            st.nest,
            st.position,
            st.count,
            st.active,
            st.phase_assess,
            st.pending_bit,
            st.latched,
            st.zombie,
            st.healthy,
            st.unhealthy,
            crash_mask,
            crash_round,
            st.byz_mask,
            live,
            st.counts2d,
        )
        if st.ant_phase is not None:
            (st.ant_phase,) = compact_rows(keep_idx, st.ant_phase)
        if has_byz:
            st.byz_target, byz_searches = compact_rows(
                keep_idx, st.byz_target, byz_searches
            )
        env_rngs, mat_rngs, col_rngs = _filter_lists(
            keep, env_rngs, mat_rngs, col_rngs
        )
        if delay_rngs:
            (delay_rngs,) = _filter_lists(keep, delay_rngs)
        perturb.filter(keep)
        m = len(keep_idx)
        st.coins = st.coins[:m]
        st.prob = st.prob[:m]
        st.is_rec = st.is_rec[:m]
        st.latch = st.latch[:m]
        st.want = st.want[:m]
        st.exec_rec = st.exec_rec[:m]
        st.exec_go = st.exec_go[:m]
        st.part = st.part[:m]
        st.att = st.att[:m]
        st.scr1 = st.scr1[:m]
        st.scr2 = st.scr2[:m]
        st.eqb = st.eqb[:m]
        st.notb = st.notb[:m]
        st.ibuf = st.ibuf[:m]
        st.gath = st.gath[:m]
        st.itmp = st.itmp[:m]
        st.postmp = st.postmp[:m]
        if delayed:
            st.stalls = st.stalls[:m]
            st.stall = st.stall[:m]
            st.execb = st.execb[:m]
        if st.fresh is not None:
            st.fresh = st.fresh[:m]
        if st.qmul is not None:
            st.qmul = st.qmul[:m]
        if st.cbuf is not None:
            st.cbuf = st.cbuf[:m]
        refresh_healthy_stats()

    # The uniform baseline's constant rate never changes: fill once.
    st.prob_static = (
        recruit_probability is not None
        and not quality_weighted
        and rate_multiplier is None
    )
    if recruit_probability is not None:
        st.prob.fill(float(recruit_probability))

    # Pre-loop convergence check at round 1.
    if has_crash:
        np.less_equal(crash_round, 1, out=st.zombie)
        st.zombie &= crash_mask
    else:
        st.zombie.fill(False)
    np.logical_or(st.byz_mask, st.zombie, out=st.unhealthy)
    np.logical_not(st.unhealthy, out=st.healthy)
    refresh_healthy_stats()
    done = ops.converged(st)
    if done.any():
        finalize_rows(np.flatnonzero(done), 1)
        compress(~done)

    fill_pairs: list = []
    fill_epoch = -1
    while live.size and rounds < max_rounds:
        r = rounds + 1
        if prof is not None:
            prof.rounds += 1
            t0 = perf_counter()
        st.enforcing_zombies = has_crash and r <= max_crash_round
        if st.enforcing_zombies:
            np.less_equal(crash_round, r, out=st.zombie)
            st.zombie &= crash_mask
            np.logical_or(st.byz_mask, st.zombie, out=st.unhealthy)
            np.logical_not(st.unhealthy, out=st.healthy)
            refresh_healthy_stats()

        # -- driver-drawn planes for this round ------------------------------
        # The colony and delay streams are independent generators, so
        # filling both up front leaves each per-trial sequence intact.
        # The (generator, row-view) pairing is cached per epoch: the rows
        # are prefix views of stable storage and the rng lists only
        # change on compaction.
        if fill_epoch != st.epoch:
            fill_pairs = list(zip(col_rngs, st.coins))
            if delayed:
                fill_pairs += list(zip(delay_rngs, st.stalls))
            fill_epoch = st.epoch
        for fill_rng, fill_row in fill_pairs:
            fill_rng.random(out=fill_row)
        if prof is not None:
            t0 = prof.tick("draw", t0)
        if rate_multiplier is not None:
            # Pre-extend the rate schedule past this round's post-latch
            # maximum (each latching ant advances by at most one) so every
            # backend indexes a complete table; entries are a pure function
            # of the index, so a one-ahead extension is invisible.
            top = int(st.ant_phase.max(initial=0)) + 1
            if top >= len(mult_list):
                while len(mult_list) <= top:
                    mult_list.append(float(rate_multiplier(len(mult_list))))
                st.mult_arr = np.asarray(mult_list)

        # -- latch / stalls / exec masks / movement (the backend pass) -------
        exec_go_any = ops.decide_move(st)
        if prof is not None:
            t0 = prof.tick("move", t0)
        if has_byz and st.byz_seeking:
            n_byz_search = np.count_nonzero(st.byz_searching, axis=1)
            if n_byz_search.any():
                rows_b, ants_b = np.nonzero(st.byz_searching)
                # The Byzantine search path gathers a variable number of
                # draws per trial per round; the concatenated result has no
                # fixed shape an arena plane could own, and the path is
                # only live while Byzantine ants still seek a target.
                landing = np.concatenate(  # reprolint: disable=K201 -- variable-size sparse gather
                    [
                        rng.integers(1, k + 1, size=int(c))
                        for rng, c in zip(env_rngs, n_byz_search)
                        if c
                    ]
                )
                st.position[rows_b, ants_b] = landing
                perceived_b = qualities[landing]
                if perturb.flip_prob > 0.0:
                    flip_parts = [
                        perturb.flip_draws(row, int(c))
                        for row, c in enumerate(n_byz_search)
                        if c
                    ]
                    flip_b = np.concatenate(flip_parts)  # reprolint: disable=K201 -- variable-size sparse gather
                    perceived_b = np.where(
                        flip_b, 1.0 - perceived_b, perceived_b
                    )
                byz_searches[rows_b, ants_b] += 1
                give_up = (
                    byz_searches[rows_b, ants_b] >= BYZANTINE_MAX_SEARCH_ROUNDS
                )
                take = give_up | (
                    (perceived_b <= GOOD_THRESHOLD)
                    if seek_bad
                    else np.ones_like(give_up)  # reprolint: disable=K201 -- variable-size sparse gather
                )
                st.byz_target[rows_b[take], ants_b[take]] = landing[take]
                st.byz_seeking = bool(
                    np.count_nonzero(st.byz_mask & (st.byz_target == 0))
                )
            if prof is not None:
                t0 = prof.tick("draw", t0)

        # -- Algorithm 1 matching over the home nest -------------------------
        ops.participants(st)
        if prof is not None:
            t0 = prof.tick("move", t0)
        rows_sel, src_ant, dst_ant = ops.match(st, mat_rngs)
        if prof is not None:
            t0 = prof.tick("match", t0)

        # Only recruited, executing ants can change state: they adopt the
        # recruiter's advertised nest and wake if actually moved.
        ops.apply_pairs(st, rows_sel, src_ant, dst_ant)
        if prof is not None:
            t0 = prof.tick("move", t0)

        # -- observation and phase advance ------------------------------------
        # The population census is only *observable* through assessing
        # ants (or the noise stream, which draws from it every round, or a
        # recorded history).  Rounds with no observer skip it; finalize
        # recomputes a fresh census when one is pending (``counts_stale``).
        observing = perturb.active or record_history or exec_go_any
        if observing:
            ops.observe(st)
            counts_stale = False
        else:
            counts_stale = True
        if prof is not None:
            t0 = prof.tick("bookkeep", t0)
        if observing:
            if perturb.active:
                perturb(st.gath, out=st.fresh)
                if prof is not None:
                    t0 = prof.tick("draw", t0)
                observed = st.fresh
            else:
                observed = st.gath
            ops.blend(st, observed)
        # phase: recruiters head to assessment, assessors back to recruit
        # (fused into decide_move by the compiled backends).
        ops.advance(st)

        rounds += 1
        if record_history:
            for row, gid in enumerate(live):
                histories[gid].append(st.counts2d[row].copy())  # reprolint: disable=K201 -- history rows own their storage

        done = ops.converged(st)
        if prof is not None:
            t0 = prof.tick("bookkeep", t0)
        if done.any():
            finalize_rows(np.flatnonzero(done), rounds)
            compress(~done)
            if prof is not None:
                t0 = prof.tick("compact", t0)

    finalize_rows(np.arange(len(live)), None)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Algorithm 2 ("optimal")
# ---------------------------------------------------------------------------

_ACTIVE, _PASSIVE, _FINAL = 0, 1, 2


@sanitized
def simulate_optimal_batch(
    n: int,
    nests: NestConfig,
    sources: Sequence[RandomSource],
    max_rounds: int = 100_000,
    strict_pseudocode: bool = False,
    record_history: bool = False,
) -> list[FastRunResult]:
    """Batched Algorithm 2, one four-round case block at a time.

    Mask-based port of :class:`repro.core.optimal.OptimalAnt` under the v2
    matcher schedule, including who is physically where in every sub-round
    (so recorded population histories are faithful):

    ====  =======================  ====================  ====================
    sub   actives                  passives              finals
    ====  =======================  ====================  ====================
    B1    recruit(1, nest) [home]  go(nest)              recruit(1, ·) [home]
    B2    go(nest)                 recruit(0, ·) [home]  recruit(1, ·) [home]
    B3    c1/c3: go · c2: home     go(nest)              recruit(1, ·) [home]
    B4    c1: home · c2/c3: go     go(nest)              recruit(1, ·) [home]
    ====  =======================  ====================  ====================

    The three matchings per block (B1: actives+finals, B2: passives+finals,
    B3/B4: dropping/checking actives+finals) run over each trial's own
    participant subset via
    :func:`~repro.fast.batch_matcher.match_positions_batch`.
    """
    _check_batch(n, sources)
    prof = profiling.active()
    if prof is not None:
        prof.batches += 1
    n_trials = len(sources)
    env_rngs = [s.environment for s in sources]
    mat_rngs = [s.matcher for s in sources]

    def matched(parts, attempting, targets):
        """Profiling-aware matching (credits the resolver to "match")."""
        if prof is None:
            return match_positions_batch(parts, attempting, targets, mat_rngs)
        t0 = perf_counter()
        result = match_positions_batch(parts, attempting, targets, mat_rngs)
        prof.tick("match", t0)
        return result

    k = nests.k
    arena = shared_arena()
    qualities = np.concatenate([[0.0], nests.quality_array()])
    good = qualities > nests.good_threshold

    out: list[FastRunResult | None] = [None] * n_trials
    histories: list[list[np.ndarray]] = [[] for _ in range(n_trials)]
    live = np.arange(n_trials)
    offsets = _row_offsets(n_trials, k)

    # Round 1: search.
    nest = np.stack([rng.integers(1, k + 1, size=n) for rng in env_rngs])
    _, count, _ = _assess(nest, k, offsets)
    status = np.where(good[nest], _ACTIVE, _PASSIVE).astype(np.int8)
    rounds = 1

    def record(locations: np.ndarray) -> None:
        if record_history:
            rows = _row_bincount(locations, k)
            for row, gid in enumerate(live):
                histories[gid].append(rows[row])

    record(nest)

    def finalize_rows(
        row_sel: np.ndarray, conv_rounds: np.ndarray | None
    ) -> None:
        """Batched report construction for every finishing row at once."""
        if not len(row_sel):
            return
        final_counts = _row_bincount(nest[row_sel], k)
        chosen_arr = _unanimous_choice(nest[row_sel])
        for j, row in enumerate(row_sel):
            gid = live[row]
            chosen = int(chosen_arr[j])
            out[gid] = FastRunResult(
                converged=conv_rounds is not None,
                converged_round=(
                    int(conv_rounds[j]) if conv_rounds is not None else None
                ),
                rounds_executed=rounds,
                chosen_nest=chosen if chosen > 0 else None,
                final_counts=final_counts[j],
                population_history=(
                    np.vstack(histories[gid]) if record_history else None
                ),
            )

    def unanimous_good(rows_mask: np.ndarray) -> np.ndarray:
        first = nest[:, :1]
        return (
            rows_mask
            & np.logical_and.reduce(nest == first, axis=1)
            & good[first[:, 0]]
        )

    while live.size and rounds + 4 <= max_rounds:
        if prof is not None:
            prof.rounds += 4
            t_block = perf_counter()
            match_at_block_start = prof.phase_seconds.get("match", 0.0)
        active_m = status == _ACTIVE
        passive_m = status == _PASSIVE
        final_m = status == _FINAL
        conv_round = arena.full("ob.conv_round", (len(live),), np.int64, -1)

        # ---- B1: actives + finals recruit(1, nest); passives go(nest).
        parts1 = active_m | final_m
        res1, _ = matched(parts1, parts1, nest)
        nestt = np.where(active_m, res1, nest)
        nest = np.where(final_m, res1, nest)
        record(np.where(parts1, 0, nest))
        rounds += 1

        # ---- B2: actives go(nestt); passives + finals recruit at home.
        record(np.where(active_m, nestt, 0))
        rounds += 1
        counts_b2 = _row_bincount(np.where(active_m, nestt, 0), k)
        countt = _gather_counts(counts_b2, nestt, offsets)

        parts2 = passive_m | final_m
        res2, _ = matched(parts2, final_m, nest)
        new_final = passive_m & (res2 != nest)  # line 15
        nest = np.where(new_final | final_m, res2, nest)

        # Classify the actives (lines 25-42) using pre-update counts.
        case1 = active_m & (nestt == nest) & (countt >= count)
        case2 = active_m & (nestt == nest) & (countt < count)
        case3 = active_m & (nestt != nest)
        count = np.where(case1, countt, count)  # line 27
        nest = np.where(case3, nestt, nest)  # line 38

        # Everyone settled check at B2 (the last passives may settle here).
        no_actives = ~active_m.any(axis=1)
        all_prospective = np.logical_and.reduce(final_m | new_final, axis=1)
        settled_b2 = unanimous_good(no_actives & all_prospective)
        conv_round[settled_b2] = rounds

        # ---- B3: case1/case3/passives go(nest); case2 + finals at home.
        at_nest = case1 | case3 | passive_m
        locations = np.where(at_nest, nest, 0)
        record(locations)
        rounds += 1
        counts_b3 = _row_bincount(locations, k)
        countn = _gather_counts(counts_b3, nest, offsets)

        parts3 = case2 | final_m
        res3, _ = matched(parts3, final_m, nest)
        # Case-2 ants discard the result (line 35); finals adopt (line 21).
        nest = np.where(final_m, res3, nest)

        case3_drop = case3 & (countn < countt)  # line 40
        case3_stay = case3 & ~case3_drop
        if not strict_pseudocode:
            count = np.where(case3_stay, countn, count)  # DESIGN.md 3.2

        # ---- B4: case1 + finals at home; everyone else at its nest.
        record(np.where(case2 | case3 | passive_m, nest, 0))
        rounds += 1
        counth = case1.sum(axis=1) + final_m.sum(axis=1)

        parts4 = case1 | final_m
        res4, _ = matched(parts4, final_m, nest)
        # Case-1 ants discard the returned nest (line 29); finals adopt.
        nest = np.where(final_m, res4, nest)

        settle = case1 & (count == counth[:, None])  # line 30

        # Apply end-of-block status changes.
        status[case2 | case3_drop] = _PASSIVE
        status[new_final | settle] = _FINAL

        all_final = np.logical_and.reduce(status == _FINAL, axis=1)
        settled_end = unanimous_good(all_final) & (conv_round < 0)
        conv_round[settled_end] = rounds

        converged = conv_round >= 0
        if prof is not None:
            # Whatever the matchings didn't consume is state movement and
            # bookkeeping; Algorithm 2's blocks interleave them too finely
            # to split further.
            block_match = (
                prof.phase_seconds.get("match", 0.0) - match_at_block_start
            )
            prof.tick("move", t_block)
            prof.phase_seconds["move"] -= block_match
        if converged.any():
            done_idx = np.flatnonzero(converged)
            finalize_rows(done_idx, conv_round[done_idx])
            keep = ~converged
            nest, count, status, live = compact_rows(
                np.flatnonzero(keep), nest, count, status, live
            )
            env_rngs, mat_rngs = _filter_lists(keep, env_rngs, mat_rngs)
            offsets = _row_offsets(len(live), k)

    finalize_rows(np.arange(len(live)), None)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Theorem 3.2 information-spreading process
# ---------------------------------------------------------------------------


@sanitized
def simulate_spread_batch(
    n: int,
    k: int,
    sources: Sequence[RandomSource],
    policy: IgnorantPolicy = IgnorantPolicy.WAIT,
    max_rounds: int = 100_000,
) -> list[SpreadResult]:
    """Batched lower-bound spread process (v2 schedule).

    Vectorizes :class:`repro.core.lower_bound.InformedSpreadAnt`: round 1
    everyone searches and finders of the good nest ``w = 1`` become
    informed; later rounds informed ants push ``w`` through Algorithm 1
    while ignorant ants follow ``policy``.  Completion is the first round
    after which no ant is ignorant.
    """
    _check_batch(n, sources)
    prof = profiling.active()
    if prof is not None:
        prof.batches += 1
    if k < 2:
        raise ConfigurationError("the lower-bound setting requires k >= 2")
    n_trials = len(sources)
    arena = shared_arena()
    env_rngs = [s.environment for s in sources]
    mat_rngs = [s.matcher for s in sources]
    col_rngs = [s.colony for s in sources]

    out: list[SpreadResult | None] = [None] * n_trials
    histories: list[list[int]] = [[] for _ in range(n_trials)]
    live = np.arange(n_trials)

    # Round 1: search; w.l.o.g. the good nest is nest 1.
    informed = np.stack([rng.integers(1, k + 1, size=n) == 1 for rng in env_rngs])
    rounds = 1

    def record_informed() -> None:
        """One batched reduction per round, appended row by row."""
        informed_counts = informed.sum(axis=1)
        for row, gid in enumerate(live):
            histories[gid].append(int(informed_counts[row]))

    record_informed()

    def finalize_rows(row_sel: np.ndarray, done_round: int | None) -> None:
        for row in row_sel:
            gid = live[row]
            out[gid] = SpreadResult(
                all_informed=done_round is not None,
                rounds_to_all_informed=done_round,
                rounds_executed=rounds,
                informed_history=np.asarray(histories[gid], dtype=np.int64),
            )

    done = np.logical_and.reduce(informed, axis=1)
    if done.any():
        finalize_rows(np.flatnonzero(done), 1)
        keep = ~done
        informed, live = compact_rows(np.flatnonzero(keep), informed, live)
        env_rngs, mat_rngs, col_rngs = _filter_lists(
            keep, env_rngs, mat_rngs, col_rngs
        )

    # Per-round scratch, hoisted (kernel discipline: no allocation and no
    # plane rebinding inside the round loop).  Both planes shadow
    # ``informed``: when rows compact they shrink by row-slicing, so the
    # WAIT mask's all-False fill survives for the whole call.  The found
    # scratch is sized for the worst case (every ant searching).
    searching = arena.full("sp.searching", informed.shape, np.bool_, False)
    coins = arena.buf("sp.coins", informed.shape, np.float64)
    found_scratch = arena.buf("sp.found", (informed.size,), np.bool_)

    while live.size and rounds < max_rounds:
        if prof is not None:
            prof.rounds += 1
            t0 = perf_counter()
        if policy is IgnorantPolicy.WAIT:
            pass  # ``searching`` keeps its hoisted all-False fill
        elif policy is IgnorantPolicy.SEARCH:
            np.logical_not(informed, out=searching)
        else:  # MIXED: each ignorant ant flips a fair coin.
            for coin_rng, coin_row in zip(col_rngs, coins):
                coin_rng.random(out=coin_row)
            np.logical_not(informed, out=searching)
            searching &= coins < 0.5

        # Searchers may stumble on w directly.
        n_searching = np.count_nonzero(searching, axis=1)
        if n_searching.any():
            rows_s, ants_s = np.nonzero(searching)
            found = found_scratch[: int(n_searching.sum())]
            offset = 0
            for rng, c in zip(env_rngs, n_searching):
                if c:
                    stop = offset + int(c)
                    np.equal(
                        rng.integers(1, k + 1, size=int(c)),
                        1,
                        out=found[offset:stop],
                    )
                    offset = stop
            informed[rows_s[found], ants_s[found]] = True
        if prof is not None:
            t0 = prof.tick("draw", t0)

        # Everyone not searching is at home and participates in matching.
        home = ~searching
        attempting = informed & home
        targets = np.where(informed, 1, 0)
        results, recruited = match_positions_batch(
            home, attempting, targets, mat_rngs
        )
        if prof is not None:
            t0 = prof.tick("match", t0)
        informed |= recruited & (results == 1)

        rounds += 1
        if prof is not None:
            t0 = prof.tick("move", t0)
        record_informed()
        done = np.logical_and.reduce(informed, axis=1)
        if prof is not None:
            t0 = prof.tick("bookkeep", t0)
        if done.any():
            finalize_rows(np.flatnonzero(done), rounds)
            keep = ~done
            informed, live = compact_rows(np.flatnonzero(keep), informed, live)
            env_rngs, mat_rngs, col_rngs = _filter_lists(
                keep, env_rngs, mat_rngs, col_rngs
            )
            searching = searching[: len(live)]
            coins = coins[: len(live)]

    finalize_rows(np.arange(len(live)), None)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Quorum sensing (the biological baseline)
# ---------------------------------------------------------------------------


@sanitized
def simulate_quorum_batch(
    n: int,
    nests: NestConfig,
    sources: Sequence[RandomSource],
    max_rounds: int = 100_000,
    quorum_fraction: float = 0.35,
    tandem_probability: float = 0.25,
    record_history: bool = False,
) -> list[FastRunResult]:
    """Batched Pratt-style quorum sensing (first fast path for ``quorum``).

    Vectorizes :class:`repro.baselines.quorum.QuorumAnt`: assessing ants
    recruit slowly (``tandem_probability``) until a visit sees the quorum,
    then transport (recruit every round); any ant led to a different nest
    adopts it and restarts assessment.  A run converges at unanimity on
    *any* nest — the agent engine's ``UnanimousCommitment`` criterion —
    so ``converged`` here does not imply a good choice.
    """
    _check_batch(n, sources)
    prof = profiling.active()
    if prof is not None:
        prof.batches += 1
    if not 0.0 < quorum_fraction <= 1.0:
        raise ConfigurationError("quorum_fraction must be in (0, 1]")
    if not 0.0 < tandem_probability <= 1.0:
        raise ConfigurationError("tandem_probability must be in (0, 1]")
    n_trials = len(sources)
    env_rngs = [s.environment for s in sources]
    mat_rngs = [s.matcher for s in sources]
    col_rngs = [s.colony for s in sources]

    k = nests.k
    qualities = np.concatenate([[0.0], nests.quality_array()])
    quorum = max(2.0, quorum_fraction * n)

    out: list[FastRunResult | None] = [None] * n_trials
    histories: list[list[np.ndarray]] = [[] for _ in range(n_trials)]
    live = np.arange(n_trials)
    offsets = _row_offsets(n_trials, k)
    coin_buffer = np.empty((n_trials, n), dtype=np.float64)

    # Round 1: search.
    nest = np.stack([rng.integers(1, k + 1, size=n) for rng in env_rngs])
    counts, count, _ = _assess(nest, k, offsets)
    assessing = qualities[nest] > nests.good_threshold
    committed = assessing & (count >= quorum)
    rounds = 1
    if record_history:
        for row, gid in enumerate(live):
            histories[gid].append(counts[row].copy())

    home_row = np.concatenate([[n], np.zeros(k, dtype=np.int64)])

    def finalize_rows(row_sel: np.ndarray, conv_round: int | None) -> None:
        """Batched report construction for every finishing row at once."""
        if not len(row_sel):
            return
        chosen_arr = _unanimous_choice(nest[row_sel])
        counts_rows = counts[row_sel].copy()
        for j, row in enumerate(row_sel):
            gid = live[row]
            chosen = int(chosen_arr[j])
            out[gid] = FastRunResult(
                converged=conv_round is not None,
                converged_round=conv_round,
                rounds_executed=rounds,
                chosen_nest=chosen if chosen > 0 else None,
                final_counts=counts_rows[j],
                population_history=(
                    np.vstack(histories[gid]) if record_history else None
                ),
            )

    def compress_state(keep: np.ndarray):
        nonlocal nest, count, counts, assessing, committed, live, offsets
        nonlocal env_rngs, mat_rngs, col_rngs
        nest, count, counts, assessing, committed, live = compact_rows(
            np.flatnonzero(keep), nest, count, counts, assessing, committed, live
        )
        env_rngs, mat_rngs, col_rngs = _filter_lists(
            keep, env_rngs, mat_rngs, col_rngs
        )
        offsets = _row_offsets(len(live), k)

    # Unanimity can in principle hold right after the search round.
    unanimous = np.logical_and.reduce(nest == nest[:, :1], axis=1)
    if unanimous.any():
        finalize_rows(np.flatnonzero(unanimous), 1)
        compress_state(~unanimous)

    while live.size and rounds + 2 <= max_rounds:
        if prof is not None:
            prof.rounds += 2
            t0 = perf_counter()
        # Recruitment round: transporters always, assessors at tandem rate.
        coins = _fill_rows(coin_buffer, col_rngs)
        if prof is not None:
            t0 = prof.tick("draw", t0)
        wants = committed | (assessing & ~committed & (coins < tandem_probability))
        sel_src, sel_dst = match_pairs_batch(wants, mat_rngs)
        if prof is not None:
            t0 = prof.tick("match", t0)

        # Ants led to a *different* nest adopt it and restart assessment.
        nest_flat = nest.ravel()
        new_nests = nest_flat[sel_src]
        pulled = sel_dst[new_nests != nest_flat[sel_dst]]
        nest_flat[sel_dst] = new_nests
        assessing.ravel()[pulled] = True
        committed.ravel()[pulled] = False
        if prof is not None:
            t0 = prof.tick("move", t0)
        rounds += 1
        if record_history:
            for gid in live:
                histories[gid].append(home_row)
        unanimous = np.logical_and.reduce(nest == nest[:, :1], axis=1)

        # Assessment round: everyone revisits its nest and checks quorum.
        counts, count, _ = _assess(nest, k, offsets)
        committed |= assessing & (count >= quorum)
        rounds += 1
        if record_history:
            for row, gid in enumerate(live):
                histories[gid].append(counts[row].copy())  # reprolint: disable=K201 -- history rows own their storage
        if prof is not None:
            t0 = prof.tick("bookkeep", t0)

        if unanimous.any():
            finalize_rows(np.flatnonzero(unanimous), rounds - 1)
            compress_state(~unanimous)
            if prof is not None:
                t0 = prof.tick("compact", t0)

    finalize_rows(np.arange(len(live)), None)
    return out  # type: ignore[return-value]
