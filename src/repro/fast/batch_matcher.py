"""Trial-parallel Algorithm 1 — the "v2" matcher.

The reference matcher (:func:`repro.model.recruitment.match_arrays`, "v1")
scans a uniform random permutation of the participant slots and lets each
still-unrecruited active slot draw a uniform choice *at its attempt*.  That
scan is a Python loop over up to ``m`` slots per recruitment round — fine
for the agent engine, which runs it, but an interpreter-bound hot path for
a vectorized one.

The v2 schedule removes both data dependencies (docs/PERFORMANCE.md §3
gives the full argument and its precise scope):

1. **Fixed scan order.**  Slots are scanned in slot order instead of a
   fresh uniform permutation.  For a single round over an exchangeable
   state-to-slot assignment this has exactly the permutation-averaged
   outcome law (time-0 relabeling argument); across rounds it is
   equivalent to freezing one permutation rather than redrawing, which
   introduces O(1/n)-scale rank-persistence effects — the v1/v2
   equivalence relied on is *statistical*, pinned by the agent-vs-batch
   suites, with the agent engine keeping the literal schedule.
2. **Pre-drawn choices.**  Every slot that *wants* to recruit (the
   ``recruit(1, ·)`` callers) is assigned one uniform choice up front, in
   slot order, instead of drawing lazily per attempt.  Attempting slots
   receive i.i.d. uniforms either way — this half is exactly
   distribution-preserving.

Under that schedule the scan is exactly a **greedy maximal matching**: in
slot order, the attempt ``s -> choice(s)`` forms a pair iff neither
endpoint is already in a pair (a recruiter cannot be recruited, a recruited
slot cannot recruit or be recruited again; a failed recruiter stays
recruitable).  Greedy matchings in a fixed priority order are computed
exactly by parallel rounds of *local-minimum edge selection* — an edge is
selected when it beats every other remaining edge at both endpoints — which
needs only a handful of array passes (empirically 2–6 rounds, shrinking
geometrically), and batches perfectly across independent trials by giving
each trial a disjoint key range.

Every function here consumes per-trial generators, so trial ``t`` sees the
same draws whether it runs alone or inside any batch — the bit-identity
contract :mod:`repro.api.runner` relies on.  The sequential specification
these resolvers are tested bit-identical against is
:func:`repro.model.recruitment.match_arrays_v2`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fast.arena import shared_arena

#: Q-value marking a slot key as consumed (paired); below every live stamp.
_COVERED = 0
#: Key spaces up to this size run the resolver in int32 (≥256 stamp rounds
#: of headroom); larger batches fall back to int64.
_INT32_KEY_LIMIT = 1 << 22


def resolve_greedy_matching(
    src_key: np.ndarray,
    dst_key: np.ndarray,
    n_keys: int,
    *,
    resolve=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximal matching over a batch of attempt edges.

    Dispatching wrapper: ``resolve`` is a
    ``(src_key, dst_key, n_keys) -> (sel_src, sel_dst)`` implementation —
    :func:`resolve_pairs_numpy` or a compiled backend's sequential scan
    (:func:`repro.fast.backends.pair_resolver`).  When ``None``, the
    process default backend's resolver is used.  Every implementation
    returns the same pair *set* (the greedy matching is unique given the
    scan order); pair order may differ, and every caller scatters with
    unique destinations, so results are identical.

    Parameters
    ----------
    src_key, dst_key:
        Flat endpoint keys of each attempt.  ``src_key`` must be strictly
        increasing — it doubles as the scan priority — and trials must
        occupy disjoint key ranges so their matchings cannot interact.
    n_keys:
        Size of the key space (``n_trials * slots_per_trial``).

    Returns
    -------
    (sel_src, sel_dst):
        Endpoint keys of the selected pairs, in no particular order.  A
        self-pair appears as ``sel_src[i] == sel_dst[i]``.
    """
    if len(src_key) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if resolve is None:
        # Imported lazily: backends imports this module for the numpy ops.
        from repro.fast.backends import default_pair_resolver

        resolve = default_pair_resolver()
    return resolve(src_key, dst_key, n_keys)


def resolve_pairs_numpy(
    src_key: np.ndarray, dst_key: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy greedy-matching resolver (parallel local-minimum rounds).

    Implementation behind :func:`resolve_greedy_matching`; see it for the
    edge-key contract.

    Notes
    -----
    One parallel round selects every remaining edge that is the minimum-
    priority remaining edge at *both* endpoints (a vertex's incident edges
    are its own outgoing attempt plus every attempt choosing it); selected
    pairs consume their endpoints and incident edges drop out.  Iterated to
    a fixpoint this reproduces the sequential scan exactly — the classical
    greedy-matching/local-minima equivalence.  Per-round stamp bases
    *decrease*, so entries written in earlier rounds read as larger than
    any live stamp, i.e. as "no incident edge" — the scratch array never
    needs a reset — while consumed keys hold ``_COVERED``, below every
    stamp, and block their edges forever.
    """
    if len(src_key) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if n_keys <= _INT32_KEY_LIMIT:
        dtype, base0 = np.int32, np.int32(1) << 30
    else:
        dtype, base0 = np.int64, np.int64(1) << 62
    stride = dtype(n_keys + 1)
    capacity = int((base0 - 2) // stride)  # stamp rounds before a refresh
    # The scratch array is the resolver's one large temporary; recycling it
    # through the process arena keeps it off the per-round allocation path.
    q = shared_arena().full("matcher.q", (n_keys,), dtype, base0 + stride)
    e_src = np.asarray(src_key, dtype)
    e_dst = np.asarray(dst_key, dtype)
    sel_src_parts: list[np.ndarray] = []
    sel_dst_parts: list[np.ndarray] = []
    round_index = 0
    while len(e_src):
        round_index += 1
        if round_index > capacity:  # pragma: no cover - astronomically rare
            # Rebinding is safe here: the refresh fires once per ~2**30
            # resolver rounds, and the next invocation re-fills the plane
            # via full() on the original backing buffer anyway.
            q = np.where(q == _COVERED, dtype(_COVERED), base0 + stride)  # reprolint: disable=K202 -- once-per-2**30-rounds refresh
            round_index = 1
        ce = (base0 - dtype(round_index) * stride) + e_src
        np.minimum.at(q, e_src, ce)
        np.minimum.at(q, e_dst, ce)
        # Selected: min at both endpoints (a consumed endpoint reads
        # _COVERED and can never win).  flatnonzero + take beats boolean
        # mask indexing by ~4x at these sizes.
        sel = (q.take(e_src, mode="clip") >= ce) & (q.take(e_dst, mode="clip") >= ce)
        idx_sel = np.flatnonzero(sel)
        ssrc = e_src.take(idx_sel, mode="clip")
        sdst = e_dst.take(idx_sel, mode="clip")
        sel_src_parts.append(ssrc)
        sel_dst_parts.append(sdst)
        if idx_sel.size == len(e_src):
            break  # the (common) final round selects every remaining edge
        q[ssrc] = _COVERED
        q[sdst] = _COVERED
        # Survivors: unselected edges with both endpoints still free after
        # this round's selections (re-read q so freshly consumed endpoints
        # kill their edges immediately), filtered in one fused pass.
        np.logical_not(sel, out=sel)
        sel &= q.take(e_src, mode="clip") > _COVERED
        sel &= q.take(e_dst, mode="clip") > _COVERED
        idx_alive = np.flatnonzero(sel)
        e_src = e_src.take(idx_alive, mode="clip")
        e_dst = e_dst.take(idx_alive, mode="clip")
    # Keys come back in the resolver's working dtype (int32 for all but
    # enormous batches); callers only ever use them as indices.
    return np.concatenate(sel_src_parts), np.concatenate(sel_dst_parts)


def draw_choices_per_trial(
    rngs: Sequence[np.random.Generator],
    n_attempts: np.ndarray,
    m_participants: np.ndarray | int,
) -> np.ndarray:
    """The v2 draw schedule: one uniform choice per wanting slot, per trial.

    Trial ``b`` draws ``rngs[b].integers(0, m_b, size=a_b)`` — a single
    generator call whose shape depends only on that trial's own state, so
    the stream is identical at any batch size.  Trials with no attempts
    skip the call entirely.
    """
    # Plain-int iteration (tolist) keeps the per-round loop off the
    # numpy-scalar slow path; the generator calls are unchanged.
    n_list = n_attempts.tolist()
    if isinstance(m_participants, np.ndarray):
        m_list = m_participants.tolist()
    else:
        m_list = [int(m_participants)] * len(rngs)
    parts = [
        rng.integers(0, m, size=a)
        for rng, a, m in zip(rngs, n_list, m_list)
        if a
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _resolve_segmented(
    src_key: np.ndarray,
    dst_key: np.ndarray,
    boundaries: np.ndarray,
    n: int,
    resolve,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial greedy matching over an ``n``-sized key space.

    Trials occupy disjoint key ranges and the greedy matching of a fixed
    priority order decomposes over connected components, so resolving each
    trial's edge segment alone (keys rebased to ``0..n``) returns exactly
    the pair set of one batched resolution over ``n_trials * n`` keys —
    just with the ``matcher.q`` scratch at ``O(n)`` instead of
    ``O(n_trials * n)``, the whole point at million-ant scale.  Pair
    *order* differs from the batched form, which every caller is
    documented to ignore (unique-destination scatters).
    """
    sel_src_parts: list[np.ndarray] = []
    sel_dst_parts: list[np.ndarray] = []
    for b in range(len(boundaries) - 1):
        lo, hi = boundaries[b], boundaries[b + 1]
        if lo == hi:
            continue
        base = b * n
        seg_src, seg_dst = resolve_greedy_matching(
            src_key[lo:hi] - base, dst_key[lo:hi] - base, n, resolve=resolve
        )
        # The resolver hands keys back in its working dtype (int32 for any
        # realistic n); re-offsetting must not wrap, so widen first.
        sel_src_parts.append(seg_src.astype(np.int64) + base)
        sel_dst_parts.append(seg_dst.astype(np.int64) + base)
    if not sel_src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(sel_src_parts), np.concatenate(sel_dst_parts)


def match_pairs_batch(
    wants: np.ndarray,
    rngs: Sequence[np.random.Generator],
    *,
    resolve=None,
    segmented: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Leanest batched Algorithm 1 when *every* slot participates.

    The engine-facing variant: returns just the matching as flat
    ``(recruiter_key, recruitee_key)`` arrays, so round loops can
    scatter-update exactly the recruited slots instead of rebuilding whole
    state arrays — by far the cheapest way to consume a matching in which
    most pairs change nothing.

    Parameters
    ----------
    wants:
        ``(B, n)`` bool; slot called ``recruit(1, ·)`` this round.
    rngs:
        One matcher generator per trial row.
    segmented:
        Resolve each trial's edges separately over an ``n``-key space
        (same pair set, ``O(n)`` scratch) — the tiled kernels' memory
        mode.  Draws are identical either way: choices are always drawn
        per trial, before any resolution.
    """
    n_trials, n = wants.shape
    src_key = np.flatnonzero(wants.ravel())
    # src_key is sorted, so per-trial attempt counts come from a handful of
    # binary searches instead of another pass over the mask.
    boundaries = np.searchsorted(src_key, np.arange(n_trials + 1) * n)
    n_attempts = np.diff(boundaries)
    choices = draw_choices_per_trial(rngs, n_attempts, n)
    dst_key = src_key - (src_key % n) + choices
    if segmented:
        return _resolve_segmented(src_key, dst_key, boundaries, n, resolve)
    return resolve_greedy_matching(src_key, dst_key, n_trials * n, resolve=resolve)


def match_slots_batch(
    wants: np.ndarray,
    targets: np.ndarray,
    rngs: Sequence[np.random.Generator],
    *,
    resolve=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-detail batched Algorithm 1 over complete slot spaces.

    Returns the per-slot triple of
    :func:`repro.model.recruitment.match_arrays` — ``results``,
    ``recruiter_of`` and ``is_recruiter`` — batched to shape ``(B, n)``.
    The equivalence tests run this against the sequential v2 reference.
    """
    n_trials, n = wants.shape
    sel_src, sel_dst = match_pairs_batch(wants, rngs, resolve=resolve)

    recruiter_of = np.full((n_trials, n), -1, dtype=np.int64)
    recruiter_of.ravel()[sel_dst] = sel_src % n
    is_recruiter = np.zeros((n_trials, n), dtype=bool)
    is_recruiter.ravel()[sel_src] = True
    results = np.array(targets, dtype=np.int64, copy=True)
    flat = results.ravel()
    flat[sel_dst] = flat[sel_src]
    return results, recruiter_of, is_recruiter


def match_positions_sparse(
    participants: np.ndarray,
    attempting: np.ndarray,
    rngs: Sequence[np.random.Generator],
    *,
    resolve=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Algorithm 1 over participant subsets, as sparse pairs.

    Participant slots are each trial's participating ants in ant-id order
    (the v2 slot convention for subset rounds); choices are uniform over
    ``0..m_b-1`` exactly as the model prescribes.  This is the lean core:
    it touches the full ``(B, n)`` space only twice (one ``flatnonzero``
    over the participant mask, one gather of the attempt flags) and does
    everything else — per-row attempt counts, slot keys, the resolver, the
    key-to-ant mapping — on attempt-sized arrays, so round loops can
    scatter-update exactly the recruited ants.

    Parameters
    ----------
    participants:
        ``(B, n)`` bool; ants at the home nest this round.
    attempting:
        ``(B, n)`` bool; subset of ``participants`` that called
        ``recruit(1, ·)``.
    rngs:
        One matcher generator per trial row.

    Returns
    -------
    rows_sel, src_ant, dst_ant:
        Selected pairs as trial-row indices and ant ids (a self-pair has
        ``src_ant[i] == dst_ant[i]``).
    """
    n_trials, n = participants.shape
    if not attempting.any():
        # No recruiter calls: nothing to resolve and (exactly as in the
        # sequential schedule) not a single generator draw is consumed.
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    # Flat positions of every participant: ``flat_idx[j] = row*n + ant`` of
    # the j-th participant in (row, ant-id) order.
    flat_idx = np.flatnonzero(participants.ravel())
    # Per-row participant boundaries via binary search (flat_idx is sorted).
    boundaries = np.searchsorted(flat_idx, np.arange(n_trials + 1) * n)
    m_per = np.diff(boundaries)

    # Attempt subset, in participant-list coordinates.
    att_flags = attempting.ravel().take(flat_idx, mode="clip")
    att_idx = np.flatnonzero(att_flags)
    att_rows = np.searchsorted(boundaries, att_idx, side="right") - 1
    n_attempts = np.bincount(att_rows, minlength=n_trials)
    choices = draw_choices_per_trial(rngs, n_attempts, m_per)

    # Slot key of a participant = row*n + its rank within the row's list.
    att_row_key = att_rows * n
    src_key = att_row_key + (att_idx - boundaries.take(att_rows, mode="clip"))
    dst_key = att_row_key + choices
    sel_src, sel_dst = resolve_greedy_matching(
        src_key, dst_key, n_trials * n, resolve=resolve
    )

    # Map selected slot keys back to ant coordinates through flat_idx.
    rows_sel = sel_src // n
    row_base = rows_sel * n
    part_base = boundaries.take(rows_sel, mode="clip")
    src_ant = flat_idx.take(part_base + (sel_src - row_base)) - row_base
    dst_ant = flat_idx.take(part_base + (sel_dst - row_base)) - row_base
    return rows_sel, src_ant, dst_ant


def match_positions_batch(
    participants: np.ndarray,
    attempting: np.ndarray,
    targets: np.ndarray,
    rngs: Sequence[np.random.Generator],
    *,
    resolve=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense-output wrapper over :func:`match_positions_sparse`.

    Returns the classic ``(B, n)`` pair — the nest returned to each
    participating ant (its own target elsewhere) and the recruited mask —
    for callers whose round structure genuinely consumes whole arrays.
    Hot loops should prefer the sparse form and scatter.
    """
    n_trials, n = participants.shape
    rows_sel, src_ant, dst_ant = match_positions_sparse(
        participants, attempting, rngs, resolve=resolve
    )
    results = np.array(targets, dtype=np.int64, copy=True)
    results[rows_sel, dst_ant] = results[rows_sel, src_ant]
    recruited = np.zeros((n_trials, n), dtype=bool)
    recruited[rows_sel, dst_ant] = True
    return results, recruited
