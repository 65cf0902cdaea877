"""Element-loop kernels for the perturbed round loop.

One function per ops stage, written as plain loops over flat views so the
same source serves two executions:

- the ``python`` backend runs them as-is (slow; a readable executable
  specification and the fallback-of-last-resort for debugging),
- the ``cext`` backend mirrors them pass-for-pass in C (``_kernels.c``).

The kernels are structured as short *branchless passes* rather than one
fused per-element loop: boolean logic as uint8 arithmetic, movement as
select blends, feature tests loop-invariant.  That shape is what lets
gcc (under cext) auto-vectorize them — the first, branchy cut of these loops lost to numpy's SIMD plane passes on branch
mispredictions alone.  The ``scr_a``/``scr_b`` arguments are caller-owned
uint8 scratch planes the passes stage masks in.

**Bit-identity rules** (why these loops reproduce the numpy planes
exactly; see docs/PERFORMANCE.md §7):

- The probability pipeline performs the *same IEEE-754 double operations
  in the same order* as the numpy ufuncs: ``count/n`` divide, quality
  multiply, rate multiply, then ``min(max(p, 0), 1)``.  No
  multiply-then-add is fused (nothing here may compile to an FMA).
- Every pass is element-independent, so splitting the round into passes
  cannot change any plane: each element's value depends only on that
  element's pre-round inputs.
- The greedy matcher consumes the pre-drawn choices in slot-scan order —
  exactly the sequential schedule the parallel local-minimum resolver
  (:func:`repro.fast.batch_matcher.resolve_pairs_numpy`) is documented
  and tested to reproduce.  Pair order in the output may differ between
  backends; every consumer scatters with unique destinations, so state
  evolution is pair-order-independent.
- No RNG: all draws arrive pre-filled from the driver.
"""

from __future__ import annotations

import numpy as np

# Feature flags for decide_move (mirrored by the #defines in _kernels.c —
# keep the two lists in sync).
F_DELAYED = 1
F_QUALITY = 2
F_HAS_BYZ = 4
F_ENFORCE_ZOMBIE = 8
F_CRASH_AT_HOME = 16
F_RATE_MULT = 32


def decide_move(
    mn,
    dn,
    coins,
    stalls,
    nest,
    position,
    count,
    active,
    phase_assess,
    pending,
    latched,
    healthy,
    zombie,
    byz_mask,
    byz_target,
    ant_phase,
    mult,
    mult_len,
    qualities,
    recruit_probability,
    delay_prob,
    flags,
    exec_rec,
    exec_go,
    byz_searching,
    byz_recruiting,
    scr_a,
    scr_b,
):
    """Latch / stall / exec-mask / movement / phase-advance passes.

    All arrays are flat ``(m*n,)`` views; sizes travel as explicit
    scalars (the signatures mirror ``_kernels.c`` exactly, so the ops
    glue can hand any backend pre-resolved arguments).
    ``recruit_probability < 0`` means "use the count/n feedback".
    Returns 1 if any ant executes its assessment trip this round.  The
    phase advance (``phase_assess``/``latched``) is fused in: per
    element, everything is computed from pre-advance values before the
    planes are written, and no later stage of the round reads them.
    """
    delayed = (flags & F_DELAYED) != 0
    quality = (flags & F_QUALITY) != 0
    has_byz = (flags & F_HAS_BYZ) != 0
    enforce = (flags & F_ENFORCE_ZOMBIE) != 0
    at_home = (flags & F_CRASH_AT_HOME) != 0
    rate = (flags & F_RATE_MULT) != 0
    acc = 0

    # P1: the latch mask — ants deciding their next action this round.
    for i in range(mn):
        scr_a[i] = (phase_assess[i] ^ 1) & healthy[i] & (latched[i] ^ 1)

    # P2 (rate schedules only): pre-increment each latching ant's own
    # schedule index, as AdaptiveSimpleAnt.decide does.
    if rate:
        for i in range(mn):
            ant_phase[i] += scr_a[i]

    # P3: the probability pipeline + the pending-coin blend.  Op order
    # matches the numpy ufunc sequence exactly: divide (or constant),
    # quality multiply, rate multiply, clip, compare.
    for i in range(mn):
        if recruit_probability >= 0.0:
            p = recruit_probability
        else:
            p = count[i] / dn
        if quality:
            p = p * qualities[nest[i]]
        if rate:
            idx = ant_phase[i]
            if idx >= mult_len:
                idx = mult_len - 1
            p = p * mult[idx]
        if quality or rate:
            if p < 0.0:
                p = 0.0
            if p > 1.0:
                p = 1.0
        la = scr_a[i]
        want = np.uint8(coins[i] < p) & active[i]
        pending[i] = (la & want) | ((la ^ 1) & pending[i])

    # P4: stall bytes (delay models only).
    if delayed:
        for i in range(mn):
            scr_b[i] = np.uint8(stalls[i] < delay_prob)

    # P5: exec masks, Byzantine roles, movement targets, phase advance —
    # pure byte logic.  Movement targets land in the scratch planes
    # (scr_a = go-to-nest, scr_b = go-home) for the blend below.
    for i in range(mn):
        h = healthy[i]
        assess = phase_assess[i]
        if delayed:
            ex = h & (scr_b[i] ^ 1)
        else:
            ex = h
        er = (assess ^ 1) & ex
        eg = assess & ex
        exec_rec[i] = er
        exec_go[i] = eg
        acc |= eg
        brec = np.uint8(0)
        if has_byz:
            b = byz_mask[i]
            if delayed:
                unstalled = scr_b[i] ^ 1
            else:
                unstalled = np.uint8(1)
            byz_searching[i] = b & np.uint8(byz_target[i] == 0) & unstalled
            brec = b & np.uint8(byz_target[i] != 0) & unstalled
            byz_recruiting[i] = brec
        gohome = er | brec
        gonest = eg
        if enforce:
            if at_home:
                gohome = gohome | zombie[i]
            else:
                gonest = gonest | zombie[i]
        phase_assess[i] = (assess | er) & (eg ^ 1)
        latched[i] = (latched[i] | h) & (ex ^ 1)
        scr_a[i] = gonest
        scr_b[i] = gohome

    # P6: movement as a select blend (go-to-nest wins).
    for i in range(mn):
        pos = position[i]
        if scr_b[i]:
            pos = 0
        if scr_a[i]:
            pos = nest[i]
        position[i] = pos
    return acc


def participants(
    m, n, position, exec_rec, pending, byz_recruiting, has_byz, part, att, m_per, n_att
):
    """Participant/attempt masks plus per-row counts.

    Fills ``part``/``att`` (flat bool planes), ``m_per`` (participants per
    row) and ``n_att`` (attempting participants per row); returns the
    total attempt count so the caller can size the pair buffers and skip
    the matcher (and its draws) when nothing attempts.  Attempts are a
    subset of participants (every recruiter/Byzantine recruiter moved
    home in decide_move), so ``att`` is counted within ``part``.
    """
    mn = m * n
    for i in range(mn):
        part[i] = np.uint8(position[i] == 0)
    if has_byz:
        for i in range(mn):
            att[i] = (exec_rec[i] & pending[i]) | byz_recruiting[i]
    else:
        for i in range(mn):
            att[i] = exec_rec[i] & pending[i]
    total = 0
    for row in range(m):
        off = row * n
        mp = 0
        na = 0
        for j in range(n):
            # int() the uint8 planes: accumulating the elements directly
            # would wrap at 256 under value-based promotion.
            mp += int(part[off + j])
            na += int(part[off + j] & att[off + j])
        m_per[row] = mp
        n_att[row] = na
        total += na
    return total


def greedy_match(
    m, n, part, att, choices, n_att, m_per, plist, used, out_rows, out_src, out_dst
):
    """Sequential greedy matching over participant slots, per row.

    The v2 schedule: scan each row's participants in ant-id order; every
    attempting slot consumes one pre-drawn choice; the attempt forms a
    pair iff neither endpoint is already paired (a failed recruiter stays
    recruitable).  This *is* the matching the parallel local-minimum
    resolver computes — same pair set, different pair order.  Rows with
    no attempts consume no choices (the driver drew ``n_att[row]`` per
    row) and are skipped outright.

    One fused pass in ant order == participant-slot order: the slot list
    is built branchlessly (unconditional store, advance by the
    participant byte) while attempts consume choices.  A chosen slot may
    lie ahead of the scan, so pairs record the *slot* of the recruit and
    a fix-up maps it to its ant once the row's list is complete.
    """
    ci = 0
    outn = 0
    for row in range(m):
        if n_att[row] == 0:
            continue
        off = row * n
        row_start = outn
        for s in range(m_per[row]):
            used[s] = 0
        s = 0
        for j in range(n):
            pj = part[off + j]
            plist[s] = j
            if pj & att[off + j]:
                c = choices[ci]
                ci += 1
                if (not used[s]) and (not used[c]):
                    used[s] = 1
                    used[c] = 1
                    out_rows[outn] = row
                    out_src[outn] = j
                    out_dst[outn] = c
                    outn += 1
            s += int(pj)
        for e in range(row_start, outn):
            out_dst[e] = plist[out_dst[e]]
    return outn


def apply_pairs(
    n_pairs, n, rows, src, dst, nest, byz_target, byz_mask, has_byz, exec_rec, active
):
    """Recruited, executing ants adopt the recruiter's advertised nest.

    Destinations are unique within a round, so the scatter is
    order-independent; ``active`` only ever latches on (an ant woken by
    an actual move never sleeps again this batch).
    """
    for e in range(n_pairs):
        off = rows[e] * n
        d = off + dst[e]
        if not exec_rec[d]:
            continue
        s = off + src[e]
        if has_byz and byz_mask[s]:
            v = byz_target[s]
        else:
            v = nest[s]
        if v != nest[d]:
            nest[d] = v
            active[d] = 1


def observe(m, n, k1, position, nest, counts2d, gath, count, exec_go, do_blend):
    """Per-row position census and each ant's own-nest population gather.

    With ``do_blend`` the count blend (``count = where(exec_go, gathered,
    count)``) is fused into the gather pass — the no-noise path, where the
    observed plane the blend would read *is* the gather output.
    """
    for row in range(m):
        coff = row * k1
        off = row * n
        for b in range(k1):
            counts2d[coff + b] = 0
        for j in range(n):
            counts2d[coff + position[off + j]] += 1
        if do_blend:
            for j in range(n):
                i = off + j
                v = counts2d[coff + nest[i]]
                gath[i] = v
                if exec_go[i]:
                    count[i] = v
        else:
            for j in range(n):
                gath[off + j] = counts2d[coff + nest[off + j]]


def blend(mn, count, observed, exec_go):
    """count = where(exec_go, observed, count)."""
    for i in range(mn):
        if exec_go[i]:
            count[i] = observed[i]


def converged(
    m,
    n,
    healthy_only,
    has_byz,
    nest,
    unhealthy,
    byz_mask,
    byz_target,
    h_first,
    h_nonempty,
    good,
    out,
):
    """Per-row convergence check with early exit on the first dissenter."""
    for row in range(m):
        off = row * n
        if healthy_only:
            if not h_nonempty[row]:
                out[row] = False
                continue
            ref = nest[off + h_first[row]]
            ok = good[ref]
            if ok:
                for j in range(n):
                    i = off + j
                    if (not unhealthy[i]) and nest[i] != ref:
                        ok = False
                        break
            out[row] = ok
        else:
            if has_byz and byz_mask[off]:
                ref = byz_target[off]
            else:
                ref = nest[off]
            ok = ref > 0 and good[ref]
            if ok:
                for j in range(1, n):
                    i = off + j
                    if has_byz and byz_mask[i]:
                        committed = byz_target[i]
                    else:
                        committed = nest[i]
                    if committed != ref:
                        ok = False
                        break
            out[row] = ok


def resolve_pairs(ne, src_key, dst_key, used, out_src, out_dst):
    """Greedy maximal matching over pre-keyed attempt edges.

    The clean-kernel seam: ``src_key`` is strictly increasing (the scan
    priority) and doubles as the endpoint key; ``used`` must arrive
    all-zero at key-space size.  Returns the selected pair count.
    """
    outn = 0
    for e in range(ne):
        s = src_key[e]
        d = dst_key[e]
        if (not used[s]) and (not used[d]):
            used[s] = 1
            used[d] = 1
            out_src[outn] = s
            out_dst[outn] = d
            outn += 1
    return outn
