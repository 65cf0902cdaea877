"""Backend seam for the perturbed batch kernels.

:func:`repro.fast.batch._simulate_simple_perturbed` is a driver over a
small ops interface; this package provides the implementations and the
selection machinery that picks one:

==========  ==========================================================
``numpy``   The reference realization (:class:`NumpyOps`) — the PR-5
            plane-at-a-time round loop.  Always available.
``cext``    ``_kernels.c`` compiled on demand with the host C compiler.
==========  ==========================================================

Every backend reproduces the numpy planes bit-for-bit (the golden-digest
suite pins this), so selection is a pure performance knob and therefore
**digest-transparent**: reports do not record an environment-selected
backend.  Only an explicit ``Scenario.params["kernel_backend"]`` pin is
recorded in extras (it is part of the scenario identity).

Selection order: the ``kernel_backend`` scenario param (strongest), then
a :func:`use_backend` override, then ``$REPRO_FAST_BACKEND``, default
``auto``.  Unavailable choices degrade down a fixed chain (cext → numpy)
rather than fail; :func:`resolve_backend` reports the degradation so the
registry can surface it honestly.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from repro import knobs
from repro.exceptions import ConfigurationError
from repro.fast.arena import shared_arena
from repro.fast.backends import cext
from repro.fast.backends.numpy_ops import NumpyOps
from repro.fast.backends.state import PerturbedState
from repro.knobs import BACKEND_NAMES

__all__ = [
    "BACKEND_NAMES",
    "NumpyOps",
    "PerturbedState",
    "availability",
    "default_backend_name",
    "default_pair_resolver",
    "pair_resolver",
    "perturbed_ops",
    "resolve_backend",
    "use_backend",
]

#: Degradation chain per requested name: first available entry wins.
_CHAIN = {
    "auto": ("cext", "numpy"),
    "cext": ("cext", "numpy"),
    "numpy": ("numpy",),
}

#: Session override installed by :func:`use_backend` (tests, benchmarks).
_OVERRIDE: str | None = None

#: Pair resolvers already wrapped, keyed by concrete backend name.
_RESOLVER_CACHE: dict[str, Callable] = {}

# Size-1 stand-ins for planes a feature flag gates off.  The kernels
# never dereference them when the flag is clear (every access is guarded
# or short-circuited), but ctypes still needs a non-null pointer.
_D_F64 = np.zeros(1, dtype=np.float64)
_D_I32 = np.zeros(1, dtype=np.int32)
_D_I64 = np.zeros(1, dtype=np.int64)
_D_B = np.zeros(1, dtype=np.bool_)
_D_U8 = np.zeros(1, dtype=np.uint8)


def _u8(plane: np.ndarray) -> np.ndarray:
    """A bool plane as a flat uint8 view (same bytes, same 0/1 values).

    The branchless kernels do their boolean logic as uint8 arithmetic;
    numpy bool planes already store exactly one 0/1 byte per element, so
    the view is free and writes through it stay valid bool storage.
    """
    return plane.reshape(-1).view(np.uint8)


def availability(name: str) -> str | None:
    """Why ``name`` cannot run here, or ``None`` when it can."""
    if name == "numpy":
        return None
    if name == "cext":
        return cext.availability()
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
    )


def default_backend_name() -> str:
    """The process-level request: override, else env var, else ``auto``."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return knobs.fast_backend()


def resolve_backend(requested: str | None = None) -> tuple[str, str | None]:
    """Resolve a backend request to ``(actual, degraded_from)``.

    ``requested`` is the scenario-pinned name (or ``None`` to consult the
    process default).  ``degraded_from`` is the requested name when an
    explicit choice (anything but ``auto``) could not be honored and fell
    down its chain; ``None`` otherwise.
    """
    name = requested if requested is not None else default_backend_name()
    chain = _CHAIN.get(name)
    if chain is None:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    actual = next(c for c in chain if availability(c) is None)
    degraded_from = name if name != "auto" and actual != name else None
    return actual, degraded_from


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Override the process default backend within a ``with`` block.

    Yields the *resolved* concrete backend so callers (benchmarks, the
    golden cross-backend tests) can assert they exercised what they meant
    to rather than a silent fallback.
    """
    global _OVERRIDE
    actual, _ = resolve_backend(name)  # validate eagerly
    previous = _OVERRIDE
    _OVERRIDE = name
    try:
        yield actual
    finally:
        _OVERRIDE = previous


def _kernels_for(name: str):
    """The array-signature kernel namespace behind a concrete backend."""
    if name == "cext":
        return cext.kernels()
    raise ConfigurationError(f"backend {name!r} has no kernel namespace")


def perturbed_ops(name: str):
    """A fresh ops instance for a resolved (concrete) backend name."""
    if name == "numpy":
        return NumpyOps()
    return CompiledOps(name, _kernels_for(name))


def pair_resolver(name: str) -> Callable:
    """The greedy pair resolver implementation of a concrete backend.

    Always returns a callable with the
    ``(src_key, dst_key, n_keys) -> (sel_src, sel_dst)`` contract of
    :func:`repro.fast.batch_matcher.resolve_pairs_numpy`, so callers can
    pin it explicitly (``numpy`` pins its own resolver rather than
    inheriting the process default — a numpy-pinned batch must stay numpy
    end to end).
    """
    if name == "numpy":
        from repro.fast.batch_matcher import resolve_pairs_numpy

        return resolve_pairs_numpy
    resolver = _RESOLVER_CACHE.get(name)
    if resolver is None:
        resolver = _resolver_from_kernels(_kernels_for(name))
        _RESOLVER_CACHE[name] = resolver
    return resolver


def default_pair_resolver() -> Callable:
    """The resolver behind the current process default backend."""
    actual, _ = resolve_backend(None)
    return pair_resolver(actual)


def _resolver_from_kernels(kernels) -> Callable:
    """Wrap a backend's sequential ``resolve_pairs`` in the numpy contract."""

    def resolve(src_key, dst_key, n_keys):
        n_edges = len(src_key)
        if n_edges == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        arena = shared_arena()
        used = arena.full("cext.used", (int(n_keys),), np.uint8, 0)
        out_src = arena.buf("cext.osrc", (n_edges,), np.int64)
        out_dst = arena.buf("cext.odst", (n_edges,), np.int64)
        outn = int(
            kernels.resolve_pairs(
                n_edges,
                np.ascontiguousarray(src_key, dtype=np.int64),
                np.ascontiguousarray(dst_key, dtype=np.int64),
                used,
                out_src,
                out_dst,
            )
        )
        # Views are consumed immediately by the key-to-ant map-back; the
        # next resolver call may recycle the storage.
        return out_src[:outn], out_dst[:outn]

    return resolve


# Feature flags for decide_move (mirrored by the #defines in _kernels.c —
# keep the two lists in sync).
F_DELAYED = 1
F_QUALITY = 2
F_HAS_BYZ = 4
F_ENFORCE_ZOMBIE = 8
F_CRASH_AT_HOME = 16
F_RATE_MULT = 32


class CompiledOps:
    """Drive the compiled kernels namespace (``cext``).

    The compiled ops take the same :class:`PerturbedState` as
    :class:`NumpyOps` but hand each stage to an array-signature kernel
    of ``_kernels.c`` over flat views.

    **Epoch-bound argument cache.**  Every state plane is a leading-row
    prefix view of a grow-only arena buffer, so its *data pointer* is
    constant between compactions; the driver bumps ``st.epoch`` exactly
    when planes rebind.  :meth:`_bound` therefore resolves each stable
    plane once per epoch — through the backend's ``prepare`` hook (raw
    pointer ints) — and the per-round calls pass those cached arguments
    straight through.  Without this, pointer/view derivation was ~15 %
    of the cext round loop (16k ``.ctypes.data`` resolutions per batch).
    Only genuinely unstable arguments are prepared per call: the rate
    schedule (``mult_arr`` regrows), the matcher choices and pair
    buffers (sized per round), and the healthy-row stats (reallocated on
    health changes).

    The end-of-round phase advance is fused into ``decide_move`` (see
    ``pk_decide_move`` in ``_kernels.c``), so :meth:`advance` is a no-op
    here.
    """

    def __init__(self, name: str, kernels) -> None:
        self.name = name
        self._kernels = kernels
        self._prep = kernels.prepare
        self._bind = None
        self._bind_st = None
        self._bind_epoch = -1
        self._att_total = 0
        self._blended = False

    def _bound(self, st):
        """The per-epoch argument bundle (rebuilt when planes rebind)."""
        bk = self._bind
        if bk is not None and self._bind_st is st and self._bind_epoch == st.epoch:
            return bk
        prep = self._prep
        m, n = st.nest.shape
        k1 = st.k + 1
        arena = shared_arena()
        bk = SimpleNamespace()
        bk.m = m
        bk.n = n
        bk.mn = m * n
        bk.k1 = k1
        bk.dn = float(st.n)
        bk.delay_prob = float(st.delay_prob) if st.delayed else 0.0
        bk.has_byz_i = int(st.has_byz)
        bk.healthy_only_i = int(st.healthy_only)
        # Stable planes, resolved once: flat views of epoch-stable storage.
        bk.coins = prep(st.coins.reshape(-1))
        bk.stalls = prep(st.stalls.reshape(-1)) if st.delayed else prep(_D_F64)
        bk.nest = prep(st.nest.reshape(-1))
        bk.position = prep(st.position.reshape(-1))
        bk.count = prep(st.count.reshape(-1))
        bk.active = prep(_u8(st.active))
        bk.phase_assess = prep(_u8(st.phase_assess))
        bk.pending = prep(_u8(st.pending_bit))
        bk.latched = prep(_u8(st.latched))
        bk.healthy = prep(_u8(st.healthy))
        bk.zombie = prep(_u8(st.zombie))
        bk.unhealthy = prep(_u8(st.unhealthy))
        bk.byz_mask = prep(_u8(st.byz_mask)) if st.has_byz else prep(_D_U8)
        bk.byz_target = (
            prep(st.byz_target.reshape(-1)) if st.has_byz else prep(_D_I32)
        )
        bk.ant_phase = (
            prep(st.ant_phase.reshape(-1)) if st.rate_mult else prep(_D_I32)
        )
        bk.qualities = prep(st.qualities)
        bk.good = prep(st.good)
        bk.exec_rec = prep(_u8(st.exec_rec))
        bk.exec_go = prep(_u8(st.exec_go))
        bk.scr1 = prep(_u8(st.scr1)) if st.has_byz else prep(_D_U8)
        bk.scr2 = prep(_u8(st.scr2)) if st.has_byz else prep(_D_U8)
        bk.eqb = prep(_u8(st.eqb))
        bk.notb = prep(_u8(st.notb))
        bk.part = prep(_u8(st.part))
        bk.att = prep(_u8(st.att))
        bk.gath = prep(st.gath.reshape(-1))
        bk.fresh = prep(st.fresh.reshape(-1)) if st.fresh is not None else None
        # Epoch-owned arena buffers (shape is fixed between compactions,
        # so the arena hands back the same storage every round).
        bk.m_per_arr = arena.buf("bk.mper", (m,), np.int64)
        bk.n_att_arr = arena.buf("bk.natt", (m,), np.int64)
        bk.counts2d_arr = arena.buf("bk.counts2d", (m, k1), np.int64)
        bk.done_arr = arena.buf("bk.done", (m,), np.bool_)
        bk.m_per = prep(bk.m_per_arr)
        bk.n_att = prep(bk.n_att_arr)
        bk.counts2d = prep(bk.counts2d_arr.reshape(-1))
        bk.done = prep(bk.done_arr)
        # Sized for the cext matcher's scratch layout (prefix table +
        # source-slot log); a plain slot list needs only the first n.
        bk.plist = prep(arena.buf("bk.plist", (n + n // 8 + 2,), np.int32))
        # The compiled matcher's contract: all-zero on entry and exit
        # (it un-marks the slots it used), so zero once per bind.
        bk.used = prep(arena.full("bk.used", (n,), np.uint8, 0))
        self._bind = bk
        self._bind_st = st
        self._bind_epoch = st.epoch
        return bk

    def _flags(self, st) -> int:
        flags = 0
        if st.delayed:
            flags |= F_DELAYED
        if st.quality_weighted:
            flags |= F_QUALITY
        if st.has_byz:
            flags |= F_HAS_BYZ
        if st.enforcing_zombies:
            flags |= F_ENFORCE_ZOMBIE
        if st.crash_at_home:
            flags |= F_CRASH_AT_HOME
        if st.rate_mult:
            flags |= F_RATE_MULT
        return flags

    def decide_move(self, st) -> bool:
        bk = self._bound(st)
        if st.recruit_probability is not None:
            rp = float(st.recruit_probability)
        else:
            rp = -1.0  # sentinel: use the count/n population feedback
        if st.rate_mult:
            mult = st.mult_arr  # regrows between rounds: prepared per call
            mult_len = mult.shape[0]
        else:
            mult, mult_len = _D_F64, 1
        any_go = self._kernels.decide_move(
            bk.mn,
            bk.dn,
            bk.coins,
            bk.stalls,
            bk.nest,
            bk.position,
            bk.count,
            bk.active,
            bk.phase_assess,
            bk.pending,
            bk.latched,
            bk.healthy,
            bk.zombie,
            bk.byz_mask,
            bk.byz_target,
            bk.ant_phase,
            mult,
            mult_len,
            bk.qualities,
            rp,
            bk.delay_prob,
            self._flags(st),
            bk.exec_rec,
            bk.exec_go,
            bk.scr1,
            bk.scr2,
            bk.eqb,
            bk.notb,
        )
        if st.has_byz:
            st.byz_searching = st.scr1
            st.byz_recruiting = st.scr2
        return bool(any_go)

    def participants(self, st) -> None:
        bk = self._bound(st)
        self._att_total = int(
            self._kernels.participants(
                bk.m,
                bk.n,
                bk.position,
                bk.exec_rec,
                bk.pending,
                bk.scr2,  # byz_recruiting lives in scr2 (dummy without byz)
                bk.has_byz_i,
                bk.part,
                bk.att,
                bk.m_per,
                bk.n_att,
            )
        )

    def match(self, st, mat_rngs):
        if self._att_total == 0:
            # Exactly the sequential schedule: no attempts, no draws.
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        from repro.fast.batch_matcher import draw_choices_per_trial

        bk = self._bound(st)
        choices = draw_choices_per_trial(mat_rngs, bk.n_att_arr, bk.m_per_arr)
        capacity = self._att_total
        arena = shared_arena()
        out_rows = arena.buf("bk.prows", (capacity,), np.int64)
        out_src = arena.buf("bk.psrc", (capacity,), np.int64)
        out_dst = arena.buf("bk.pdst", (capacity,), np.int64)
        outn = int(
            self._kernels.greedy_match(
                bk.m,
                bk.n,
                bk.part,
                bk.att,
                np.ascontiguousarray(choices, dtype=np.int64),
                bk.n_att,
                bk.m_per,
                bk.plist,
                bk.used,
                out_rows,
                out_src,
                out_dst,
            )
        )
        return out_rows[:outn], out_src[:outn], out_dst[:outn]

    def apply_pairs(self, st, rows_sel, src_ant, dst_ant) -> None:
        n_pairs = len(rows_sel)
        if n_pairs == 0:
            return
        bk = self._bound(st)
        self._kernels.apply_pairs(
            n_pairs,
            bk.n,
            rows_sel,
            src_ant,
            dst_ant,
            bk.nest,
            bk.byz_target,
            bk.byz_mask,
            bk.has_byz_i,
            bk.exec_rec,
            bk.active,
        )

    def observe(self, st) -> None:
        # Without noise the blend input *is* the gather output, so the
        # count blend fuses into the census pass; :meth:`blend` then has
        # nothing left to do.  (The driver always calls blend right after
        # observe, before anything touches exec_go.)
        bk = self._bound(st)
        fuse = st.fresh is None
        self._kernels.observe(
            bk.m,
            bk.n,
            bk.k1,
            bk.position,
            bk.nest,
            bk.counts2d,
            bk.gath,
            bk.count,
            bk.exec_go,
            int(fuse),
        )
        st.counts2d = bk.counts2d_arr
        self._blended = fuse

    def blend(self, st, observed) -> None:
        if self._blended and observed is st.gath:
            return
        bk = self._bound(st)
        if observed is st.gath:
            obs = bk.gath
        elif observed is st.fresh and bk.fresh is not None:
            obs = bk.fresh
        else:
            obs = observed.reshape(-1)
        self._kernels.blend(bk.mn, bk.count, obs, bk.exec_go)

    def advance(self, st) -> None:
        """No-op: the phase advance is fused into ``decide_move``."""

    def converged(self, st) -> np.ndarray:
        bk = self._bound(st)
        self._kernels.converged(
            bk.m,
            bk.n,
            bk.healthy_only_i,
            bk.has_byz_i,
            bk.nest,
            bk.unhealthy,
            bk.byz_mask,
            bk.byz_target,
            st.h_first if st.healthy_only else _D_I64,
            st.h_nonempty if st.healthy_only else _D_B,
            bk.good,
            bk.done,
        )
        return bk.done_arr
