"""The ctypes C extension backend: gcc-compiled round-loop kernels.

``_kernels.c`` (shipped next to this module) mirrors the branchless
pass-structured kernels in :mod:`repro.fast.backends.looped` pass for
pass.  This
module compiles it on demand with whatever C compiler the host offers
(``$CC``, ``cc``, ``gcc``, ``clang``), caches the shared object in a
per-user build directory keyed by the source digest, and wraps the
symbols in the array-signature namespace the ops glue consumes — so the
compiled backend needs **no build step and no third-party dependency**,
only a C compiler.  Hosts without one degrade to the numpy path through
the normal backend chain.

Compile flags are ``-O3 -march=native -ffp-contract=off`` (dropping
``-march=native`` when the compiler rejects it): ``-O3`` plus native ISA
so gcc auto-vectorizes the branchless passes, but never ``-ffast-math``
(the probability pipeline must round exactly like the numpy ufuncs it
replaces) and never FMA contraction (a fused multiply-add rounds once
where numpy rounds twice).  Vectorization is bit-safe here: every pass
is elementwise IEEE-754 double or integer work, identical lane by lane.

The build directory honors ``$REPRO_CEXT_CACHE``; concurrent builders
race benignly (each compiles to a private temp file and ``os.replace``\\ s
it into place atomically).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro import knobs

_SOURCE = Path(__file__).with_name("_kernels.c")

#: Lazy build product: (namespace, None) or (None, human-readable reason).
_STATE: tuple[SimpleNamespace | None, str | None] | None = None

_c_long = ctypes.c_long
_c_double = ctypes.c_double
_ptr = ctypes.c_void_p


def _compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build_dir() -> Path:
    override = knobs.cext_cache()
    if override is not None:
        return Path(override)
    tag = f"repro-cext-py{sys.version_info[0]}{sys.version_info[1]}"
    return Path(tempfile.gettempdir()) / tag


def _build(cc: str) -> Path:
    """Compile (or reuse) the shared object for the current source digest."""
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    build_dir = _build_dir()
    build_dir.mkdir(parents=True, exist_ok=True)
    so_path = build_dir / f"repro_kernels_{digest}.so"
    if so_path.exists():
        return so_path
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=build_dir)
    os.close(fd)
    base = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]
    try:
        last_error: subprocess.CalledProcessError | None = None
        # Prefer the native ISA (SIMD width); retry portable if rejected.
        for extra in (["-march=native"], []):
            try:
                subprocess.run(
                    [cc, *base, *extra, "-o", tmp_name, str(_SOURCE)],
                    check=True,
                    capture_output=True,
                    text=True,
                )
                last_error = None
                break
            except subprocess.CalledProcessError as exc:
                last_error = exc
        if last_error is not None:
            raise last_error
        os.replace(tmp_name, so_path)  # atomic vs concurrent builders
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return so_path


def _declare(lib: ctypes.CDLL) -> None:
    """Exact argtypes: C ``long`` is 64-bit on LP64 and ctypes must match."""
    L, D, P = _c_long, _c_double, _ptr
    lib.pk_decide_move.restype = L
    lib.pk_decide_move.argtypes = [
        L, D,  # mn, dn
        P, P, P, P, P, P,  # coins, stalls, nest, position, count, active
        P, P, P, P, P,  # phase_assess, pending, latched, healthy, zombie
        P, P, P, P, L,  # byz_mask, byz_target, ant_phase, mult, mult_len
        P, D, D, L,  # qualities, recruit_probability, delay_prob, flags
        P, P, P, P,  # exec_rec, exec_go, byz_searching, byz_recruiting
        P, P,  # scr_a, scr_b
    ]
    lib.pk_participants.restype = L
    lib.pk_participants.argtypes = [L, L, P, P, P, P, L, P, P, P, P]
    lib.pk_greedy_match.restype = L
    lib.pk_greedy_match.argtypes = [L, L, P, P, P, P, P, P, P, P, P, P]
    lib.pk_apply_pairs.restype = None
    lib.pk_apply_pairs.argtypes = [L, L, P, P, P, P, P, P, L, P, P]
    lib.pk_observe.restype = None
    lib.pk_observe.argtypes = [L, L, L, P, P, P, P, P, P, L]
    lib.pk_blend.restype = None
    lib.pk_blend.argtypes = [L, P, P, P]
    lib.pk_converged.restype = None
    lib.pk_converged.argtypes = [L, L, L, L, P, P, P, P, P, P, P, P]
    lib.pk_resolve_pairs.restype = L
    lib.pk_resolve_pairs.argtypes = [L, P, P, P, P, P]


def _p(array) -> int:
    """Raw data pointer; the planes are C-contiguous prefixes by contract.

    Accepts a pre-resolved pointer (``int``) unchanged, so the ops glue
    can hand in pointers it cached through :func:`prepare` — the planes'
    storage is epoch-stable — without the wrappers re-deriving them.
    """
    if type(array) is int:
        return array
    assert array.flags["C_CONTIGUOUS"]
    return array.ctypes.data


#: The glue's bind-time hook: resolve an array to the argument form this
#: backend's wrappers consume (here: the raw data pointer).
prepare = _p


def _namespace(lib: ctypes.CDLL) -> SimpleNamespace:
    """Wrappers matching the ``looped.py`` signatures exactly.

    Every array argument may be an ndarray or an already-prepared
    pointer; sizes always travel as explicit scalars (the signatures were
    aligned with ``_kernels.c`` for exactly this reason).
    """

    def decide_move(
        mn, dn, coins, stalls, nest, position, count, active, phase_assess,
        pending, latched, healthy, zombie, byz_mask, byz_target, ant_phase,
        mult, mult_len, qualities, recruit_probability, delay_prob, flags,
        exec_rec, exec_go, byz_searching, byz_recruiting, scr_a, scr_b,
    ):
        return lib.pk_decide_move(
            mn, dn,
            _p(coins), _p(stalls), _p(nest), _p(position), _p(count),
            _p(active), _p(phase_assess), _p(pending), _p(latched),
            _p(healthy), _p(zombie), _p(byz_mask), _p(byz_target),
            _p(ant_phase), _p(mult), mult_len, _p(qualities),
            recruit_probability, delay_prob, flags,
            _p(exec_rec), _p(exec_go), _p(byz_searching), _p(byz_recruiting),
            _p(scr_a), _p(scr_b),
        )

    def participants(
        m, n, position, exec_rec, pending, byz_recruiting, has_byz,
        part, att, m_per, n_att,
    ):
        return lib.pk_participants(
            m, n, _p(position), _p(exec_rec), _p(pending),
            _p(byz_recruiting), has_byz, _p(part), _p(att),
            _p(m_per), _p(n_att),
        )

    def greedy_match(
        m, n, part, att, choices, n_att, m_per, plist, used,
        out_rows, out_src, out_dst,
    ):
        return lib.pk_greedy_match(
            m, n, _p(part), _p(att), _p(choices), _p(n_att), _p(m_per),
            _p(plist), _p(used), _p(out_rows), _p(out_src), _p(out_dst),
        )

    def apply_pairs(
        n_pairs, n, rows, src, dst, nest, byz_target, byz_mask, has_byz,
        exec_rec, active,
    ):
        lib.pk_apply_pairs(
            n_pairs, n, _p(rows), _p(src), _p(dst), _p(nest), _p(byz_target),
            _p(byz_mask), has_byz, _p(exec_rec), _p(active),
        )

    def observe(m, n, k1, position, nest, counts2d, gath, count, exec_go, do_blend):
        lib.pk_observe(
            m, n, k1, _p(position), _p(nest), _p(counts2d), _p(gath),
            _p(count), _p(exec_go), do_blend,
        )

    def blend(mn, count, observed, exec_go):
        lib.pk_blend(mn, _p(count), _p(observed), _p(exec_go))

    def converged(
        m, n, healthy_only, has_byz, nest, unhealthy, byz_mask, byz_target,
        h_first, h_nonempty, good, out,
    ):
        lib.pk_converged(
            m, n, healthy_only, has_byz, _p(nest), _p(unhealthy),
            _p(byz_mask), _p(byz_target), _p(h_first), _p(h_nonempty),
            _p(good), _p(out),
        )

    def resolve_pairs(ne, src_key, dst_key, used, out_src, out_dst):
        return lib.pk_resolve_pairs(
            ne, _p(src_key), _p(dst_key), _p(used), _p(out_src), _p(out_dst),
        )

    return SimpleNamespace(
        decide_move=decide_move,
        participants=participants,
        greedy_match=greedy_match,
        apply_pairs=apply_pairs,
        observe=observe,
        blend=blend,
        converged=converged,
        resolve_pairs=resolve_pairs,
        prepare=_p,
    )


def _smoke(ns: SimpleNamespace) -> None:
    """Prove the library is callable and ABI-sane before trusting it."""
    count = np.array([1, 2, 3, 4], dtype=np.int64)
    observed = np.array([9, 9, 9, 9], dtype=np.int64)
    go = np.array([True, False, True, False])
    ns.blend(4, count, observed, go)
    if count.tolist() != [9, 2, 9, 4]:
        raise RuntimeError(f"pk_blend smoke test produced {count.tolist()}")


def _load() -> tuple[SimpleNamespace | None, str | None]:
    cc = _compiler()
    if cc is None:
        return None, "no C compiler on PATH (tried $CC, cc, gcc, clang)"
    try:
        so_path = _build(cc)
    except subprocess.CalledProcessError as exc:
        return None, f"{cc} failed to build _kernels.c: {exc.stderr[-500:]}"
    except OSError as exc:
        return None, f"could not write the cext build cache: {exc}"
    try:
        lib = ctypes.CDLL(str(so_path))
        _declare(lib)
        ns = _namespace(lib)
        _smoke(ns)
    except (OSError, AttributeError, RuntimeError) as exc:
        return None, f"built {so_path.name} but could not use it: {exc}"
    return ns, None


def availability() -> str | None:
    """``None`` when usable, else the human-readable reason it is not."""
    global _STATE
    if _STATE is None:
        _STATE = _load()
    return _STATE[1]


def kernels() -> SimpleNamespace:
    """The array-signature kernel namespace (builds on first call)."""
    reason = availability()
    if reason is not None:
        raise RuntimeError(f"cext backend unavailable: {reason}")
    return _STATE[0]  # type: ignore[index,return-value]
