"""The kernel-backend seam: selection, degradation, parity, and honesty.

Three contracts from ``repro.fast.backends``:

1. **Selection** — the ``kernel_backend`` scenario param beats the
   :func:`use_backend` override beats ``$REPRO_FAST_BACKEND`` beats
   ``auto``; unavailable explicit choices degrade down a fixed chain and
   the degradation is *reported*, never silent.
2. **Parity** — every backend realizes the perturbed batch kernels
   bit-for-bit: the committed golden digests must reproduce under each
   backend the host can run, which is why environment selection is
   digest-transparent.
3. **Honesty** — only an explicit scenario pin is part of scenario
   identity (recorded in report extras); pins are validated against the
   registry (unknown names, pins on the agent engine, algorithms without
   the seam all raise ``ConfigurationError``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario, run, run_batch
from repro.exceptions import ConfigurationError
from repro.fast import backends
from repro.fast.backends import (
    BACKEND_NAMES,
    availability,
    default_backend_name,
    resolve_backend,
    use_backend,
)
from repro.model.nests import NestConfig
from tests.helpers.golden import digest_reports, golden_cases, load_golden

CASES = golden_cases()
GOLDEN = load_golden()

#: Concrete (non-``auto``) backends this host can actually run.
CONCRETE = tuple(
    name
    for name in ("cext", "numpy")
    if availability(name) is None
)

#: Golden cases that route through the perturbed driver — the seam's
#: dispatch surface (faults, delays, the composite, the rate schedule).
_PERTURBED_CASES = (
    "simple_byzantine",
    "simple_delay",
    "simple_composite",
    "adaptive_delay",
    "uniform_crash",
)


# -- selection and degradation ------------------------------------------------


def test_numpy_always_available():
    assert availability("numpy") is None


def test_availability_unknown_name_raises():
    with pytest.raises(ConfigurationError, match="unknown kernel backend"):
        availability("fortran")


def test_resolve_unknown_name_raises():
    with pytest.raises(ConfigurationError, match="unknown kernel backend"):
        resolve_backend("fortran")


def test_resolve_auto_is_available_and_not_degraded():
    actual, degraded_from = resolve_backend("auto")
    assert availability(actual) is None
    assert degraded_from is None


def test_resolve_numpy_is_exactly_itself():
    assert resolve_backend("numpy") == ("numpy", None)


def test_degradation_is_reported(monkeypatch):
    """With compiled backends gone, explicit requests degrade loudly."""

    def only_numpy(name):
        if name == "numpy":
            return None
        if name in BACKEND_NAMES:
            return f"{name} disabled for this test"
        raise ConfigurationError(f"unknown kernel backend {name!r}")

    monkeypatch.setattr(backends, "availability", only_numpy)
    assert backends.resolve_backend("cext") == ("numpy", "cext")
    # auto lands on the same fallback but is never "degraded".
    assert backends.resolve_backend("auto") == ("numpy", None)


def test_use_backend_yields_resolved_and_restores():
    before = default_backend_name()
    with use_backend("numpy") as actual:
        assert actual == "numpy"
        assert default_backend_name() == "numpy"
    assert default_backend_name() == before


def test_use_backend_validates_eagerly():
    with pytest.raises(ConfigurationError, match="unknown kernel backend"):
        with use_backend("fortran"):
            pass  # pragma: no cover - never entered


def test_env_var_is_the_process_default(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_BACKEND", "numpy")
    assert default_backend_name() == "numpy"
    assert resolve_backend(None) == ("numpy", None)
    # ...but a use_backend override wins over the environment.
    with use_backend("cext"):
        assert default_backend_name() == "cext"


def test_env_var_typo_fails_loudly(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_BACKEND", "cetx")
    with pytest.raises(ConfigurationError, match="REPRO_FAST_BACKEND='cetx'"):
        resolve_backend(None)


# -- cross-backend parity against the committed goldens -----------------------


@pytest.mark.parametrize("backend", CONCRETE)
@pytest.mark.parametrize("name", _PERTURBED_CASES)
def test_perturbed_goldens_reproduce_under_every_backend(backend, name):
    with use_backend(backend) as actual:
        assert actual == backend  # CONCRETE entries never degrade
        reports = run_batch(CASES[name], workers=1)
    assert digest_reports(reports) == GOLDEN[name], (
        f"backend {backend!r} does not reproduce golden case {name!r} "
        "bit-for-bit"
    )


# -- scenario pins: identity, recording, validation ---------------------------

_NESTS = NestConfig.binary(4, {1})


def _pin_scenario(**params) -> Scenario:
    return Scenario(
        algorithm="simple",
        n=64,
        nests=_NESTS,
        seed=11,
        max_rounds=2_000,
        params=params,
    )


def test_explicit_pin_recorded_in_extras():
    report = run(_pin_scenario(kernel_backend="numpy"))
    assert report.extras["kernel_backend"] == "numpy"


def test_environment_selection_is_not_recorded():
    with use_backend("numpy"):
        report = run(_pin_scenario())
    assert "kernel_backend" not in report.extras


@pytest.mark.parametrize("backend", CONCRETE)
def test_pinned_backends_agree_bit_for_bit(backend):
    reference = run(_pin_scenario(kernel_backend="numpy"))
    pinned = run(_pin_scenario(kernel_backend=backend))
    assert pinned.converged == reference.converged
    assert pinned.converged_round == reference.converged_round
    assert pinned.rounds_executed == reference.rounds_executed
    assert pinned.chosen_nest == reference.chosen_nest
    assert np.array_equal(pinned.final_counts, reference.final_counts)


def test_unknown_pin_rejected():
    with pytest.raises(ConfigurationError, match="unknown kernel backend"):
        run(_pin_scenario(kernel_backend="cuda"))


@pytest.mark.parametrize("name", ["numba", "python"])
def test_retired_backends_are_unknown(monkeypatch, name):
    """The deleted numba and interpreted backends are not backends: their
    pins and their environment values are rejected by name instead of
    silently resolving to another realization."""
    with pytest.raises(ConfigurationError, match="unknown kernel backend"):
        run(_pin_scenario(kernel_backend=name))
    monkeypatch.setenv("REPRO_FAST_BACKEND", name)
    with pytest.raises(ConfigurationError, match=f"REPRO_FAST_BACKEND='{name}'"):
        resolve_backend(None)
    assert BACKEND_NAMES == ("auto", "cext", "numpy")


@pytest.mark.parametrize("algorithm", ["simple", "adaptive", "uniform"])
@pytest.mark.parametrize(
    "pin, match",
    [("numpy", "runs on the agent engine"), ("cuda", "unknown kernel backend")],
)
def test_pin_rejected_on_explicit_agent_backend(algorithm, pin, match):
    """The agent engine has no backend seam: any pin there is an error."""
    scenario = _pin_scenario(kernel_backend=pin).replace(algorithm=algorithm)
    with pytest.raises(ConfigurationError, match=match):
        run(scenario, backend="agent")


class _CustomNoise:
    """A duck-typed noise model only the agent engine can honor."""

    is_null = False
    quality_flip_prob = 0.0

    def perturb_count(self, count, n, rng):
        return count

    def perturb_quality(self, quality, rng):
        return quality


@pytest.mark.parametrize(
    "pin, match",
    [("numpy", "runs on the agent engine"), ("cuda", "unknown kernel backend")],
)
def test_bad_pin_rejected_even_on_agent_fallback(pin, match):
    """A pin raises even when ``auto`` falls back to the agent engine,
    where it would otherwise be silently ignored."""
    # A custom noise model is not a fast-path feature -> agent fallback.
    scenario = _pin_scenario(kernel_backend=pin).replace(noise=_CustomNoise())
    with pytest.raises(ConfigurationError, match=match):
        run(scenario)


def test_pin_rejected_by_algorithms_without_the_seam():
    scenario = Scenario(
        algorithm="optimal",
        n=64,
        nests=_NESTS,
        seed=11,
        max_rounds=2_000,
        params={"kernel_backend": "numpy"},
    )
    with pytest.raises(ConfigurationError, match="does not accept params"):
        run(scenario)
