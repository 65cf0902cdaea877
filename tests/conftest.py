"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config: pytest.Config) -> None:
    # The suite exercises the deprecated direct entry points
    # (run_trial/run_trials) on purpose — they are the substrate under
    # test.  Filter the deprecation timeline's warnings here;
    # tests/test_deprecations.py asserts they still fire.
    config.addinivalue_line(
        "filterwarnings",
        "ignore:calling run_trial:DeprecationWarning",
    )
    config.addinivalue_line(
        "markers",
        "slow: large-n scale smokes, skipped unless REPRO_RUN_SLOW=1 "
        "(the CI scale-smoke job opts in)",
    )

from repro.model.environment import Environment
from repro.model.nests import NestConfig
from repro.sim.rng import RandomSource


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for direct-randomness tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def shm_watch():
    """Fail the test if it leaves new shared-memory segments behind.

    Scans ``/dev/shm`` for segment files before and after the test body
    (``psm_*`` are Python's anonymous segments, ``repro*`` the runner's
    parent-named ones).  Cleanup is asynchronous — pool teardown and the
    resource tracker can lag a beat — so leaked candidates are re-polled
    briefly before failing.
    """
    import time
    from pathlib import Path

    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux fallback
        yield
        return

    def scan() -> set:
        try:
            return {
                p.name
                for p in root.iterdir()
                if p.name.startswith(("psm_", "repro"))
            }
        except OSError:  # pragma: no cover - raced directory teardown
            return set()

    before = scan()
    yield
    leaked = scan() - before
    for _ in range(100):
        if not leaked:
            break
        time.sleep(0.05)
        leaked = scan() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def all_good_4() -> NestConfig:
    """Four candidate nests, all good (the pure-competition workload)."""
    return NestConfig.all_good(4)


@pytest.fixture
def mixed_nests() -> NestConfig:
    """Four candidate nests: 1 and 3 good, 2 and 4 bad."""
    return NestConfig.binary(4, {1, 3})


@pytest.fixture
def single_good_8() -> NestConfig:
    """Eight nests with a single good one (the lower-bound workload)."""
    return NestConfig.single_good(8, good_nest=3)


@pytest.fixture
def small_environment(mixed_nests) -> Environment:
    """A 6-ant environment over the mixed nest configuration."""
    return Environment(6, mixed_nests)


@pytest.fixture
def source() -> RandomSource:
    """A seeded random source."""
    return RandomSource(999)
