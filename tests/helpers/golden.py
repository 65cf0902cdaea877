"""Golden fixed-seed digests of the batch kernels' outputs.

The PR-5 arena refactor promises **bit-identical outputs**: same RNG draw
order, same reports, for every kernel and every perturbation layer.  The
enforcement is this module: a matrix of small fixed-seed workloads covering
every batch kernel x feature combination, each reduced to a SHA-256 digest
of its reports' canonical JSON form.  The digests in
``tests/golden/digests.json`` were captured from pre-refactor HEAD (PR 4)
and must never change without an explicit, documented realization change.

The digest canonicalization goes through
:meth:`repro.api.report.RunReport.to_dict` (histories included), so it is
dtype-agnostic but value-exact: internal dtype tightening is invisible,
any change to a single count, round number, or draw is not.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Sequence

from repro.api.scenario import Scenario
from repro.extensions.estimation import EncounterNoise, EncounterRateEstimator
from repro.model.nests import NestConfig
from repro.sim.asynchrony import DelayModel
from repro.sim.faults import CrashMode, FaultPlan
from repro.sim.noise import CountNoise

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "digests.json"

#: Shared small-world shapes: big enough to exercise compaction, matching
#: collisions and multi-phase convergence, small enough to run in CI.
_N = 128
_TRIALS = 6


def _simple(seed: int, **overrides) -> Scenario:
    base = dict(
        algorithm="simple",
        n=_N,
        nests=NestConfig.all_good(4),
        seed=seed,
        max_rounds=20_000,
    )
    base.update(overrides)
    return Scenario(**base)


#: One bad nest among four — the shape fault/flip cases need so Byzantine
#: ants have a bad nest to push and flips can change a reading.
_BINARY = NestConfig.binary(4, {2, 3, 4})


def golden_cases() -> dict[str, list[Scenario]]:
    """Case name -> the scenarios whose reports are digested (in order)."""
    cases: dict[str, Callable[[], Scenario]] = {
        # -- the unperturbed kernels (two-sub-round fast path) --------------
        "simple_clean": lambda: _simple(101),
        "simple_history": lambda: _simple(102, n=64, record_history=True),
        "uniform_clean": lambda: _simple(
            103, algorithm="uniform", params={"recruit_probability": 0.3}
        ),
        "adaptive_clean": lambda: _simple(104, algorithm="adaptive"),
        "optimal_clean": lambda: _simple(105, algorithm="optimal"),
        "optimal_strict": lambda: _simple(
            106, algorithm="optimal", params={"strict_pseudocode": True}
        ),
        "optimal_history": lambda: _simple(
            107, algorithm="optimal", n=64, record_history=True
        ),
        "spread_wait": lambda: _simple(
            108, algorithm="spread", nests=NestConfig.single_good(3)
        ),
        "spread_search": lambda: _simple(
            109,
            algorithm="spread",
            nests=NestConfig.single_good(3),
            params={"policy": "search"},
        ),
        "spread_mixed": lambda: _simple(
            110,
            algorithm="spread",
            nests=NestConfig.single_good(3),
            params={"policy": "mixed"},
        ),
        "quorum_clean": lambda: _simple(111, algorithm="quorum"),
        "quorum_history": lambda: _simple(
            112, algorithm="quorum", n=64, record_history=True
        ),
        # -- noise layers on the unperturbed loop ---------------------------
        "simple_gauss_noise": lambda: _simple(
            113, noise=CountNoise(relative_sigma=0.4, absolute_sigma=1.0)
        ),
        "simple_flip_noise": lambda: _simple(
            114, nests=_BINARY, noise=CountNoise(quality_flip_prob=0.05)
        ),
        "simple_gauss_flip_noise": lambda: _simple(
            115,
            nests=_BINARY,
            noise=CountNoise(relative_sigma=0.3, quality_flip_prob=0.03),
        ),
        "simple_encounter_noise": lambda: _simple(
            116,
            noise=EncounterNoise(
                estimator=EncounterRateEstimator(trials=32, capacity=96)
            ),
        ),
        # -- the general perturbed loop -------------------------------------
        "simple_crash_home": lambda: _simple(
            117,
            nests=_BINARY,
            fault_plan=FaultPlan(crash_fraction=0.15),
            criterion="good_healthy",
        ),
        "simple_crash_nest": lambda: _simple(
            118,
            nests=_BINARY,
            fault_plan=FaultPlan(
                crash_fraction=0.15, crash_mode=CrashMode.AT_NEST
            ),
            criterion="good_healthy",
        ),
        # Byzantine pressure stalls convergence; a tight round cap keeps the
        # case fast and pins the censored-finalize path as a bonus.
        "simple_byzantine": lambda: _simple(
            119,
            nests=_BINARY,
            fault_plan=FaultPlan(byzantine_fraction=0.05),
            criterion="good_healthy",
            max_rounds=800,
        ),
        "simple_delay": lambda: _simple(120, delay_model=DelayModel(0.3)),
        "simple_delay_history": lambda: _simple(
            121, n=64, delay_model=DelayModel(0.2), record_history=True
        ),
        "simple_composite": lambda: _simple(
            122,
            nests=_BINARY,
            fault_plan=FaultPlan(crash_fraction=0.1, byzantine_fraction=0.04),
            delay_model=DelayModel(0.15),
            noise=CountNoise(relative_sigma=0.2, quality_flip_prob=0.02),
            criterion="good_healthy",
            max_rounds=800,
        ),
        "adaptive_delay": lambda: _simple(
            123, algorithm="adaptive", delay_model=DelayModel(0.25)
        ),
        "uniform_crash": lambda: _simple(
            124,
            algorithm="uniform",
            nests=_BINARY,
            fault_plan=FaultPlan(crash_fraction=0.1),
            criterion="good_healthy",
            params={"recruit_probability": 0.4},
        ),
        # -- standalone fast-only processes (report-path guard) -------------
        "rumor": lambda: _simple(125, algorithm="rumor", n=256),
        "polya": lambda: _simple(126, algorithm="polya", n=64, max_rounds=512),
        # E14's urn shape: two urns, an explicit initial split, gamma = 1.
        "polya_e14": lambda: _simple(
            129,
            algorithm="polya",
            nests=NestConfig.all_good(2),
            params={"initial": [68, 60], "gamma": 1.0, "steps": 512},
            max_rounds=512,
        ),
        # A recorded history over more steps than one uniform draw block.
        "polya_history": lambda: _simple(
            130,
            algorithm="polya",
            n=96,
            nests=NestConfig.all_good(3),
            params={"gamma": 1.5, "steps": 1500},
            max_rounds=2000,
            record_history=True,
        ),
        # -- measurement processes (Lemma 2.1 / Lemma 5.4 samplers) ---------
        "tagged_recruitment": lambda: _simple(
            127,
            algorithm="tagged_recruitment",
            params={"active_fraction": 0.5},
        ),
        "initial_split": lambda: _simple(128, algorithm="initial_split"),
    }
    return {name: build().trials(_TRIALS) for name, build in cases.items()}


def digest_reports(reports: Sequence) -> str:
    """SHA-256 over the canonical JSON of every report, in order."""
    payload = json.dumps(
        [report.to_dict(include_history=True) for report in reports],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_golden() -> dict[str, str]:
    """The committed pre-refactor digests."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
