"""E12 — Section 6 "Fault tolerance": crashes and Byzantine recruiters.

Runs Algorithm 3 with injected faults and measures convergence of the
*healthy* colony (the standard consensus notion: faulty processes don't
count toward agreement):

- crash faults in both zombie modes — corpses idling at home soak up
  recruitment attempts; corpses parked at a nest inflate its counts;
- Byzantine ants that perpetually recruit to a bad nest at full rate;
- the Byzantine × asynchrony cliff (delays weaken honest proportional
  feedback while full-rate adversarial recruiters are unaffected).

The paper conjectures "a small number of ants suffering from crash-faults
or even malicious faults should not affect the overall populations ... and
the algorithm's performance"; the sweep locates where that stops being
true.  Declared as one Study whose cases carry the fault plans and delay
models as data.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.api import Study, StudyResult, Sweep, cases, nests_spec
from repro.experiments.common import Experiment, register
from repro.sim.faults import CrashMode


def study(
    quick: bool = False,
    base_seed: int = 0,
    n: int | None = None,
    k: int = 4,
    crash_fractions: tuple[float, ...] | None = None,
    byzantine_fractions: tuple[float, ...] | None = None,
    trials: int | None = None,
) -> Study:
    """The E12 sweep: crash modes x fractions, Byzantine, and the cliff."""
    if n is None:
        n = 128 if quick else 256
    if crash_fractions is None:
        crash_fractions = (0.0, 0.2) if quick else (0.0, 0.1, 0.25, 0.5)
    if byzantine_fractions is None:
        byzantine_fractions = (0.05,) if quick else (0.02, 0.05, 0.1, 0.2)
    # Fault plans and delay models are declared fast features since the
    # perturbation-aware batch kernels, so backend="auto" resolves every
    # cell to the trial-parallel engine — the full profile affords double
    # the trials the agent-engine sweep used to.
    if trials is None:
        trials = 5 if quick else 50

    rows = []
    for fraction in crash_fractions:
        for offset, mode in enumerate((CrashMode.AT_HOME, CrashMode.AT_NEST)):
            if fraction == 0.0 and mode is CrashMode.AT_NEST:
                continue  # identical to the AT_HOME zero row
            rows.append(
                {
                    "fault_type": (
                        "none" if fraction == 0.0 else f"crash ({mode.value})"
                    ),
                    "fraction": fraction,
                    "seed": base_seed + int(fraction * 1000) + offset,
                    "fault_plan": {
                        "crash_fraction": fraction,
                        "crash_mode": mode.value,
                        "crash_round_range": [1, 20],
                    },
                }
            )
    for fraction in byzantine_fractions:
        # Heavy Byzantine pressure can stall the colony indefinitely; the
        # 5k-round cap (>10x the attacked median) bounds censored trials.
        rows.append(
            {
                "fault_type": "byzantine (push bad nest)",
                "fraction": fraction,
                "seed": base_seed + 7 + int(fraction * 1000),
                "fault_plan": {"byzantine_fraction": fraction, "seek_bad": True},
            }
        )
    # The Byzantine x asynchrony cliff: a Byzantine fraction the synchronous
    # colony shrugs off can capture the delayed colony completely.
    cliff_byz = (0.005, 0.02) if quick else (0.005, 0.01, 0.02)
    for fraction in cliff_byz:
        rows.append(
            {
                "fault_type": "byzantine + 10% delays",
                "fraction": fraction,
                "seed": base_seed + 13 + int(fraction * 1000),
                "fault_plan": {"byzantine_fraction": fraction, "seek_bad": True},
                "delay_model": {"delay_probability": 0.1},
            }
        )

    return Study(
        name="E12",
        description="Section 6 fault tolerance: crash/Byzantine/delay sweeps",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "n": n,
                # One bad nest for Byzantine ants to push; the rest good.
                "nests": nests_spec("binary", k=k, good=list(range(1, k))),
                "max_rounds": 5_000,
                "criterion": "good_healthy",
            },
            axes=(cases(*rows),),
        ),
        trials=trials,
        metrics=("success_rate", "median_rounds"),
    )


def render(outcome: StudyResult) -> Table:
    """Fault sweeps for Algorithm 3 (healthy-colony convergence)."""
    result = outcome.table
    scenario = outcome.cells[0].cell.scenario
    n, k = scenario.n, scenario.nests.k

    table = Table(
        f"E12  Fault tolerance at n={n}, k={k} (Algorithm 3, healthy ants)",
        ["fault type", "fraction", "median rounds", "success"],
    )
    for row in result.rows():
        table.add_row(
            row["fault_type"],
            row["fraction"],
            row["median_rounds"],
            row["success_rate"],
        )

    table.add_note(
        "corpses idling at home are the harsher crash mode: they soak up "
        "live recruitment attempts every round, while corpses parked at a "
        "nest only inflate one count; Byzantine pressure must beat the "
        "healthy majority's positive feedback to flip the outcome."
    )
    table.add_note(
        "byzantine + delays is a cliff: Algorithm 3 never re-assesses nest "
        "quality after the initial search, so once asynchrony slows honest "
        "feedback, even ~1% persistent adversarial recruiters can drag the "
        "whole colony to their bad nest (success -> 0, colony unanimous on "
        "the wrong home).  This sharpens Section 6's fault-tolerance "
        "conjecture: it holds for crash faults, but malicious faults need "
        "quality re-assessment (see the quality-weighted extension)."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E12",
        claim="Section 6: fault tolerance",
        summary=(
            "Crash zombies (both modes), Byzantine recruiters, and the Byzantine ×\n"
            "asynchrony cliff: ~1% persistent adversaries capture a delayed colony —\n"
            "the sharpened form of the paper's conjecture."
        ),
        study=study,
        render=render,
    )
)
