"""The declarative Sweep/Study layer: expansion, execution, results."""

import json

import numpy as np
import pytest

from repro.api import (
    STUDIES,
    ResultTable,
    Scenario,
    Study,
    Sweep,
    cases,
    default_workers,
    expr,
    grid,
    nests_spec,
    ref,
    register_metric,
    run_study,
    zipped,
)
from repro.api.sweep import expand_study
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig


def small_study(**overrides) -> Study:
    fields = dict(
        name="test-study",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=ref("k")),
                "seed": expr(7, n=1, cast="int"),
                "max_rounds": 10_000,
            },
            axes=(grid("n", (32, 64)), grid("k", (2, 4))),
        ),
        trials=4,
        metrics=("n_trials", "success_rate", "median_rounds"),
    )
    fields.update(overrides)
    return Study(**fields)


class TestSweepExpansion:
    def test_grid_axes_cartesian_product(self):
        cells = small_study().sweep.cells()
        assert [(c["n"], c["k"]) for c in cells] == [
            (32, 2),
            (32, 4),
            (64, 2),
            (64, 4),
        ]

    def test_zip_axis_binds_rows(self):
        sweep = Sweep(axes=(zipped(("a", "b"), [[1, "x"], [2, "y"]]),))
        assert sweep.cells() == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_zip_axis_rejects_ragged_rows(self):
        sweep = Sweep(axes=(zipped(("a", "b"), [[1]]),))
        with pytest.raises(ConfigurationError):
            sweep.cells()

    def test_cases_axis(self):
        sweep = Sweep(axes=(cases({"a": 1}, {"a": 2, "b": 3}),))
        assert sweep.cells() == [{"a": 1}, {"a": 2, "b": 3}]

    def test_exclude_drops_matching_cells(self):
        sweep = Sweep(
            axes=(grid("a", (0, 1)), grid("b", (0, 1))),
            exclude=({"a": 0, "b": 1},),
        )
        assert {(c["a"], c["b"]) for c in sweep.cells()} == {
            (0, 0),
            (1, 0),
            (1, 1),
        }

    def test_colliding_axis_variables_error(self):
        sweep = Sweep(axes=(grid("a", (1,)), cases({"a": 2})))
        with pytest.raises(ConfigurationError, match="same variable"):
            sweep.cells()

    def test_empty_sweep_errors(self):
        with pytest.raises(ConfigurationError, match="no cells"):
            Sweep(axes=(grid("a", ()),)).cells()

    def test_single_axis_dict_is_wrapped(self):
        sweep = Sweep(axes=grid("a", (1, 2)))
        assert len(sweep.cells()) == 2

    def test_malformed_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="axis"):
            Sweep(axes=({"values": [1]},))


class TestCellResolution:
    def test_scenarios_from_specs(self):
        cells = expand_study(small_study())
        first = cells[0]
        assert first.scenario == Scenario(
            algorithm="simple",
            n=32,
            nests=NestConfig.all_good(2),
            seed=39,  # 7 + n
            max_rounds=10_000,
        )
        assert cells[-1].scenario.nests.k == 4
        assert cells[-1].scenario.seed == 71

    def test_nested_params_and_dotted_paths(self):
        study = small_study(
            sweep=Sweep(
                base={
                    "algorithm": "uniform",
                    "nests": nests_spec("all_good", k=2),
                    "noise": {"kind": "count", "relative_sigma": 0.0},
                },
                axes=(
                    grid("n", (16,)),
                    grid("params.recruit_probability", (0.25,)),
                    grid("noise.relative_sigma", (0.5,)),
                ),
            )
        )
        scenario = expand_study(study)[0].scenario
        assert scenario.params["recruit_probability"] == 0.25
        assert scenario.noise.relative_sigma == 0.5

    def test_nest_factories(self):
        for factory, kwargs, expected in [
            ("all_good", {"k": 3}, NestConfig.all_good(3)),
            ("single_good", {"k": 3, "good_nest": 2}, NestConfig.single_good(3, 2)),
            ("binary", {"k": 3, "good": [1, 3]}, NestConfig.binary(3, {1, 3})),
            ("graded", {"qualities": [0.9, 0.2]}, NestConfig.graded([0.9, 0.2])),
        ]:
            study = small_study(
                sweep=Sweep(
                    base={"algorithm": "simple", "nests": nests_spec(factory, **kwargs)},
                    axes=(grid("n", (8,)),),
                )
            )
            assert expand_study(study)[0].scenario.nests == expected

    def test_unknown_nest_factory_rejected(self):
        with pytest.raises(ConfigurationError, match="nest factory"):
            nests_spec("bogus", k=2)

    def test_ref_to_unknown_variable_errors(self):
        study = small_study(
            sweep=Sweep(
                base={
                    "algorithm": "simple",
                    "nests": nests_spec("all_good", k=2),
                    "seed": ref("nope"),
                },
                axes=(grid("n", (8,)),),
            )
        )
        with pytest.raises(ConfigurationError, match="nope"):
            expand_study(study)

    def test_reserved_bindings_override_study_defaults(self):
        study = small_study(
            sweep=Sweep(
                base={"algorithm": "simple", "nests": nests_spec("all_good", k=2)},
                axes=(
                    cases(
                        {"n": 8},
                        {"n": 16, "trials": 9, "backend": "agent", "trial_start": 5},
                    ),
                ),
            )
        )
        default_cell, override_cell = expand_study(study)
        assert (default_cell.trials, default_cell.trial_start) == (4, 0)
        assert override_cell.trials == 9
        assert override_cell.trial_start == 5
        assert override_cell.backend == "agent"

    def test_unknown_base_key_rejected(self):
        study = small_study(
            sweep=Sweep(
                base={"algorithm": "simple", "nests": nests_spec("all_good", k=2), "typo": 1},
                axes=(grid("n", (8,)),),
            )
        )
        with pytest.raises(ConfigurationError, match="typo"):
            expand_study(study)

    def test_cell_index_available_to_exprs(self):
        study = small_study(
            sweep=Sweep(
                base={
                    "algorithm": "simple",
                    "nests": nests_spec("all_good", k=2),
                    "trial_start": expr(0, cell_index=10, cast="int"),
                },
                axes=(grid("n", (8, 16, 32)),),
            )
        )
        assert [c.trial_start for c in expand_study(study)] == [0, 10, 20]


class TestStudySerialization:
    def test_json_round_trip(self):
        study = small_study()
        clone = Study.from_json(study.to_json())
        assert clone == study
        assert clone.sweep.cells() == study.sweep.cells()

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError, match="metric"):
            small_study(metrics=("not_a_metric",))

    def test_explicit_empty_metrics_round_trips(self):
        study = small_study(metrics=())
        assert Study.from_json(study.to_json()).metrics == ()
        # A missing key (hand-written file) still gets the defaults.
        data = study.to_dict()
        del data["metrics"]
        assert Study.from_dict(data).metrics  # non-empty defaults

    def test_study_file_runs_identically(self, tmp_path):
        study = small_study()
        direct = run_study(study, cache=None)
        reloaded = run_study(Study.from_json(study.to_json()), cache=None)
        assert direct.table.equals(reloaded.table)


class TestRunStudy:
    def test_deterministic_across_workers(self):
        study = small_study()
        serial = run_study(study, cache=None, workers=1)
        parallel = run_study(study, cache=None, workers=4)
        assert serial.table.equals(parallel.table)
        assert serial.simulated_trials == parallel.simulated_trials == 16

    def test_matches_run_batch_semantics(self):
        from repro.api import aggregate, run_batch

        study = small_study()
        result = run_study(study, cache=None)
        cell = result.cells[0].cell
        stats = aggregate(run_batch(cell.scenario.trials(cell.trials)))
        assert result.cells[0].stats.n_converged == stats.n_converged
        assert np.array_equal(result.cells[0].stats.rounds, stats.rounds)

    def test_backend_override_applies_to_all_cells(self):
        study = small_study()
        result = run_study(study, cache=None, backend="agent")
        assert all(c.cell.backend == "agent" for c in result.cells)

    def test_custom_metric_columns(self):
        register_metric(
            "test_rounds_spread",
            lambda reports, stats: {
                "rounds_lo": min(r.rounds_to_convergence for r in reports),
                "rounds_hi": max(r.rounds_to_convergence for r in reports),
            },
            replace=True,
        )
        study = small_study(metrics=("test_rounds_spread",))
        table = run_study(study, cache=None).table
        assert "rounds_lo" in table.column_names
        assert (table["rounds_lo"] <= table["rounds_hi"]).all()

    def test_sweep_variable_metric_name_collision_errors(self):
        # A swept variable named like a metric column must not be silently
        # overwritten by the metric value.
        study = small_study(
            sweep=Sweep(
                base={"algorithm": "simple", "nests": nests_spec("all_good", k=2)},
                axes=(grid("n", (8,)), grid("median_rounds", (1, 2))),
            )
        )
        with pytest.raises(ConfigurationError, match="collides"):
            run_study(study, cache=None)

    def test_study_registry_builds_quick_studies(self):
        import repro.experiments  # noqa: F401  (registers E1..E14)

        assert len(STUDIES) >= 15
        study = STUDIES.build("E7", quick=True, base_seed=3)
        assert study.name == "E7"
        assert all(cell.scenario.algorithm == "simple" for cell in expand_study(study))


class TestResultTable:
    def table(self) -> ResultTable:
        return ResultTable(
            {
                "n": [32, 32, 64, 64],
                "variant": ["a", "b", "a", "b"],
                "rounds": [10.0, 20.0, 30.0, float("nan")],
            }
        )

    def test_dtypes(self):
        table = self.table()
        assert table["n"].dtype == np.int64
        assert table["rounds"].dtype == np.float64
        assert table["variant"].dtype == object

    def test_select_and_value(self):
        table = self.table()
        assert table.select(n=32).n_rows == 2
        assert table.value("rounds", n=64, variant="a") == 30.0
        with pytest.raises(ConfigurationError, match="no rows"):
            table.select(n=128)
        with pytest.raises(ConfigurationError, match="expected 1"):
            table.value("rounds", n=32)

    def test_group_by_and_stats(self):
        table = self.table()
        groups = table.group_by("n")
        assert [key for key, _ in groups] == [(32,), (64,)]
        assert groups[0][1].mean("rounds") == 15.0
        assert table.quantile("rounds", 0.5) == 20.0

    def test_rows_round_trip_json(self):
        table = self.table()
        clone = ResultTable.from_json(table.to_json())
        assert clone.equals(table)

    def test_csv_export(self):
        text = self.table().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "n,variant,rounds"
        assert len(lines) == 5
        assert lines[-1].startswith("64,b,")

    def test_from_rows_fills_missing_with_none(self):
        table = ResultTable.from_rows([{"a": 1}, {"a": 2, "b": 3.5}])
        assert np.isnan(table["b"][0])
        assert table["b"][1] == 3.5

    def test_nan_equality(self):
        nan_table = ResultTable({"x": [float("nan")]})
        assert nan_table.equals(ResultTable({"x": [float("nan")]}))
        assert not nan_table.equals(ResultTable({"x": [1.0]}))


class TestDefaultWorkers:
    def test_parses_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4

    def test_unset_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1

    @pytest.mark.parametrize("raw", ["", "  "])
    def test_blank_defaults_to_one(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        assert default_workers() == 1

    @pytest.mark.parametrize("raw", ["abc", "2.5", "-3", "0"])
    def test_invalid_values_are_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
            default_workers()

    def test_experiments_share_the_helper(self):
        from repro.experiments import common

        assert common.default_workers is default_workers
