"""The experiment records: one per reproduced claim, viewed by every registry."""

import pytest

from repro.api import STUDIES
from repro.exceptions import ConfigurationError
from repro.experiments import EXPERIMENTS, RUNNERS
from repro.experiments.common import register


class TestExperiments:
    def test_one_record_per_claim(self):
        # One experiment per quantitative claim of the paper (DESIGN.md §4),
        # plus the E4b ablation behind our pseudocode reading.
        assert list(EXPERIMENTS) == [
            "E1", "E2", "E3", "E4", "E4b", "E5", "E6", "E7", "E8",
            "E9", "E10", "E11", "E12", "E13", "E14",
        ]

    def test_records_are_complete(self):
        for eid, experiment in EXPERIMENTS.items():
            assert experiment.id == eid
            assert experiment.claim and experiment.summary
            assert callable(experiment.study) and callable(experiment.render)

    def test_checked_claims(self):
        # The claims whose table carries its own pass/fail column.
        checked = [eid for eid, e in EXPERIMENTS.items() if e.check is not None]
        assert checked == ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]

    def test_runners_and_studies_are_views(self):
        assert list(RUNNERS) == list(EXPERIMENTS)
        for eid, experiment in EXPERIMENTS.items():
            assert RUNNERS[eid] == experiment.run
            entry = STUDIES.get(eid)
            assert entry.factory is experiment.study
            assert entry.description == experiment.claim
            assert STUDIES.build(eid, quick=True, base_seed=0).name == eid

    def test_an_id_registers_once(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register(EXPERIMENTS["E1"])
        assert list(EXPERIMENTS).count("E1") == 1
