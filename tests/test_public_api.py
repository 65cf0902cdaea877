"""Tests for the package's public surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_docstring_quickstart_runs(self):
        """The usage example in the package docstring must stay true."""
        from repro import NestConfig, run_trial, simple_factory

        nests = NestConfig.binary(k=4, good={1, 3})
        result = run_trial(simple_factory(), n=128, nests=nests, seed=7)
        assert result.converged
        assert result.chosen_nest in (1, 3)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.model",
            "repro.sim",
            "repro.core",
            "repro.fast",
            "repro.baselines",
            "repro.extensions",
            "repro.analysis",
            "repro.experiments",
        ],
    )
    def test_subpackage_exports_resolve(self, module):
        package = importlib.import_module(module)
        for name in getattr(package, "__all__", []):
            assert getattr(package, name, None) is not None, f"{module}.{name}"

    def test_demo_cli_runs(self):
        from repro.__main__ import main

        assert main(["--n", "48", "--k", "3", "--seed", "1"]) == 0

    def test_experiments_cli_list(self, capsys):
        """``--list`` prints exactly the ids the CLI runs, with their claims."""
        import repro.experiments as experiments
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(experiments.RUNNERS)
        for line, experiment in zip(lines, experiments.EXPERIMENTS.values()):
            assert line.endswith(experiment.claim)

    def test_experiments_cli_rejects_unknown(self):
        from repro.experiments.__main__ import main

        assert main(["E99"]) == 2

    @pytest.mark.parametrize("module", ["repro.experiments", "repro.service.daemon"])
    def test_import_leaves_scipy_and_networkx_unloaded(self, module):
        """Start-up imports numpy only: scipy and networkx, which the tests
        use, stay out of a fresh process that imports the package."""
        probe = (
            f"import sys, {module}\n"
            "print([m for m in ('scipy', 'networkx') if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
