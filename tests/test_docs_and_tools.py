"""Documentation artifacts, the EXPERIMENTS.md build tool and the
benchmark regression checker."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


class TestDocumentationArtifacts:
    def test_required_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "docs/MODEL.md"):
            assert (ROOT / name).is_file(), name

    def test_design_md_covers_all_experiments(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for eid in ("E1", "E4b", "E7", "E14"):
            assert f"| {eid} " in text, eid

    def test_readme_quickstart_is_current_api(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        assert "run_trial(simple_factory()" in text
        assert "NestConfig.binary" in text

    def test_design_md_engines_match_resolution(self):
        """§4 names, per experiment, the engines its quick cells resolve
        to and the algorithms each one runs."""
        from repro.api.runner import resolve_backend
        from repro.api.sweep import expand_study
        from repro.experiments import EXPERIMENTS

        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| (E\w+) \| (.+) \|$", text, re.MULTILINE))
        assert list(rows) == list(EXPERIMENTS)
        for eid, experiment in EXPERIMENTS.items():
            resolved: dict[str, set[str]] = {}
            for cell in expand_study(experiment.study(quick=True)):
                engine = resolve_backend(cell.scenario, cell.backend)
                resolved.setdefault(engine, set()).add(cell.scenario.algorithm)
            stated = {
                engine: set(re.findall(r"`(\w+)`", names))
                for engine, names in re.findall(r"(fast|agent) \(([^)]*)\)", rows[eid])
            }
            assert stated == resolved, eid


def _load_tool(name: str):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBuildTool:
    def test_build_matches_committed_experiments_md(self):
        """The records and the committed tables rebuild EXPERIMENTS.md
        byte for byte (checked in memory; nothing is written)."""
        tool = _load_tool("build_experiments_md")
        committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert tool.build() == committed


def _load_checker():
    return _load_tool("check_bench_regression")


class TestBenchRegressionChecker:
    def test_relative_record_path(self, tmp_path, monkeypatch):
        """``check_bench_regression.py BENCH_scale.json`` from the repo
        root: a path relative to the working directory finds its
        committed baseline and is compared against it."""
        checker = _load_checker()
        repo = tmp_path.resolve()
        record = {
            "benchmark": "scale",
            "profile": "quick",
            "config": {"n": 4},
            "machine": {"arch": "x86_64", "cpu_count": 1},
            "metrics": {"trials_per_sec": 10.0},
        }
        (repo / "BENCH_scale.json").write_text(json.dumps(record))
        for command in (
            ["init", "-q"],
            ["add", "BENCH_scale.json"],
            ["commit", "-q", "-m", "record"],
        ):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *command],
                cwd=repo,
                check=True,
            )
        monkeypatch.setattr(checker, "REPO_ROOT", repo)
        monkeypatch.chdir(repo)
        relative = Path("BENCH_scale.json")
        assert checker.check_record(relative, 0.30) == []
        record["metrics"]["trials_per_sec"] = 5.0
        relative.write_text(json.dumps(record))
        (failure,) = checker.check_record(relative, 0.30)
        assert "trials_per_sec regressed" in failure


class TestInstallMetadata:
    def _setup(self, *args):
        return subprocess.run(
            [sys.executable, "setup.py", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    def test_name_and_version(self):
        import repro

        assert self._setup("--name", "--version").split() == [
            "repro",
            repro.__version__,
        ]

    def test_sources_include_the_kernel_source_and_the_packages(self, tmp_path):
        self._setup("-q", "egg_info", "--egg-base", str(tmp_path))
        sources = (tmp_path / "repro.egg-info" / "SOURCES.txt").read_text(
            encoding="utf-8"
        ).split()
        assert "src/repro/fast/backends/_kernels.c" in sources
        assert "src/repro/service/client.py" in sources
