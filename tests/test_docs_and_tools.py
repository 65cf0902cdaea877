"""Documentation artifacts, the EXPERIMENTS.md build tool and the
benchmark regression checker."""

import importlib.util
import json
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

    def test_template_markers_match_registry(self):
        from repro.analysis.experiments import EXPERIMENTS

        template = (ROOT / "tools" / "EXPERIMENTS.template.md").read_text(
            encoding="utf-8"
        )
        # Every registered experiment id appears in the template (E3a/E3b
        # share the E3 table).
        base_ids = {eid.rstrip("ab") if eid != "E4b" else "E4b" for eid in EXPERIMENTS}
        for eid in base_ids:
            assert f"TABLE:{eid}" in template or eid in ("E3a", "E3b"), eid


class TestBuildTool:
    def test_build_inlines_available_tables(self, tmp_path):
        process = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "build_experiments_md.py")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 0, process.stderr
        output = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "paper vs. measured" in output
        # At least some tables must be inlined as fenced blocks.
        assert output.count("```text") >= 5


def _load_checker():
    path = ROOT / "tools" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
