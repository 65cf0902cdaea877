"""reprolint: per-rule fixtures, suppressions, the baseline, and the CLI."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lintkit import (
    RULES,
    Finding,
    LintConfig,
    explain_rule,
    lint_paths,
    lint_text,
    load_baseline,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint_snippet(code: str, kernel: bool = False):
    """Lint one in-memory module with the R-checks and baseline off."""
    config = LintConfig(root=REPO_ROOT, registry_checks=False)
    config.baseline_path = None
    return lint_text(code, REPO_ROOT / "src" / "snippet.py", config, kernel=kernel)


# -- D101: ambient RNG / entropy / wall clock --------------------------------


@pytest.mark.parametrize(
    "code",
    [
        "import numpy as np\nx = np.random.rand(4)\n",
        "import numpy as np\nnp.random.seed(0)\n",
        "import random\nrandom.shuffle(items)\n",
        "from random import shuffle\nshuffle(items)\n",
        "import time\nstamp = time.time()\n",
        "import os\nkey = os.urandom(16)\n",
        "import uuid\ntoken = uuid.uuid4()\n",
        "import secrets\ntoken = secrets.token_hex()\n",
    ],
)
def test_d101_flags_ambient_sources(code):
    assert rules_of(lint_snippet(code)) == ["D101"]


@pytest.mark.parametrize(
    "code",
    [
        # Seeded generators and the typing idiom stay silent.
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import numpy as np\ndef f(rng: np.random.Generator): ...\n",
        # Measurement clocks are fine; only the wall clock is banned.
        "from time import perf_counter\nt0 = perf_counter()\n",
        # A *local* name `random` is not the stdlib module.
        "def f(random):\n    return random.random()\n",
    ],
)
def test_d101_silent_on_seeded_and_unrelated(code):
    assert lint_snippet(code) == []


# -- D102: seedless construction ---------------------------------------------


@pytest.mark.parametrize(
    "code",
    [
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(None)\n",
        "from numpy.random import default_rng\nrng = default_rng(seed=None)\n",
        "import random\nrng = random.Random()\n",
    ],
)
def test_d102_flags_seedless(code):
    assert rules_of(lint_snippet(code)) == ["D102"]


def test_d102_silent_on_entropy_kwarg():
    code = (
        "import numpy as np\n"
        "child = np.random.SeedSequence(entropy=123, spawn_key=(1,))\n"
    )
    assert lint_snippet(code) == []


# -- D103: set iteration ------------------------------------------------------


@pytest.mark.parametrize(
    "code",
    [
        "for x in {1, 2, 3}:\n    pass\n",
        "for x in set(items):\n    pass\n",
        "out = [f(x) for x in {s.strip() for s in names}]\n",
        "for x in list({1, 2}):\n    pass\n",
    ],
)
def test_d103_flags_set_iteration(code):
    assert rules_of(lint_snippet(code)) == ["D103"]


def test_d103_sorted_sanctifies():
    assert lint_snippet("for x in sorted({1, 2, 3}):\n    pass\n") == []


# -- D104 / K-rules: kernel scope only ---------------------------------------


def test_d104_float_equality_kernel_only():
    code = "def f(p):\n    return p == 0.5\n"
    assert rules_of(lint_snippet(code, kernel=True)) == ["D104"]
    assert lint_snippet(code, kernel=False) == []


def test_d104_silent_on_int_equality():
    assert lint_snippet("def f(n):\n    return n == 0\n", kernel=True) == []


K201_SNIPPET = """\
import numpy as np
def kernel(arena, live):
    scratch = arena.buf("scratch", (4,), np.float64)
    while live:
        tmp = np.zeros(4)
        live -= 1
"""


def test_k201_flags_loop_allocation():
    assert rules_of(lint_snippet(K201_SNIPPET, kernel=True)) == ["K201"]


def test_k201_silent_outside_loop_and_in_closures():
    code = """\
import numpy as np
def kernel(live):
    hoisted = np.zeros(4)
    while live:
        def finalize():  # compaction closure: runs per event, not per round
            return np.zeros(4)
        live -= 1
"""
    assert lint_snippet(code, kernel=True) == []


K202_SNIPPET = """\
import numpy as np
def kernel(arena, live):
    plane = arena.buf("plane", (8,), np.int32)
    while live:
        plane = plane + 1
        live -= 1
"""


def test_k202_flags_plane_rebinding():
    assert rules_of(lint_snippet(K202_SNIPPET, kernel=True)) == ["K202"]


def test_k202_allows_compaction_and_slicing():
    code = """\
from repro.fast.arena import compact_rows
def kernel(arena, keep, live):
    import numpy as np
    plane = arena.buf("plane", (8,), np.int32)
    while live:
        plane[:] = 0
        plane = plane[:4]
        (plane,) = compact_rows(keep, plane)
        live -= 1
"""
    assert lint_snippet(code, kernel=True) == []


# -- suppressions -------------------------------------------------------------


def test_inline_suppression_silences_one_rule():
    code = (
        "import numpy as np\n"
        "x = np.random.rand(4)  # reprolint: disable=D101 -- fixture\n"
    )
    assert lint_snippet(code) == []


def test_inline_suppression_is_rule_specific():
    code = (
        "import numpy as np\n"
        "x = np.random.rand(4)  # reprolint: disable=D102 -- wrong rule\n"
    )
    assert rules_of(lint_snippet(code)) == ["D101"]


def test_file_wide_suppression():
    code = (
        "# reprolint: disable-file=D101\n"
        "import numpy as np\n"
        "x = np.random.rand(4)\ny = np.random.rand(2)\n"
    )
    assert lint_snippet(code) == []


def test_suppression_covers_multiline_statement():
    code = (
        "import numpy as np\n"
        "x = np.random.rand(  # reprolint: disable=D101 -- fixture\n"
        "    4,\n"
        ")\n"
    )
    assert lint_snippet(code) == []


# -- baseline -----------------------------------------------------------------


def test_baseline_roundtrip_filters_by_fingerprint(tmp_path):
    finding = Finding(
        rule="K201", path="src/x.py", line=3, col=0,
        message="m", func="kernel", text="tmp = np.zeros(4)",
    )
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, [finding], note="test")
    accepted = load_baseline(baseline)
    assert finding.fingerprint() in accepted
    # Line churn does not evict an entry; a text change does.
    moved = Finding(
        rule="K201", path="src/x.py", line=99, col=0,
        message="m", func="kernel", text="tmp = np.zeros(4)",
    )
    edited = Finding(
        rule="K201", path="src/x.py", line=3, col=0,
        message="m", func="kernel", text="tmp = np.zeros(8)",
    )
    assert moved.fingerprint() in accepted
    assert edited.fingerprint() not in accepted


def test_syntax_error_reported_not_raised():
    assert rules_of(lint_snippet("def broken(:\n")) == ["E999"]


# -- the real tree ------------------------------------------------------------


def test_repo_src_is_clean_under_committed_baseline():
    """The acceptance gate: src/ lints clean under the default config."""
    findings = lint_paths([REPO_ROOT / "src"], LintConfig(root=REPO_ROOT))
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_repo_src_is_clean_without_baseline():
    """Every rule is strict on src/: no accepted debt, no baseline file."""
    config = LintConfig(root=REPO_ROOT)
    config.baseline_path = None
    findings = lint_paths([REPO_ROOT / "src"], config)
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


# -- rule catalog / explain ---------------------------------------------------


def test_every_rule_has_catalog_entry_and_examples():
    assert set(RULES) >= {"D101", "D102", "D103", "D104", "K201", "K202",
                          "R301", "R302", "R303", "R304"}
    for rule_id, rule in RULES.items():
        text = explain_rule(rule_id)
        assert rule_id in text and rule.rationale in text


# -- CLI ----------------------------------------------------------------------


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "reprolint.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_cli_clean_tree_exits_zero():
    proc = run_cli("src/")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_findings_exit_one(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.rand(4)\n")
    proc = run_cli(str(bad), "--root", str(tmp_path))
    assert proc.returncode == 1
    assert "D101" in proc.stdout


def test_cli_usage_errors_exit_two(tmp_path):
    assert run_cli("--explain", "Z999").returncode == 2
    assert run_cli(str(tmp_path / "missing.py")).returncode == 2


def test_cli_explain_and_list_rules():
    proc = run_cli("--explain", "D101")
    assert proc.returncode == 0 and "D101" in proc.stdout
    proc = run_cli("--list-rules")
    assert proc.returncode == 0 and "K202" in proc.stdout


def test_cli_runs_without_repro_package_init(tmp_path):
    """The CLI must not import the simulation stack (numpy-free contract)."""
    probe = (
        "import sys, runpy\n"
        "sys.modules['numpy'] = None\n"  # poison: any numpy import explodes
        "sys.argv = ['reprolint', '--list-rules']\n"
        f"runpy.run_path({str(REPO_ROOT / 'tools' / 'reprolint.py')!r}, "
        "run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "D101" in proc.stdout
