"""R-rules: the registry cross-checker against broken fixture trees.

Each test builds a miniature repo layout in ``tmp_path`` —
``src/repro/api/{algorithms,processes,registry}.py``, the golden helper,
the digest file, a parity test module — breaks exactly one contract, and
asserts the matching R-rule fires (and nothing else does on the healthy
variant).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lintkit import LintConfig, run_registry_checks

REPO_ROOT = Path(__file__).resolve().parent.parent

REGISTRY_PY = """\
CRITERIA = {"good": 1, "good_settled": 2, "good_healthy": 3, "unanimous": 4}
"""

ALGORITHMS_PY = """\
def _params(scenario, **defaults):
    return defaults


def _alpha_kwargs(scenario):
    return _params(scenario, width=2, rate=1.0)


def _alpha_trial(scenario):
    return _alpha_kwargs(scenario)


def _alpha_batch(scenarios):
    return [_alpha_trial(s) for s in scenarios]


def _beta_agent(scenario):
    return scenario.params.get("beta_power", 2.0)


def register_builtin_algorithms(registry):
    registry.register(
        "alpha",
        "fixture kernel",
        batch_kernel=_alpha_batch,
        params=("rate", "width"),
    )
    registry.register(
        "beta",
        "fixture agent",
        agent_builder=_beta_agent,
        params=("beta_power",),
    )
"""

GOLDEN_PY = """\
def golden_cases():
    cases = {
        "alpha_clean": lambda: _case(algorithm="alpha"),
    }
    return cases
"""

PARITY_TEST_PY = """\
def test_alpha_parity():
    assert run("alpha") == run_fast("alpha")
"""

DIGESTS = {"alpha_clean": "0" * 64}


def build_tree(
    tmp_path: Path,
    algorithms: str = ALGORITHMS_PY,
    golden: str = GOLDEN_PY,
    digests: dict | None = None,
    parity: str = PARITY_TEST_PY,
) -> Path:
    api = tmp_path / "src" / "repro" / "api"
    api.mkdir(parents=True)
    (api / "algorithms.py").write_text(algorithms)
    (api / "registry.py").write_text(REGISTRY_PY)
    helpers = tmp_path / "tests" / "helpers"
    helpers.mkdir(parents=True)
    (helpers / "golden.py").write_text(golden)
    golden_dir = tmp_path / "tests" / "golden"
    golden_dir.mkdir()
    (golden_dir / "digests.json").write_text(
        json.dumps(DIGESTS if digests is None else digests)
    )
    (tmp_path / "tests" / "test_fast_parity.py").write_text(parity)
    return tmp_path


def check(root: Path):
    return run_registry_checks(root, LintConfig(root=root, registry_checks=True))


def rules_of(findings):
    return sorted({f.rule for f in findings})


def test_healthy_fixture_tree_is_clean(tmp_path):
    assert check(build_tree(tmp_path)) == []


def test_r301_undeclared_accepted_param(tmp_path):
    broken = ALGORITHMS_PY.replace('params=("rate", "width"),', "")
    findings = check(build_tree(tmp_path, algorithms=broken))
    assert rules_of(findings) == ["R301"]
    assert "alpha" in findings[0].message and "rate" in findings[0].message


def test_r301_phantom_declared_param(tmp_path):
    broken = ALGORITHMS_PY.replace(
        'params=("beta_power",),', 'params=("beta_power", "ghost"),'
    )
    findings = check(build_tree(tmp_path, algorithms=broken))
    assert rules_of(findings) == ["R301"]
    assert "ghost" in findings[0].message


def test_r301_follows_helper_call_chain(tmp_path):
    """Params accepted two hops away (kernel -> kwargs -> _params) count."""
    broken = ALGORITHMS_PY.replace('rate=1.0', 'rate=1.0, extra=0')
    findings = check(build_tree(tmp_path, algorithms=broken))
    assert rules_of(findings) == ["R301"]
    assert "extra" in findings[0].message


def test_r302_batch_kernel_without_golden_case(tmp_path):
    golden = GOLDEN_PY.replace('"alpha_clean": lambda: _case(algorithm="alpha"),', "")
    # An empty-but-present cases dict still parses as the case table.
    golden = golden.replace("cases = {", 'cases = {\n        "other": lambda: _case(),')
    findings = check(build_tree(tmp_path, golden=golden, digests={"other": "0" * 64}))
    assert rules_of(findings) == ["R302"]
    assert "alpha" in findings[0].message


def test_r302_case_without_committed_digest(tmp_path):
    findings = check(build_tree(tmp_path, digests={}))
    assert "R302" in rules_of(findings)
    assert any("alpha_clean" in f.message for f in findings)


def test_r302_stale_digest_entry(tmp_path):
    digests = dict(DIGESTS, ghost_case="f" * 64)
    findings = check(build_tree(tmp_path, digests=digests))
    assert rules_of(findings) == ["R302"]
    assert "ghost_case" in findings[0].message


def test_r303_batch_only_entry_without_parity_test(tmp_path):
    """An uncovered batch kernel (the one fast entry point): R303 flags it."""
    golden = GOLDEN_PY.replace(
        '"alpha_clean": lambda: _case(algorithm="alpha"),',
        '"other": lambda: _case(),',
    )
    parity = PARITY_TEST_PY.replace("alpha", "something_else")
    findings = check(
        build_tree(
            tmp_path, golden=golden, digests={"other": "0" * 64}, parity=parity
        )
    )
    assert rules_of(findings) == ["R302", "R303"]
    r303 = [f for f in findings if f.rule == "R303"]
    assert len(r303) == 1 and "alpha" in r303[0].message


def test_golden_case_counts_as_parity_coverage(tmp_path):
    """A kernel named by the golden case table needs no separate parity test."""
    parity = PARITY_TEST_PY.replace("alpha", "something_else")
    assert check(build_tree(tmp_path, parity=parity)) == []


def test_r304_unknown_criterion_name(tmp_path):
    broken = ALGORITHMS_PY + (
        "\nCRITERION = criterion_feature(\"good_helathy\")\n"
    )
    findings = check(build_tree(tmp_path, algorithms=broken))
    assert rules_of(findings) == ["R304"]
    assert "good_helathy" in findings[0].message


def test_r304_known_criterion_is_silent(tmp_path):
    fine = ALGORITHMS_PY + "\nCRITERION = criterion_feature(\"good_healthy\")\n"
    assert check(build_tree(tmp_path, algorithms=fine)) == []


def test_tree_without_registry_is_skipped(tmp_path):
    assert run_registry_checks(tmp_path, LintConfig(root=tmp_path)) == []


# -- the real repository ------------------------------------------------------


def test_real_registry_cross_checks_are_clean():
    findings = run_registry_checks(REPO_ROOT, LintConfig(root=REPO_ROOT))
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_real_registry_declares_params_for_every_entry():
    """Runtime view: the declarative field is populated on the registry."""
    from repro.api import REGISTRY

    with_params = {e.name for e in REGISTRY if e.param_names}
    assert {"simple", "optimal", "quorum", "tagged_recruitment"} <= with_params
    assert REGISTRY.get("simple").param_names == ("kernel_backend",)
    assert REGISTRY.get("initial_split").param_names == ()
