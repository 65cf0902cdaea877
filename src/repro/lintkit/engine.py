"""The lint engine: findings, suppressions, the baseline, and the drivers.

A :class:`Finding` is one rule violation at one source location.  Its
identity for suppression purposes is the *fingerprint* — rule id, file
path, enclosing function, and the normalized source line — deliberately
excluding the line number, so baselines survive unrelated edits above a
finding.

Two silencing mechanisms, for two situations:

- **inline suppression** for violations that are *by design* and should
  be visible (and justified) at the offending line::

      flips = perturb.flip_rows()  # reprolint: disable=K201 -- why

  ``# reprolint: disable=RULE[,RULE...]`` on any line spanned by the
  violating statement silences exactly those rules there; a trailing
  ``-- justification`` is conventional and encouraged.  A file-scoped
  ``# reprolint: disable-file=RULE`` silences a rule for a whole module.

- **a baseline file** (``.reprolint-baseline.json`` at the repo root,
  used when present) for pre-existing accepted debt that should not be
  scattered through the source as comments.  New findings never enter a
  baseline silently: writing one is an explicit ``--write-baseline`` run
  that shows up in review.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lintkit.config import LintConfig

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9, ]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*reprolint:\s*disable-file=([A-Z0-9, ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Enclosing function ("<module>" at top level) — part of the
    #: fingerprint so baselines survive line-number churn.
    func: str = "<module>"
    #: The stripped source line (informational + fingerprint input).
    text: str = ""
    #: Last line of the violating statement (for span suppressions).
    end_line: int = 0

    def fingerprint(self) -> str:
        payload = "|".join(
            (self.rule, self.path, self.func, " ".join(self.text.split()))
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Suppressions:
    """Per-line and per-file ``# reprolint: disable=...`` directives."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, text: str) -> "Suppressions":
        parsed = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
                parsed.by_line.setdefault(lineno, set()).update(rules)
            match = _SUPPRESS_FILE_RE.search(line)
            if match:
                parsed.file_wide.update(
                    r.strip() for r in match.group(1).split(",") if r.strip()
                )
        return parsed

    def covers(self, finding: Finding) -> bool:
        if finding.rule in self.file_wide:
            return True
        last = max(finding.end_line, finding.line)
        return any(
            finding.rule in self.by_line.get(lineno, ())
            for lineno in range(finding.line, last + 1)
        )


def lint_text(
    text: str,
    path: str | Path,
    config: LintConfig | None = None,
    kernel: bool | None = None,
) -> list[Finding]:
    """All D/K findings in one module's source (suppressions applied).

    ``kernel`` overrides the path-glob decision of whether the
    kernel-scoped rules (D104, K-rules) apply — the linter's own fixture
    tests use it to exercise kernel rules on temp files.
    """
    config = config or LintConfig()
    rel = config.relpath(path)
    if kernel is None:
        kernel = config.is_kernel_file(path)
    try:
        tree = ast.parse(text, filename=rel)
    except SyntaxError as err:
        return [
            Finding(
                rule="E999",
                path=rel,
                line=err.lineno or 1,
                col=err.offset or 0,
                message=f"syntax error: {err.msg}",
            )
        ]
    # Imported lazily to keep the engine <-> rules dependency one-way.
    from repro.lintkit.rules_determinism import determinism_findings
    from repro.lintkit.rules_kernel import kernel_findings

    findings = list(
        determinism_findings(tree, rel, kernel_scope=kernel, source=text)
    )
    if kernel:
        findings.extend(kernel_findings(tree, rel, source=text))
    findings = [f for f in findings if config.rule_enabled(f.rule)]
    suppressions = Suppressions.parse(text)
    return [f for f in findings if not suppressions.covers(f)]


def iter_python_files(paths: Sequence[Path | str]) -> Iterable[Path]:
    """Every ``.py`` file under ``paths`` (files or directories)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    yield child
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path | str], config: LintConfig | None = None
) -> list[Finding]:
    """Lint every python file under ``paths``; run R-checks when possible.

    The registry cross-checks run once per invocation, against
    ``config.root``, whenever that tree actually contains the registry
    metadata (so pointing the linter at a fixture directory skips them
    naturally).  The baseline, when configured, filters the result.
    """
    config = config or LintConfig()
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(
            lint_text(path.read_text(encoding="utf-8"), path, config)
        )
    if config.registry_checks and config.rule_enabled("R301"):
        from repro.lintkit.registry_checks import run_registry_checks

        findings.extend(run_registry_checks(config.root, config))
    if config.baseline_path is not None:
        baseline = load_baseline(config.baseline_path)
        findings = [f for f in findings if f.fingerprint() not in baseline]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# -- baseline ----------------------------------------------------------------


def load_baseline(path: Path | str) -> set[str]:
    """The fingerprints accepted by a committed baseline file."""
    path = Path(path)
    if not path.is_file():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return {entry["fingerprint"] for entry in data.get("entries", [])}


def write_baseline(
    path: Path | str, findings: Sequence[Finding], note: str = ""
) -> None:
    """Accept ``findings`` as the new baseline (sorted, human-reviewable)."""
    entries = [
        {
            "fingerprint": f.fingerprint(),
            "rule": f.rule,
            "path": f.path,
            "func": f.func,
            "text": f.text,
        }
        for f in sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        )
    ]
    payload = {"version": 1, "note": note, "entries": entries}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
