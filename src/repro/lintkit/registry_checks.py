"""R-rules: registry <-> schema <-> golden-digest <-> parity cross-checks.

Pure static analysis over repo metadata — no ``repro`` import, no numpy:

- ``src/repro/api/algorithms.py`` and ``src/repro/api/processes.py`` are
  parsed for ``registry.register("name", ...)`` calls: which engines each
  entry registers (``agent_builder`` / ``fast_kernel`` / ``batch_kernel``
  keywords) and which ``Scenario.params`` names it *declares* (the
  ``params=`` registration kwarg).
- The params each entry actually *accepts* are extracted from the same
  modules by following the entry's builder/kernel functions through
  module-local helpers and collecting ``_params(scenario, name=...)``
  keyword defaults, ``scenario.params.get("name", ...)`` reads, and the
  ``set(scenario.params) - {"name", ...}`` allow-set idiom.
- ``tests/helpers/golden.py`` yields the golden case table (case name ->
  algorithm) and ``tests/golden/digests.json`` the committed digests.
- The parity-bearing test modules (``test_*equivalence*``,
  ``test_*parity*``, ``test_*golden*``, ``test_fast_*``,
  ``test_*matcher*``, and the golden helper itself) are scanned for the
  registry names they exercise.

Checks: **R301** declared-vs-accepted params drift, **R302** batch
kernels without golden digests (and case/digest table mismatches),
**R303** fast kernels with no parity coverage, **R304** criterion names
that are not ``CRITERIA`` keys.  See :mod:`repro.lintkit.catalog` for
each rule's rationale.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lintkit.config import LintConfig
from repro.lintkit.engine import Finding

ALGORITHMS_REL = "src/repro/api/algorithms.py"
PROCESSES_REL = "src/repro/api/processes.py"
REGISTRY_REL = "src/repro/api/registry.py"
GOLDEN_HELPER_REL = "tests/helpers/golden.py"
DIGESTS_REL = "tests/golden/digests.json"
TESTS_REL = "tests"

#: Test-module basenames that count as parity/equivalence coverage.
_PARITY_FILE_RE = re.compile(
    r"(equivalence|parity|golden|fast|matcher)", re.IGNORECASE
)


@dataclass
class RegistryEntry:
    """One statically-parsed ``registry.register(...)`` call."""

    name: str
    path: str
    line: int
    kwargs: dict[str, ast.expr] = field(default_factory=dict)
    declared_params: tuple[str, ...] | None = None

    @property
    def has_fast(self) -> bool:
        """Either fast entry point (per-trial or batch) is registered."""
        return "fast_kernel" in self.kwargs or self.has_batch

    @property
    def has_batch(self) -> bool:
        return "batch_kernel" in self.kwargs


def _finding(
    rule: str, path: str, line: int, message: str, func: str = "<registry>"
) -> Finding:
    return Finding(
        rule=rule, path=path, line=line, col=0, message=message, func=func,
        text=message,
    )


# -- module parsing ----------------------------------------------------------


class _Module:
    """One parsed metadata module with its param-extraction machinery."""

    def __init__(self, path: Path, relpath: str) -> None:
        self.relpath = relpath
        self.tree = ast.parse(path.read_text(encoding="utf-8"), filename=relpath)
        self.functions: dict[str, ast.FunctionDef] = {}
        #: module-level alias -> names it depends on (``_simple_batch =
        #: _batch_adapter(..., _simple_kwargs)``).
        self.aliases: dict[str, set[str]] = {}
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.Assign):
                deps = {
                    sub.id
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Name)
                }
                for target in node.targets:
                    names = (
                        [elt for elt in target.elts]
                        if isinstance(target, ast.Tuple)
                        else [target]
                    )
                    for name in names:
                        if isinstance(name, ast.Name):
                            self.aliases[name.id] = deps

    def entries(self) -> list[RegistryEntry]:
        """Every ``<obj>.register("name", ...)`` call in the module."""
        found: list[RegistryEntry] = []
        for node in ast.walk(self.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            entry = RegistryEntry(
                name=node.args[0].value,
                path=self.relpath,
                line=node.lineno,
            )
            for kw in node.keywords:
                if kw.arg is not None:
                    entry.kwargs[kw.arg] = kw.value
            declared = entry.kwargs.get("params")
            if declared is not None and isinstance(
                declared, (ast.Tuple, ast.List)
            ):
                entry.declared_params = tuple(
                    elt.value
                    for elt in declared.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
            found.append(entry)
        return found

    # -- accepted-params extraction -----------------------------------------

    def _params_in_function(self, func: ast.FunctionDef) -> set[str]:
        params: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                # _params(scenario, name=default, ...)
                if isinstance(node.func, ast.Name) and node.func.id == "_params":
                    params.update(
                        kw.arg for kw in node.keywords if kw.arg is not None
                    )
                # scenario.params.get("name", ...)
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "params"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    params.add(node.args[0].value)
            # set(scenario.params) - {"name", ...}
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                if isinstance(node.right, ast.Set):
                    params.update(
                        elt.value
                        for elt in node.right.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    )
        return params

    def _callees(self, func: ast.FunctionDef) -> set[str]:
        return {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name)
            and (node.id in self.functions or node.id in self.aliases)
        }

    def accepted_params(self, roots: set[str]) -> set[str]:
        """Params accepted by the closure of ``roots`` over local helpers."""
        accepted: set[str] = set()
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self.aliases:
                stack.extend(self.aliases[name])
            func = self.functions.get(name)
            if func is None:
                continue
            accepted |= self._params_in_function(func)
            stack.extend(self._callees(func))
        return accepted

    def entry_roots(self, entry: RegistryEntry) -> set[str]:
        """The local function/alias names an entry's kwargs reference."""
        roots: set[str] = set()
        for key in ("agent_builder", "fast_kernel", "batch_kernel"):
            node = entry.kwargs.get(key)
            if isinstance(node, ast.Name):
                roots.add(node.id)
        return roots


# -- golden / criteria / parity parsing --------------------------------------


def _golden_case_algorithms(path: Path) -> dict[str, str] | None:
    """Golden case name -> registry algorithm, statically parsed.

    Reads the ``cases`` dict inside ``golden_cases()``: each value is a
    lambda whose ``_simple(...)`` call may carry ``algorithm="x"``
    (default ``"simple"`` — the helper's own default).
    """
    if not path.is_file():
        return None
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name == "golden_cases"):
            continue
        for node in ast.walk(func):
            if not (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Dict)
            ):
                continue
            cases: dict[str, str] = {}
            for key, value in zip(node.value.keys, node.value.values):
                if not (
                    isinstance(key, ast.Constant) and isinstance(key.value, str)
                ):
                    continue
                algorithm = "simple"
                for sub in ast.walk(value):
                    if isinstance(sub, ast.keyword) and sub.arg == "algorithm":
                        if isinstance(sub.value, ast.Constant):
                            algorithm = sub.value.value
                cases[key.value] = algorithm
            if cases:
                return cases
    return None


def _criteria_keys(path: Path) -> set[str] | None:
    """The CRITERIA mapping's keys from ``api/registry.py``."""
    if not path.is_file():
        return None
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            value = node.value
            if "CRITERIA" in names and isinstance(value, ast.Dict):
                return {
                    key.value
                    for key in value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                }
    return None


def _criterion_references(module: _Module) -> list[tuple[str, int]]:
    """Every string passed to criterion_feature()/criterion_factory()."""
    refs: list[tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("criterion_feature", "criterion_factory")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            refs.append((node.args[0].value, node.lineno))
    return refs


def _parity_strings(tests_dir: Path) -> set[str]:
    """String constants in the parity-bearing test modules."""
    strings: set[str] = set()
    if not tests_dir.is_dir():
        return strings
    for path in sorted(tests_dir.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        if not _PARITY_FILE_RE.search(path.stem):
            continue
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        strings.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return strings


# -- the checker -------------------------------------------------------------


def run_registry_checks(
    root: Path | str, config: LintConfig | None = None
) -> list[Finding]:
    """All R-rule findings for the repo tree rooted at ``root``.

    Returns ``[]`` when the tree has no registry metadata at all (so the
    linter can be pointed at arbitrary fixture directories); individual
    missing metadata files on a tree that *does* have a registry are
    reported as findings, not skipped.
    """
    del config  # reserved for future per-rule options
    root = Path(root)
    algorithms_path = root / ALGORITHMS_REL
    if not algorithms_path.is_file():
        return []
    findings: list[Finding] = []
    modules = [_Module(algorithms_path, ALGORITHMS_REL)]
    processes_path = root / PROCESSES_REL
    if processes_path.is_file():
        modules.append(_Module(processes_path, PROCESSES_REL))

    entries: list[RegistryEntry] = []
    for module in modules:
        entries.extend(module.entries())

    # R301: declared params must match the statically-accepted params.
    for module in modules:
        for entry in module.entries():
            accepted = module.accepted_params(module.entry_roots(entry))
            declared = set(entry.declared_params or ())
            undeclared = accepted - declared
            phantom = declared - accepted
            if entry.declared_params is None and accepted:
                findings.append(
                    _finding(
                        "R301",
                        entry.path,
                        entry.line,
                        f"registry entry {entry.name!r} accepts params "
                        f"{sorted(accepted)} but declares none; add "
                        "params=(...) to the register() call",
                        func=entry.name,
                    )
                )
            elif undeclared or phantom:
                parts = []
                if undeclared:
                    parts.append(f"accepted but undeclared: {sorted(undeclared)}")
                if phantom:
                    parts.append(f"declared but never accepted: {sorted(phantom)}")
                findings.append(
                    _finding(
                        "R301",
                        entry.path,
                        entry.line,
                        f"registry entry {entry.name!r} params drift — "
                        + "; ".join(parts),
                        func=entry.name,
                    )
                )

    # R304: criterion names must exist in CRITERIA.
    criteria = _criteria_keys(root / REGISTRY_REL)
    if criteria is not None:
        for module in modules:
            for name, line in _criterion_references(module):
                if name not in criteria:
                    findings.append(
                        _finding(
                            "R304",
                            module.relpath,
                            line,
                            f"criterion {name!r} is not a CRITERIA key "
                            f"(known: {sorted(criteria)})",
                        )
                    )

    # R302: batch kernels <-> golden cases <-> committed digests.
    case_algorithms = _golden_case_algorithms(root / GOLDEN_HELPER_REL)
    digests_path = root / DIGESTS_REL
    digests: set[str] | None = None
    if digests_path.is_file():
        digests = set(json.loads(digests_path.read_text(encoding="utf-8")))
    if case_algorithms is None:
        findings.append(
            _finding(
                "R302",
                GOLDEN_HELPER_REL,
                1,
                "golden case table not found (expected a `cases` dict in "
                "golden_cases())",
            )
        )
    elif digests is None:
        findings.append(
            _finding("R302", DIGESTS_REL, 1, "committed digest file missing")
        )
    else:
        for case in sorted(set(case_algorithms) - digests):
            findings.append(
                _finding(
                    "R302",
                    DIGESTS_REL,
                    1,
                    f"golden case {case!r} has no committed digest "
                    "(regenerate tests/golden/digests.json)",
                    func=case,
                )
            )
        for case in sorted(digests - set(case_algorithms)):
            findings.append(
                _finding(
                    "R302",
                    GOLDEN_HELPER_REL,
                    1,
                    f"committed digest {case!r} has no golden case "
                    "(stale entry in tests/golden/digests.json)",
                    func=case,
                )
            )
        covered = set(case_algorithms.values())
        for entry in entries:
            if entry.has_batch and entry.name not in covered:
                findings.append(
                    _finding(
                        "R302",
                        entry.path,
                        entry.line,
                        f"batch kernel {entry.name!r} has no golden-digest "
                        "case; add one to tests/helpers/golden.py and "
                        "commit its digest",
                        func=entry.name,
                    )
                )

    # R303: every fast kernel must be named by a parity-bearing test.
    parity = _parity_strings(root / TESTS_REL)
    if parity:
        for entry in entries:
            if entry.has_fast and entry.name not in parity:
                findings.append(
                    _finding(
                        "R303",
                        entry.path,
                        entry.line,
                        f"fast kernel {entry.name!r} is not exercised by "
                        "any parity/equivalence/golden test module",
                        func=entry.name,
                    )
                )
    return findings
