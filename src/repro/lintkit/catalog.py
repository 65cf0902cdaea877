"""The rule catalog: every reprolint rule, its rationale, and examples.

This is the single source of truth behind ``reprolint --explain RULE``
and the rule table in ``docs/LINTING.md``.  Each rule documents *why* the
invariant matters for this repository specifically — the golden-digest
harness, the worker-count-invariance contract, or the PR-5 arena
discipline — not just what the pattern looks like.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, scope, and human-facing documentation."""

    id: str
    title: str
    #: Where the rule applies ("src/repro", "kernel files", "repo metadata").
    scope: str
    #: Why violating this breaks a repo invariant (the --explain payload).
    rationale: str
    #: A minimal violating snippet.
    bad: str
    #: The compliant rewrite.
    good: str


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="D101",
            title="ambient RNG / entropy / wall-clock source",
            scope="src/repro",
            rationale=(
                "Every draw must come from a per-trial RandomSource stream "
                "(seeded by (seed, trial_index)) so that trial t produces "
                "identical bits alone, in any chunk, and under any worker "
                "count — the run_batch contract that the golden-digest "
                "suite pins.  Module-level np.random.* functions, the "
                "stdlib random module, time.time(), os.urandom(), uuid4() "
                "and secrets.* all read ambient process state: one call "
                "anywhere in a kernel's reach makes results depend on "
                "import order, scheduling, or the host, and the failure "
                "shows up only as an unexplainable digest mismatch."
            ),
            bad="idx = np.random.randint(0, n)",
            good="idx = int(source.colony.integers(0, n))",
        ),
        Rule(
            id="D102",
            title="seedless generator construction",
            scope="src/repro",
            rationale=(
                "np.random.default_rng() / SeedSequence() / RandomState() / "
                "random.Random() with no seed pull entropy from the OS, so "
                "two runs of the same Scenario diverge.  All generators in "
                "this repo descend from RandomSource's named child streams; "
                "constructing one from scratch also breaks the draw-order "
                "schedule even when a seed is later supplied elsewhere."
            ),
            bad="rng = np.random.default_rng()",
            good="rng = np.random.default_rng(seed_seq)  # derived seed",
        ),
        Rule(
            id="D103",
            title="iteration over a set",
            scope="src/repro",
            rationale=(
                "Set iteration order depends on insertion history and, for "
                "strings, on PYTHONHASHSEED — it varies *between "
                "processes*.  When the iterate feeds RNG draws, report "
                "ordering, or serialized output, two workers produce "
                "different bits for the same work, violating worker-count "
                "invariance and the canonical-JSON property the sweep "
                "cache's content addressing relies on.  Iterate sorted(s) "
                "(or keep a list/dict, whose order is insertion-defined)."
            ),
            bad="for name in {'b', 'a'}: emit(name)",
            good="for name in sorted({'b', 'a'}): emit(name)",
        ),
        Rule(
            id="D104",
            title="float equality comparison in kernel code",
            scope="kernel files (src/repro/fast/*.py)",
            rationale=(
                "== / != against a float literal in a hot kernel is almost "
                "always a latent bug: a value that arrives through any "
                "arithmetic (a probability product, a quality blend) will "
                "miss the exact comparison and silently change control "
                "flow, i.e. the draw schedule, i.e. the digests.  Exact "
                "sentinel checks on never-computed values are legitimate — "
                "suppress those inline with a justification."
            ),
            bad="if prob == 0.3: skip()",
            good="if prob <= 0.0: skip()  # or math.isclose / a sentinel",
        ),
        Rule(
            id="K201",
            title="allocating numpy call inside a per-round loop",
            scope="kernel files (src/repro/fast/*.py)",
            rationale=(
                "PR 5 moved every per-round temporary into the shared "
                "grow-only Arena precisely because np.zeros/np.empty/"
                "np.concatenate/.astype/.copy inside the round loop put "
                "the allocator (and memset) on the hot path thousands of "
                "times per batch — the allocation cliffs the arena "
                "removed.  New round-loop temporaries must come from "
                "arena.buf(...) and be written with out= ufunc forms.  "
                "Deliberate exceptions (history rows that must own their "
                "storage, variable-size sparse gathers) carry an inline "
                "suppression."
            ),
            bad="while live.size:\n    scratch = np.zeros((m, n))",
            good="scratch = arena.buf('scratch', (m, n), np.float64)\n"
            "while live.size:\n    scratch[:m].fill(0)",
        ),
        Rule(
            id="K202",
            title="arena-plane name rebound inside a per-round loop",
            scope="kernel files (src/repro/fast/*.py)",
            rationale=(
                "A name bound to an arena plane (nest, count, active, ...) "
                "is a *view into recycled storage*.  Rebinding it to a "
                "fresh array inside the round loop (nest = np.where(...)) "
                "silently detaches the plane from the arena: the next "
                "arena.buf() call hands out the stale buffer, aliasing "
                "state across rounds or kernels, and the allocation is "
                "back on the hot path.  Mutate planes with masked in-place "
                "writes (np.copyto(..., where=), out= forms, flat index "
                "assignment); rebinding is only legal through "
                "compact_rows() or a row-slice of the same plane."
            ),
            bad="while live.size:\n    nest = np.where(moved, new, nest)",
            good="while live.size:\n    np.copyto(nest, new, where=moved)",
        ),
        Rule(
            id="R301",
            title="registry params drift from the accepted params",
            scope="repo metadata (api/algorithms.py, api/processes.py)",
            rationale=(
                "Every AlgorithmEntry declares its accepted Scenario.params "
                "names (the `params=` registration kwarg) so the CLI, docs "
                "and sweep validation can enumerate them without running a "
                "kernel.  The checker statically extracts the names each "
                "entry's builders/kernels actually validate (_params "
                "defaults, scenario.params.get keys, explicit allow-sets) "
                "and fails on drift in either direction: an undeclared "
                "accepted param is invisible schema, a declared-but-"
                "unaccepted one is a documented lie that run() would "
                "reject as a ConfigurationError."
            ),
            bad='REGISTRY.register("x", ..., params=())  # accepts "beta"',
            good='REGISTRY.register("x", ..., params=("beta",))',
        ),
        Rule(
            id="R302",
            title="batch kernel without a committed golden digest",
            scope="repo metadata (registry vs tests/golden/digests.json)",
            rationale=(
                "The golden-digest suite is the safety net that makes "
                "aggressive kernel rewrites safe: every batch kernel must "
                "have at least one fixed-seed case whose SHA-256 digest is "
                "committed in tests/golden/digests.json, and the case "
                "table and the digest file must cover each other exactly.  "
                "A batch kernel with no digest can drift bit-by-bit with "
                "no test ever noticing."
            ),
            bad='registry.register("new_algo", batch_kernel=kb)  # no case',
            good='golden_cases()["new_algo_clean"] -> Scenario(algorithm='
            '"new_algo") + regenerated digest entry',
        ),
        Rule(
            id="R303",
            title="fast kernel not covered by a parity/equivalence test",
            scope="repo metadata (registry vs the test tree)",
            rationale=(
                "A fast kernel is a *re-implementation* of an agent-engine "
                "law; its only correctness anchor is a parity, equivalence "
                "or golden test that names it.  The checker scans the "
                "parity-bearing test modules (test_*equivalence*, "
                "test_*parity*, test_*golden*, test_fast_*, test_*matcher* "
                "and the golden helpers) for the registry name of each "
                "entry with a batch_kernel and fails on gaps — an "
                "uncovered kernel is an unverified rewrite waiting to "
                "diverge."
            ),
            bad='registry.register("new_algo", batch_kernel=kb)  # untested',
            good="tests/test_new_algo_parity.py exercising "
            'Scenario(algorithm="new_algo") on both backends',
        ),
        Rule(
            id="R304",
            title="unknown criterion name in registry metadata",
            scope="repo metadata (api/algorithms.py vs api/registry.py)",
            rationale=(
                "criterion_feature()/criterion_factory() arguments must "
                "name keys of the CRITERIA mapping in api/registry.py; a "
                "typo registers a feature tag no scenario can ever "
                "request (or a factory lookup that raises at run time).  "
                "The checker compares the string arguments against the "
                "statically-parsed CRITERIA keys."
            ),
            bad='criterion_feature("good_helathy")',
            good='criterion_feature("good_healthy")',
        ),
    )
}


def explain_rule(rule_id: str) -> str:
    """The ``--explain`` payload for one rule (raises KeyError on a miss)."""
    rule = RULES[rule_id]
    return (
        f"{rule.id}: {rule.title}\n"
        f"scope: {rule.scope}\n\n"
        f"{rule.rationale}\n\n"
        f"bad:\n{_indent(rule.bad)}\n"
        f"good:\n{_indent(rule.good)}\n"
    )


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())
