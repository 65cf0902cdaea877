"""The ``REPRO_*`` knobs: one reader each, one rule for every value.

The rule (:mod:`repro.knobs`): unset or blank means the default, a value
that parses is used as given, and anything else raises
:class:`~repro.exceptions.ConfigurationError` naming the variable and
echoing the value.  Each malformed value below is checked through the
public reader that callers use, so a reader that stops going through
:mod:`repro.knobs` fails here too.  An ``ast`` walk keeps every
``REPRO_*`` environment read of ``src/`` inside ``knobs.py``.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import knobs
from repro.api import chaos, default_cache, default_workers
from repro.exceptions import ConfigurationError
from repro.fast.backends import BACKEND_NAMES, cext, default_backend_name
from repro.fast.tiling import resolve_tile_width
from repro.lintkit.sanitize import sanitize_enabled
from repro.service.client import DEFAULT_URL, default_service_url

ROOT = Path(__file__).resolve().parents[1]

#: Each knob's reader and what it returns when the variable is unset.
READERS = {
    "REPRO_WORKERS": (knobs.workers, 1),
    "REPRO_FAST_BACKEND": (knobs.fast_backend, "auto"),
    "REPRO_TILE_ANTS": (knobs.tile_ants, None),
    "REPRO_CEXT_CACHE": (knobs.cext_cache, None),
    "REPRO_CACHE_DIR": (knobs.cache_dir, None),
    "REPRO_SERVICE_URL": (knobs.service_url, None),
    "REPRO_SANITIZE": (knobs.sanitize, False),
    "REPRO_CHAOS": (knobs.chaos, []),
}

ACCEPTED = [
    ("REPRO_WORKERS", "1", 1),
    ("REPRO_WORKERS", " 4 ", 4),
    *[("REPRO_FAST_BACKEND", name, name) for name in BACKEND_NAMES],
    ("REPRO_TILE_ANTS", "auto", None),
    ("REPRO_TILE_ANTS", "AUTO", None),
    ("REPRO_TILE_ANTS", "none", 0),
    ("REPRO_TILE_ANTS", " OFF ", 0),
    ("REPRO_TILE_ANTS", "0", 0),
    ("REPRO_TILE_ANTS", "48", 48),
    ("REPRO_CEXT_CACHE", "build/cext", "build/cext"),
    ("REPRO_CACHE_DIR", "/var/cache/repro", "/var/cache/repro"),
    ("REPRO_SERVICE_URL", "http://127.0.0.1:8642", "http://127.0.0.1:8642"),
    ("REPRO_SERVICE_URL", "https://ants.example/", "https://ants.example/"),
    *[("REPRO_SANITIZE", word, True) for word in ("1", "true", "YES", "on")],
    *[("REPRO_SANITIZE", word, False) for word in ("0", "False", "no", "off")],
    ("REPRO_CHAOS", "1", []),
    ("REPRO_CHAOS", "off", []),
    ("REPRO_CHAOS", '[{"action": "kill"}]', [{"action": "kill"}]),
    ("REPRO_CHAOS", '{"entries": [{"action": "flake"}]}', [{"action": "flake"}]),
]

#: The public reader each caller uses, per knob that can be malformed.
PUBLIC = {
    "REPRO_WORKERS": default_workers,
    "REPRO_FAST_BACKEND": default_backend_name,
    "REPRO_TILE_ANTS": lambda: resolve_tile_width(10**6),
    "REPRO_SERVICE_URL": default_service_url,
    "REPRO_SANITIZE": sanitize_enabled,
    "REPRO_CHAOS": chaos.active_plan,
}

MALFORMED = [
    ("REPRO_WORKERS", "abc"),
    ("REPRO_WORKERS", "2.5"),
    ("REPRO_WORKERS", "-3"),
    ("REPRO_WORKERS", "0"),
    ("REPRO_FAST_BACKEND", "banana"),
    ("REPRO_FAST_BACKEND", "NumPy"),
    ("REPRO_TILE_ANTS", "banana"),
    ("REPRO_TILE_ANTS", "-3"),
    ("REPRO_SANITIZE", "banana"),
    ("REPRO_CHAOS", "{not json"),
    ("REPRO_CHAOS", "@{tmp}/missing.json"),
    ("REPRO_SERVICE_URL", "banana"),
]


@pytest.fixture
def clean_env(monkeypatch):
    for name in READERS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


@pytest.mark.parametrize("name, value, expected", ACCEPTED)
def test_accepted_values(clean_env, name, value, expected):
    clean_env.setenv(name, value)
    assert READERS[name][0]() == expected


@pytest.mark.parametrize("name, value", MALFORMED)
def test_malformed_values_raise_naming_the_variable(
    clean_env, tmp_path, name, value
):
    value = value.replace("{tmp}", str(tmp_path))
    clean_env.setenv(name, value)
    with pytest.raises(ConfigurationError) as err:
        PUBLIC[name]()
    assert f"{name}={value!r}" in str(err.value)
    assert "expected" in str(err.value)


@pytest.mark.parametrize("value", ["", "   ", "\t\n"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_blank_means_the_default(clean_env, name, value):
    clean_env.setenv(name, value)
    reader, default = READERS[name]
    assert reader() == default


def test_path_knobs_reach_their_callers(clean_env, tmp_path):
    clean_env.setenv("REPRO_CEXT_CACHE", str(tmp_path / "cext"))
    assert cext._build_dir() == tmp_path / "cext"
    clean_env.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert default_cache() is not None


def test_names_the_library_does_not_own_are_ignored(clean_env):
    """perfbench pins the retired ``REPRO_SHM_TRANSPORT``; the benchmarks
    read ``REPRO_BENCH_*``.  Neither may change or break a knob."""
    clean_env.setenv("REPRO_SHM_TRANSPORT", "0")
    clean_env.setenv("REPRO_BENCH_PROFILE", "quick")
    for reader, default in READERS.values():
        assert reader() == default
    assert default_workers() == 1
    assert default_backend_name() == "auto"
    assert resolve_tile_width(10**6) == 16_384
    assert default_cache() is None
    assert default_service_url() == DEFAULT_URL
    assert sanitize_enabled() is False
    assert chaos.active_plan() == []


def test_every_value_perfbench_pins_runs(clean_env, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in module.PINNED_ENV.items():
        clean_env.setenv(name, value)
    clean_env.setenv("REPRO_CEXT_CACHE", str(tmp_path / "cext"))
    for reader, _ in READERS.values():
        reader()
    assert default_workers() == 1
    assert default_backend_name() == "auto"
    assert resolve_tile_width(65536) == 16_384


ENV_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00")),
    st.integers().map(str),
    st.sampled_from(["auto", "none", "@", "[", "{}", "http://", "1.0", "on "]),
)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(value=ENV_TEXT)
def test_readers_return_a_value_or_raise_configuration_error(name, value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(name, value)
        try:
            READERS[name][0]()
        except ConfigurationError as err:
            assert name in str(err)


# -- one reader module --------------------------------------------------------


def _env_reads(tree: ast.AST):
    """``(line, key)`` for every ``os.environ``/``os.getenv`` read; ``key``
    is the literal name read, or ``None`` when it is not a literal."""
    for node in ast.walk(tree):
        key_node = None
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            key_node = node.slice
        elif isinstance(node, ast.Call) and node.args and (
            (isinstance(node.func, ast.Attribute) and _is_environ(node.func.value))
            or _is_getenv(node.func)
        ):
            key_node = node.args[0]
        else:
            continue
        key = key_node.value if isinstance(key_node, ast.Constant) else None
        yield node.lineno, key


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _is_getenv(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "getenv") or (
        isinstance(node, ast.Name) and node.id == "getenv"
    )


def test_only_knobs_reads_repro_variables():
    offenders, knob_reads = [], 0
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        reads = list(_env_reads(ast.parse(path.read_text(encoding="utf-8"))))
        if path.name == "knobs.py" and path.parent.name == "repro":
            knob_reads += len(reads)
            continue
        for line, key in reads:
            # A non-literal key could name any variable; only a literal
            # outside the REPRO_ namespace (the C compiler's CC) may stay.
            if key is None or str(key).startswith("REPRO_"):
                offenders.append(f"{path.relative_to(ROOT)}:{line}")
    assert not offenders, f"REPRO_* read outside repro/knobs.py: {offenders}"
    assert knob_reads >= 1  # the walk finds reads at all


def test_walk_catches_every_read_form():
    source = (
        "import os\nfrom os import environ, getenv\n"
        "os.environ.get('REPRO_X')\nos.environ['REPRO_X']\n"
        "os.getenv('REPRO_X')\nenviron.get(NAME)\ngetenv('CC')\n"
    )
    keys = [key for _, key in _env_reads(ast.parse(source))]
    assert keys == ["REPRO_X", "REPRO_X", "REPRO_X", None, "CC"]
