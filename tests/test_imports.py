"""Every module of the package uses what it imports, imports nothing private
from another module, re-exports nothing that no module reads, and keeps no
hidden cache.

No linter ships with the test dependencies, so this walks each module's
syntax tree: an imported name that no other node of the module reads is an
error, and so is an imported name with a leading underscore, except the
ownership helpers that let an image type take an array without a copy.
`__init__.py` re-exports on purpose and is skipped by the first two checks;
the third asks that each name it re-exports is read by some package module or
by the benchmark, which patches layer functions by their names as strings,
and the fourth asks the same of each public top-level function or class that
it does not re-export. The last fails on a functools cache or a touch of
`__dict__`: state that a frozen value would keep beside its fields.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "percopick"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
HANDOVERS = {"_adopt", "_adopt_bits", "_owned"}
CACHES = {"cached_property", "cache", "lru_cache"}  # of functools
ENTRY_POINTS = {"run_detection"}  # the documented library entry point


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def private_imports(source: str) -> list[str]:
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name.startswith("_") and alias.name not in HANDOVERS]


def test_detector_flags_an_unused_import():
    source = "import numpy as np\nimport os\nfrom math import pi, tau\nprint(np.e, tau)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_a_private_import():
    source = "from .image import _adopt, _cumulative_table\nfrom .io import read_image\n"
    assert private_imports(source) == ["line 1: _cumulative_table"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_nothing_private(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def names_read(source: str, strings: bool = False) -> set[str]:
    """Names a module reads: loaded names, attributes, and with strings=True
    string constants. A def, class or assignment target is not a read."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_detector_ignores_definitions_and_imports():
    source = "from .image import window_sum\ndef tri_neighbors():\n    pass\nx = scan.estimate_lower\n"
    assert names_read(source) == {"scan", "estimate_lower"}
    assert "patched" in names_read("PATCHES = [(synth, 'patched')]\n", strings=True)


EXPORTED = {alias.asname or alias.name
            for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) for alias in node.names}
READ = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES),
                   *(names_read(p.read_text(encoding="utf-8"), strings=True) for p in PERFBENCH))


def test_every_export_is_read():
    assert sorted(EXPORTED - READ - ENTRY_POINTS) == []


def test_every_unexported_public_definition_is_read():
    unread = [f"{path.name}: {node.name}" for path in MODULES
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in EXPORTED | READ | ENTRY_POINTS]
    assert unread == []


def hidden_caches(source: str) -> list[str]:
    """functools caches a module imports or names, and its touches of __dict__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in CACHES]
        elif isinstance(node, ast.Attribute) and (
                node.attr == "__dict__" or node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, node.attr))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detector_flags_a_hidden_cache():
    source = ("from functools import cached_property, partial\nimport functools\n"
              "f = functools.lru_cache(g)\nx.__dict__.pop('y')\nh = functools.reduce\n")
    assert hidden_caches(source) == ["line 1: cached_property", "line 3: lru_cache",
                                     "line 4: __dict__"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_keeps_no_hidden_cache(path):
    assert hidden_caches(path.read_text(encoding="utf-8")) == []
