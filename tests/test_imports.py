"""Import hygiene: every module of the package uses each name it imports,
every private module-level function is referenced from outside its own
body, and a copy of the package imported under a private name is collected
once it leaves sys.modules.

Only the standard library is needed.  __init__.py is left out of the
unused-import check, as its imports are the package's re-exports.
"""

import ast
import gc
import importlib.util
import re
import sys
import weakref
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repgeo"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # annotations are expressions in the tree, so their names count as used
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from x import a as b, c\n"
        "def f(v: Sequence[int]) -> Optional[int]:\n"
        "    return os.path\n"
    )
    assert unused_imports(source) == ["b", "c"]


def unreferenced_private_defs(sources: list[str]) -> list[str]:
    """The private module-level functions that no code outside their own
    body names, across the given module sources."""
    defined, used = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.add(own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    used.update(a.name for a in node.names)
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    used.update({getattr(node, "id", None) or node.attr} - {own})
    return sorted(defined - used)


def test_no_dead_private_helpers():
    # the benchmark's tracer wraps some functions by name, so those stay
    # defined whether or not the package still calls them
    tracer = (PACKAGE.parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    frozen = set(re.findall(r'Target\("repgeo\.\w+", "(\w+)"', tracer))
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert [name for name in unreferenced_private_defs(sources) if name not in frozen] == []


def test_dead_private_helper_detection():
    source = (
        "import m\n"
        "from m import _imported\n"
        "def _called(): return _recursive()\n"
        "def _recursive(): return _recursive()\n"
        "def _attribute(): pass\n"
        "def _dead(): return _dead()\n"
        "def public(): return _called() + m._attribute\n"
        "def __dunder__(): pass\n"
    )
    assert unreferenced_private_defs([source, "def _imported(): pass\n"]) == ["_dead"]


def test_a_private_import_is_collectable():
    # the benchmark's set-up imports the package and its CLI again under a
    # private name and then drops it from sys.modules; a process-wide cache
    # (typing memoises Union[...]) that holds one of its classes would keep
    # every module of that copy alive
    name = "_repgeo_collectable"
    spec = importlib.util.spec_from_file_location(
        name, PACKAGE / "__init__.py", submodule_search_locations=[str(PACKAGE)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        importlib.import_module(f"{name}.cli")
        refs = [weakref.ref(module.freemod.GroupAtom), weakref.ref(module.geometry.Equivalent)]
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
    del module
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
