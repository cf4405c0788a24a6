"""``pyproject.toml``'s runtime dependencies are exactly what ``src/repro`` imports.

Every ``import`` under ``src/repro`` is read with :mod:`ast`.  A top-level
module that is neither in the standard library nor ``repro`` itself must
be declared in ``[project] dependencies``, and every declared dependency
must be imported somewhere, so the list neither misses a package nor
carries a dead one.  Each dependency's distribution name is its import
name here (numpy, scipy).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    # "numpy>=1.24; python_version >= '3.10'" -> "numpy"
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in dependencies}


def third_party_imports() -> dict[str, str]:
    """Each imported third-party top-level module, with one file importing it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    undeclared = {
        name: where
        for name, where in third_party_imports().items()
        if name.lower() not in declared_dependencies()
    }
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"


def test_every_declared_dependency_is_imported():
    unused = declared_dependencies() - {name.lower() for name in third_party_imports()}
    assert not unused, f"declared in pyproject.toml but never imported: {sorted(unused)}"
