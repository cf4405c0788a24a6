"""``pyproject.toml``'s runtime dependencies are exactly what ``src/repro`` imports.

Every ``import`` under ``src/repro`` is read with :mod:`ast`.  A top-level
module that is neither in the standard library nor ``repro`` itself must
be declared in ``[project] dependencies``, and every declared dependency
must be imported somewhere, so the list neither misses a package nor
carries a dead one.  Each dependency's distribution name is its import
name here (numpy, scipy).

scipy is declared, but only spectral and the quadratic placer import it,
inside the functions that need it: a process that runs the other engines,
or serves requests, never loads it.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Runs every engine but spectral after importing the daemon, then lists
#: the scipy modules the process has loaded.
SCIPY_PROBE = """
import sys
import repro.server.app
from repro.engines import run_engine
from repro.generators import random_hypergraph

h = random_hypergraph(40, 64, seed=3, connect=True)
for engine in ("algorithm1", "flow", "fm", "kl", "sa", "random"):
    run_engine(engine, h, seed=0, starts=2)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
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


def test_engines_and_daemon_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert probe.returncode == 0, probe.stderr[-2000:]
    assert probe.stdout.splitlines()[-1] == "[]"
