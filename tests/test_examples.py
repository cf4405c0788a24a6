"""The scripts under ``examples/`` run, and print what they should.

Each script runs in a subprocess (cwd a temporary directory) under
``PYTHONHASHSEED=1`` and ``2``:

* every script exits 0;
* ``paper_walkthrough.py`` prints exactly ``tests/data/paper_walkthrough.stdout``
  (G's neighbour lists, the BFS levels, the edges of G' and the completion);
* every script except ``theory_validation.py``, which prints wall-clock
  timings, prints the same stdout under both hash seeds, so no answer
  follows the iteration order of a set of ``str`` labels.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
TIMED = {"theory_validation.py"}
GOLDEN = Path(__file__).resolve().parent / "data" / "paper_walkthrough.stdout"


@functools.lru_cache(maxsize=None)
def run(script: str, hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = hash_seed
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run(
            [sys.executable, str(ROOT / "examples" / script)],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=300,
        )


def test_examples_found():
    assert "paper_walkthrough.py" in EXAMPLES and "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_zero(script):
    proc = run(script, "1")
    assert proc.returncode == 0, proc.stderr


def test_paper_walkthrough_prints_the_golden_copy():
    proc = run("paper_walkthrough.py", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("script", [s for s in EXAMPLES if s not in TIMED])
def test_example_stdout_does_not_depend_on_the_hash_seed(script):
    first, second = run(script, "1"), run(script, "2")
    assert first.returncode == second.returncode == 0, (first.stderr, second.stderr)
    assert first.stdout == second.stdout
