"""Fault injection at named sites — the chaos-testing hook.

Long-running paths call :func:`inject` at *named sites* (catalogued in
``docs/ROBUSTNESS.md``); with no plan configured the call is a single
``is None`` branch, so production runs pay nothing.  A plan arms some
sites with probabilistic faults:

========  ==========================================================
mode      effect at the site
========  ==========================================================
error     raise :class:`FaultInjected` (an ordinary exception)
crash     ``os._exit(70)`` — the process dies without cleanup
kill      ``SIGKILL`` the process — not even ``finally`` runs
hang      sleep ``seconds`` (default 3600) — simulates a stuck worker
slow      sleep ``seconds`` (default 0.05) — simulates a slow worker
oom       raise ``MemoryError`` — simulates an over-budget allocation
          without actually ballooning the host (inside a supervised
          worker it drives the typed memory-budget failure path)
========  ==========================================================

Plans come from :func:`configure` or the ``REPRO_FAULTS`` environment
variable (read at import, so forked/spawned workers and subprocess CLIs
inherit the chaos), with the grammar::

    REPRO_FAULTS="site=mode[:prob[:seconds]][,site=mode...]"
    REPRO_FAULTS="parallel.start=crash:0.5,portfolio.engine.fm=error:1"
    REPRO_FAULTS_SEED=7

Site patterns are :mod:`fnmatch` globs, so ``portfolio.engine.*`` arms
every engine.  Decisions are drawn from a process-local rng seeded from
``(plan seed, pid)``: forked workers decorrelate (they would otherwise
inherit identical rng state and all crash together) while a single
process stays deterministic for a fixed seed.

``crash`` and ``kill`` terminate the *calling process* — they belong at
sites that run inside supervised workers.  The supervisor's sequential
fallback runs under :func:`suppressed` so a degraded run cannot be
re-killed by the same fault that triggered the fallback.
"""

from __future__ import annotations

import os
import re
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from random import Random

from repro import obs

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "configure",
    "corrupt_bytes",
    "current_plan",
    "inject",
    "is_active",
    "suppressed",
]

MODES = ("error", "crash", "kill", "hang", "slow", "oom")

_DEFAULT_SECONDS = {"hang": 3600.0, "slow": 0.05}


class FaultInjected(RuntimeError):
    """The exception raised by an ``error``-mode fault."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site!r}")
        self.site = site


class FaultSpecError(ValueError):
    """Raised on an unparseable fault specification string."""


@dataclass(frozen=True)
class FaultRule:
    """One armed site pattern."""

    site: str
    mode: str
    probability: float = 1.0
    seconds: float | None = None

    def matches(self, site: str) -> bool:
        return fnmatchcase(site, self.site)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed set of rules plus the decision-rng seed."""

    rules: tuple[FaultRule, ...]
    seed: int = 0


def parse_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse the ``site=mode[:prob[:seconds]]`` comma list into a plan."""
    rules: list[FaultRule] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise FaultSpecError(f"fault rule {chunk!r} needs 'site=mode[:prob[:seconds]]'")
        site, _, action = chunk.partition("=")
        parts = action.split(":")
        mode = parts[0].strip()
        if mode not in MODES:
            raise FaultSpecError(f"unknown fault mode {mode!r}; choose from {MODES}")
        try:
            probability = float(parts[1]) if len(parts) > 1 else 1.0
            seconds = float(parts[2]) if len(parts) > 2 else None
        except ValueError:
            raise FaultSpecError(f"bad numeric field in fault rule {chunk!r}") from None
        if not 0.0 <= probability <= 1.0:
            raise FaultSpecError(f"probability must be in [0, 1], got {probability}")
        rules.append(
            FaultRule(site=site.strip(), mode=mode, probability=probability, seconds=seconds)
        )
    if not rules:
        raise FaultSpecError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(rules=tuple(rules), seed=seed)


# ----------------------------------------------------------------------
# Module state (the disabled fast path is `_plan is None`)
# ----------------------------------------------------------------------

_plan: FaultPlan | None = None
_suppress_depth = 0
_rng: Random | None = None
_rng_pid: int | None = None


def configure(spec: str | FaultPlan | None, seed: int = 0) -> None:
    """Install (or clear, with ``None``) the active fault plan."""
    global _plan, _rng, _rng_pid
    if spec is None:
        _plan = None
    elif isinstance(spec, FaultPlan):
        _plan = spec
    else:
        _plan = parse_spec(spec, seed=seed)
    _rng = None
    _rng_pid = None


def current_plan() -> FaultPlan | None:
    return _plan


def is_active() -> bool:
    return _plan is not None and _suppress_depth == 0


@contextmanager
def suppressed():
    """Temporarily disable injection (used by hardened fallback paths)."""
    global _suppress_depth
    _suppress_depth += 1
    try:
        yield
    finally:
        _suppress_depth -= 1


def _decision_rng(plan: FaultPlan) -> Random:
    """Process-local rng, reseeded after a fork so workers decorrelate."""
    global _rng, _rng_pid
    pid = os.getpid()
    if _rng is None or _rng_pid != pid:
        _rng = Random(plan.seed * 0x1F1F1F1F + pid)
        _rng_pid = pid
    return _rng


def inject(site: str) -> None:
    """Maybe fire a fault at ``site`` (no-op unless a matching rule arms it)."""
    plan = _plan
    if plan is None or _suppress_depth:
        return
    rng = _decision_rng(plan)
    for rule in plan.rules:
        if not rule.matches(site):
            continue
        if rule.probability < 1.0 and rng.random() >= rule.probability:
            continue
        obs.count("runtime.faults.injected")
        obs.count(f"runtime.faults.{rule.mode}")
        if rule.mode == "error":
            raise FaultInjected(site)
        if rule.mode == "oom":
            # MemoryError, not FaultInjected: the point is to exercise
            # the same handler an over-budget allocation reaches.
            raise MemoryError(f"injected oom at {site!r}")
        if rule.mode == "crash":
            os._exit(70)
        if rule.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        seconds = rule.seconds if rule.seconds is not None else _DEFAULT_SECONDS[rule.mode]
        time.sleep(seconds)
        return  # slow/hang: at most one sleep per inject call


#: A ``1`` that may lead a multi-digit integer part: not after a digit,
#: a decimal point or an exponent mark, and followed by a digit.
_LEADING_ONE = re.compile(rb"(?<![0-9.eE+])(?<![eE]-)1(?=[0-9])")


def corrupt_bytes(data: bytes, site: str) -> bytes:
    """Maybe flip one byte of ``data`` at a corruption site.

    The integrity-chaos companion to :func:`inject`: an ``error``-mode
    rule matching ``site`` (e.g. ``server.verify=error:1``) does not
    raise here — it silently flips one digit byte of ``data`` and
    returns the damaged copy, simulating the bit-rot an end-to-end
    verification layer exists to catch.  Digits are targeted (XOR
    ``0x01``, so a digit stays a digit) because in canonical result
    bytes and persisted state records every digit is load-bearing —
    cut values, checksums, content digests, vertex labels.  The flip
    keeps valid JSON valid, which exercises the *semantic* detection
    path rather than the trivial parse failure: the one flip that
    would break a JSON number, a multi-digit integer's leading ``1``
    turned into a leading zero (``10`` to ``00``), is never drawn, so
    no ``1`` that may lead such a number is a candidate.

    With no armed plan (or inside :func:`suppressed`, or for data with
    no candidate digit) the input is returned unchanged.  Non-``error``
    modes are ignored at corruption sites — killing or hanging the
    serving process is :func:`inject`'s job.
    """
    plan = _plan
    if plan is None or _suppress_depth:
        return data
    rng = _decision_rng(plan)
    for rule in plan.rules:
        if not rule.matches(site) or rule.mode != "error":
            continue
        if rule.probability < 1.0 and rng.random() >= rule.probability:
            continue
        leading = {m.start() for m in _LEADING_ONE.finditer(data)}
        digit_positions = [
            i for i, byte in enumerate(data) if 0x30 <= byte <= 0x39 and i not in leading
        ]
        if not digit_positions:
            return data
        index = digit_positions[rng.randrange(len(digit_positions))]
        obs.count("runtime.faults.injected")
        obs.count("runtime.faults.corrupt")
        return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]
    return data


# Arm from the environment at import time: forked and spawned workers,
# subprocess CLIs, and the CI chaos job all inherit the plan for free.
_env_spec = os.environ.get("REPRO_FAULTS")
if _env_spec:
    configure(_env_spec, seed=int(os.environ.get("REPRO_FAULTS_SEED", "0")))
