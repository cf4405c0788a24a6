"""Span tracing from outside the program.

A :class:`Tracer` replaces a function *as bound in the module that calls
it* with a wrapper that times every call into a span of the ``repro.obs``
registry, then puts the original back.  Recording into ``obs`` is what
lets the same wrappers work inside the daemon: its forked workers run on
a fresh registry whose snapshot the daemon merges into ``/metrics``.

Layers are wrapped where their callers look them up, never edited: the
traced run executes the same program source as the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import time

from repro import obs

#: Span-name prefix, so traced spans never collide with the program's own.
PREFIX = "trace."

# (module, attribute, span) — the library layers, as their callers see them.
CORE_TARGETS = (
    ("repro.engines", "algorithm1", "core.alg1"),
    ("repro.core.algorithm1", "filter_large_edges", "core.filter"),
    ("repro.core.algorithm1", "intersection_graph", "core.dualize"),
    ("repro.core.algorithm1", "random_longest_bfs_path", "core.bfs_path"),
    ("repro.core.algorithm1", "double_bfs_cut", "core.double_bfs"),
    ("repro.core.algorithm1", "partial_bipartition", "core.boundary"),
    ("repro.core.algorithm1", "boundary_graph", "core.boundary"),
    ("repro.core.algorithm1", "complete_cut", "core.complete"),
    ("repro.core.algorithm1", "complete_cut_weighted", "core.complete"),
)
BASELINE_TARGETS = (
    ("repro.baselines.fiduccia_mattheyses", "initial_state", "baselines.fm.init"),
    ("repro.engines", "spectral_bisection", "baselines.spectral"),
    ("repro.baselines.spectral", "_fiedler_vector", "baselines.spectral.eigensolve"),
)
FLOW_TARGETS = (
    ("repro.flow.refine", "_carve_side", "flow.carve"),
    ("repro.flow.refine", "lawler_network", "flow.network"),
    ("repro.flow.refine", "max_flow", "flow.dinic"),
    ("repro.flow.refine", "most_balanced_source_side", "flow.sweep"),
)
VERIFY_TARGET = ("repro.metrics.verify", "verify_partition_body", "metrics.verify")
GENERATOR_TARGETS = (
    ("repro.generators.random_hypergraph", "random_hypergraph", "generators.build"),
    ("repro.generators.netlists", "clustered_netlist", "generators.build"),
)

#: Work counts read off a traced call's result, by span.
RESULT_COUNTERS = {
    "core.dualize": lambda intersection: {"core.dual_edges": intersection.num_edges},
}


def record(span: str, seconds: float) -> None:
    """Add ``seconds`` to traced span ``span`` in the active registry."""
    obs.registry().record_span(PREFIX + span, seconds)


class Tracer:
    """Install timing wrappers; :meth:`restore` (or ``with``) undoes them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Swap ``owner.attr`` for ``make_wrapper(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def wrap(self, owner, attr: str, span: str, weight=None, counters=None) -> None:
        """Time every call of ``owner.attr`` into ``span``.

        ``owner`` is a module (or a class, for methods).  ``weight``
        optionally maps the call's arguments to a multiplier, for spans
        that several requests wait on at once; ``counters`` optionally
        maps the call's result to ``{counter: amount}`` increments.
        """

        def make_wrapper(original):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    record(span, dt * (weight(*args, **kwargs) if weight else 1))
                for name, amount in (counters(result) if counters else {}).items():
                    obs.registry().inc(PREFIX + name, amount)
                return result

            return timed

        self.replace(owner, attr, make_wrapper)

    def wrap_all(self, targets) -> "Tracer":
        for module_name, attr, span in targets:
            self.wrap(
                importlib.import_module(module_name),
                attr,
                span,
                counters=RESULT_COUNTERS.get(span),
            )
        return self

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def library_tracer() -> Tracer:
    """Wrappers for every library layer a partition call can reach."""
    return Tracer().wrap_all(CORE_TARGETS + BASELINE_TARGETS + FLOW_TARGETS + (VERIFY_TARGET,))


def span_totals(snapshot: dict) -> dict[str, float]:
    """``{span: total seconds}`` of the traced spans in an obs snapshot."""
    return {
        name[len(PREFIX):]: stat["total"]
        for name, stat in snapshot.get("spans", {}).items()
        if name.startswith(PREFIX)
    }
