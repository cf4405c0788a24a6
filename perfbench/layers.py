"""Per-layer metrics of a traced run, derived from one obs snapshot.

Every workload reports every metric; a layer a workload never reaches
reads 0 there.  Busy times of layers that only some workloads reach are
shares (``_frac``) of the time callers waited for results — the summed
latency of a pass's partition calls or requests — so an idle layer is a
zero share, never a constant time.  Layers every workload reaches
(instance generation, Algorithm I's stages) report seconds per pass.
"""

from __future__ import annotations

#: name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "generators.build_s": "s",
    "core.alg1_s": "s",
    "core.filter_s": "s",
    "core.dualize_s": "s",
    "core.bfs_path_s": "s",
    "core.double_bfs_s": "s",
    "core.boundary_s": "s",
    "core.complete_s": "s",
    "core.unattributed_s": "s",
    "core.starts": "count",
    "core.dual_edges": "count",
    "core.bfs_nodes_visited": "count",
    "core.boundary_nodes": "count",
    "core.complete_winners": "count",
    "core.csr_reuse_ratio": "ratio",
    "baselines.fm.init_frac": "frac",
    "baselines.fm.passes": "count",
    "baselines.fm.evaluations": "count",
    "baselines.kl.passes": "count",
    "baselines.kl.evaluations": "count",
    "baselines.sa.moves": "count",
    "baselines.spectral.eigensolve_frac": "frac",
    "baselines.spectral.expand_frac": "frac",
    "flow.carve_frac": "frac",
    "flow.network_frac": "frac",
    "flow.dinic_frac": "frac",
    "flow.sweep_frac": "frac",
    "flow.rounds": "count",
    "flow.augmentations": "count",
    "metrics.verify_frac": "frac",
    "server.parse_frac": "frac",
    "server.digest_frac": "frac",
    "server.cache.hit_ratio": "ratio",
    "server.guards_frac": "frac",
    "server.broker.wait_frac": "frac",
    "server.broker.batch_size": "count",
    "runtime.supervisor.fork_ipc_frac": "frac",
    "server.engine_frac": "frac",
    "server.persist.append_frac": "frac",
    "server.transport_frac": "frac",
    "server.unattributed_frac": "frac",
    "client.gen_self_frac": "frac",
    "trace.overhead_frac": "frac",
    "calib.python_s": "s",
    "calib.numpy_s": "s",
}

CORE_STAGES = ("filter", "dualize", "bfs_path", "double_bfs", "boundary", "complete")

# per-layer count -> the program's own obs counter it is read from.
_PROGRAM_COUNTERS = {
    "core.starts": "algorithm1.starts",
    "core.bfs_nodes_visited": "graph.bfs.nodes_visited",
    "core.boundary_nodes": "dual_cut.boundary_nodes",
    "core.complete_winners": "complete_cut.winners",
    "baselines.fm.passes": "baseline.fm.passes",
    "baselines.fm.evaluations": "baseline.fm.evaluations",
    "baselines.kl.passes": "baseline.kl.passes",
    "baselines.kl.evaluations": "baseline.kl.evaluations",
    "baselines.sa.moves": "baseline.sa.moves",
    "flow.rounds": "flow.refine.rounds",
    "flow.augmentations": "flow.augmentations",
}

# per-layer share -> the traced span whose time it is.
_SPAN_SHARES = {
    "baselines.fm.init_frac": "baselines.fm.init",
    "baselines.spectral.eigensolve_frac": "baselines.spectral.eigensolve",
    "flow.carve_frac": "flow.carve",
    "flow.network_frac": "flow.network",
    "flow.dinic_frac": "flow.dinic",
    "flow.sweep_frac": "flow.sweep",
    "metrics.verify_frac": "metrics.verify",
}


def derive(spans: dict[str, float], counters: dict[str, float], passes: int,
           wait_s: float) -> dict[str, float]:
    """Library-layer metrics from traced ``spans`` and obs ``counters``.

    ``spans`` and ``counters`` cover ``passes`` traced passes, whose
    callers waited ``wait_s`` seconds in all.  Server-side metrics are
    left at 0 here; the service workload fills them in.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    out["core.alg1_s"] = spans.get("core.alg1", 0.0) / passes
    for stage in CORE_STAGES:
        out[f"core.{stage}_s"] = spans.get(f"core.{stage}", 0.0) / passes
    out["core.unattributed_s"] = out["core.alg1_s"] - sum(
        out[f"core.{stage}_s"] for stage in CORE_STAGES
    )
    out["core.dual_edges"] = counters.get("trace.core.dual_edges", 0) / passes
    for name, counter in _PROGRAM_COUNTERS.items():
        out[name] = counters.get(counter, 0) / passes
    builds = counters.get("graph.csr.builds", 0)
    reuses = counters.get("graph.csr.reuses", 0)
    out["core.csr_reuse_ratio"] = reuses / (builds + reuses) if builds + reuses else 0.0
    for name, span in _SPAN_SHARES.items():
        out[name] = spans.get(span, 0.0) / wait_s
    out["baselines.spectral.expand_frac"] = (
        spans.get("baselines.spectral", 0.0) - spans.get("baselines.spectral.eigensolve", 0.0)
    ) / wait_s
    return out
