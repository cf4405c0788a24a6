"""Command-line interface: partition, generate, place, experiment.

Examples
--------
Partition an hMETIS file with 50-start Algorithm I::

    repro-partition partition design.hgr --algorithm algorithm1 --starts 50

Generate a suite instance and save it::

    repro-partition generate --name IC1 --out ic1.hgr

Regenerate a paper table::

    repro-partition experiment table2
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.core.algorithm1 import algorithm1
from repro.core.hypergraph import Hypergraph
from repro.engines import ALL_ENGINES, PLACERS, REFINERS, apply_refine, run_engine, run_placer
from repro.placement.mincut_placement import PARTITIONERS
from repro.runtime import JournalError


def _load_hypergraph(path: str, fmt: str | None) -> Hypergraph:
    from repro.io import ParseError, read_hgr, read_json, read_netlist

    suffix = (fmt or Path(path).suffix.lstrip(".")).lower()
    readers = {"hgr": read_hgr, "netlist": read_netlist, "net": read_netlist, "json": read_json}
    if suffix not in readers:
        raise SystemExit(
            f"cannot infer format from {path!r}; pass --format hgr|netlist|json"
        )
    try:
        return readers[suffix](path)
    except (ParseError, OSError) as exc:
        # A bad or missing input is the user's to fix: one line, no traceback.
        raise SystemExit(str(exc))


def _save_hypergraph(h: Hypergraph, path: str) -> None:
    from repro.io import write_hgr, write_json, write_netlist

    suffix = Path(path).suffix.lstrip(".").lower()
    writers = {"hgr": write_hgr, "netlist": write_netlist, "net": write_netlist, "json": write_json}
    if suffix not in writers:
        raise SystemExit(f"unsupported output extension {suffix!r} (use .hgr/.netlist/.json)")
    writers[suffix](h, path)


def _check_degraded(degraded: bool, reason: str | None, on_error: str) -> None:
    """Report (or escalate) a degraded run, per ``--on-error``."""
    if not degraded:
        return
    if on_error == "raise":
        raise SystemExit(f"run degraded: {reason or 'unknown reason'}")
    print(f"degraded           : True ({reason})")


def _edge_size_threshold(text: str) -> int:
    """``--threshold``: an int of at least 2 (2-pin nets are never noise)."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def _positive_int(text: str) -> int:
    """``serve`` sizes and counts: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_number(text: str) -> float:
    """``serve`` budgets (seconds, MiB): a finite number above 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _cmd_partition(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.file, args.format)
    if (args.journal or args.resume) and (args.k > 2 or args.algorithm != "algorithm1"):
        raise SystemExit("--journal/--resume support algorithm1 bisection only")
    if args.refine and args.k > 2:
        raise SystemExit("--refine applies to bipartitions only (k = 2)")
    if args.k > 2:
        from repro.core.kway import recursive_bisection

        kp = recursive_bisection(
            h, args.k, num_starts=args.starts, seed=args.seed, deadline=args.deadline
        )
        _check_degraded(kp.degraded, kp.degrade_reason, args.on_error)
        print(f"k                  : {kp.k}")
        print(f"cut nets           : {kp.cutsize}")
        print(f"sum ext. degrees   : {kp.sum_external_degrees}")
        print(f"connectivity (l-1) : {kp.connectivity}")
        print(f"block sizes        : {sorted(len(b) for b in kp.blocks)}")
        print(f"weight imbalance   : {kp.weight_imbalance_fraction:.3f}")
        if args.assignment:
            payload = {str(v): kp.block_of(v) for v in sorted(h.vertices, key=repr)}
            Path(args.assignment).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            print(f"assignment written : {args.assignment}")
        if args.parts:
            from repro.io.parts import write_parts

            write_parts(kp, args.parts)
            print(f"parts written      : {args.parts}")
        if args.report:
            from repro.report import kway_report

            Path(args.report).write_text(kway_report(kp) + "\n", encoding="utf-8")
            print(f"report written     : {args.report}")
        return 0
    if args.algorithm == "algorithm1":
        parallel = args.parallel
        if parallel is None and (args.journal or args.resume):
            # Journaling needs the pre-drawn per-start seed contract;
            # parallel=1 provides it without any pool overhead.
            parallel = 1
        try:
            result = algorithm1(
                h,
                num_starts=args.starts,
                seed=args.seed,
                edge_size_threshold=args.threshold,
                weighted_balance=args.weighted_balance,
                balance_tolerance=args.balance_tolerance,
                parallel=parallel,
                deadline=args.deadline,
                task_timeout=args.task_timeout,
                max_retries=args.max_retries,
                journal_path=args.journal,
                resume_path=args.resume,
            )
        except JournalError as exc:
            raise SystemExit(str(exc))
        bp = result.bipartition
        _check_degraded(result.degraded, result.degrade_reason, args.on_error)
        if args.resume:
            print(f"resumed            : {args.resume}")
        if args.timings:
            for phase in ("filter", "dualize", "cut", "complete", "balance"):
                print(f"time {phase:<14}: {result.timings.get(phase, 0.0):.4f}s")
            workers = result.counters.get("parallel_workers", 0)
            if workers:
                print(f"parallel workers   : {workers}")
        extras = {}
        if args.refine:
            bp, extras = apply_refine(
                args.refine,
                h,
                bp,
                seed=args.seed,
                balance_tolerance=args.balance_tolerance,
                deadline=args.deadline,
            )
    else:
        bp, extras = run_engine(
            args.algorithm,
            h,
            seed=args.seed,
            starts=args.starts,
            deadline=args.deadline,
            balance_tolerance=args.balance_tolerance,
            refine=args.refine,
        )
    _check_degraded(
        extras.get("degraded", False), extras.get("degrade_reason"), args.on_error
    )
    if "seed_cutsize" in extras:
        print(
            f"refine ({extras['refine']:<4})      : "
            f"cutsize {extras['seed_cutsize']} -> {bp.cutsize}"
        )

    print(f"cutsize            : {bp.cutsize}")
    print(f"weighted cutsize   : {bp.weighted_cutsize:g}")
    print(f"|left| / |right|   : {len(bp.left)} / {len(bp.right)}")
    print(f"weight imbalance   : {bp.weight_imbalance_fraction:.3f}")
    print(f"quotient cut       : {bp.quotient_cut:.4f}")
    if args.assignment:
        payload = {str(v): side for v, side in sorted(bp.as_dict().items(), key=lambda kv: repr(kv[0]))}
        Path(args.assignment).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"assignment written : {args.assignment}")
    if args.parts:
        from repro.io.parts import write_parts

        write_parts(bp, args.parts)
        print(f"parts written      : {args.parts}")
    if args.report:
        from repro.report import full_report

        Path(args.report).write_text(full_report(bp), encoding="utf-8")
        print(f"report written     : {args.report}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.name:
        from repro.generators.suite import load_instance

        h, recipe, _ = load_instance(args.name)
        print(f"{args.name}: {h.num_vertices} modules, {h.num_edges} signals ({recipe.kind})")
    elif args.kind == "netlist":
        from repro.generators.netlists import clustered_netlist

        h = clustered_netlist(args.modules, args.signals, args.technology, seed=args.seed)
    elif args.kind == "difficult":
        from repro.generators.difficult import planted_bisection

        inst = planted_bisection(
            args.modules, args.signals, crossing_edges=args.planted_cut, seed=args.seed
        )
        h = inst.hypergraph
        print(f"planted optimum cutsize: {inst.planted_cutsize}")
    else:
        from repro.generators.random_hypergraph import random_hypergraph

        h = random_hypergraph(args.modules, args.signals, seed=args.seed, connect=True)
    _save_hypergraph(h, args.out)
    print(f"wrote {args.out}: {h.num_vertices} vertices, {h.num_edges} edges, {h.num_pins} pins")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.file, args.format)
    result = run_placer(
        args.placer,
        h,
        seed=args.seed,
        rows=args.rows,
        cols=args.cols,
        partitioner=args.partitioner,
        deadline=args.deadline,
    )
    _check_degraded(result.degraded, result.degrade_reason, args.on_error)
    print(f"grid               : {result.grid.rows} x {result.grid.cols}")
    print(f"total HPWL         : {result.total_hpwl:.1f}")
    print(f"top-level cutsize  : {result.cut_sizes[0] if result.cut_sizes else 0}")
    if args.assignment:
        payload = {str(v): list(slot) for v, slot in sorted(result.positions.items(), key=lambda kv: repr(kv[0]))}
        Path(args.assignment).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"placement written  : {args.assignment}")
    if args.report:
        from repro.report import placement_report

        Path(args.report).write_text(placement_report(result) + "\n", encoding="utf-8")
        print(f"report written     : {args.report}")
    return 0


def _run_rent(seed: int = 0, trials: int = 3) -> list:
    from repro.analysis.rent import rent_comparison_experiment

    return rent_comparison_experiment(trials=trials, seed=seed)


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.portfolio import DEFAULT_METHODS, best_partition

    h = _load_hypergraph(args.file, args.format)
    methods = tuple(args.methods.split(",")) if args.methods else DEFAULT_METHODS
    result = best_partition(
        h,
        methods=methods,
        balance_tolerance=args.balance_tolerance,
        num_starts=args.starts,
        seed=args.seed,
        deadline=args.deadline,
        on_error=args.on_error,
        refine=args.refine,
    )
    print(
        f"{'method':<12} {'cutsize':>8} {'imbalance':>10} {'feasible':>9} "
        f"{'seconds':>8}  status"
    )
    for entry in result.entries:
        if entry.failed:
            status = f"FAILED: {entry.error}"
        elif entry.degraded:
            status = "degraded"
        else:
            status = "ok"
        print(
            f"{entry.method:<12} {entry.cutsize:>8} "
            f"{entry.weight_imbalance_fraction:>10.3f} "
            f"{str(entry.feasible):>9} {entry.seconds:>8.2f}  {status}"
        )
    if result.refined is not None:
        print(
            f"\nrefine ({result.refined}): cutsize "
            f"{result.unrefined_cutsize} -> {result.cutsize}"
        )
    print(f"\nwinner: {result.winner} (cutsize {result.cutsize})")
    if result.degraded:
        print("degraded: some engines failed, were skipped, or hit the deadline")
    if args.parts:
        from repro.io.parts import write_parts

        write_parts(result.bipartition, args.parts)
        print(f"parts written: {args.parts}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        SUITES,
        bench_path,
        compare_bench,
        format_compare,
        load_bench,
        run_bench,
        write_bench,
    )

    if args.compare:
        if len(args.compare) > 2:
            raise SystemExit("--compare takes one or two BENCH_*.json paths")
        baseline = load_bench(args.compare[0])
        if len(args.compare) == 2:
            current = load_bench(args.compare[1])
        else:
            # One file: rerun the baseline's recorded settings now and
            # compare against it (the standing "did this PR regress?" gate).
            settings = baseline.get("settings", {})
            known = {c.name: c for suite in SUITES.values() for c in suite}
            wanted = settings.get("cases", [c.name for c in SUITES["pinned"]])
            cases = tuple(known[name] for name in wanted if name in known)
            current = run_bench(
                "current",
                cases=cases,
                engines=tuple(settings.get("engines", ALL_ENGINES)),
                seed=settings.get("seed", 0),
                starts=settings.get("starts", 10),
                repeats=settings.get("repeats", 3),
                parallel=args.parallel,
                task_timeout=args.task_timeout,
                max_retries=args.max_retries,
                total_deadline_seconds=args.total_deadline,
                refine=settings.get("refine"),
            )
        regressions = compare_bench(
            baseline,
            current,
            runtime_tolerance=args.runtime_tolerance,
            profile_tolerance=args.profile_tolerance if args.profile else None,
        )
        print(format_compare(baseline, current, regressions))
        return 1 if regressions else 0

    engines = tuple(args.engines.split(",")) if args.engines else ALL_ENGINES
    scale = "quick" if args.quick else args.scale
    resume_notes: list[str] = []
    try:
        payload = run_bench(
            args.label,
            cases=SUITES[scale],
            engines=engines,
            seed=args.seed,
            starts=args.starts,
            repeats=args.repeats,
            deadline_seconds=args.deadline,
            parallel=args.parallel,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            total_deadline_seconds=args.total_deadline,
            journal_path=args.journal,
            resume_path=args.resume,
            memory_limit_mb=args.memory_limit,
            on_resume=lambda replayed, pending: resume_notes.append(
                f"resume: {replayed} pair(s) replayed, {pending} remaining"
            ),
            server=args.server,
            refine=args.refine,
            verify=args.verify,
        )
    except JournalError as exc:
        raise SystemExit(str(exc))
    # Resume progress goes to stderr: --json promises the payload is the
    # entire stdout, and the payload itself must stay resume-agnostic.
    for note in resume_notes:
        print(note, file=sys.stderr)
    if args.json:
        # Machine-only mode: the schema-versioned payload is the entire
        # stdout — no human text to strip before piping into a dashboard.
        print(json.dumps(payload, indent=2, sort_keys=True))
        if args.out:
            write_bench(payload, Path(args.out))
        return 0
    out = Path(args.out) if args.out else bench_path(args.label)
    write_bench(payload, out)
    print(f"{'instance':<12} {'engine':<10} {'cutsize':>8} {'imbalance':>10} {'seconds':>8}")
    for entry in payload["results"]:
        if entry.get("failed"):
            print(
                f"{entry['instance']:<12} {entry['engine']:<10} "
                f"{'FAILED':>8}  {entry['error']}"
            )
            continue
        mark = "  degraded" if entry.get("degraded") else ""
        print(
            f"{entry['instance']:<12} {entry['engine']:<10} {entry['cutsize']:>8} "
            f"{entry['imbalance_fraction']:>10.3f} {entry['seconds']:>8.3f}{mark}"
        )
    if "supervision" in payload:
        print(f"\nsupervision: {payload['supervision']['summary']}")
    print(f"\nbench written: {out}")
    return 0


def _serve_argv(args: argparse.Namespace) -> list[str]:
    """Rebuild the child's ``serve`` argv from the parsed watchdog args.

    Everything except ``--autorestart`` itself is passed through, so the
    supervised daemon runs with exactly the knobs the operator gave the
    watchdog (including ``--state-dir`` — which is what makes a restart
    a *recovery* instead of a cold start).
    """
    argv = [
        "serve",
        "--host", args.host,
        "--port", str(args.port),
        "--workers", str(args.workers),
        "--max-retries", str(args.max_retries),
        "--cache-max-bytes", str(args.cache_max_bytes),
        "--cache-max-entries", str(args.cache_max_entries),
        "--max-inflight", str(args.max_inflight),
        "--max-queue", str(args.max_queue),
        "--drain-timeout", str(args.drain_timeout),
        "--breaker-threshold", str(args.breaker_threshold),
        "--breaker-cooldown", str(args.breaker_cooldown),
    ]
    if args.socket is not None:
        argv += ["--socket", args.socket]
    if args.task_timeout is not None:
        argv += ["--task-timeout", str(args.task_timeout)]
    if args.memory_limit is not None:
        argv += ["--memory-limit", str(args.memory_limit)]
    if args.state_dir is not None:
        argv += ["--state-dir", args.state_dir]
    if args.no_obs:
        argv.append("--no-obs")
    if args.no_verify:
        argv.append("--no-verify")
    return argv


def _serve_watchdog(args: argparse.Namespace) -> int:
    """``serve --autorestart``: supervise the daemon as a child process.

    The child inherits stdout (its ``serving on ...`` banner flows
    through) and the environment; SIGTERM/SIGINT are forwarded so the
    child drains gracefully and the watchdog exits with its code.  An
    *unexpected* death restarts the child after a decorrelated-jitter
    backoff; ``--restart-limit`` consecutive fast crashes (uptime under
    ``--restart-window`` seconds) end the loop with exit 1 instead of
    flapping forever — a daemon that cannot survive startup needs an
    operator, not a supervisor.
    """
    import random
    import signal
    import subprocess
    import time

    argv = [sys.executable, "-m", "repro.cli"] + _serve_argv(args)
    rng = random.Random()
    state = {"stopping": False, "child": None}

    def forward(signum, _frame):
        state["stopping"] = True
        child = state["child"]
        if child is not None and child.poll() is None:
            child.send_signal(signal.SIGTERM)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)

    fast_crashes = 0
    delay = 0.1
    while True:
        t0 = time.monotonic()
        child = subprocess.Popen(argv)
        state["child"] = child
        if state["stopping"] and child.poll() is None:
            # The stop signal landed between Popen and the handler
            # having a child to forward to.
            child.send_signal(signal.SIGTERM)
        code = child.wait()
        uptime = time.monotonic() - t0
        if state["stopping"]:
            return code
        if uptime < args.restart_window:
            fast_crashes += 1
            if fast_crashes >= args.restart_limit:
                print(
                    f"daemon crash-looping ({fast_crashes} exits under "
                    f"{args.restart_window}s); giving up",
                    file=sys.stderr,
                    flush=True,
                )
                return 1
        else:
            fast_crashes = 0
            delay = 0.1
        delay = min(10.0, rng.uniform(0.1, delay * 3))
        print(
            f"daemon exited (code {code}, uptime {uptime:.1f}s); "
            f"restarting in {delay:.2f}s",
            flush=True,
        )
        deadline = time.monotonic() + delay
        while not state["stopping"] and time.monotonic() < deadline:
            time.sleep(0.05)
        if state["stopping"]:
            return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.server import (
        PartitionService,
        ServiceConfig,
        ServiceError,
        StateStoreError,
    )

    if args.autorestart:
        return _serve_watchdog(args)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.workers,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        memory_limit_mb=args.memory_limit,
        cache_max_bytes=args.cache_max_bytes,
        cache_max_entries=args.cache_max_entries,
        obs_enabled=not args.no_obs,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        state_dir=args.state_dir,
        verify_results=not args.no_verify,
    )
    try:
        service = PartitionService(config).start()
    except (ServiceError, StateStoreError, OSError) as exc:
        raise SystemExit(f"cannot start daemon: {exc}")
    address = service.address
    if isinstance(address, str):
        print(f"serving on unix:{address}", flush=True)
    else:
        print(f"serving on http://{address[0]}:{address[1]}", flush=True)

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        # SIGTERM/SIGINT = graceful drain: /healthz flips to
        # "draining", in-flight work gets --drain-timeout seconds.
        print("draining...", flush=True)
        service.stop()
        print("daemon stopped", flush=True)
    return 0


def _soak_violations(args: argparse.Namespace, report) -> list[str]:
    """Evaluate the soak budgets; each violated one becomes a sentence."""
    violations: list[str] = []
    if report.total_requests == 0:
        violations.append("soak made zero requests — is the daemon up?")
        return violations
    if report.healthz_failures:
        violations.append(
            f"healthz violated its {args.healthz_budget}s budget "
            f"{report.healthz_failures} time(s) under load"
        )
    p95 = report.request_latency.get("p95")
    if args.latency_budget is not None and p95 is not None and p95 > args.latency_budget:
        violations.append(
            f"request p95 latency {p95:.3f}s exceeds the "
            f"--latency-budget {args.latency_budget}s"
        )
    shed_fraction = report.shed_total / report.total_requests
    if args.shed_budget is not None and shed_fraction > args.shed_budget:
        violations.append(
            f"shed fraction {shed_fraction:.3f} "
            f"({report.shed_total}/{report.total_requests}) exceeds the "
            f"--shed-budget {args.shed_budget}"
        )
    if (
        args.rss_budget_mb is not None
        and report.rss_peak_bytes is not None
        and report.rss_peak_bytes > args.rss_budget_mb * (1 << 20)
    ):
        violations.append(
            f"server RSS peaked at {report.rss_peak_bytes / (1 << 20):.1f} MiB, "
            f"over the --rss-budget-mb {args.rss_budget_mb}"
        )
    return violations


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.server.loadgen import run_load

    if (args.url is None) == (args.socket is None):
        raise SystemExit("give exactly one of --url or --socket")
    report = run_load(
        url=args.url,
        socket_path=args.socket,
        duration=args.duration,
        clients=args.clients,
        distinct=args.distinct,
        vertices=args.vertices,
        starts=args.starts,
        seed=args.seed,
        request_timeout=args.timeout,
        healthz_budget=args.healthz_budget,
        server_pid=args.server_pid,
    )
    violations = _soak_violations(args, report)
    if args.json:
        # Machine-only mode: one schema'd summary object is the entire
        # stdout — budgets, verdicts and the report in one parseable
        # place, exit code mirroring `ok`.
        summary = {
            "soak": 1,
            "report": report.to_dict(),
            "budgets": {
                "healthz_seconds": args.healthz_budget,
                "latency_p95_seconds": args.latency_budget,
                "shed_fraction": args.shed_budget,
                "rss_mb": args.rss_budget_mb,
            },
            "violations": violations,
            "ok": not violations,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 1 if violations else 0
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    for violation in violations:
        print(violation, file=sys.stderr)
    return 1 if violations else 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.server import ServiceClient, ServiceClientError, ServiceResponseError

    if (args.url is None) == (args.socket is None):
        raise SystemExit("give exactly one of --url or --socket")
    client = ServiceClient(url=args.url, socket_path=args.socket, timeout=args.timeout)
    try:
        if args.op in ("healthz", "metrics"):
            response = getattr(client, args.op)()
        else:
            if args.file is None:
                raise SystemExit(f"op {args.op!r} needs a hypergraph FILE")
            h = _load_hypergraph(args.file, args.format)
            settings = json.loads(args.settings) if args.settings else {}
            if args.op == "partition":
                settings.setdefault("starts", args.starts)
                settings.setdefault("seed", args.seed)
                if args.deadline is not None:
                    settings.setdefault("deadline_seconds", args.deadline)
                if args.refine is not None:
                    settings.setdefault("refine", args.refine)
                response = client.partition(h, engine=args.engine, settings=settings)
            else:
                settings.setdefault("seed", args.seed)
                if args.deadline is not None:
                    settings.setdefault("deadline_seconds", args.deadline)
                response = client.place(h, placer=args.placer, settings=settings)
    except ServiceResponseError as exc:
        print(json.dumps({"error": exc.error}, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    except ServiceClientError as exc:
        raise SystemExit(f"request failed: {exc}")
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments as ex

    quick = args.quick
    runs: dict[str, tuple] = {
        "table1": (ex.run_table1, dict(runs=3 if quick else 10)),
        "table2": (
            ex.run_table2,
            dict(instances=("Bd1", "Diff1") if quick else None, alg1_starts=10 if quick else 50),
        ),
        "difficult": (
            ex.run_difficult_sweep,
            dict(trials=2 if quick else 5, planted_cutsizes=(0, 2) if quick else (0, 1, 2, 4, 8)),
        ),
        "diameter": (ex.run_diameter_experiment, dict(trials=2 if quick else 5)),
        "boundary": (ex.run_boundary_experiment, dict(trials=2 if quick else 5)),
        "crossing": (ex.run_crossing_experiment, dict(trials=1 if quick else 3)),
        "scaling": (ex.run_scaling_experiment, dict(sizes=(50, 100) if quick else (50, 100, 200, 400))),
        "multistart": (ex.run_multistart_ablation, dict(trials=1 if quick else 3)),
        "filtering": (ex.run_filtering_ablation, dict(trials=1 if quick else 3)),
        "variants": (ex.run_completion_variant_ablation, dict(trials=1 if quick else 3)),
        "balance": (ex.run_weighted_balance_ablation, dict(trials=1 if quick else 3)),
        "refinement": (ex.run_refinement_ablation, dict(trials=1 if quick else 3)),
        "quotient": (ex.run_quotient_cut_study, dict(trials=1 if quick else 3)),
        "granularization": (ex.run_granularization_study, dict(trials=1 if quick else 3)),
        "variance": (ex.run_variance_study, dict(runs=3 if quick else 10)),
        "rent": (_run_rent, dict(trials=1 if quick else 3)),
    }
    if args.which == "all":
        names = list(runs)
    elif args.which in runs:
        names = [args.which]
    else:
        raise SystemExit(f"unknown experiment {args.which!r}; choose from {sorted(runs)} or 'all'")
    for name in names:
        fn, kwargs = runs[name]
        rows = fn(seed=args.seed, **kwargs)
        print(ex.format_table(rows, title=f"== {name} =="))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="Fast Hypergraph Partition (Kahng, DAC 1989) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="bipartition a hypergraph file")
    p.add_argument("file")
    p.add_argument("--format", choices=["hgr", "netlist", "json"], default=None)
    p.add_argument(
        "--algorithm",
        choices=ALL_ENGINES,
        default="algorithm1",
    )
    p.add_argument(
        "--refine",
        choices=REFINERS,
        default=None,
        help="apply a never-worse refinement post-pass to the bipartition "
        "(flow = exact corridor min-cut solves, see docs/FLOW.md)",
    )
    p.add_argument("--starts", type=int, default=50, help="multi-start count")
    p.add_argument("--k", type=int, default=2, help="k-way via recursive bisection (k > 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threshold",
        type=_edge_size_threshold,
        default=10,
        help="large-edge ignore threshold (>= 2)",
    )
    p.add_argument("--weighted-balance", action="store_true", help="engineer's rule")
    p.add_argument(
        "--balance-tolerance",
        type=float,
        default=0.1,
        help="prefer cuts within this weight-imbalance fraction "
        "(pass a large value like 1.0 for the paper's unconstrained behaviour)",
    )
    p.add_argument(
        "--parallel",
        type=int,
        default=None,
        help="fan independent starts across this many worker processes. "
        "Default (unset) runs sequentially on the caller's rng stream — "
        "bit-for-bit the historical behaviour; any --parallel K draws "
        "per-start child seeds up front, so the cut for a fixed seed is "
        "identical for every K but intentionally differs from the "
        "sequential stream (both streams are stable, documented contracts)",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        help="checkpoint each completed start to an fsynced JSONL journal "
        "(implies --parallel 1 unless --parallel is given), so a killed "
        "run can continue via --resume",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a journaled multi-start run: verify the journal's "
        "settings fingerprint, skip recorded starts, keep journaling to "
        "the same file",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the best cut so far is returned "
        "and the run is reported as degraded",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-start timeout for parallel workers; a start exceeding it "
        "is killed and retried with an advanced seed",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per crashed/hung/failed parallel start before "
        "sequential fallback (default 2)",
    )
    p.add_argument(
        "--on-error",
        choices=["raise", "degrade"],
        default="degrade",
        help="'degrade' (default) reports a degraded result and exits 0; "
        "'raise' exits non-zero when the run could not complete fully",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="print per-phase wall-clock timings (algorithm1 only)",
    )
    p.add_argument("--assignment", help="write vertex->side JSON here")
    p.add_argument("--parts", help="write an hMETIS-style .part file here")
    p.add_argument("--report", help="write a markdown report here")
    p.set_defaults(fn=_cmd_partition)

    g = sub.add_parser("generate", help="generate an instance file")
    g.add_argument("--name", help="suite instance name (Bd1..IC2, Diff1..3)")
    g.add_argument("--kind", choices=["netlist", "difficult", "random"], default="netlist")
    g.add_argument("--modules", type=int, default=100)
    g.add_argument("--signals", type=int, default=180)
    g.add_argument("--technology", default="std_cell")
    g.add_argument("--planted-cut", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path (.hgr/.netlist/.json)")
    g.set_defaults(fn=_cmd_generate)

    pl = sub.add_parser("place", help="min-cut placement onto a slot grid")
    pl.add_argument("file")
    pl.add_argument("--format", choices=["hgr", "netlist", "json"], default=None)
    pl.add_argument("--rows", type=int, default=0)
    pl.add_argument("--cols", type=int, default=0)
    pl.add_argument("--partitioner", choices=PARTITIONERS, default="hybrid")
    pl.add_argument(
        "--placer",
        choices=PLACERS,
        default="mincut",
        help="placement engine (--partitioner applies to mincut only)",
    )
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the best placement so far is "
        "returned and the run is reported as degraded",
    )
    pl.add_argument(
        "--on-error",
        choices=["raise", "degrade"],
        default="degrade",
        help="'degrade' (default) reports a degraded placement and exits 0; "
        "'raise' exits non-zero",
    )
    pl.add_argument("--assignment", help="write module->[row,col] JSON here")
    pl.add_argument("--report", help="write a markdown report here")
    pl.set_defaults(fn=_cmd_place)

    pf = sub.add_parser("portfolio", help="run several engines, keep the best cut")
    pf.add_argument("file")
    pf.add_argument("--format", choices=["hgr", "netlist", "json"], default=None)
    pf.add_argument("--methods", help="comma-separated engine list (default: all)")
    pf.add_argument("--starts", type=int, default=25)
    pf.add_argument("--balance-tolerance", type=float, default=0.1)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shared wall-clock budget; engines degrade cooperatively and "
        "engines not yet started at expiry are skipped",
    )
    pf.add_argument(
        "--on-error",
        choices=["raise", "degrade"],
        default="degrade",
        help="'degrade' (default) records engine failures on the scoreboard; "
        "'raise' propagates the first engine exception",
    )
    pf.add_argument(
        "--refine",
        choices=REFINERS,
        default=None,
        help="apply a never-worse refinement post-pass to the winning cut",
    )
    pf.add_argument("--parts", help="write the winning cut as a .part file")
    pf.set_defaults(fn=_cmd_portfolio)

    b = sub.add_parser(
        "bench",
        help="run the pinned regression bench suite / compare two BENCH files",
    )
    b.add_argument("--label", default="local", help="written to BENCH_<label>.json")
    b.add_argument("--out", default=None, help="output path (default ./BENCH_<label>.json)")
    b.add_argument("--engines", default=None, help="comma-separated engine list")
    b.add_argument(
        "--refine",
        choices=REFINERS,
        default=None,
        help="apply a refinement post-pass to every engine run (recorded "
        "in the payload settings and the journal fingerprint)",
    )
    b.add_argument("--starts", type=int, default=10, help="multi-start count for algorithm1/random")
    b.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per engine; the minimum wall clock is recorded",
    )
    b.add_argument("--seed", type=int, default=0)
    b.add_argument(
        "--scale",
        choices=["quick", "pinned", "large"],
        default="pinned",
        help="suite size: 'quick' for smoke runs, 'pinned' (default) for the "
        "gate, 'large' adds the 10k-module instance",
    )
    b.add_argument(
        "--quick", action="store_true", help="alias for --scale quick"
    )
    b.add_argument(
        "--json",
        action="store_true",
        help="machine-only mode: print the schema-versioned JSON payload as "
        "the entire stdout (the file is written only when --out is given)",
    )
    b.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="K",
        help="fan (instance, engine) pairs across K supervised workers; a "
        "crashed or hung pair becomes an explicit failed entry instead of "
        "killing the run (results are worker-count-invariant)",
    )
    b.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-pair timeout for --parallel workers; a pair exceeding it "
        "is killed and retried",
    )
    b.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="relaunches per crashed/hung pair before the hardened "
        "in-process fallback (default 2)",
    )
    b.add_argument(
        "--total-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole bench run; pairs that cannot "
        "start or finish inside it become failed entries",
    )
    b.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-engine-run wall-clock budget; runs that hit it are marked "
        "degraded in the payload (leave unset for gate runs)",
    )
    b.add_argument(
        "--journal",
        metavar="PATH",
        help="append each completed (instance, engine) pair to an fsynced "
        "JSONL journal as it finishes, so a killed run can continue via "
        "--resume instead of starting over",
    )
    b.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a journaled bench run: verify the journal's settings "
        "fingerprint, replay recorded pairs, run only the missing ones "
        "(journaling continues to the same file)",
    )
    b.add_argument(
        "--memory-limit",
        type=float,
        default=None,
        metavar="MB",
        help="per-worker memory budget in MiB (requires --parallel): an "
        "over-budget pair becomes an explicit failed entry instead of "
        "letting the host OOM killer take down the run",
    )
    b.add_argument(
        "--server",
        metavar="URL",
        default=None,
        help="replay every (instance, engine) pair through a running "
        "partition daemon ('http://host:port' or 'unix:/path') instead of "
        "executing locally — the cut-parity check for the service; "
        "incompatible with --parallel/--journal/--resume/--memory-limit",
    )
    b.add_argument(
        "--verify",
        action="store_true",
        help="with --server: independently re-verify every served result "
        "(recomputed cut, balance, assignment coverage) against the local "
        "hypergraph; a failed check becomes an explicit [IntegrityError] "
        "entry, and verification counts land in the payload",
    )
    b.add_argument(
        "--compare",
        nargs="+",
        metavar="BENCH_JSON",
        help="compare two BENCH_*.json files — or, given one file, rerun its "
        "recorded settings now and compare; exit 1 on cut or runtime regression",
    )
    b.add_argument(
        "--runtime-tolerance",
        type=float,
        default=0.25,
        help="allowed fractional runtime slowdown in --compare (0.25 = +25%%; "
        "use a larger value when comparing across machines)",
    )
    b.add_argument(
        "--profile",
        action="store_true",
        help="with --compare: also diff the merged obs work counters "
        "(passes, moves, gain recomputations) — catches algorithmic "
        "regressions that timing noise hides",
    )
    b.add_argument(
        "--profile-tolerance",
        type=float,
        default=0.25,
        help="allowed fractional work-counter growth for --profile "
        "(0.25 = +25%%)",
    )
    b.set_defaults(fn=_cmd_bench)

    sv = sub.add_parser(
        "serve",
        help="run the partition daemon (JSON over HTTP; TCP or AF_UNIX)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = OS-assigned; the bound address is printed)",
    )
    sv.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="serve on an AF_UNIX socket at PATH instead of TCP",
    )
    sv.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="supervised pool size; also the number of requests executed "
        "at once (default 2)",
    )
    sv.add_argument(
        "--task-timeout",
        type=_positive_number,
        default=None,
        metavar="SECONDS",
        help="kill a worker that exceeds this per-request wall clock "
        "(the request becomes a typed error response)",
    )
    sv.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="relaunches per crashed request before a typed error response "
        "(default 1; crashing work is never rerun inside the daemon)",
    )
    sv.add_argument(
        "--memory-limit",
        type=_positive_number,
        default=None,
        metavar="MB",
        help="per-worker memory budget in MiB; an over-budget request "
        "becomes a typed error response",
    )
    sv.add_argument(
        "--cache-max-bytes",
        type=int,
        default=64 << 20,
        help="result-cache byte budget (LRU eviction; default 64 MiB)",
    )
    sv.add_argument(
        "--cache-max-entries",
        type=_positive_int,
        default=4096,
        help="result-cache entry cap",
    )
    sv.add_argument(
        "--no-obs",
        action="store_true",
        help="disable observability counters (/metrics still reports the "
        "always-on cache/broker tallies)",
    )
    sv.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=64,
        help="admitted concurrent requests; the excess is shed with a "
        "typed 429 + Retry-After (default 64)",
    )
    sv.add_argument(
        "--max-queue",
        type=_positive_int,
        default=256,
        help="broker dispatch-queue bound (distinct pending requests); "
        "the excess is shed with a typed 429 (default 256)",
    )
    sv.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on SIGTERM, seconds in-flight requests may finish before "
        "stragglers are cut with a typed 503 (default 5)",
    )
    sv.add_argument(
        "--breaker-threshold",
        type=_positive_int,
        default=3,
        help="worker deaths for one request key before it is "
        "quarantined (typed 503 + cooldown; default 3)",
    )
    sv.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a quarantined request key is shed before one "
        "half-open probe is admitted (default 30)",
    )
    sv.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="spill cache entries and quarantine records to an append-only "
        "log under DIR and rehydrate them on restart — a crashed daemon "
        "comes back with its warm cache (byte-identical hits) and its "
        "quarantined keys still cooling",
    )
    sv.add_argument(
        "--no-verify",
        action="store_true",
        help="disable the boundary integrity gate (results are normally "
        "re-verified — cut, balance, identity — before being cached, "
        "persisted, or served)",
    )
    sv.add_argument(
        "--autorestart",
        action="store_true",
        help="run the daemon as a supervised child and restart it after an "
        "unexpected death (decorrelated backoff; pair with --state-dir so "
        "the restart recovers state, and with --socket or a fixed --port "
        "so the address survives)",
    )
    sv.add_argument(
        "--restart-limit",
        type=int,
        default=5,
        help="with --autorestart: consecutive fast crashes before the "
        "watchdog gives up (default 5)",
    )
    sv.add_argument(
        "--restart-window",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="with --autorestart: a child living less than this counts as "
        "a fast crash toward --restart-limit (default 5)",
    )
    sv.set_defaults(fn=_cmd_serve)

    sk = sub.add_parser(
        "soak",
        help="closed-loop load/soak run against a running daemon "
        "(asserts /healthz stays responsive while the data plane sheds)",
    )
    sk.add_argument("--url", default=None, help="daemon URL, e.g. http://127.0.0.1:8642")
    sk.add_argument("--socket", metavar="PATH", default=None, help="daemon AF_UNIX socket")
    sk.add_argument("--duration", type=float, default=10.0, metavar="SECONDS")
    sk.add_argument("--clients", type=int, default=8, help="closed-loop client threads")
    sk.add_argument(
        "--distinct",
        type=int,
        default=4,
        help="distinct request payloads cycled (cold/hot cache mix)",
    )
    sk.add_argument(
        "--vertices", type=int, default=16, help="vertices per generated hypergraph"
    )
    sk.add_argument(
        "--starts", type=int, default=5, help="partition starts per request (cost knob)"
    )
    sk.add_argument("--seed", type=int, default=0)
    sk.add_argument("--timeout", type=float, default=60.0, help="per-request timeout")
    sk.add_argument(
        "--healthz-budget",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="fail the soak if any /healthz round trip exceeds this",
    )
    sk.add_argument(
        "--server-pid",
        type=int,
        default=None,
        help="sample this PID's RSS during the run (reported as rss_peak_bytes)",
    )
    sk.add_argument(
        "--json",
        action="store_true",
        help="machine-only mode: print one summary object (report + budgets "
        "+ violations) as the entire stdout; exit 1 when any budget is "
        "violated",
    )
    sk.add_argument(
        "--latency-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail the soak if request p95 latency exceeds this",
    )
    sk.add_argument(
        "--shed-budget",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail the soak if more than this fraction of requests were "
        "shed (0.2 = 20%%)",
    )
    sk.add_argument(
        "--rss-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="with --server-pid: fail the soak if the daemon's RSS peaks "
        "above this",
    )
    sk.set_defaults(fn=_cmd_soak)

    c = sub.add_parser(
        "client", help="send one request to a running partition daemon"
    )
    c.add_argument(
        "file", nargs="?", default=None, help="hypergraph file (partition/place ops)"
    )
    c.add_argument("--format", choices=["hgr", "netlist", "json"], default=None)
    c.add_argument(
        "--op",
        choices=["partition", "place", "healthz", "metrics"],
        default="partition",
    )
    c.add_argument("--url", default=None, help="daemon URL, e.g. http://127.0.0.1:8642")
    c.add_argument("--socket", metavar="PATH", default=None, help="daemon AF_UNIX socket")
    c.add_argument(
        "--engine",
        choices=ALL_ENGINES,
        default="algorithm1",
    )
    c.add_argument(
        "--refine",
        choices=REFINERS,
        default=None,
        help="request a refinement post-pass (partition op only)",
    )
    c.add_argument("--placer", choices=PLACERS, default="mincut")
    c.add_argument("--starts", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock budget (results past it are degraded)",
    )
    c.add_argument(
        "--settings",
        metavar="JSON",
        default=None,
        help='extra settings as a JSON object, e.g. \'{"balance_tolerance": 0.2}\' '
        "(explicit flags fill in any keys it omits)",
    )
    c.add_argument("--timeout", type=float, default=120.0, help="client HTTP timeout")
    c.set_defaults(fn=_cmd_client)

    e = sub.add_parser("experiment", help="regenerate a paper table/figure")
    e.add_argument("which", help="table1|table2|difficult|diameter|boundary|crossing|scaling|multistart|filtering|variants|balance|refinement|quotient|granularization|variance|rent|all")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--quick", action="store_true", help="small parameters for smoke runs")
    e.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-partition`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
