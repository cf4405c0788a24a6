"""The repository's benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {alg1-10k,engines-1k,svc-mix} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout: the program is imported from ``src/``.  Every input
is generated from ``--seed``.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` splits a workload's time
across the program's layers (see ``perfbench/README.md``).  Every result
is checked; the last stdout line is ``{"correct", "attempted", "failed",
"metrics"}`` and the exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: name -> unit of the end-to-end metrics every workload reports.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "partition_s": "s",
    "op_geomean_ms": "ms",
    "cut_total": "count",
    "heavy_side_frac": "frac",
}

WORKLOADS = ("alg1-10k", "engines-1k", "svc-mix")


def report(line: str) -> None:
    print(line, flush=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object."""
    from perfbench import calibrate, layers, library, service

    calibration = calibrate.calibration()
    report("calibration " + " ".join(f"{k}={v:.6f}" for k, v in calibration.items()))
    if workload in library.WORKLOADS:
        checker = library.Checker()
        measure = library.per_layer if trace else library.end_to_end
        metrics = measure(library.WORKLOADS[workload], seed, seconds, checker, report)
        attempted, failures = checker.attempted, checker.failures
    else:
        with service.Run(service.SVC_MIX, seed, report) as svc:
            measure = service.per_layer if trace else service.end_to_end
            metrics = measure(service.SVC_MIX, seed, seconds, svc)
        attempted, failures = svc.attempted, svc.failures
    if trace:
        metrics.update(calibration)
    units = layers.PER_LAYER if trace else END_TO_END
    for failure in failures[:20]:
        report(f"FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
