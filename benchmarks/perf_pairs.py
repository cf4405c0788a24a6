"""Record alternating parent/change pairs of the repository benchmark.

    python benchmarks/perf_pairs.py --parent PARENT_CHECKOUT \\
        --change CHANGE_CHECKOUT --workload alg1-10k --seeds 41-50 \\
        --seconds 15 --trace 0 --label claim --out BENCH_prN.json

Each pair runs ``perfbench/run.py`` once in each checkout on the same
seed: the parent first on even pairs, the change first on odd ones, so a
drift of the host's speed lands on both sides alike.  Every run's result
goes into the ``perfbench`` section of ``--out`` (added to the file when
it exists, so it can sit next to a ``repro-partition bench`` payload):
label, workload, seed, side, the metrics (reference seconds, as
perfbench reports them), the raw wall seconds and the speed factor
perfbench printed, and the raw seconds each engine took per pass (from
which the Table 2 ratio of Algorithm I, SA and KL follows).  ``perfbench.summary`` holds, per label, workload,
trace mode and metric, each side's median and interquartile range and
the number of pairs in which the change came out lower.

A run whose checks fail is recorded with its exit code and stops the
recording.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SPEED = re.compile(r"^speed factor (\S+) over \d+ samples; raw (.*)$")
ENGINES = re.compile(r"^engine seconds per pass: (.*)$")


def parse_pairs(text: str) -> dict[str, float]:
    """``"a=1.5 b=2"`` to ``{"a": 1.5, "b": 2.0}``."""
    return {name: float(value) for name, value in (item.split("=") for item in text.split())}


def parse_seeds(text: str) -> list[int]:
    """``"41-50"`` or ``"5,7,9"`` to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its parsed output."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    record = {
        "exit_code": proc.returncode,
        "correct": result.get("correct", False),
        "failed": result.get("failed"),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
    }
    for line in lines:
        match = SPEED.match(line)
        if match:
            record["speed_factor"] = float(match.group(1))
            record["raw_s"] = parse_pairs(match.group(2))
        match = ENGINES.match(line)
        if match:
            record["engine_s"] = parse_pairs(match.group(1))
    if proc.returncode != 0:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict]) -> list[dict]:
    """Per (label, workload, trace, metric): medians, IQRs and pairs won by the change."""
    groups: dict[tuple, dict] = {}
    for run in runs:
        key = (run["label"], run["workload"], run["trace"])
        groups.setdefault(key, {}).setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    out = []
    for (label, workload, trace), by_seed in sorted(groups.items()):
        pairs = [p for p in by_seed.values() if "parent" in p and "change" in p]
        names = sorted({name for p in pairs for name in p["parent"]})
        for name in names:
            both = [(p["parent"][name], p["change"][name]) for p in pairs
                    if name in p["parent"] and name in p["change"]]
            parent = [a for a, _ in both]
            change = [b for _, b in both]
            pq, cq = quartiles(parent), quartiles(change)
            out.append({
                "label": label,
                "workload": workload,
                "trace": trace,
                "metric": name,
                "pairs": len(both),
                "parent_median": pq[1],
                "parent_iqr": pq[2] - pq[0],
                "change_median": cq[1],
                "change_iqr": cq[2] - cq[0],
                "change_lower": sum(b < a for a, b in both),
                "change_equal": sum(b == a for a, b in both),
            })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help='e.g. "41-50" or "5,7"')
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True, help="names this set of pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    payload = json.loads(args.out.read_text()) if args.out.exists() else {}
    section = payload.setdefault("perfbench", {"runs": []})
    status = 0
    for pair, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            record = run_once(checkout, args.workload, seed, args.seconds, args.trace)
            record.update(label=args.label, workload=args.workload, seed=seed, side=side,
                          trace=args.trace, order=order.index(side))
            section["runs"].append(record)
            print(json.dumps({k: record[k] for k in ("workload", "seed", "side", "metrics")}),
                  flush=True)
            if record["exit_code"] != 0 or not record["correct"]:
                status = 1
        if status:
            break
    section["summary"] = summarize(section["runs"])
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
