"""Show that the benchmark is steady: run each workload once per seed and
report, per end-to-end metric, the distance between the first and third
quartiles of the runs as a share of their median.

    python3 bench/steadiness.py --seeds 10 [--workload NAME ...] [--out FILE]

Reads run_seconds and the bounds from BENCHMARK.json.  A spread is steady
when it stays below a third of the metric's bound (setup_s has no spread
requirement, only its median is compared between sets of runs).  The
record written by --out also holds the measuring environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "run_seconds": bench["run_seconds"],
        },
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = perf_counter()
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            *lines, last = done.stdout.splitlines()
            result = json.loads(last)
            runs.append({"seed": seed, "wall_s": perf_counter() - start,
                         "correct": result["correct"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "lines": lines})
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            s = spread(values)
            ok = name == "setup_s" or s < bound / 3
            steady = steady and ok
            summary[name] = {"median": statistics.median(values), "spread": s,
                             "bound": bound, "below_third_of_bound": ok}
            print(f"  {name:<13} median {summary[name]['median']:.4f} spread {s:.4f} "
                  f"bound {bound} {'ok' if ok else 'TOO WIDE'}", flush=True)
        walls = [r["wall_s"] for r in runs]
        record["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "wall_s": {"min": min(walls), "max": max(walls), "spread": spread(walls)},
            "all_correct": all(r["correct"] for r in runs),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
