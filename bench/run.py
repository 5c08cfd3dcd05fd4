"""frobring benchmark: one seeded workload, timed end to end, every verdict
checked against an oracle.

    python3 bench/run.py --workload ring_decide --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; frobring is imported from the
checkout's src/.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see bench/BENCHMARK.md).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Load model: a closed loop in one worker process and one thread; each item
starts when the previous one returns.  Each worker is a fresh process, so
its peak resident memory belongs to this run alone.  Times are scaled to a
reference host speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import RATIOS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# Set-up only workers, half before and half after the measuring worker, so
# that the set-up median is not taken within one second of host load.
SETUP_WORKERS = 10
TIME_LIMIT_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile leaves this many items above it

E2E_UNITS = {"setup_s": "s", "run_s": "s", "item_ms_p50": "ms", "item_ms_tail": "ms",
             "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in time") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def typical(passes: list[dict], key: str) -> list[float]:
    """Each timed call's median time over the passes (every pass makes the
    same calls in the same order)."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def run_time(passes: list[dict]) -> float:
    return sum(typical(passes, "latencies")) + sum(typical(passes, "steps"))


def end_to_end(setups: list[float], result: dict) -> tuple[dict, list[str]]:
    """Metrics from untraced passes, with one explanatory line per metric."""
    passes = result["passes"]
    items = typical(passes, "latencies")
    per_pass = len(items)
    attempted = per_pass * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    percentile = 100.0 * (per_pass - TAIL_BEYOND) / per_pass
    values = {
        "setup_s": statistics.median(setups),
        "run_s": run_time(passes),
        "item_ms_p50": 1e3 * statistics.median(items),
        "item_ms_tail": 1e3 * sorted(items)[per_pass - TAIL_BEYOND - 1],
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    walls = [p["wall_s"] for p in passes]
    readings = [1e3 * r for p in passes for r in p["speed_readings"]]
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers",
        "run_s": (f"{per_pass} items and {len(passes[0]['steps'])} other calls, "
                  f"each at its median of {len(passes)} passes "
                  f"(pass wall times {min(walls):.2f} to {max(walls):.2f} s, "
                  f"unscaled; reference loop {min(readings):.2f} to {max(readings):.2f} ms)"),
        "item_ms_p50": f"median of {per_pass} items, each at its median of {len(passes)}",
        "item_ms_tail": (f"p{percentile:.1f} of the same {per_pass} items "
                         f"({TAIL_BEYOND} beyond it; {attempted} item runs)"),
        "peak_rss_mib": "measuring worker",
    }
    lines = [f"  {name:<13} {values[name]:12.4f} {E2E_UNITS[name]:<5} {notes[name]}"
             for name in E2E_UNITS]
    lines.append(f"  {'failed_frac':<13} {failed / attempted:12.4f} {'ratio':<5} "
                 f"{failed} of {attempted} item runs")
    metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str], list[str]]:
    """Metrics of the traced passes: medians for times, exact work counts.

    Counts must repeat exactly in every traced pass, which does the same
    work; a mismatch is reported as a problem.
    """
    traced = [p for p in result["passes"] if p["layers"] is not None]
    plain = [p for p in result["passes"] if p["layers"] is None]
    first = traced[0]["layers"]
    problems = []
    values = {}
    for name in first:
        if name.endswith("_s"):
            values[name] = (statistics.median(p["layers"][name] for p in traced), "s")
        else:
            seen = {p["layers"][name] for p in traced}
            if len(seen) > 1:
                problems.append(f"work count {name} differs between traced passes: {seen}")
            values[name] = (first[name], "ratio" if name in RATIOS else "count")
    overhead = run_time(traced) - run_time(plain)
    values["trace.overhead_s"] = (overhead, "s")
    lines = [f"  {name:<28} {value:14.6f} {unit}" for name, (value, unit) in values.items()]
    lines.insert(0, f"  {len(traced)} traced and {len(plain)} untraced passes; "
                    f"spans in {result['trace_file']}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frobring" / "__init__.py").is_file():
        print(f"error: no frobring package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_runs = 0 if args.trace else SETUP_WORKERS // 2
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(setup_runs)]
        result = run_worker(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], deadline)
        setups += [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(setup_runs)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = []
    if args.trace:
        metrics, lines, problems = per_layer(result)
    else:
        metrics, lines = end_to_end(setups + [result["setup_s"]], result)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{attempted} items, {len(failures)} failed")
    print("\n".join(lines))
    for line in (failures + problems)[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
