"""One benchmark worker process: set up a workload, run timed passes until
the time is up, and print the raw measurements as one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Set-up runs from the worker's first line to the first timed item: it
imports frobring from the checkout's src/, generates the seeded inputs and
builds the objects of the first pass.  It is scaled to the reference speed
by readings of the host's speed taken just before and just after it
(speed.py), and so is every timed call.  Later passes rebuild their objects
outside the timed phase.  With --trace 1 the passes alternate untraced and
traced, and a traced pass has the tracer installed for its build as well.
"""

from time import perf_counter

import speed

SPEED_BEFORE = speed.reading()
STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, PassLog  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"
# Every run makes at least this many passes, however short --seconds is:
# each timed call is reported at its median over the passes (see run.py).
MIN_PASSES = 3


def import_frobring():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import frobring
    import frobring.cli  # noqa: F401  (loads every layer the tracer wraps)
    import frobring.codes  # noqa: F401

    if src not in Path(frobring.__file__).resolve().parents:
        raise ImportError(f"frobring was imported from {frobring.__file__}, not from {src}")
    return frobring


def run(workload_name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    frobring = import_frobring()
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        workload = WORKLOADS[workload_name](frobring, seed, tmp)
        state = workload.build()
        setup_wall_s = perf_counter() - STARTED
        speed_after = speed.reading()
        setup_s = setup_wall_s * speed.REFERENCE_S / ((SPEED_BEFORE + speed_after) / 2)
        if setup_only:
            return {"setup_s": setup_s}

        passes, tracers = [], []
        begin = perf_counter()
        last_pass_s = 0.0
        # Another pass starts while it is expected to end within --seconds.
        # A traced run ends on a traced pass, so it has as many of each kind.
        while (len(passes) < MIN_PASSES
               or perf_counter() - begin + last_pass_s <= seconds
               or (trace and len(passes) % 2)):
            pass_start = perf_counter()
            tracer = Tracer(frobring) if trace and len(passes) % 2 == 1 else None
            if tracer is not None:
                tracer.install()
            try:
                if passes:
                    state = workload.build()
                log = PassLog(tracer)
                start = perf_counter()
                workload.run_pass(state, log)
                wall_s = perf_counter() - start
                log.finish()
            finally:
                if tracer is not None:
                    tracer.restore()
            passes.append({
                "wall_s": wall_s,
                "latencies": log.scaled("latencies"),
                "steps": log.scaled("steps"),
                "speed_readings": log.speed.seconds,
                "failures": log.failures,
                "layers": tracer.metrics() if tracer is not None else None,
            })
            if tracer is not None:
                tracers.append(tracer)
            state = None
            last_pass_s = perf_counter() - pass_start

    trace_file = None
    if tracers:
        trace_file = WORKDIR / f"trace-{workload_name}-seed{seed}.jsonl"
        with open(trace_file, "w", encoding="utf-8") as fh:
            for number, tracer in enumerate(tracers):
                tracer.write_spans(fh, traced_pass=number)
    return {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace_file": str(trace_file) if trace_file else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
