"""Self-tests of the benchmark itself (not of frobring).

    python3 -m pytest bench -q

The last test runs the worker twice per workload and takes a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import inputs
import speed
import workloads
from run import TIME_LIMIT_S, run_worker
from speed import Speedometer
from tracer import Tracer, frobring_modules, leftover_wrappers
from worker import import_frobring

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
frobring = import_frobring()


def generate(workload: str, seed: int) -> str:
    if workload == "ring_decide":
        data = inputs.ring_decide_inputs(seed)
    elif workload == "code_sweep":
        data = inputs.code_sweep_inputs(seed, frobring)
    else:
        data = inputs.skew_sweep_inputs(seed, frobring)
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    assert generate(workload, 7) == generate(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_change_the_inputs(workload):
    assert len({generate(workload, seed) for seed in range(1, 6)}) > 1


def test_ring_slots_hold_one_size_each():
    for slot in inputs.RING_SLOTS:
        sizes = {frobring.cli.build_ring(spec, frobring.DEFAULT_CAP).cardinality
                 for _, spec, _ in slot}
        assert len(sizes) == 1, slot


def test_ring_oracle_rejects_planted_verdict(tmp_path):
    decide = workloads.RingDecide(frobring, 1, str(tmp_path))
    path = tmp_path / "m2f2.json"
    path.write_text(json.dumps(inputs.matrix(2)))
    result = decide.call(str(path))
    right = {"frobenius": True, "exit_code": 0}
    planted = {"frobenius": False, "exit_code": 1}
    assert workloads.check_ring(right, result) is None
    assert workloads.check_ring(planted, result) is not None


def test_code_oracle_rejects_planted_verdict():
    ring = frobring.ring_zn(4)
    codes = frobring.codes
    form = frobring.AmbientForm(ring, 2, [[[1], [0]], [[0], [1]]])
    lattices = {side: codes.submodule_codes(ring, 2, side) for side in ("left", "right")}
    opposite = {c.codewords for c in lattices["right"]}
    code = lattices["left"][3]
    report = codes.macwilliams_holds(code, form)
    gram = {"monomial": True}

    def check(rep, g=gram):
        return workloads.check_macwilliams(code, g, rep, 16, opposite)

    assert check(report) is None
    assert check(report, {"monomial": False}) is not None
    assert check(dataclasses.replace(report, identity_holds=False)) is not None
    assert check(dataclasses.replace(report, dual=code)) is not None


def test_skew_oracle_rejects_planted_verdict():
    quotient = frobring.cli.build_quotient(inputs.GF4_SKEW_16, frobring.DEFAULT_CAP)
    eps = frobring.ZnLinearForm(quotient.base.shape, (0, 1))
    ideal = frobring.codes.quotient_left_ideal_codes(quotient)[1]
    report = frobring.codes.skew_cyclic_dual_report(ideal, quotient, eps)
    expect = inputs.skew_sweep_inputs(1, frobring)[0]["expect"]
    assert workloads.check_skew(expect, report) is None
    for flag in expect:
        planted = dataclasses.replace(report, **{flag: False})
        assert workloads.check_skew(expect, planted) is not None


def test_tracer_restores_every_original(tmp_path):
    before = {mod.__name__: dict(vars(mod)) for mod in frobring_modules()}
    methods = {(cls, name): member for cls in _classes() for name, member in vars(cls).items()}
    tracer = Tracer(frobring)
    tracer.install()
    try:
        assert leftover_wrappers(frobring)
        decide = workloads.RingDecide(frobring, 1, str(tmp_path))
        decide.call(decide.paths[0])
    finally:
        tracer.restore()
    assert leftover_wrappers(frobring) == []
    for mod in frobring_modules():
        assert all(vars(mod)[name] is value for name, value in before[mod.__name__].items())
    assert all(vars(cls)[name] is member for (cls, name), member in methods.items())
    assert tracer.counts["finring.mul"] > 0 and tracer.spans

    # Once restored, library calls run no wrapper and leave the counts alone.
    counts = dict(tracer.counts)
    decide.call(decide.paths[0])
    assert dict(tracer.counts) == counts


def _classes():
    return [value for mod in frobring_modules() for value in vars(mod).values()
            if isinstance(value, type) and value.__module__ == mod.__name__]


def test_speed_scaling_uses_the_readings_around_a_call():
    meter = Speedometer()
    meter.at, meter.seconds = [1.0, 2.0, 3.0], [0.002, 0.004, 0.006]
    # Between the readings of 2 and 4 ms the host ran at 2/3 of the reference
    # speed; between those of 4 and 6 ms, at 2/5.
    assert meter.scale(1.1, 1.9, 0.8) == pytest.approx(0.8 * 2 / 3)
    assert meter.scale(2.5, 2.9, 0.4) == pytest.approx(0.4 * 2 / 5)
    assert speed.reading() > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "skew_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def traced_counts(workload: str) -> list[dict]:
    args = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]
    passes = run_worker(args, perf_counter() + TIME_LIMIT_S)["passes"]
    return [{name: value for name, value in p["layers"].items() if not name.endswith("_s")}
            for p in passes if p["layers"] is not None]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_across_traced_runs(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    assert first[0] == second[0]
    assert all(counts == first[0] for counts in first + second)
    assert sum(first[0].values()) > 0
