"""The three workloads: what is built before timing, what one timed pass
does, and the oracle that checks each item.

A pass always starts from freshly built library objects, because rings and
forms cache their units, radicals and kernels; each pass therefore repeats
exactly the same work.  Library calls go through module attributes
(frobring.codes.dual, ...) so that the tracer's wrappers see them.

An oracle returns None when an item's result is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from time import perf_counter

import inputs
from speed import Speedometer


class PassLog:
    """Times the library calls of one pass: items, and the steps between
    them (lattices, ideal enumerations).  Oracle checks are not timed.

    The host's speed is read between calls (speed.py), and `scaled()` gives
    each call's time at the reference speed; `finish()` takes the last
    reading, after the last call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.speed = Speedometer()
        self.calls: dict[str, list[tuple[float, float]]] = {"latencies": [], "steps": []}
        self.failures: list[str] = []

    def _timed(self, kind: str, call):
        self.speed.tick()
        start = perf_counter()
        try:
            return call()
        finally:
            self.calls[kind].append((start, perf_counter()))

    def step(self, call):
        return self._timed("steps", call)

    def item(self, label: str, call, check) -> None:
        if self.tracer is not None:
            self.tracer.item = len(self.calls["latencies"])
        try:
            result = self._timed("latencies", call)
        except Exception as exc:  # an item that raises is a failed item
            reason = f"raised {exc!r}"
        else:
            reason = None
        if self.tracer is not None:
            self.tracer.item = None
        if reason is None:
            reason = check(result)
        if reason is not None:
            self.failures.append(f"{label}: {reason}")

    def finish(self) -> None:
        self.speed.read()

    def scaled(self, kind: str) -> list[float]:
        return [self.speed.scale(start, end, end - start) for start, end in self.calls[kind]]


# -- ring_decide ---------------------------------------------------------------


class RingDecide:
    """Each item is one `frobring ring frobenius SPEC --json` call."""

    name = "ring_decide"

    def __init__(self, frobring, seed: int, workdir: str):
        self.frobring = frobring
        self.inputs = inputs.ring_decide_inputs(seed)
        self.paths = []
        for index, item in enumerate(self.inputs):
            path = os.path.join(workdir, f"ring{index:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(item["spec"], fh)
            self.paths.append(path)

    def build(self):
        return None  # every CLI call builds its own ring

    def run_pass(self, state, log: PassLog) -> None:
        for item, path in zip(self.inputs, self.paths):
            log.item(item["name"], lambda p=path: self.call(p),
                    lambda result, expect=item: check_ring(expect, result))

    def call(self, path: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.frobring.cli.main(["ring", "frobenius", path, "--json"])
        return code, out.getvalue()


def check_ring(expect: dict, result) -> str | None:
    code, stdout = result
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit code {code}, stdout is not a JSON report"
    if code != expect["exit_code"]:
        return f"exit code {code}, expected {expect['exit_code']}"
    if report.get("frobenius") is not expect["frobenius"]:
        return f"frobenius is {report.get('frobenius')}, expected {expect['frobenius']}"
    if report.get("routes_agree") is not True:
        return "functional and socle routes disagree"
    return None


# -- code_sweep ----------------------------------------------------------------


class CodeSweep:
    """Timed: left and right submodule lattices of each ambient A^m, then
    one item per (submodule, gram matrix): macwilliams_holds(code, form)."""

    name = "code_sweep"

    def __init__(self, frobring, seed: int, workdir: str):
        self.frobring = frobring
        self.inputs = inputs.code_sweep_inputs(seed, frobring)

    def build(self):
        fr = self.frobring
        state = []
        for alphabet in self.inputs:
            ring = fr.cli.build_ring(alphabet["spec"], fr.DEFAULT_CAP)
            forms = [fr.frobenius.AmbientForm(ring, alphabet["m"], gram["matrix"])
                     for gram in alphabet["grams"]]
            state.append((alphabet, ring, forms))
        return state

    def run_pass(self, state, log: PassLog) -> None:
        codes = self.frobring.codes
        for alphabet, ring, forms in state:
            m = alphabet["m"]
            size = ring.cardinality ** m
            lattices = {side: log.step(lambda s=side: codes.submodule_codes(ring, m, s))
                        for side in ("left", "right")}
            words = {side: {c.codewords for c in lattice} for side, lattice in lattices.items()}
            for side, lattice in lattices.items():
                opposite = words["right" if side == "left" else "left"]
                for code in lattice:
                    for gram, form in zip(alphabet["grams"], forms):
                        log.item(
                            f"{alphabet['name']}^{m} {side} |C|={code.cardinality}",
                            lambda c=code, f=form: codes.macwilliams_holds(c, f),
                            lambda rep, c=code, g=gram, o=opposite: check_macwilliams(
                                c, g, rep, size, o),
                        )


def check_macwilliams(code, gram: dict, report, ambient_size: int,
                      opposite_lattice: set) -> str | None:
    dual = report.dual
    if code.cardinality * dual.cardinality != ambient_size:
        return (f"|C| * |C-perp| = {code.cardinality} * {dual.cardinality}, "
                f"expected |A|^m = {ambient_size}")
    if dual.codewords not in opposite_lattice:
        return "the dual is missing from the opposite-side lattice"
    if report.gram_is_monomial is not gram["monomial"]:
        return f"gram_is_monomial is {report.gram_is_monomial}, expected {gram['monomial']}"
    if gram["monomial"] and not report.identity_holds:
        return "MacWilliams identity fails for a monomial gram matrix"
    return None


# -- skew_sweep ----------------------------------------------------------------


class SkewSweep:
    """Timed: as_finite_ring() and the left ideals of each quotient, then one
    item per left ideal: skew_cyclic_dual_report(V, quotient, eps)."""

    name = "skew_sweep"

    def __init__(self, frobring, seed: int, workdir: str):
        self.frobring = frobring
        self.inputs = inputs.skew_sweep_inputs(seed, frobring)

    def build(self):
        fr = self.frobring
        state = []
        for item in self.inputs:
            quotient = fr.cli.build_quotient(item["spec"], fr.DEFAULT_CAP)
            eps = fr.ZnLinearForm(quotient.base.shape, item["base_weights"])
            state.append((item, quotient, eps))
        return state

    def run_pass(self, state, log: PassLog) -> None:
        codes = self.frobring.codes
        for item, quotient, eps in state:
            log.step(quotient.as_finite_ring)
            for ideal in log.step(lambda q=quotient: codes.quotient_left_ideal_codes(q)):
                log.item(
                    f"{item['name']} |V|={len(ideal)}",
                    lambda v=ideal, q=quotient, e=eps: codes.skew_cyclic_dual_report(v, q, e),
                    lambda rep, expect=item["expect"]: check_skew(expect, rep),
                )


def check_skew(expect: dict, report) -> str | None:
    for flag, wanted in expect.items():
        if getattr(report, flag) is not wanted:
            return f"{flag} is {getattr(report, flag)}, expected {wanted}"
    return None


WORKLOADS = {w.name: w for w in (RingDecide, CodeSweep, SkewSweep)}
