"""Outside-in tracer: wraps public frobring functions and methods from the
benchmark's side, and restores the originals afterwards.

Coarse calls become spans (name, start, end, parent span, item id) kept in
memory.  Hot calls (FiniteRing.mul, ModuleShape.add, AmbientForm.pairing)
only bump a counter.  SkewQuotient.mul sits in between: it is timed and
counted like a span, and its time is taken out of its parent's self time,
but its spans are not stored, because one pass makes hundreds of thousands
of them.

A metric's time is the sum of the self times of its spans, where a span's
self time is its duration minus the time its child spans cover.  Calls in
one thread nest properly, so the covered time is the sum of the children's
durations.

Wrappers replace the original object under every name bound to it in a
frobring module, because modules import each other's functions directly
(frobring.cli.find_frobenius_functional, frobring.codes.left_ideals, ...).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, metric key).  A key names the layer
# before the dot; the metric reported is "<key>_s".
SPANS = [
    ("cli", "main", "cli.self"),
    ("finring", "ring_zn", "finring.construct"),
    ("finring", "ring_from_table", "finring.construct"),
    ("finring", "ring_product", "finring.construct"),
    ("finring", "ring_matrix", "finring.construct"),
    ("finring", "ring_group_algebra", "finring.construct"),
    ("finring", "table_validation_report", "finring.construct"),
    ("finring", "FiniteRing.units", "finring.units"),
    ("finring", "FiniteRing.jacobson_radical", "finring.radical"),
    ("finring", "FiniteRing.socle", "finring.socle"),
    ("finring", "is_frobenius_socle", "finring.socle"),
    ("finring", "left_ideals", "finring.ideals"),
    ("finring", "right_ideals", "finring.ideals"),
    ("frobenius", "find_frobenius_functional", "frobenius.search"),
    ("frobenius", "AmbientForm.left_kernel", "frobenius.kernel"),
    ("frobenius", "AmbientForm.right_kernel", "frobenius.kernel"),
    ("skewpoly", "SkewQuotient.as_finite_ring", "skewpoly.build"),
    ("codes", "submodule_codes", "codes.lattice"),
    ("codes", "dual", "codes.dual"),
    ("codes", "macwilliams_holds", "codes.macwilliams"),
    ("codes", "quotient_left_ideal_codes", "codes.ideal_codes"),
    ("codes", "skew_cyclic_dual_report", "codes.skew_report"),
    ("codes", "is_skew_cyclic", "codes.skew_cyclic"),
]
TIMED_COUNTS = [("skewpoly", "SkewQuotient.mul", "skewpoly.qmul")]
COUNTS = [
    ("finring", "FiniteRing.mul", "finring.mul"),
    ("znmod", "ModuleShape.add", "znmod.add"),
    ("frobenius", "AmbientForm.pairing", "frobenius.pairing"),
]
# Forms drawn from enumerate_forms count as tried only inside the search.
FORMS = ("znmod", "enumerate_forms")
LAYERS = ("cli", "finring", "frobenius", "znmod", "skewpoly", "codes")
SEARCH = "frobenius.search"
LATTICE = "codes.lattice"
RATIOS = ("frobenius.search_yield", "codes.adds_per_submodule")  # other counts are "count"


def _resolve(frobring, module: str, path: str):
    """(owner, attribute, original) for a module function or a method."""
    owner = getattr(frobring, module)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(owner, cls_name)
        return cls, attr, cls.__dict__[attr]
    return owner, path, getattr(owner, path)


def frobring_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "frobring" or name.startswith("frobring.")]


class Tracer:
    """Install with install(), remove with restore(); one pass at a time."""

    def __init__(self, frobring):
        self.frobring = frobring
        self.item = None
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.found = 0
        self._stack: list[list] = []  # [key, span id, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, key: str, layer: str, store: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            frame = [key, tracer._next_id, perf_counter(), 0.0]
            tracer._next_id += 1
            stack.append(frame)
            adds_before = tracer.counts["znmod.add"]
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.raised[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.self_s[key] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if store:
                    tracer.spans.append((frame[1], fn.__qualname__, frame[2], end,
                                         parent, tracer.item))
                else:
                    tracer.counts[key] += 1
            if key == SEARCH and result is not None:
                tracer.found += 1
            elif key == LATTICE:
                tracer.counts["codes.submodules"] += len(result)
                tracer.counts["codes.lattice_adds"] += tracer.counts["znmod.add"] - adds_before
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _count(self, fn, key: str, layer: str):
        counts, raised = self.counts, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[layer] += 1
                raise

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _forms(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for form in fn(*args, **kwargs):
                if tracer._stack and tracer._stack[-1][0] == SEARCH:
                    tracer.counts["frobenius.forms_tried"] += 1
                yield form

        wrapper.__bench_wrapper__ = True
        return wrapper

    # -- install and restore -----------------------------------------------

    def _targets(self):
        for module, path, key in SPANS:
            yield module, path, lambda fn, k=key, m=module: self._span(fn, k, m, True)
        for module, path, key in TIMED_COUNTS:
            yield module, path, lambda fn, k=key, m=module: self._span(fn, k, m, False)
        for module, path, key in COUNTS:
            yield module, path, lambda fn, k=key, m=module: self._count(fn, k, m)
        yield FORMS[0], FORMS[1], self._forms

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = frobring_modules()
        for module, path, make in self._targets():
            owner, attr, original = _resolve(self.frobring, module, path)
            wrapper = make(original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for what ran while installed."""
        out: dict[str, float] = {}
        for key in sorted({k for _, _, k in SPANS + TIMED_COUNTS}):
            out[f"{key}_s"] = self.self_s.get(key, 0.0)
        for _, _, key in COUNTS + TIMED_COUNTS:
            out[f"{key}_calls"] = self.counts.get(key, 0)
        tried = self.counts.get("frobenius.forms_tried", 0)
        out["frobenius.forms_tried"] = tried
        out["frobenius.search_yield"] = self.found / tried if tried else 0.0
        submodules = self.counts.get("codes.submodules", 0)
        out["codes.submodules"] = submodules
        out["codes.adds_per_submodule"] = (
            self.counts.get("codes.lattice_adds", 0) / submodules if submodules else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.raised"] = self.raised.get(layer, 0)
        return out

    def write_spans(self, fh, **tags) -> None:
        """Write the stored spans to an open file as JSON lines."""
        fields = ("id", "name", "start", "end", "parent", "item")
        for span in self.spans:
            fh.write(json.dumps({**tags, **dict(zip(fields, span))}) + "\n")


def leftover_wrappers(frobring) -> list[str]:
    """Names under which a tracer wrapper is still installed."""
    found = []
    for mod in frobring_modules():
        for name, value in vars(mod).items():
            if getattr(value, "__bench_wrapper__", False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, "__bench_wrapper__", False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
