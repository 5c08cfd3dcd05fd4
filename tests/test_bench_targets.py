"""Every function the benchmark's tracer wraps must exist in the package.

bench/ is outside the tier-1 test paths, so without this check a rename or
removal of a wrapped function would only surface as a failed traced run.
The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    targets = [(mod, path) for mod, path, _ in tracer.SPANS + tracer.TIMED_COUNTS + tracer.COUNTS]
    targets.append(tracer.FORMS)
    for module_name, path in targets:
        module = importlib.import_module(f"frobring.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            assert inspect.isclass(cls), path
            assert inspect.isfunction(cls.__dict__.get(attr)), f"{module_name}.{path}"
        else:
            assert inspect.isfunction(getattr(module, path, None)), f"{module_name}.{path}"
