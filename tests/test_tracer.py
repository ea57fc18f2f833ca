import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # the bench tracer wraps these by name; a rename in frobkit would only
    # show up as a failing `bench/run.py --trace 1`
    tracer = _load_tracer()
    names = tracer.SPANS + [(m, q) for m, q, _ in tracer.COUNTS]
    missing = []
    for module, qualname in names:
        owner = importlib.import_module("frobkit." + module)
        *cls, attr = qualname.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        # a method is replaced on its class, so it must be defined there
        if owner is None or attr not in vars(owner):
            missing.append("%s.%s" % (module, qualname))
    assert not missing
