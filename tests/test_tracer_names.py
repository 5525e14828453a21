"""The benchmark's tracer wraps lmkit names from outside; each must exist."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_its_owners_own_attribute():
    # Tracer.install reads owner.__dict__[attr]: a name that was deleted, or
    # that a class only inherits, fails the traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.WRAPPED
               if attr not in owner.__dict__]
    assert missing == []
