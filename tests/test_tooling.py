"""The benchmark tracer wraps program functions by module attribute; every
attribute it names must exist, or `bench/run.py --trace 1` breaks. Likewise
every public name the package exports must resolve."""

import importlib.util
from pathlib import Path

import rabsde

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in targets if attr not in owner.__dict__]
    assert not missing, missing


def test_public_names_resolve():
    assert len(set(rabsde.__all__)) == len(rabsde.__all__)
    missing = [name for name in rabsde.__all__ if not hasattr(rabsde, name)]
    assert not missing, missing
