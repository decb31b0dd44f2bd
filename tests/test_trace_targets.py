"""The benchmark's per-layer tracer (perfbench/layertrace.py) finds every name
it wraps or reads in the package.

A traced benchmark run whose target was renamed still exits 0, but the
layer's metrics read null.  This test installs the tracer on the package
and restores it, so a rename fails here first.
"""

import importlib.util
from pathlib import Path

import shapovalov.cli  # noqa: F401  (the tracer wraps cli.run)
from shapovalov import exact_algebra, pbw

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    poly = exact_algebra.Poly
    return [vars(poly).get(name) for name in ("__mul__", "__rmul__", "__add__", "shifted", "subs")] + [
        getattr(pbw, "_nf_atoms", None)]


def test_tracer_finds_every_target():
    before = bindings()
    tracer = load_layertrace().Tracer()
    try:
        tracer.install()  # a span or counter left with no target raises LookupError
        assert tracer.missing == []
        assert type(tracer.cache_entries()) is int
        assert bindings() != before
    finally:
        tracer.restore()
    assert bindings() == before
