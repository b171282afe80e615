"""The benchmark's tracer (bench/tracing.py) patches library functions by
name.  Constructing it resolves every traced name, so a rename in the
library fails here, in the tier-1 suite, and not only in a traced
benchmark run."""

import importlib
import os

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    tracing = importlib.import_module("tracing")
    borel = importlib.import_module("mouldcalc.borel")
    tracer = tracing.Tracer()
    assert len(tracer._targets) == len(tracing.TRACED) == 31
    original = borel.conv
    with tracer:
        assert borel.conv is not original
    assert borel.conv is original
