"""The traced benchmark wraps library attributes by name; keep those names alive.

`perfbench/workloads.instrument` replaces module attributes such as
`feynman_kac.bridge_values` and `backend.quadratic_weights` with spanned
wrappers.  A refactor that drops one of them breaks only traced benchmark
runs, so this test runs the instrumentation once and undoes it.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import harness
    import workloads
    return harness, workloads


def test_instrument_wraps_live_attributes_and_restore_undoes_it(perfbench_modules):
    harness, workloads = perfbench_modules
    originals = []

    class RecordingTracer(harness.Tracer):
        def wrap(self, module, attr, name, after=None):
            originals.append((module, attr, getattr(module, attr)))
            super().wrap(module, attr, name, after)

        def replace(self, module, attr, value):
            originals.append((module, attr, getattr(module, attr)))
            super().replace(module, attr, value)

    tracer = RecordingTracer()
    try:
        workloads.instrument(tracer)
        names = {(m.__name__, a) for m, a, _ in originals}
        assert ("bridgekac.feynman_kac", "bridge_values") in names
        assert ("bridgekac.backend", "quadratic_weights") in names
        assert all(getattr(m, a) is not o for m, a, o in originals)
    finally:
        tracer.restore()
    assert originals
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
