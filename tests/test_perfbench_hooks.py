"""The benchmark reads library names and constants; keep them alive.

`perfbench/workloads.instrument` replaces module attributes such as
`feynman_kac.bridge_values` and `backend.quadratic_weights` with spanned
wrappers, and `perfbench/run.environment` records `backend.HAVE_COMPILED`
and `backend.DEFAULT_BACKEND`, which `compare.py` holds fixed against the
baseline.  A refactor that drops or changes one of them breaks only
benchmark runs, so these tests exercise both hooks.
"""

import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import harness
    import workloads
    return harness, workloads


def test_recorded_environment_matches_the_baseline(perfbench_modules):
    import run
    env = run.environment(1)
    with open(os.path.join(PERFBENCH, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)["env"]
    assert env["have_compiled"] == baseline["have_compiled"]
    assert env["default_backend"] == baseline["default_backend"]


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


def test_traced_truncation_study_decomposes_each_distinct_level_once(perfbench_modules):
    # the grid oracle solves the study's distinct level Hamiltonians in one batched
    # call, inside the traced truncation_study span: the benchmark's
    # oracles.decompose and oracles.semigroup_matrix_element spans stay empty
    harness, workloads = perfbench_modules
    from bridgekac import convergence, feynman_kac, oracles, potentials, stochastic

    phi = feynman_kac.bump(0.0, 1.0)
    tracer = harness.Tracer()
    workloads.instrument(tracer)
    batches = []
    tracer.wrap(oracles, "_uniformized", "oracles.uniformized",
                lambda args, values: batches.append(len(args[0])))
    try:
        tracer.op = 0
        tracer.active = True
        # on [-8, 8] the potential stays above -32, so levels 64 and 128 coincide
        convergence.truncation_study(
            potentials.inverted_quadratic(0.5), phi, phi, 1.0, [1.0, 2.0, 64.0, 128.0],
            feynman_kac.McConfig(n_samples=200, n_steps=8), stochastic.RngSeed(1),
            quadrature=feynman_kac.QuadratureConfig(4),
            oracle=oracles.OracleConfig(domain_half_width=8.0, n_points=300))
    finally:
        tracer.active = False
        tracer.restore()
    names = [span.name for span in tracer.spans]
    assert batches == [3]
    assert names.count("oracles.uniformized") == 1
    assert names.count("oracles.decompose") == 0
    assert names.count("oracles.semigroup_matrix_element") == 0


def test_traced_estimate_spans_every_row_block_of_normals(perfbench_modules):
    # stochastic.normals_s times the draws of the sums path through the generator
    # proxy: one span per row block of a harmonic estimate, whose 5000 paths are
    # 2500 drawn paths and their mirrors
    harness, workloads = perfbench_modules
    from bridgekac import feynman_kac, potentials, stochastic

    n_samples, n_steps = 5000, 128
    tracer = harness.Tracer()
    workloads.instrument(tracer)
    try:
        tracer.op = 0
        tracer.active = True
        feynman_kac.estimate_Q(0.3, -0.2, potentials.harmonic(), 1.0, n_samples, n_steps,
                               stochastic.RngSeed(1))
    finally:
        tracer.active = False
        tracer.restore()
    drawn = -(-n_samples // 2)
    blocks = -(-drawn // feynman_kac._block_rows(drawn, n_steps - 1, 1))
    assert blocks > 1
    names = [span.name for span in tracer.spans]
    assert names.count("stochastic.normals") == blocks
    assert names.count("feynman_kac.estimate_Q") == 1
