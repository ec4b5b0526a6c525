"""Tests of the benchmark's statistics and span bookkeeping.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from compare import env_mismatch  # noqa: E402
from harness import (  # noqa: E402
    Span,
    Tracer,
    cost_to_rel_error,
    layer_metrics,
    repeat_fraction,
    self_times,
    squared_error_ratio,
    tail_percentile,
)


def test_tail_is_eleventh_largest_with_its_percentile_and_count():
    samples = list(range(1, 41))
    value, pct, n = tail_percentile(reversed(samples))
    assert value == 30
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(75.0)
    assert n == 40


def test_tail_needs_more_than_ten_samples():
    assert tail_percentile(range(11)) == (0, pytest.approx(100.0 / 11), 11)
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_cost_scales_wall_by_squared_relative_error():
    # relative error 2e-3 needs 4x the samples, hence 4x the wall, to reach 1e-3
    assert squared_error_ratio(2.0, 4e-3) == pytest.approx(4.0)
    assert squared_error_ratio(-2.0, 1e-3) == pytest.approx(0.25)
    assert squared_error_ratio(1.0, 1e-2, rel=1e-2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        squared_error_ratio(0.0, 1.0)
    # median wall 0.5 s, mean ratio (4 + 0.25 + 1.75) / 3 = 2
    assert cost_to_rel_error([0.4, 0.5, 3.0], [4.0, 0.25, 1.75]) == pytest.approx(1.0)


def test_repeat_fraction_of_a_known_key_sequence():
    # six levels re-opening the same two streams: 10 of 12 opens repeat
    keys = [(7, 0, (0,)), (7, 0, (1,))] * 6
    assert repeat_fraction(keys) == pytest.approx(10 / 12)
    assert repeat_fraction([(1,), (2,), (3,)]) == 0.0
    assert repeat_fraction([]) == 0.0


def _span(i, start, end, parent=None, thread=0):
    return Span(i, f"s{i}", start, end, parent, thread, 0)


def test_self_time_of_nested_spans():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 4.0, 8.0, 0),
             _span(3, 5.0, 6.0, 2)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_concurrent_children_once():
    # two worker threads overlap on [2, 5]; the children cover [1, 7]
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, 0, thread=1),
             _span(2, 2.0, 7.0, 0, thread=2)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_worker_spans_take_the_blocked_thread_as_parent():
    tracer = Tracer()
    tracer.active = True
    tracer.op = 3

    def work():
        tracer.call("leaf", lambda: None)

    def outer():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.call("outer", outer)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["outer"]
    assert root.parent is None
    assert [s.parent for s in by_name["leaf"]] == [root.id, root.id]
    assert {s.op for s in tracer.spans} == {3}
    assert root.thread not in {s.thread for s in by_name["leaf"]}


def test_wrap_records_only_while_active_and_restores():
    class Module:
        @staticmethod
        def f(x):
            return 2 * x

    tracer = Tracer()
    tracer.wrap(Module, "f", "mod.f", after=lambda args, r: tracer.add("n", args[0]))
    assert Module.f(1) == 2
    assert tracer.spans == [] and tracer.counts == {}
    tracer.active, tracer.op = True, 0
    assert Module.f(5) == 10
    assert [s.name for s in tracer.spans] == ["mod.f"]
    assert tracer.counts == {(0, "n"): 5}
    tracer.restore()
    assert not hasattr(Module.f, "__wrapped__")


def test_layer_metrics_average_per_traced_op():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "feynman_kac.estimate_Q", 0.0, 1.0, None, 0, 1),
        Span(1, "backend.quadratic_weights", 0.2, 0.6, 0, 1, 1),
        Span(2, "backend.quadratic_weights", 0.3, 0.7, 0, 2, 1),
        Span(3, "feynman_kac.estimate_Q", 2.0, 3.0, None, 0, 3),
    ]
    tracer.counts = {(1, "backend.node_evals"): 4e6}
    tracer.streams = {1: [(0, 0, (0,)), (0, 0, (0,))], 3: [(0, 0, (0,))]}
    m = layer_metrics(tracer, {1: 1.0, 3: 1.0}, [0.8, 0.8], workers=2)
    assert m["feynman_kac.estimate_Q.calls"] == 1.0
    assert m["backend.weights_s"] == pytest.approx(0.4)
    assert m["backend.node_evals"] == pytest.approx(2e6)
    assert m["backend.mnodes_per_s"] == pytest.approx(5.0)
    assert m["feynman_kac.estimate_Q.self_s"] == pytest.approx((0.5 + 1.0) / 2)
    assert m["stochastic.streams"] == pytest.approx(1.5)
    assert m["stochastic.stream_repeat_frac"] == pytest.approx(1 / 3)
    assert m["feynman_kac.workers_busy_frac"] == pytest.approx(0.8 / 4)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["trace.coverage_frac"] == pytest.approx(1.0)


def test_compare_refuses_runs_with_different_thread_settings():
    env = {"have_compiled": False, "default_backend": "python", "workers": 2,
           "blas_threads": 1, "nproc": 2, "numpy": "2.0"}
    same = [{"env": env}, {"env": {**env, "numpy": "2.1"}}]
    assert env_mismatch(same) == []
    differ = same + [{"env": {**env, "blas_threads": 2, "default_backend": "compiled"}}]
    assert env_mismatch(differ) == ["default_backend", "blas_threads"]
