"""Statistics and span tracing shared by the benchmark runner and its tests.

Nothing here imports numpy or bridgekac, so the runner can pin BLAS
threads before either is loaded.  Spans are recorded by wrapping module
attributes that the library looks up at call time; the library itself
carries no instrumentation.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass

TAIL_BEYOND = 10

# Library worker threads per operation.  One: the load model is a single
# closed-loop client, and on a shared two-core host the wall time of two
# workers followed how often a second core was free (a 131 072-path q-point
# op took 0.48-0.94 s of wall time for 0.9-1.3 s of CPU), not the library.
WORKERS = 1


def tail_percentile(samples) -> tuple[float, float, int]:
    """Highest percentile of `samples` with at least ten samples beyond it.

    Returns (value, percentile, sample count).  The value is the
    eleventh largest sample; the percentile is 100 (1 - 10 / n).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (1.0 - TAIL_BEYOND / n), n


def squared_error_ratio(value: float, std_error: float, rel: float = 1e-3) -> float:
    """(std_error / (rel |value|))^2: the factor by which an op's sample count,
    and so its time, must grow to reach a relative standard error `rel`."""
    if value == 0.0:
        raise ValueError("relative error is undefined for a zero value")
    return (std_error / (rel * abs(value))) ** 2


def cost_to_rel_error(walls, ratios) -> float:
    """Seconds to reach the relative error the ratios were computed for:
    median op wall times the mean squared error ratio.  Wall time and
    variance are averaged apart, so one slow op does not weigh by its own
    variance."""
    return statistics.median(walls) * statistics.fmean(ratios)


def repeat_count(keys) -> int:
    """Number of entries of `keys` that already occurred earlier in it."""
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats


def repeat_fraction(keys) -> float:
    """Share of `keys` that already occurred earlier in the sequence."""
    keys = list(keys)
    return repeat_count(keys) / len(keys) if keys else 0.0


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass(frozen=True)
class Span:
    """One timed call: `parent` is the id of the span that caused it."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children may run concurrently on other threads; overlapping child
    intervals are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in children.get(s.id, ()) if b > s.start and a < s.end]
        out[s.id] = s.duration - union_length(clipped)
    return out


class Tracer:
    """In-memory span and counter store for one benchmark run.

    Spans opened on a worker thread with no open span of its own take as
    parent the innermost span open on the thread that created the
    tracer, which is the thread blocked on the pool.  Recording happens
    only while `active` is set, so one process can alternate traced and
    untraced operations.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.streams: dict[int, list[tuple]] = {}
        self.active = False
        self.op = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        with self._lock:
            span_id = next(self._ids)
        op = self.op
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), op))

    def add(self, name: str, amount: float) -> None:
        """Add `amount` to counter `name` of the current operation."""
        if not self.active:
            return
        with self._lock:
            key = (self.op, name)
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def open_stream(self, key: tuple) -> None:
        """Log a random stream opened by the current operation."""
        if not self.active:
            return
        with self._lock:
            self.streams.setdefault(self.op, []).append(key)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr by a spanned wrapper; `after(args, result)` counts."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None and self.active:
                after(args, result)
            return result

        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper)

    def replace(self, module, attr: str, value) -> None:
        """Set module.attr to `value` until `restore`."""
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        """Undo every `wrap` and `replace`, newest first."""
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, traced_walls: dict[int, float],
                  untraced_walls, workers: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of the traced operations.

    `traced_walls` maps op id to its wall time.  Busy times sum span
    durations over threads; `.self_s` entries subtract child coverage.
    """
    ops = set(traced_walls)
    n_ops = len(ops)
    spans = [s for s in tracer.spans if s.op in ops]
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
    counts: dict[str, float] = {}
    for (op, name), amount in tracer.counts.items():
        if op in ops:
            counts[name] = counts.get(name, 0.0) + amount
    streams = [tracer.streams.get(op, []) for op in ops]
    n_streams = sum(len(s) for s in streams)
    n_repeats = sum(repeat_count(s) for s in streams)
    wall = sum(traced_walls.values())
    covered = sum(
        union_length([(s.start, s.end) for s in spans if s.op == op]) for op in ops
    )
    leaves = ("stochastic.normals", "stochastic.bridge_values",
              "backend.quadratic_weights", "potentials.evaluate")
    weights_s = busy.get("backend.quadratic_weights", 0.0)
    node_evals = counts.get("backend.node_evals", 0.0)

    def per_op(x: float) -> float:
        return x / n_ops

    traced_median = statistics.median(traced_walls.values())
    untraced_median = statistics.median(untraced_walls)
    return {
        "stochastic.normals_s": per_op(busy.get("stochastic.normals", 0.0)),
        "stochastic.streams": per_op(n_streams),
        "stochastic.stream_repeat_frac": n_repeats / n_streams if n_streams else 0.0,
        "stochastic.bridge_s": per_op(busy.get("stochastic.bridge_values", 0.0)),
        "stochastic.bridge_mb": per_op(counts.get("stochastic.bridge_bytes", 0.0)) / 1e6,
        "backend.weights_s": per_op(weights_s),
        "backend.node_evals": per_op(node_evals),
        "backend.mnodes_per_s": node_evals / weights_s / 1e6 if weights_s else 0.0,
        "potentials.evaluate_s": per_op(busy.get("potentials.evaluate", 0.0)),
        "potentials.node_evals": per_op(counts.get("potentials.node_evals", 0.0)),
        "feynman_kac.estimate_Q.calls": per_op(calls.get("feynman_kac.estimate_Q", 0)),
        "feynman_kac.estimate_Q.self_s": per_op(own.get("feynman_kac.estimate_Q", 0.0)),
        "feynman_kac.matrix_element.self_s":
            per_op(own.get("feynman_kac.matrix_element", 0.0)),
        "feynman_kac.refine_steps.self_s": per_op(own.get("feynman_kac.refine_steps", 0.0)),
        "feynman_kac.divergence_flags": per_op(counts.get("feynman_kac.divergence_flags", 0.0)),
        "feynman_kac.workers_busy_frac":
            sum(busy.get(name, 0.0) for name in leaves) / (workers * wall),
        "oracles.decompose_s": per_op(busy.get("oracles.decompose", 0.0)),
        "oracles.decompose.calls": per_op(calls.get("oracles.decompose", 0)),
        "oracles.build_s": per_op(busy.get("oracles.build_grid_operator", 0.0)),
        "oracles.semigroup_matrix_element_s":
            per_op(own.get("oracles.semigroup_matrix_element", 0.0)),
        "convergence.truncation_study.self_s":
            per_op(own.get("convergence.truncation_study", 0.0)),
        "cli.self_s": per_op(own.get("cli.main", 0.0)),
        "cli.csv_bytes": per_op(counts.get("cli.csv_bytes", 0.0)),
        "process.minor_faults": per_op(counts.get("process.minor_faults", 0.0)),
        "trace.overhead_frac": (traced_median - untraced_median) / untraced_median,
        "trace.coverage_frac": covered / wall,
    }
