"""The four benchmark workloads and the layer instrumentation of a traced run.

Each workload generates its inputs from the benchmark seed, times one
library call per operation and checks that call's result against an
oracle the library does not use for the estimate.  Library functions are
looked up as module attributes at call time, so `instrument` can wrap
them for a traced run without changing the library.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from bridgekac import backend, cli, convergence, feynman_kac, oracles, potentials, stochastic
from harness import WORKERS

# Pointwise Monte Carlo checks allow this many standard errors.  A run makes
# about 40 such checks and the benchmark is run about a hundred times, so
# at 4 sigma (two-sided 6e-5 per check) a correct library would fail some
# run about one time in ten; at 5 sigma (6e-7) about one in a thousand.
SIGMAS = 5.0


@dataclass
class Outcome:
    """Checked result of one operation; `value` is its headline estimate."""

    ok: bool
    value: float
    std_error: float
    note: str = ""
    counts: dict = field(default_factory=dict)


# Step of the two-dimensional R2 low-discrepancy sequence: powers of the
# inverse of the plastic number, the real root of g^3 = g + 1.
_PLASTIC = 1.324717957244746
R2_STEP = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])


def _op_inputs(seed: int, i: int) -> np.random.Generator:
    """Input generator of operation i: independent of how many ops run."""
    return np.random.default_rng((seed, i))


def _draw_rng_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**63))


def mehler_q(x: float, y: float, t: float) -> float:
    """Exact harmonic (omega = 1) pin-to-pin weight: Mehler kernel over free kernel."""
    return oracles.mehler_kernel(x, y, 1.0, t) / feynman_kac.free_kernel(x, y, t)


def _within_sigmas(value: float, se: float, ref: float) -> bool:
    return abs(value - ref) <= SIGMAS * se


def harmonic_callable(points):
    """Harmonic potential as an opaque callable: forces the generic weight path."""
    return 0.5 * np.square(np.asarray(points, dtype=np.float64)).sum(axis=-1)


class QPoint:
    """estimate_Q at seed-drawn (x, y), cycling three potentials."""

    name = "q-point"
    n_samples = 65536
    n_steps = 128
    t = 1.0

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.shift = np.random.default_rng(seed).random(2)
        # the lambda looks harmonic_callable up per call, so a traced run can wrap it
        callable_harmonic = potentials.custom(
            lambda points: harmonic_callable(points), lambda eps: 0.0,
            name="harmonic-callable")
        self.cases = [
            (potentials.harmonic(), mehler_q),
            (potentials.stark(1.0), lambda x, y, t: oracles.stark_q(x, y, 1.0, t)),
            (callable_harmonic, mehler_q),
        ]

    def _inputs(self, i: int):
        # Ops walk a randomly shifted R2 sequence (the additive recurrence of
        # Roberts, 2018) over the square, so every run, and each potential's
        # share of it, covers the square evenly: the per-sample variance,
        # which varies fifteenfold with (x, y), averages over a run to about
        # the same value whatever the seed.
        x, y = (2.0 * ((self.shift + i * R2_STEP) % 1.0) - 1.0).tolist()
        return x, y, _draw_rng_seed(_op_inputs(self.seed, i))

    def call(self, i: int):
        x, y, rng_seed = self._inputs(i)
        V = self.cases[i % len(self.cases)][0]
        return feynman_kac.estimate_Q(x, y, V, self.t, self.n_samples, self.n_steps,
                                      stochastic.RngSeed(rng_seed), workers=WORKERS)

    def check(self, i: int, est) -> Outcome:
        x, y, _ = self._inputs(i)
        ref = self.cases[i % len(self.cases)][1](x, y, self.t)
        ok = _within_sigmas(est.mean, est.std_error, ref) and not est.divergence_suspected
        return Outcome(ok, est.mean, est.std_error, f"Q={est.mean!r} ref={ref!r}")


class MatrixElement:
    """matrix_element for harmonic between two bumps, against the grid oracle."""

    name = "matrix-element"
    t = 0.5

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.V = potentials.harmonic()
        self.phi = feynman_kac.bump(0.0, 1.0)
        self.psi = feynman_kac.bump(0.5, 1.0)
        op = oracles.build_grid_operator(self.V, 8.0, 1200)
        self.ref = oracles.semigroup_matrix_element(op, self.phi, self.psi, self.t)

    def call(self, i: int):
        rng_seed = _draw_rng_seed(_op_inputs(self.seed, i))
        return feynman_kac.matrix_element(
            self.phi, self.psi, self.V, self.t, feynman_kac.QuadratureConfig(16),
            feynman_kac.McConfig(1000, 64), stochastic.RngSeed(rng_seed), workers=WORKERS)

    def check(self, i: int, me) -> Outcome:
        tol = max(3.0 * me.std_error, 0.01 * abs(self.ref))
        ok = abs(me.value - self.ref) <= tol and me.divergence_nodes == 0
        return Outcome(ok, me.value, me.std_error, f"value={me.value!r} ref={self.ref!r}")


class RefineLong:
    """refine_steps in restricted mode over five levels, finest against Mehler."""

    name = "refine-long"
    schedule = (16, 32, 64, 128, 256)
    n_samples = 32768
    x, y, t = 0.3, -0.2, 1.0

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.V = potentials.harmonic()
        self.ref = mehler_q(self.x, self.y, self.t)

    def call(self, i: int):
        rng_seed = _draw_rng_seed(_op_inputs(self.seed, i))
        return feynman_kac.refine_steps(
            self.x, self.y, self.V, self.t, self.n_samples, self.schedule,
            stochastic.RngSeed(rng_seed), mode="restricted", workers=WORKERS)

    def check(self, i: int, report) -> Outcome:
        fine = report.estimates[-1]
        flagged = any(e.divergence_suspected for e in report.estimates)
        ok = _within_sigmas(fine.mean, fine.std_error, self.ref) and not flagged
        return Outcome(ok, fine.mean, fine.std_error, f"Q={fine.mean!r} ref={self.ref!r}")


def _monotone(values, slack: float) -> bool:
    return all(b >= a - slack * max(1.0, abs(b)) for a, b in zip(values, values[1:]))


class TruncationCli:
    """The truncation-study subcommand in-process, over six truncation levels."""

    name = "truncation-cli"
    config = (
        "potential = inverted-quadratic\n"
        "potential.c = 0.5\n"
        "t = 1.0\n"
        "levels = [1, 2, 4, 8, 16, 32]\n"
        "quadrature.nodes_per_axis = 8\n"
        "mc.n_samples = 1000\n"
        "mc.n_steps = 32\n"
        "oracle.n_points = 600\n"
        f"workers = {WORKERS}\n"
    )
    seed_pool = 8

    def setup(self, seed: int, workdir: str) -> None:
        gen = np.random.default_rng(seed)
        self.seeds = [_draw_rng_seed(gen) for _ in range(self.seed_pool)]
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "truncation.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.config)
        self.first_csv: dict[int, bytes] = {}

    def _csv_path(self, i: int) -> str:
        return os.path.join(self.workdir, f"truncation-{i}.csv")

    def call(self, i: int):
        rng_seed = self.seeds[i % self.seed_pool]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["truncation-study", "--config", self.config_path,
                             "--seed", str(rng_seed), "--output", self._csv_path(i)])

    def check(self, i: int, code) -> Outcome:
        path = self._csv_path(i)
        if code != 0:
            return Outcome(False, math.nan, math.nan, f"exit code {code}")
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        left = [float(r["left_value"]) for r in rows]
        right = [float(r["right_value"]) for r in rows]
        rng_seed = self.seeds[i % self.seed_pool]
        same = self.first_csv.setdefault(rng_seed, data) == data
        ok = (same and all(r["agree"] == "true" for r in rows)
              and _monotone(left, 1e-12) and _monotone(right, 0.0))
        note = f"agree={[r['agree'] for r in rows]} identical={same}"
        return Outcome(ok, right[-1], float(rows[-1]["right_stderr"]), note,
                       {"cli.csv_bytes": len(data)})


WORKLOADS = {w.name: w for w in (QPoint, MatrixElement, RefineLong, TruncationCli)}


class _TimedGenerator:
    """Generator proxy that spans every standard_normal draw."""

    def __init__(self, gen, tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("stochastic.normals", self._gen.standard_normal,
                                 *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def instrument(tracer) -> None:
    """Wrap the public entry points of every layer; undo with tracer.restore()."""

    class TracedRngSeed(stochastic.RngSeed):
        def generator(self, *key):
            tracer.open_stream((self.seed, self.stream_id, key))
            return _TimedGenerator(super().generator(*key), tracer)

    def count_bridge(args, result):
        tracer.add("stochastic.bridge_bytes", result.nbytes)

    def count_nodes(args, result):
        tracer.add("backend.node_evals", args[0].shape[0] * args[0].shape[1])

    def count_points(args, result):
        tracer.add("potentials.node_evals", result.size)

    def count_flag(args, est):
        tracer.add("feynman_kac.divergence_flags", int(est.divergence_suspected))

    def count_report_flags(args, report):
        tracer.add("feynman_kac.divergence_flags",
                   sum(e.divergence_suspected for e in report.estimates))

    this = sys.modules[__name__]
    tracer.replace(stochastic, "RngSeed", TracedRngSeed)
    tracer.replace(cli, "RngSeed", TracedRngSeed)
    tracer.wrap(feynman_kac, "bridge_values", "stochastic.bridge_values", count_bridge)
    tracer.wrap(backend, "quadratic_weights", "backend.quadratic_weights", count_nodes)
    tracer.wrap(this, "harmonic_callable", "potentials.evaluate", count_points)
    tracer.wrap(feynman_kac, "estimate_Q", "feynman_kac.estimate_Q", count_flag)
    tracer.wrap(feynman_kac, "refine_steps", "feynman_kac.refine_steps", count_report_flags)
    for module in (feynman_kac, convergence):
        tracer.wrap(module, "matrix_element", "feynman_kac.matrix_element")
    for module in (oracles, convergence):
        tracer.wrap(module, "build_grid_operator", "oracles.build_grid_operator")
        tracer.wrap(module, "semigroup_matrix_element", "oracles.semigroup_matrix_element")
    tracer.wrap(oracles, "decompose", "oracles.decompose")
    tracer.wrap(cli, "truncation_study", "convergence.truncation_study")
    tracer.wrap(cli, "main", "cli.main")
