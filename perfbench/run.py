"""Oracle-checked benchmark of bridgekac: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload q-point --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the repository root; the library is imported from `src/`.  Each
run prints readable lines and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (op_s_p50, op_s_tail, cost_rel1e-3_s,
peak_mem_mb, setup_s); with --trace 1 they are the per-layer ones,
from spans recorded around calls into each module.  The exit code is
nonzero when any check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from harness import (WORKERS, Tracer, cost_to_rel_error, layer_metrics, squared_error_ratio,
                     tail_percentile)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3
MIN_OPS = 12
PROBE_TIMEOUT_S = 150
BLAS_THREADS = 1


def pin_threads() -> int:
    """Run BLAS on one thread, so that the whole process runs on one core.

    Must run before numpy is imported; returns the number of cores.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    """Versions and settings that a comparison between runs must hold fixed."""
    import numpy as np
    from bridgekac import backend

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "machine": platform.machine(),
        "nproc": nproc,
        "workers": WORKERS,
        "blas_threads": BLAS_THREADS,
        "have_compiled": backend.HAVE_COMPILED,
        "default_backend": backend.DEFAULT_BACKEND,
    }


def declared(kind: str) -> list[dict]:
    """The "workloads", "end_to_end" or "per_layer" entries of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in declared(kind)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def setup_probe(name: str, seed: int, workdir: str, start: float) -> dict:
    """Import, build the reference oracle and run one checked warm-up op."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed, workdir)
    outcome = workload.check(0, workload.call(0))
    return {"setup_s": time.perf_counter() - start, "peak_mem_mb": peak_rss_mb(),
            "ok": outcome.ok}


def run_probes(args) -> list[dict]:
    """Measure set-up time and peak memory in fresh processes, one at a time."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            probes.append({"ok": False})
            continue
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


class Loop:
    """Closed-loop operation records of one run."""

    def __init__(self) -> None:
        self.walls: dict[int, float] = {}
        self.error_ratios: list[float] = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def timed_loop(workload, seconds: float, tracer: Tracer | None) -> Loop:
    """Run ops back to back for `seconds`; in a traced run every odd op is traced."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline or (len(loop.walls) < MIN_OPS and not loop.failed):
        if tracer is not None:
            tracer.op = i
            tracer.active = i % 2 == 1
        try:
            faults = minor_faults()
            start = time.perf_counter()
            raw = workload.call(i)
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.add("process.minor_faults", minor_faults() - faults)
            outcome = workload.check(i, raw)
        except Exception as exc:  # an op that raises is a failed check
            loop.check(False, f"op {i} raised {type(exc).__name__}: {exc}")
            i += 1
            continue
        if tracer is not None:
            for name, amount in outcome.counts.items():
                tracer.add(name, amount)
            tracer.active = False
        loop.check(outcome.ok, f"op {i}: {outcome.note}")
        loop.walls[i] = wall
        if outcome.ok and outcome.value != 0.0:
            loop.error_ratios.append(squared_error_ratio(outcome.value, outcome.std_error))
        i += 1
    return loop


def end_to_end(loop: Loop, probes: list[dict]) -> dict:
    walls = list(loop.walls.values())
    tail, pct, n = tail_percentile(walls)
    print(f"op_s_tail is p{pct:.1f} of {n} ops")
    return {
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail,
        "cost_rel1e-3_s": cost_to_rel_error(walls, loop.error_ratios),
        "peak_mem_mb": statistics.median(p["peak_mem_mb"] for p in probes),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
    }


def run_workload(args, workdir: str, env: dict) -> int:
    from cli_check import run_cli_checks
    from workloads import WORKLOADS, instrument

    probes = run_probes(args) if not args.trace else []
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    warm_up = workload.check(0, workload.call(0))

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    try:
        loop = timed_loop(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    loop.check(warm_up.ok, f"warm-up op: {warm_up.note}")
    for p in probes:
        loop.check(p.get("ok", False), "set-up probe")
    for experiment, ok, note in run_cli_checks(workdir):
        loop.check(ok, f"cli {experiment}: {note}")

    metrics = {}
    correct = loop.failed == 0
    if correct:
        if tracer is None:
            values = end_to_end(loop, probes)
            units = declared_metrics("end_to_end")
        else:
            traced = {i: w for i, w in loop.walls.items() if i % 2 == 1}
            untraced = [w for i, w in loop.walls.items() if i % 2 == 0]
            values = layer_metrics(tracer, traced, untraced, WORKERS)
            units = declared_metrics("per_layer")
        if set(values) != set(units):
            raise RuntimeError(f"measured {sorted(values)}, declared {sorted(units)}")
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {loop.failed}/{loop.attempted}")
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process, then one table of end-to-end metrics."""
    rows = {}
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode or int(not proc.stdout.strip())
        if proc.stdout.strip():
            rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {**declared_metrics("end_to_end"), "fail_frac": "ratio"}
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{n:>16}" for n in rows))
    for metric, unit in units.items():
        cells = []
        for r in rows.values():
            if metric == "fail_frac":
                cells.append(f"{r['failed'] / r['attempted']:>16.4g}")
            elif metric in r["metrics"]:
                cells.append(f"{r['metrics'][metric]['value']:>16.4g}")
            else:
                cells.append(f"{'-':>16}")
        print(f"{metric:<16}{unit:<7}" + "".join(cells))
    return status


def main(argv=None) -> int:
    start = time.perf_counter()
    names = [w["name"] for w in declared("workloads")]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result and environment to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isdir(os.path.join(SRC, "bridgekac")):
        print(f"error: no bridgekac sources under {SRC}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args, names)

    nproc = pin_threads()
    sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed, workdir, start)))
            return 0
        env = environment(nproc)
        print("env " + json.dumps(env, sort_keys=True))
        return run_workload(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
