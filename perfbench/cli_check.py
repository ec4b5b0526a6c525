"""Untimed correctness pass over all seven CLI experiments at small configs.

Each experiment runs twice with the same seed.  The pass requires a
byte-identical CSV from the rerun and a true verdict from the
experiment's own pass/agree column or, where it has none, from a
closed-form oracle.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

from bridgekac import cli
from workloads import mehler_q

_RUN = "workers = 2\nseed = 11\n"

# theorem31-demo and oracle-crosscheck take no worker count; the latter no seed
CONFIGS = {
    "q-estimate": _RUN + (
        "potential = harmonic\npoint.x = 0.3\npoint.y = -0.2\n"
        "mc.n_samples = 20000\nmc.n_steps = 32\n"
    ),
    "matrix-element": _RUN + (
        "potential = harmonic\nt = 0.5\npsi.center = 0.5\n"
        "quadrature.nodes_per_axis = 8\nmc.n_samples = 500\nmc.n_steps = 16\n"
    ),
    "bound-sweep": _RUN + (
        "potential = harmonic\nsweep.n = 3\nmc.n_samples = 2000\nmc.n_steps = 16\n"
    ),
    "truncation-study": _RUN + (
        "potential = inverted-quadratic\npotential.c = 0.5\nlevels = [1, 4, 16]\n"
        "quadrature.nodes_per_axis = 8\nmc.n_samples = 500\nmc.n_steps = 16\n"
        "oracle.n_points = 300\n"
    ),
    "theorem31-demo": (
        "seed = 11\ndemo.n_matrices = 10\ndemo.matrix_size = 10\ndemo.k = 64\n"
    ),
    "oracle-crosscheck": (
        "potential = harmonic\npoint.x = 0.3\npoint.y = -0.2\n"
        "quadrature.nodes_per_axis = 16\noracle.n_points = 800\n"
    ),
    "refine-steps": _RUN + (
        "potential = harmonic\npoint.x = 0.3\npoint.y = -0.2\n"
        "schedule = [8, 16, 32]\nmc.n_samples = 20000\n"
    ),
}


def _verdict(experiment: str, rows: list[dict]) -> bool:
    # the seed is fixed, so the 4-sigma checks below see the same draw every run
    if experiment == "q-estimate":
        r = rows[0]
        return (abs(float(r["q_mean"]) - mehler_q(0.3, -0.2, 1.0)) <= 4.0 * float(r["q_stderr"])
                and r["divergence_suspected"] == "false")
    if experiment == "matrix-element":
        return int(rows[0]["divergence_nodes"]) == 0 and math.isfinite(float(rows[0]["value"]))
    if experiment in ("bound-sweep", "oracle-crosscheck"):
        return all(r["pass"] == "true" for r in rows)
    if experiment == "truncation-study":
        return all(r["agree"] == "true" for r in rows)
    if experiment == "theorem31-demo":
        pairs: dict[str, dict[str, float]] = {}
        for r in rows:
            if r["part"] == "contraction":
                pairs.setdefault(r["index"], {})[r["metric"]] = float(r["value"])
        return bool(pairs) and all(p["lhs"] <= p["rhs"] * (1.0 + 1e-12) for p in pairs.values())
    if experiment == "refine-steps":
        r = rows[-1]
        return abs(float(r["q_mean"]) - mehler_q(0.3, -0.2, 1.0)) <= 4.0 * float(r["q_stderr"])
    raise ValueError(f"no verdict for {experiment}")


def _run(experiment: str, config_path: str, output: str) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([experiment, "--config", config_path, "--output", output])
    if code != 0:
        raise RuntimeError(f"{experiment} exited with {code}")
    with open(output, "rb") as fh:
        data = fh.read()
    os.remove(output)
    return data


def run_cli_checks(workdir: str) -> list[tuple[str, bool, str]]:
    """Run every experiment twice; returns (experiment, ok, note) per experiment."""
    results = []
    for experiment, text in CONFIGS.items():
        config_path = os.path.join(workdir, f"{experiment}.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        output = os.path.join(workdir, f"{experiment}.csv")
        try:
            first = _run(experiment, config_path, output)
            second = _run(experiment, config_path, output)
            rows = list(csv.DictReader(io.StringIO(first.decode("utf-8"))))
            identical = first == second
            ok = identical and bool(rows) and _verdict(experiment, rows)
            note = f"identical={identical} rows={len(rows)}"
        except Exception as exc:  # a failing experiment is reported, not fatal
            ok, note = False, f"{type(exc).__name__}: {exc}"
        results.append((experiment, ok, note))
    return results
