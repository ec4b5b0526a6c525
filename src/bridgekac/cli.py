"""Command line front end.

Experiments are driven by flat `key = value` config files: one dotted
key per line, JSON values with a bare-string fallback, full-line #
comments, duplicate keys rejected.  Unknown keys and type errors are
all reported at once.  Every experiment writes one CSV (floats via
repr, booleans as true/false) and prints a one-line summary; exit code
0 means the run completed, 2 means the config was rejected, 1 means an
io or runtime failure.

Three tables drive the rest: `_EXPERIMENTS` (runner, accepted keys and
help of each subcommand), `_POTENTIALS` (factory, parameter keys and
closed-form kernel of each potential) and `_WAVEFUNCTIONS` (factory and
parameter keys of each wavefunction).  The choice sets, the coupling
rules between a catalog entry and its parameter keys, the builders and
the subcommands are all read off them, so a new experiment, potential
or wavefunction is one entry (plus its runner) and a `_KEY_SPECS` line
for each new key.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import verify_bound_sweep
from .convergence import (
    cutoff_contraction_check,
    q_truncation_study,
    resolvent_distance,
    spike_multiplication_sequence,
    truncation_study,
)
from .feynman_kac import (
    McConfig,
    QuadratureConfig,
    Wavefunction,
    _tensor_gauss_legendre,
    bump,
    estimate_Q,
    free_kernel,
    gaussian,
    matrix_element,
    refine_steps,
)
from .oracles import (
    OracleConfig,
    build_grid_operator,
    decompose,
    mehler_kernel,
    semigroup_kernel,
    semigroup_matrix_element,
    stark_kernel,
)
from . import potentials
from .stochastic import RngSeed

__all__ = ["ExperimentConfig", "main", "parse_config_text", "validate_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict


def parse_config_text(text: str) -> tuple[dict, list[str]]:
    """Parse `key = value` lines into a raw dict plus a list of errors.

    Values go through json.loads; anything that fails to parse is kept
    as a bare string.  Blank lines and lines starting with # are
    skipped.  Duplicate keys are errors (the first value is kept so
    validation can continue).
    """
    raw: dict = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key '{key}'")
            continue
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return raw, errors


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _coerce_float(v):
    try:
        val = float(v) if _is_number(v) else math.nan
    except OverflowError:  # an integer literal past the largest double
        val = math.inf
    if not math.isfinite(val):
        return None, "expected a finite number"
    return val, None


def _coerce_int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        return None, "expected an integer"
    return int(v), None


def _int_at_least(minimum: int):
    def coerce(v):
        val, err = _coerce_int(v)
        if err:
            return None, err
        if val < minimum:
            return None, f"expected an integer >= {minimum}"
        return val, None

    return coerce


_coerce_pos_int = _int_at_least(1)


def _float_where(ok: Callable[[float], bool], expected: str):
    """Coercer of a finite number for which `ok` holds; others are 'expected <expected>'."""
    def coerce(v):
        val, err = _coerce_float(v)
        if err:
            return None, err
        if not ok(val):
            return None, f"expected {expected}"
        return val, None

    return coerce


_coerce_pos_float = _float_where(lambda v: v > 0.0, "a positive number")
_coerce_field = _float_where(lambda v: v != 0.0, "a nonzero field strength")
_coerce_tail_mass = _float_where(lambda v: 0.0 < v <= 0.5, "a number in (0, 0.5]")


def _coerce_seed(v):
    val, err = _coerce_int(v)
    if err:
        return None, err
    if not 0 <= val < 2**64:
        return None, "expected an unsigned 64-bit integer"
    return val, None


def _coerce_bool(v):
    if not isinstance(v, bool):
        return None, "expected true or false"
    return v, None


def _coerce_str(v):
    if not isinstance(v, str) or not v:
        return None, "expected a nonempty string"
    return v, None


def _choice(options: frozenset):
    def coerce(v):
        if v not in options:
            return None, "expected one of " + ", ".join(sorted(options))
        return v, None

    return coerce


def _increasing_list(listed: str, noun: str, min_len: int, kind: str):
    """Coercer of a JSON list of at least `min_len` positive numbers (NaN is
    not one; Infinity is), or positive integers if `kind` is "integers",
    in strictly increasing order."""
    cast = int if kind == "integers" else float

    def coerce(v):
        if not isinstance(v, list) or len(v) < min_len:
            return None, f"expected a JSON list {listed}"
        out = []
        for item in v:
            if not _is_number(item) or (cast is int and not isinstance(item, int)) or not item > 0:
                return None, f"{noun} must be positive {kind}"
            try:
                out.append(cast(item))
            except OverflowError:  # an integer literal past the largest double
                return None, f"{noun} must lie within the range of a double"
        if any(b <= a for a, b in zip(out, out[1:])):
            return None, f"{noun} must be strictly increasing"
        return out, None

    return coerce


_coerce_levels = _increasing_list("of truncation levels", "levels", 1, "numbers")
_coerce_schedule = _increasing_list("with at least two step counts", "step counts", 2, "integers")
_coerce_demo_levels = _increasing_list("of spike levels", "spike levels", 1, "integers")


_REQUIRED = object()


# name: (factory, {config key: factory keyword}, closed-form kernel or None); the kernel
# takes (x, y, *the parameter values in key order, t)
_POTENTIALS = {
    "zero": (potentials.zero, {}, free_kernel),
    "harmonic": (potentials.harmonic, {"potential.omega": "omega"}, mehler_kernel),
    "stark": (potentials.stark, {"potential.F": "field"}, stark_kernel),
    "inverted-quadratic": (potentials.inverted_quadratic, {"potential.c": "c"}, None),
}

# name: (factory, {key suffix: factory keyword}); every wavefunction also takes `.center`
_WAVEFUNCTIONS = {
    "bump": (bump, {".width": "width"}),
    "gaussian": (gaussian, {".sigma": "sigma", ".tail_mass": "tail_mass"}),
}


@dataclass(frozen=True)
class _KeySpec:
    coerce: Callable
    default: object


# a potential's parameter key whose default is None is required for it; the
# output_path default None stands for `<experiment>.csv`
_KEY_SPECS: dict[str, _KeySpec] = {
    "t": _KeySpec(_coerce_pos_float, 1.0),
    "seed": _KeySpec(_coerce_seed, 0),
    "workers": _KeySpec(_coerce_pos_int, 1),
    "output_path": _KeySpec(_coerce_str, None),
    "potential": _KeySpec(_choice(frozenset(_POTENTIALS)), _REQUIRED),
    "potential.omega": _KeySpec(_coerce_pos_float, 1.0),
    "potential.F": _KeySpec(_coerce_field, None),
    "potential.c": _KeySpec(_coerce_pos_float, None),
    "potential.truncation": _KeySpec(_coerce_pos_float, None),
    "phi": _KeySpec(_choice(frozenset(_WAVEFUNCTIONS)), "bump"),
    "phi.center": _KeySpec(_coerce_float, 0.0),
    "phi.width": _KeySpec(_coerce_pos_float, 1.0),
    "phi.sigma": _KeySpec(_coerce_pos_float, 1.0),
    "phi.tail_mass": _KeySpec(_coerce_tail_mass, 1e-8),
    "psi": _KeySpec(_choice(frozenset(_WAVEFUNCTIONS)), "bump"),
    "psi.center": _KeySpec(_coerce_float, 0.0),
    "psi.width": _KeySpec(_coerce_pos_float, 1.0),
    "psi.sigma": _KeySpec(_coerce_pos_float, 1.0),
    "psi.tail_mass": _KeySpec(_coerce_tail_mass, 1e-8),
    "mc.n_samples": _KeySpec(_coerce_pos_int, 20000),
    "mc.n_steps": _KeySpec(_coerce_pos_int, 64),
    "quadrature.nodes_per_axis": _KeySpec(_coerce_pos_int, 32),
    "oracle.L": _KeySpec(_coerce_pos_float, 8.0),
    "oracle.n_points": _KeySpec(_int_at_least(3), 1200),
    "point.x": _KeySpec(_coerce_float, 0.0),
    "point.y": _KeySpec(_coerce_float, 0.0),
    "levels": _KeySpec(_coerce_levels, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)),
    "study.pointwise": _KeySpec(_coerce_bool, False),
    "schedule": _KeySpec(_coerce_schedule, (16, 32, 64, 128)),
    "refine.mode": _KeySpec(_choice(frozenset({"restricted", "independent"})), "restricted"),
    "sweep.lo": _KeySpec(_coerce_float, -3.0),
    "sweep.hi": _KeySpec(_coerce_float, 3.0),
    "sweep.n": _KeySpec(_coerce_pos_int, 7),
    "bound.delta": _KeySpec(_coerce_pos_float, 1.0),
    "demo.n_matrices": _KeySpec(_coerce_pos_int, 50),
    "demo.matrix_size": _KeySpec(_int_at_least(2), 20),
    "demo.k": _KeySpec(_coerce_pos_int, 256),
    "demo.levels": _KeySpec(_coerce_demo_levels, (4, 16, 64)),
    "demo.cutoff": _KeySpec(_coerce_pos_float, 2.0),
}


def _keys(*names: str) -> frozenset:
    """The `_KEY_SPECS` keys named, or in a group named (the part before the dot)."""
    return frozenset(key for key in _KEY_SPECS if key in names or key.partition(".")[0] in names)


def _cross_checks(exp: str, raw: dict, params: dict, errors: list[str]) -> None:
    present = set(raw)
    allowed = _EXPERIMENTS[exp][1]
    name = params.get("potential")
    if "potential" in allowed:
        for key in _POTENTIALS[name][1] if name in _POTENTIALS else ():
            if _KEY_SPECS[key].default is None and key not in present:
                errors.append(f"{key}: required for the {name} potential")
        for owner, (_, keys, _) in _POTENTIALS.items():
            for key in keys:
                if key in present and name != owner:
                    errors.append(f"{key}: only meaningful for the {owner} potential")
    for prefix in ("phi", "psi"):
        if prefix not in allowed:
            continue
        for owner, (_, suffixes) in _WAVEFUNCTIONS.items():
            for key in (prefix + suffix for suffix in suffixes):
                if key in present and params.get(prefix) != owner:
                    errors.append(f"{key}: only meaningful for {owner} wavefunctions")
    if exp == "bound-sweep":
        t = params.get("t")
        delta = params.get("bound.delta")
        if t is not None and delta is not None:
            delta0 = delta * t / 2.0
            if not 0.0 < delta0 < 1.0:
                errors.append(
                    f"bound.delta: delta t / 2 = {delta0:g} must lie in (0, 1) "
                    "for a finite Gaussian envelope"
                )
        lo = params.get("sweep.lo")
        hi = params.get("sweep.hi")
        if lo is not None and hi is not None and lo > hi:
            errors.append("sweep.lo: must not exceed sweep.hi")
    if exp == "refine-steps" and params.get("refine.mode") == "restricted":
        sched = params.get("schedule")
        if sched and any(sched[-1] % n for n in sched):
            errors.append("schedule: restricted mode needs every entry to divide the largest")
    if exp == "truncation-study":
        if "potential.truncation" in present:
            errors.append("potential.truncation: the study sweeps truncation levels itself")
        if params.get("study.pointwise"):
            for key in sorted(present & _keys("phi", "psi", "quadrature", "oracle")):
                errors.append(f"{key}: not used in pointwise mode")
        else:
            for key in sorted(present & _keys("point")):
                errors.append(f"{key}: only used in pointwise mode")
    if exp == "oracle-crosscheck":
        if "potential.truncation" in present:
            errors.append("potential.truncation: crosscheck needs a closed-form kernel")
        if name in _POTENTIALS and _POTENTIALS[name][2] is None:
            closed = ", ".join(n for n, (_, _, kernel) in _POTENTIALS.items() if kernel)
            errors.append(f"potential: oracle-crosscheck needs a closed-form kernel ({closed})")
    if exp == "theorem31-demo":
        k = params.get("demo.k")
        levels = params.get("demo.levels")
        if k is not None and levels is not None:
            if any(n > k or k % n for n in levels):
                errors.append("demo.levels: every level must divide demo.k")


def validate_config(raw: dict, experiment: str | None = None):
    """Resolve a raw config dict into (ExperimentConfig, errors).

    `experiment` is the subcommand, if any; a conflicting experiment key
    inside the config is an error.  All problems are reported together.
    On any error the config is None.
    """
    exp = raw.get("experiment", experiment)
    if exp is None and "experiment" not in raw:
        return None, ["experiment: missing (pass a subcommand or set it in the config)"]
    if not isinstance(exp, str) or exp not in _EXPERIMENTS:
        return None, ["experiment: expected one of " + ", ".join(_EXPERIMENTS)]
    if experiment not in (None, exp):
        return None, [f"experiment: config says '{exp}' but the command is '{experiment}'"]

    allowed = _EXPERIMENTS[exp][1]
    errors = [f"{key}: not recognized for experiment '{exp}'"
              for key in sorted(raw) if key != "experiment" and key not in allowed]
    params: dict = {}
    for key in sorted(allowed):
        spec = _KEY_SPECS[key]
        if key in raw:
            value, err = spec.coerce(raw[key])
            if err is not None:
                errors.append(f"{key}: {err}")
            else:
                params[key] = value
        elif spec.default is _REQUIRED:
            errors.append(f"{key}: required")
        else:
            params[key] = list(spec.default) if isinstance(spec.default, tuple) else spec.default

    _cross_checks(exp, raw, params, errors)
    if errors:
        return None, errors
    params["output_path"] = params["output_path"] or f"{exp}.csv"
    return ExperimentConfig(experiment=exp, params=params), errors


def _build_potential(p: dict):
    factory, keys, _ = _POTENTIALS[p["potential"]]
    V = factory(**{keyword: p[key] for key, keyword in keys.items()})
    if p.get("potential.truncation") is not None:
        V = potentials.truncate(V, p["potential.truncation"])
    return V


def _build_wavefunction(p: dict, prefix: str) -> Wavefunction:
    factory, suffixes = _WAVEFUNCTIONS[p[prefix]]
    return factory(center=p[f"{prefix}.center"],
                   **{keyword: p[prefix + suffix] for suffix, keyword in suffixes.items()})


def _mc_config(p: dict) -> McConfig:
    return McConfig(n_samples=p["mc.n_samples"], n_steps=p["mc.n_steps"])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _run_q_estimate(p: dict):
    V = _build_potential(p)
    est = estimate_Q(
        p["point.x"], p["point.y"], V, p["t"], p["mc.n_samples"], p["mc.n_steps"],
        RngSeed(p["seed"]), workers=p["workers"],
    )
    header = ["x", "y", "t", "n_steps", "n_samples", "q_mean", "q_stderr",
              "divergence_suspected", "heavy_mass_fraction"]
    rows = [[p["point.x"], p["point.y"], p["t"], est.n_steps, est.n_samples,
             est.mean, est.std_error, est.divergence_suspected,
             est.heavy_mass_fraction]]
    summary = (
        f"q-estimate[{V.name}]: Q({p['point.x']:g}, {p['point.y']:g}; t={p['t']:g}) "
        f"= {est.mean:.6g} +/- {est.std_error:.3g}"
        f" (n={est.n_samples}, steps={est.n_steps}"
        f"{', divergence suspected' if est.divergence_suspected else ''})"
    )
    return header, rows, summary


def _run_matrix_element(p: dict):
    V = _build_potential(p)
    phi = _build_wavefunction(p, "phi")
    psi = _build_wavefunction(p, "psi")
    me = matrix_element(
        phi, psi, V, p["t"], QuadratureConfig(p["quadrature.nodes_per_axis"]),
        _mc_config(p), RngSeed(p["seed"]), workers=p["workers"],
    )
    header = ["t", "value", "stderr", "quadrature_nodes", "mc_samples_per_node",
              "divergence_nodes"]
    rows = [[p["t"], me.value, me.std_error, me.quadrature_nodes,
             me.mc_samples_per_node, me.divergence_nodes]]
    summary = (
        f"matrix-element[{V.name}]: value = {me.value:.6g} +/- {me.std_error:.3g}"
        f" over {me.quadrature_nodes} node pairs"
        f"{f', {me.divergence_nodes} flagged' if me.divergence_nodes else ''}"
    )
    return header, rows, summary


def _run_bound_sweep(p: dict):
    V = _build_potential(p)
    axis = np.linspace(p["sweep.lo"], p["sweep.hi"], p["sweep.n"])
    grid = [(float(a), float(b)) for a in axis for b in axis]
    report = verify_bound_sweep(
        V, p["t"], p["bound.delta"], grid, _mc_config(p), RngSeed(p["seed"]),
        workers=p["workers"],
    )
    header = ["x", "y", "q_mean", "q_stderr", "jensen_bound", "bound", "pass"]
    rows = [[pt.x, pt.y, pt.q_mean, pt.q_std_error, pt.jensen_bound, pt.bound,
             pt.passed] for pt in report.points]
    summary = (
        f"bound-sweep[{V.name}]: {report.n_passed}/{len(report.points)} points "
        f"inside the envelope (delta0={report.delta0:g}, eps={report.eps:g}, "
        f"C_eps={report.c_eps:g})"
    )
    return header, rows, summary


def _run_truncation_study(p: dict):
    V = _build_potential(p)
    if p["study.pointwise"]:
        report = q_truncation_study(
            p["point.x"], p["point.y"], V, p["t"], p["levels"], _mc_config(p),
            RngSeed(p["seed"]), workers=p["workers"],
        )
        header = ["level", "q_mean", "q_stderr", "divergence_suspected",
                  "increment", "stabilized"]
        rows = []
        prev = None
        for level, est in zip(report.levels, report.estimates):
            increment = "" if prev is None else est.mean - prev
            settled = report.stabilized_at is not None and level >= report.stabilized_at
            rows.append([level, est.mean, est.std_error, est.divergence_suspected,
                         increment, settled])
            prev = est.mean
        summary = (
            f"truncation-study[{V.name}] pointwise: monotone={report.monotone}, "
            f"stabilized_at={report.stabilized_at}, "
            f"divergence_onset={report.divergence_onset}"
        )
        return header, rows, summary
    phi = _build_wavefunction(p, "phi")
    psi = _build_wavefunction(p, "psi")
    report = truncation_study(
        V, phi, psi, p["t"], p["levels"], _mc_config(p), RngSeed(p["seed"]),
        quadrature=QuadratureConfig(p["quadrature.nodes_per_axis"]),
        oracle=OracleConfig(p["oracle.L"], p["oracle.n_points"]),
        workers=p["workers"],
    )
    header = ["level", "left_value", "right_value", "right_stderr",
              "abs_difference", "agree", "right_divergent"]
    rows = []
    for level, lv, rv, se, agree, div in zip(
        report.levels, report.left_values, report.right_values,
        report.right_std_errors, report.agreements, report.right_divergence_nodes,
    ):
        rows.append([level, lv, rv, se, abs(lv - rv), agree, div > 0])
    summary = (
        f"truncation-study[{V.name}]: left monotone={report.left_monotone}, "
        f"right monotone={report.right_monotone}, "
        f"agree {sum(report.agreements)}/{len(report.agreements)}, "
        f"stabilized at left={report.left_stabilized_at} "
        f"right={report.right_stabilized_at}"
    )
    return header, rows, summary


def _run_theorem31_demo(p: dict):
    gen = RngSeed(p["seed"]).generator(0)
    size = p["demo.matrix_size"]
    cutoff = p["demo.cutoff"]

    def f(lam):
        return np.exp(-lam)

    rows = []
    n_ok = 0
    for i in range(p["demo.n_matrices"]):
        M = gen.standard_normal((size, size))
        A = 0.5 * (M + M.T)
        v = gen.standard_normal(size)
        v /= np.linalg.norm(v)
        lhs, rhs = cutoff_contraction_check(A, v, f, cutoff)
        n_ok += int(lhs <= rhs * (1.0 + 1e-12))
        rows.append(["contraction", i, "lhs", lhs])
        rows.append(["contraction", i, "rhs", rhs])
    seq, psi = spike_multiplication_sequence(p["demo.k"], p["demo.levels"])
    last_distance = None
    for n, A in zip(p["demo.levels"], seq.members):
        image = A @ psi
        rows.append(["spike", n, "image-norm", float(np.linalg.norm(image))])
        rows.append(["spike", n, "square-image-norm", float(np.linalg.norm(A @ image))])
        last_distance = resolvent_distance(A, seq.limit, psi)
        rows.append(["spike", n, "resolvent-distance", last_distance])
    header = ["part", "index", "metric", "value"]
    summary = (
        f"theorem31-demo: contraction bound held for {n_ok}/{p['demo.n_matrices']} "
        f"matrices at cutoff {cutoff:g}; spike image norms stay at 1 while the "
        f"resolvent distance falls to {last_distance:.4g}"
    )
    return header, rows, summary


# the relative agreement every oracle-crosscheck row must reach to pass
_CROSSCHECK_TOL = 1e-3


def _run_oracle_crosscheck(p: dict):
    V = _build_potential(p)
    t = p["t"]
    op = build_grid_operator(V, p["oracle.L"], p["oracle.n_points"])
    _, keys, kernel = _POTENTIALS[p["potential"]]
    args = [p[key] for key in keys]

    def kern(a, b):
        return kernel(a, b, *args, t)

    # both sides at identical arguments: snap the point to the grid
    grid = op.grid
    xg = float(grid[int(np.abs(grid - p["point.x"]).argmin())])
    yg = float(grid[int(np.abs(grid - p["point.y"]).argmin())])

    rows = []

    def add(check: str, x, y, value_a: float, value_b: float):
        rel = abs(value_a - value_b) / max(abs(value_a), abs(value_b), 1e-300)
        rows.append([check, x, y, t, value_a, value_b, rel, _CROSSCHECK_TOL,
                     rel <= _CROSSCHECK_TOL])

    add("kernel", xg, yg, float(kern(xg, yg)), semigroup_kernel(op, xg, yg, t))

    phi = _build_wavefunction(p, "phi")
    psi = _build_wavefunction(p, "psi")
    nodes = p["quadrature.nodes_per_axis"]
    xpts, xw = _tensor_gauss_legendre(phi.support_box, nodes)
    ypts, yw = _tensor_gauss_legendre(psi.support_box, nodes)
    fx = np.asarray(phi.evaluate(xpts), dtype=np.float64)
    fy = np.asarray(psi.evaluate(ypts), dtype=np.float64)
    K = np.array([[kern(float(a[0]), float(b[0])) for b in ypts] for a in xpts])
    value_a = float((xw * fx) @ K @ (yw * fy))
    value_b = semigroup_matrix_element(op, phi, psi, t)
    add("matrix-element", "", "", value_a, value_b)

    if p["potential"] == "harmonic":
        # the lowest eigenvalue of the grid Hamiltonian is omega/2 + O(h^2)
        omega = p["potential.omega"]
        add("ground-energy", "", "", omega / 2.0, float(decompose(op).eigenvalues[0]))

    header = ["check", "x", "y", "t", "value_a", "value_b", "rel_error", "tol", "pass"]
    n_pass = sum(1 for r in rows if r[-1])
    summary = (
        f"oracle-crosscheck[{V.name}]: {n_pass}/{len(rows)} checks within "
        f"relative tolerance {_CROSSCHECK_TOL:g}"
    )
    return header, rows, summary


def _run_refine_steps(p: dict):
    V = _build_potential(p)
    report = refine_steps(
        p["point.x"], p["point.y"], V, p["t"], p["mc.n_samples"], p["schedule"],
        RngSeed(p["seed"]), mode=p["refine.mode"], workers=p["workers"],
    )
    header = ["n_steps", "q_mean", "q_stderr", "diff_mean", "diff_stderr",
              "sigma_ratio"]
    rows = []
    for i, (n, est) in enumerate(zip(report.schedule, report.estimates)):
        if i == 0:
            rows.append([n, est.mean, est.std_error, "", "", ""])
        else:
            d = report.diff_means[i - 1]
            e = report.diff_std_errors[i - 1]
            ratio = abs(d) / e if e > 0.0 else 0.0
            rows.append([n, est.mean, est.std_error, d, e, ratio])
    order = "n/a" if report.fitted_order is None else f"{report.fitted_order:.3f}"
    summary = (
        f"refine-steps[{V.name}] mode={report.mode}: Q moved from "
        f"{report.estimates[0].mean:.6g} to {report.estimates[-1].mean:.6g} "
        f"over steps {report.schedule[0]}..{report.schedule[-1]}; "
        f"fitted order {order}"
    )
    return header, rows, summary


_COMMON = ("t", "seed", "workers", "output_path")

# name: (runner, accepted keys, help), in command-line order
_EXPERIMENTS = {
    "q-estimate": (_run_q_estimate, _keys(*_COMMON, "potential", "mc", "point"),
                   "Monte Carlo estimate of the pin-to-pin weight Q(x, y; V, t)"),
    "matrix-element": (
        _run_matrix_element, _keys(*_COMMON, "potential", "phi", "psi", "mc", "quadrature"),
        "quadrature + Monte Carlo estimate of <phi, e^{-tH} psi>"),
    "bound-sweep": (_run_bound_sweep, _keys(*_COMMON, "potential", "mc", "sweep", "bound"),
                    "check Monte Carlo estimates against the Gaussian-envelope bound"),
    "truncation-study": (
        _run_truncation_study, _keys(*_COMMON, "potential", "phi", "psi", "mc", "quadrature",
                                     "oracle", "point", "levels", "study"),
        "compare both sides of the matrix element over max(V, -n)"),
    "theorem31-demo": (_run_theorem31_demo, _keys("seed", "output_path", "demo"),
                       "cutoff contraction on random matrices plus the spike sequence"),
    "oracle-crosscheck": (
        _run_oracle_crosscheck, _keys("t", "output_path", "potential", "phi", "psi",
                                      "quadrature", "oracle", "point"),
        "closed-form kernels against the finite-difference grid"),
    "refine-steps": (
        _run_refine_steps, _keys(*_COMMON, "potential", "mc.n_samples", "point", "schedule",
                                 "refine"),
        "time-grid refinement study of the Q estimate"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgekac",
        description="Feynman-Kac semigroup experiments driven by flat config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, _, help_text) in _EXPERIMENTS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="path to a key = value config file")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--workers", type=int, help="override the worker count")
        sp.add_argument("--output", help="override the output CSV path")
    vp = sub.add_parser("validate", help="parse and validate a config file")
    vp.add_argument("--config", required=True, help="path to a key = value config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    raw: dict = {}
    parse_errors: list[str] = []
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        raw, parse_errors = parse_config_text(text)

    experiment = None if args.command == "validate" else args.command
    if experiment is not None:
        for key, value in (("seed", args.seed), ("workers", args.workers),
                           ("output_path", args.output)):
            if value is not None:
                raw[key] = value
    cfg, errors = validate_config(raw, experiment)
    errors = parse_errors + errors
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    if experiment is None:
        print(f"config ok: experiment={cfg.experiment}")
        return 0

    try:
        header, rows, summary = _EXPERIMENTS[cfg.experiment][0](cfg.params)
        _write_csv(cfg.params["output_path"], header, rows)
    except (OSError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{summary}; wrote {cfg.params['output_path']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
