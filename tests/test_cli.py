import math

import pytest

from bridgekac.cli import (
    _EXPERIMENTS, _KEY_SPECS, _POTENTIALS, _WAVEFUNCTIONS, _build_potential, main,
    parse_config_text, validate_config,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_basics():
    raw, errors = parse_config_text(
        "# a comment\n"
        "\n"
        "t = 2.5\n"
        "potential = zero\n"
        "levels = [1, 2, 4]\n"
        "study.pointwise = true\n"
        "output_path = out.csv\n"
    )
    assert errors == []
    assert raw == {
        "t": 2.5,
        "potential": "zero",
        "levels": [1, 2, 4],
        "study.pointwise": True,
        "output_path": "out.csv",
    }


def test_parse_config_reports_line_numbers():
    raw, errors = parse_config_text(
        "t = 1.0\n"
        "no equals sign here\n"
        " = 3\n"
        "t = 2.0\n"
    )
    assert raw["t"] == 1.0  # first value wins while errors accumulate
    assert len(errors) == 3
    assert errors[0].startswith("line 2:")
    assert "empty key" in errors[1]
    assert "duplicate key 't'" in errors[2]


def test_validate_minimal_config_resolves_defaults():
    cfg, errors = validate_config({"potential": "zero"}, experiment="q-estimate")
    assert errors == []
    p = cfg.params
    assert cfg.experiment == "q-estimate"
    assert p["t"] == 1.0
    assert p["seed"] == 0
    assert p["workers"] == 1
    assert p["output_path"] == "q-estimate.csv"
    assert p["mc.n_samples"] == 20000
    assert p["mc.n_steps"] == 64
    assert p["point.x"] == 0.0 and p["point.y"] == 0.0


def test_validate_requires_potential():
    cfg, errors = validate_config({}, experiment="q-estimate")
    assert cfg is None
    assert errors == ["potential: required"]


def test_validate_aggregates_every_error():
    raw = {"potential": "stark", "t": -1.0, "no.such.key": 3, "backend": "python"}
    cfg, errors = validate_config(raw, experiment="q-estimate")
    assert cfg is None
    assert len(errors) == 4
    joined = "\n".join(errors)
    assert "no.such.key: not recognized" in joined
    assert "backend: not recognized for experiment 'q-estimate'" in joined
    assert "t: " in joined
    assert "potential.F: required" in joined


def test_validate_experiment_key_must_match_subcommand():
    raw = {"experiment": "matrix-element", "potential": "zero"}
    cfg, errors = validate_config(raw, experiment="q-estimate")
    assert cfg is None
    assert "config says 'matrix-element'" in errors[0]
    cfg, errors = validate_config(raw, experiment="matrix-element")
    assert errors == []
    assert cfg.experiment == "matrix-element"


def test_validate_experiment_from_config_alone():
    cfg, errors = validate_config({"experiment": "q-estimate", "potential": "zero"})
    assert errors == []
    assert cfg.experiment == "q-estimate"
    cfg, errors = validate_config({"potential": "zero"})
    assert cfg is None
    assert "experiment: missing" in errors[0]
    cfg, errors = validate_config({"experiment": "frobnicate"})
    assert cfg is None
    assert "expected one of" in errors[0]


def test_validate_potential_parameter_coupling():
    _, errors = validate_config(
        {"potential": "stark", "potential.omega": 2.0}, experiment="q-estimate"
    )
    joined = "\n".join(errors)
    assert "potential.F: required" in joined
    assert "potential.omega: only meaningful" in joined
    _, errors = validate_config(
        {"potential": "inverted-quadratic"}, experiment="q-estimate"
    )
    assert errors == ["potential.c: required for the inverted-quadratic potential"]
    _, errors = validate_config(
        {"potential": "harmonic", "potential.F": 1.0}, experiment="q-estimate"
    )
    assert errors == ["potential.F: only meaningful for the stark potential"]


def test_validate_wavefunction_parameter_coupling():
    raw = {"potential": "zero", "phi.sigma": 0.5}
    _, errors = validate_config(raw, experiment="matrix-element")
    assert errors == ["phi.sigma: only meaningful for gaussian wavefunctions"]
    raw = {"potential": "zero", "psi": "gaussian", "psi.width": 0.5}
    _, errors = validate_config(raw, experiment="matrix-element")
    assert errors == ["psi.width: only meaningful for bump wavefunctions"]
    raw = {"potential": "zero", "phi": "gaussian", "phi.sigma": 0.5}
    cfg, errors = validate_config(raw, experiment="matrix-element")
    assert errors == []
    assert cfg.params["phi.sigma"] == 0.5


def test_validate_bound_sweep_envelope():
    raw = {"potential": "zero", "bound.delta": 4.0, "t": 1.0}
    _, errors = validate_config(raw, experiment="bound-sweep")
    assert len(errors) == 1 and "must lie in (0, 1)" in errors[0]
    raw = {"potential": "zero", "sweep.lo": 2.0, "sweep.hi": -2.0}
    _, errors = validate_config(raw, experiment="bound-sweep")
    assert errors == ["sweep.lo: must not exceed sweep.hi"]
    raw = {"potential": "zero", "bound.delta": 1.0}
    cfg, errors = validate_config(raw, experiment="bound-sweep")
    assert errors == []
    assert cfg.params["sweep.n"] == 7


def test_validate_restricted_schedule_divisibility():
    raw = {"potential": "zero", "schedule": [16, 24, 64]}
    _, errors = validate_config(raw, experiment="refine-steps")
    assert len(errors) == 1 and "divide the largest" in errors[0]
    raw["refine.mode"] = "independent"
    cfg, errors = validate_config(raw, experiment="refine-steps")
    assert errors == []
    assert cfg.params["schedule"] == [16, 24, 64]


def test_validate_truncation_study_mode_exclusivity():
    raw = {"potential": "zero", "study.pointwise": True, "phi": "bump"}
    _, errors = validate_config(raw, experiment="truncation-study")
    assert errors == ["phi: not used in pointwise mode"]
    raw = {"potential": "zero", "point.x": 1.0}
    _, errors = validate_config(raw, experiment="truncation-study")
    assert errors == ["point.x: only used in pointwise mode"]
    raw = {"potential": "zero", "potential.truncation": 4.0}
    _, errors = validate_config(raw, experiment="truncation-study")
    assert errors == ["potential.truncation: the study sweeps truncation levels itself"]


def test_validate_oracle_crosscheck_restrictions():
    raw = {"potential": "inverted-quadratic", "potential.c": 0.5}
    _, errors = validate_config(raw, experiment="oracle-crosscheck")
    assert any("closed-form kernel" in e for e in errors)
    raw = {"potential": "zero", "seed": 3}
    _, errors = validate_config(raw, experiment="oracle-crosscheck")
    assert errors == ["seed: not recognized for experiment 'oracle-crosscheck'"]


def test_validate_demo_levels_must_divide_k():
    raw = {"demo.k": 256, "demo.levels": [4, 48]}
    _, errors = validate_config(raw, experiment="theorem31-demo")
    assert errors == ["demo.levels: every level must divide demo.k"]


@pytest.mark.parametrize("experiment, key, value, message", [
    ("truncation-study", "levels", "4", "expected a JSON list of truncation levels"),
    ("truncation-study", "levels", [1, -2], "levels must be positive numbers"),
    ("truncation-study", "levels", [2, 2], "levels must be strictly increasing"),
    ("refine-steps", "schedule", [16], "expected a JSON list with at least two step counts"),
    ("refine-steps", "schedule", [16, 32.0], "step counts must be positive integers"),
    ("refine-steps", "schedule", [32, 16], "step counts must be strictly increasing"),
    ("theorem31-demo", "demo.levels", [], "expected a JSON list of spike levels"),
    ("theorem31-demo", "demo.levels", [4, True], "spike levels must be positive integers"),
    ("theorem31-demo", "demo.levels", [16, 4], "spike levels must be strictly increasing"),
])
def test_validate_increasing_lists(experiment, key, value, message):
    raw = {key: value} if experiment == "theorem31-demo" else {"potential": "zero", key: value}
    _, errors = validate_config(raw, experiment=experiment)
    assert errors == [f"{key}: {message}"]


def test_validate_seed_bounds():
    for bad in (-1, 2**64, True, 1.5):
        _, errors = validate_config(
            {"potential": "zero", "seed": bad}, experiment="q-estimate"
        )
        assert len(errors) == 1 and errors[0].startswith("seed:")
    cfg, errors = validate_config(
        {"potential": "zero", "seed": 2**64 - 1}, experiment="q-estimate"
    )
    assert errors == []
    assert cfg.params["seed"] == 2**64 - 1


Q_CFG = """
potential = harmonic
potential.omega = 1.0
t = 0.5
point.x = 0.4
point.y = -0.3
mc.n_samples = 2000
mc.n_steps = 16
"""


def test_main_q_estimate_round_trip(tmp_path, capsys):
    cfg = _write(tmp_path, "q.cfg", Q_CFG)
    out = tmp_path / "run.csv"
    argv = ["q-estimate", "--config", cfg, "--output", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout.strip().endswith(f"wrote {out}")
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == ("x,y,t,n_steps,n_samples,q_mean,q_stderr,"
                        "divergence_suspected,heavy_mass_fraction")
    assert len(lines) == 2
    assert lines[1].split(",")[7] == "false"
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_main_seed_override_changes_estimate(tmp_path):
    cfg = _write(tmp_path, "q.cfg", Q_CFG)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["q-estimate", "--config", cfg, "--output", str(out_a)]) == 0
    assert main(["q-estimate", "--config", cfg, "--output", str(out_b),
                 "--seed", "1"]) == 0
    mean_a = float(out_a.read_text().splitlines()[1].split(",")[5])
    mean_b = float(out_b.read_text().splitlines()[1].split(",")[5])
    assert mean_a != mean_b
    se = float(out_a.read_text().splitlines()[1].split(",")[6])
    assert abs(mean_a - mean_b) < 8 * se  # same law, different draws


def test_main_validate_subcommand(tmp_path, capsys):
    good = _write(tmp_path, "good.cfg",
                  "experiment = q-estimate\npotential = zero\n")
    assert main(["validate", "--config", good]) == 0
    assert "config ok: experiment=q-estimate" in capsys.readouterr().out
    bad = _write(tmp_path, "bad.cfg",
                 "experiment = q-estimate\npotential = zero\nbogus = 1\n")
    assert main(["validate", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "config error: bogus: not recognized" in err


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "q.cfg", "potential = zero\nmc.n_samples = -5\n")
    assert main(["q-estimate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mc.n_samples:")


@pytest.mark.parametrize("experiment, line", [
    ("q-estimate", "mc.top_k = 10"),
    ("q-estimate", "mc.heavy_fraction = 0.5"),
    ("truncation-study", "oracle.tolerance = 0.001"),
    ("oracle-crosscheck", "oracle.tolerance = 0.001"),
], ids=["top-k", "heavy-fraction", "study-tolerance", "crosscheck-tolerance"])
def test_main_rejects_verdict_constants_as_keys(tmp_path, capsys, experiment, line):
    # the heavy-tail rule and the crosscheck tolerance are constants, not config keys
    potential = "harmonic" if experiment == "oracle-crosscheck" else "zero"
    cfg = _write(tmp_path, "c.cfg", f"potential = {potential}\n{line}\n")
    out = tmp_path / "c.csv"
    assert main([experiment, "--config", cfg, "--output", str(out)]) == 2
    key = line.partition(" =")[0]
    assert capsys.readouterr().err.startswith(
        f"config error: {key}: not recognized for experiment '{experiment}'")
    assert not out.exists()


def test_every_key_spec_is_allowed_somewhere_and_every_allowed_key_has_one():
    allowed = frozenset().union(*(keys for _, keys, _ in _EXPERIMENTS.values()))
    assert set(_KEY_SPECS) == allowed


def test_every_catalog_parameter_key_has_a_spec_in_its_group():
    for _, keys, _ in _POTENTIALS.values():
        assert all(key.startswith("potential.") and key in _KEY_SPECS for key in keys)
    for _, suffixes in _WAVEFUNCTIONS.values():
        for prefix in ("phi", "psi"):
            assert all(prefix + suffix in _KEY_SPECS for suffix in suffixes)


def _required(name: str) -> dict:
    # a potential's required keys are its parameters without a default; 0.5 suits each
    return {key: 0.5 for key in _POTENTIALS[name][1] if _KEY_SPECS[key].default is None}


@pytest.mark.parametrize("name", list(_POTENTIALS))
def test_each_potential_builds_from_its_required_keys_alone(name):
    cfg, errors = validate_config({"potential": name, **_required(name)},
                                  experiment="q-estimate")
    assert errors == []
    V = _build_potential(cfg.params)
    assert V.dim == 1 and math.isfinite(float(V.evaluate([[0.3]])[0]))


@pytest.mark.parametrize("name", [n for n, (_, _, kernel) in _POTENTIALS.items() if kernel])
def test_oracle_crosscheck_runs_for_each_potential_with_a_kernel(tmp_path, capsys, name):
    lines = [f"potential = {name}", "t = 0.5", "quadrature.nodes_per_axis = 8",
             "oracle.L = 6.0", "oracle.n_points = 300"]
    lines += [f"{key} = {value}" for key, value in _required(name).items()]
    cfg = _write(tmp_path, "xq.cfg", "\n".join(lines) + "\n")
    out = tmp_path / "xq.csv"
    assert main(["oracle-crosscheck", "--config", cfg, "--output", str(out)]) == 0
    assert "oracle-crosscheck[" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows][:2] == ["kernel", "matrix-element"]
    assert all(row[-1] == "true" for row in rows)


def test_config_breaking_every_coupling_rule_reports_each_in_order(tmp_path, capsys):
    cfg = _write(tmp_path, "xq.cfg",
                 "potential = inverted-quadratic\n"
                 "potential.omega = 2.0\n"
                 "potential.F = 0.5\n"
                 "potential.truncation = 4.0\n"
                 "phi.sigma = 0.5\n"
                 "phi.tail_mass = 1e-6\n"
                 "psi = gaussian\n"
                 "psi.width = 0.5\n")
    assert main(["oracle-crosscheck", "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: potential.c: required for the inverted-quadratic potential",
        "config error: potential.omega: only meaningful for the harmonic potential",
        "config error: potential.F: only meaningful for the stark potential",
        "config error: phi.sigma: only meaningful for gaussian wavefunctions",
        "config error: phi.tail_mass: only meaningful for gaussian wavefunctions",
        "config error: psi.width: only meaningful for bump wavefunctions",
        "config error: potential.truncation: crosscheck needs a closed-form kernel",
        "config error: potential: oracle-crosscheck needs a closed-form kernel "
        "(zero, harmonic, stark)",
    ]


@pytest.mark.parametrize("experiment, line, message", [
    ("q-estimate", "t = 1" + "0" * 400, "t: expected a finite number"),
    ("truncation-study", "levels = [1, 1" + "0" * 400 + "]",
     "levels: levels must lie within the range of a double"),
], ids=["scalar", "levels"])
def test_main_reports_a_huge_integer_literal_as_a_config_error(tmp_path, capsys, experiment,
                                                                line, message):
    cfg = _write(tmp_path, "c.cfg", f"potential = zero\n{line}\n")
    assert main([experiment, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("experiment, line", [
    ("q-estimate", "potential = [1]"),
    ("q-estimate", "potential = {}"),
    ("matrix-element", "phi = {}"),
    ("matrix-element", "psi = [\"bump\"]"),
    ("refine-steps", "refine.mode = {\"restricted\": 1}"),
], ids=["potential-list", "potential-object", "phi-object", "psi-list", "refine-mode-object"])
def test_main_reports_a_list_or_object_choice_as_a_config_error(tmp_path, capsys, experiment,
                                                                  line):
    # a JSON list or object is unhashable, so it must not reach the membership test
    key = line.partition(" =")[0]
    potential = "" if key == "potential" else "potential = zero\n"
    cfg = _write(tmp_path, "c.cfg", f"{potential}{line}\n")
    assert main([experiment, "--config", cfg, "--output", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: expected one of ")


def test_main_unreadable_config_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["q-estimate", "--config", missing]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_unwritable_output_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "q.cfg",
                 "potential = zero\nmc.n_samples = 100\nmc.n_steps = 4\n")
    target = str(tmp_path / "no-such-dir" / "out.csv")
    assert main(["q-estimate", "--config", cfg, "--output", target]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_theorem31_demo(tmp_path, capsys):
    cfg = _write(tmp_path, "demo.cfg",
                 "demo.n_matrices = 3\n"
                 "demo.matrix_size = 8\n"
                 "demo.k = 16\n"
                 "demo.levels = [2, 8]\n")
    out = tmp_path / "demo.csv"
    assert main(["theorem31-demo", "--config", cfg, "--output", str(out)]) == 0
    assert "contraction bound held for 3/3" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "part,index,metric,value"
    parts = {line.split(",")[0] for line in lines[1:]}
    assert parts == {"contraction", "spike"}
    spike_rows = [l.split(",") for l in lines[1:] if l.startswith("spike,2,")]
    metrics = {r[2]: float(r[3]) for r in spike_rows}
    assert metrics["image-norm"] == pytest.approx(1.0, rel=1e-14)
    assert metrics["square-image-norm"] == pytest.approx(math.sqrt(2), rel=1e-14)
    assert metrics["resolvent-distance"] == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_main_demo_rejects_worker_override(tmp_path, capsys):
    # threading has no effect on the demo, so the key is not accepted there
    cfg = _write(tmp_path, "demo.cfg", "demo.n_matrices = 1\n")
    assert main(["theorem31-demo", "--config", cfg, "--workers", "4"]) == 2
    assert "workers: not recognized" in capsys.readouterr().err


def test_main_oracle_crosscheck(tmp_path, capsys):
    cfg = _write(tmp_path, "xq.cfg",
                 "potential = harmonic\n"
                 "t = 0.5\n"
                 "quadrature.nodes_per_axis = 16\n"
                 "oracle.L = 6.0\n"
                 "oracle.n_points = 400\n")
    out = tmp_path / "xq.csv"
    assert main(["oracle-crosscheck", "--config", cfg, "--output", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "check,x,y,t,value_a,value_b,rel_error,tol,pass"
    checks = [line.split(",")[0] for line in lines[1:]]
    assert checks == ["kernel", "matrix-element", "ground-energy"]
    assert all(line.split(",")[-1] == "true" for line in lines[1:])


def test_main_truncation_study_rejects_nan_levels(tmp_path, capsys):
    cfg = _write(tmp_path, "ts.cfg", "potential = inverted-quadratic\npotential.c = 0.5\n"
                                     "levels = [1, NaN]\n")
    out = tmp_path / "ts.csv"
    assert main(["truncation-study", "--config", cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: levels: levels must be positive")
    assert not out.exists()



def test_main_truncation_study_with_psi_zero_at_every_grid_node(tmp_path, capsys):
    # on oracle.n_points = 600 over [-8, 8], h = 16/601: this psi lies strictly
    # between the nodes 8/601 and 24/601, so the grid side of every level is 0
    cfg = _write(tmp_path, "ts.cfg",
                 "potential = harmonic\n"
                 f"psi.center = {16 / 601!r}\n"
                 f"psi.width = {4 / 601!r}\n"
                 "levels = [1, 4]\n"
                 "quadrature.nodes_per_axis = 4\n"
                 "mc.n_samples = 200\n"
                 "mc.n_steps = 8\n"
                 "oracle.n_points = 600\n")
    out = tmp_path / "ts.csv"
    assert main(["truncation-study", "--config", cfg, "--output", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.split(",")[1] == "0.0" for row in rows)
