"""Write the fixed-seed CLI audit CSVs and config messages, so two commits can be
compared byte for byte.

    python tools/csv_audit.py OUT_DIR

Runs the seven experiment configs of `perfbench/cli_check.py` and the
truncation-study config of the truncation-cli workload
(`perfbench/workloads.py`) at seeds 11 and 12345 with workers 1 and 2:
32 CSVs, named `<config>-seed<seed>-workers<workers>.csv`.  An
experiment that takes no seed or worker count runs without that
override, so its four files should agree.  It also writes
`config-errors.txt`: the exit code and stderr of `cli.main` for each of
`INVALID`, a fixed list of rejected configs (an exception that escapes
`cli.main` is written as `raised <type>: <message>`).  Run it in two
checkouts and compare with `diff -r`.  Exits nonzero if any CSV run
fails or an invalid config exits 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from bridgekac import cli  # noqa: E402
from cli_check import CONFIGS  # noqa: E402
from workloads import TruncationCli  # noqa: E402

SEEDS = (11, 12345)
WORKERS = (1, 2)

_HUGE = "1" + "0" * 400  # an integer literal past the largest double

# (name, subcommand, config text): one config or more per experiment-resolution error,
# per coercer and per coupling rule of `cli`
INVALID = [
    ("parse-errors", "q-estimate", "potential = zero\nno equals sign\n = 1\npotential = stark\n"),
    ("experiment-missing", "validate", "potential = zero\n"),
    ("experiment-unknown", "validate", "experiment = frobnicate\npotential = zero\n"),
    ("experiment-null", "q-estimate", "experiment = null\npotential = zero\n"),
    ("experiment-conflict", "q-estimate", "experiment = matrix-element\npotential = zero\n"),
    ("key-unknown", "oracle-crosscheck", "potential = zero\nseed = 3\nbogus = 1\n"),
    ("key-required", "validate", "experiment = q-estimate\n"),
    ("float", "q-estimate", "potential = zero\npoint.x = NaN\npoint.y = one\n"),
    ("float-huge", "q-estimate", f"potential = zero\nt = {_HUGE}\n"),
    ("float-positive", "q-estimate", "potential = zero\nt = -1\n"),
    ("float-field", "q-estimate", "potential = stark\npotential.F = 0\n"),
    ("float-tail-mass", "matrix-element", "potential = zero\nphi = gaussian\nphi.tail_mass = 0.75\n"),
    ("int", "q-estimate", "potential = zero\nmc.n_samples = 1.5\nmc.n_steps = true\n"),
    ("int-positive", "q-estimate", "potential = zero\nworkers = 0\n"),
    ("int-at-least", "truncation-study", "potential = zero\noracle.n_points = 2\n"),
    ("seed", "q-estimate", f"potential = zero\nseed = {2**64}\n"),
    ("bool", "truncation-study", "potential = zero\nstudy.pointwise = yes\n"),
    ("string", "validate", "experiment = q-estimate\npotential = zero\noutput_path = 3\n"),
    ("choice", "matrix-element", "potential = square-well\nphi = box\npsi = 1\n"),
    ("choice-refine-mode", "refine-steps", "potential = zero\nrefine.mode = fast\n"),
    ("choice-list", "q-estimate", "potential = [1]\n"),
    ("levels-not-a-list", "truncation-study", "potential = zero\nlevels = 4\n"),
    ("levels-positive", "truncation-study", "potential = zero\nlevels = [1, NaN]\n"),
    ("levels-increasing", "truncation-study", "potential = zero\nlevels = [2, 2]\n"),
    ("levels-huge", "truncation-study", f"potential = zero\nlevels = [1, {_HUGE}]\n"),
    ("schedule-short", "refine-steps", "potential = zero\nschedule = [16]\n"),
    ("schedule-integers", "refine-steps", "potential = zero\nschedule = [16, 32.0]\n"),
    ("demo-levels-increasing", "theorem31-demo", "demo.levels = [16, 4]\n"),
    ("potential-required", "q-estimate", "potential = stark\n"),
    ("potential-required-c", "truncation-study", "potential = inverted-quadratic\n"),
    ("potential-meaningful", "q-estimate",
     "potential = zero\npotential.omega = 2\npotential.F = 1\npotential.c = 1\n"),
    ("potential-meaningful-invalid", "bound-sweep", "potential = box\npotential.omega = 2\n"),
    ("wavefunction-meaningful", "matrix-element",
     "potential = zero\nphi.sigma = 0.5\nphi.tail_mass = 0.1\npsi = gaussian\npsi.width = 0.5\n"),
    ("bound-delta", "bound-sweep", "potential = zero\nbound.delta = 4\n"),
    ("sweep-order", "bound-sweep", "potential = zero\nsweep.lo = 2\nsweep.hi = -2\n"),
    ("schedule-divides", "refine-steps", "potential = zero\nschedule = [16, 24, 64]\n"),
    ("study-truncation", "truncation-study", "potential = zero\npotential.truncation = 4\n"),
    ("study-pointwise", "truncation-study",
     "potential = zero\nstudy.pointwise = true\nphi = bump\npsi.center = 1\n"
     "quadrature.nodes_per_axis = 8\noracle.L = 4\n"),
    ("study-point", "truncation-study", "potential = zero\npoint.x = 1\npoint.y = 2\n"),
    ("crosscheck-truncation", "oracle-crosscheck", "potential = harmonic\npotential.truncation = 4\n"),
    ("crosscheck-kernel", "oracle-crosscheck", "potential = inverted-quadratic\npotential.c = 0.5\n"),
    ("demo-divides", "theorem31-demo", "demo.k = 256\ndemo.levels = [4, 48]\n"),
    ("every-coupling", "oracle-crosscheck",
     "potential = inverted-quadratic\npotential.omega = 2\npotential.F = 0.5\n"
     "potential.truncation = 4\nphi.sigma = 0.5\nphi.tail_mass = 1e-6\npsi = gaussian\n"
     "psi.width = 0.5\n"),
]


def audit_configs() -> dict[str, tuple[str, str]]:
    """(experiment, config text) by file stem prefix."""
    configs = {name: (name, text) for name, text in CONFIGS.items()}
    configs["truncation-cli"] = ("truncation-study", TruncationCli.config)
    return configs


def config_errors(out_dir: str) -> int:
    """Write `config-errors.txt`; returns the number of invalid configs that exited 0."""
    accepted = 0
    blocks = []
    config_path = os.path.join(out_dir, "invalid.cfg")
    for name, command, text in INVALID:
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv_run = [command, "--config", config_path]
        if command != "validate":
            argv_run += ["--output", os.path.join(out_dir, "invalid.csv")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                outcome = f"exit {cli.main(argv_run)}"
            except Exception as exc:  # a crash is recorded, so that it shows in the diff
                outcome = f"raised {type(exc).__name__}: {exc}"
        accepted += outcome == "exit 0"
        blocks.append(f"== {name}: {command}\n{text}-- {outcome}\n{err.getvalue()}")
    os.remove(config_path)
    with open(os.path.join(out_dir, "config-errors.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(blocks))
    return accepted


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = args[0]
    os.makedirs(out_dir, exist_ok=True)
    runs = failed = 0
    for stem, (experiment, text) in audit_configs().items():
        config_path = os.path.join(out_dir, f"{stem}.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        allowed = cli._EXPERIMENTS[experiment][1]
        for seed in SEEDS:
            for workers in WORKERS:
                output = os.path.join(out_dir, f"{stem}-seed{seed}-workers{workers}.csv")
                if os.path.exists(output):
                    os.remove(output)  # so that a failed run leaves no stale file
                runs += 1
                argv_run = [experiment, "--config", config_path, "--output", output]
                if "seed" in allowed:
                    argv_run += ["--seed", str(seed)]
                if "workers" in allowed:
                    argv_run += ["--workers", str(workers)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv_run)
                if code != 0 or not os.path.isfile(output):
                    print(f"FAILED {os.path.basename(output)}: exit code {code}", file=sys.stderr)
                    failed += 1
        os.remove(config_path)
    print(f"{runs - failed} of {runs} CSVs written to {out_dir}")
    accepted = config_errors(out_dir)
    print(f"{len(INVALID)} invalid configs written to config-errors.txt, {accepted} accepted")
    return 1 if failed or accepted else 0


if __name__ == "__main__":
    sys.exit(main())
