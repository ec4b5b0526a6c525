"""Write the fixed-seed CLI audit CSVs, so two commits can be compared byte for byte.

    python tools/csv_audit.py OUT_DIR

Runs the seven experiment configs of `perfbench/cli_check.py` and the
truncation-study config of the truncation-cli workload
(`perfbench/workloads.py`) at seeds 11 and 12345 with workers 1 and 2:
32 CSVs, named `<config>-seed<seed>-workers<workers>.csv`.  An
experiment that takes no seed or worker count runs without that
override, so its four files should agree.  Run it in two checkouts and
compare with `diff -r`.  Exits nonzero if any run fails.
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


def audit_configs() -> dict[str, tuple[str, str]]:
    """(experiment, config text) by file stem prefix."""
    configs = {name: (name, text) for name, text in CONFIGS.items()}
    configs["truncation-cli"] = ("truncation-study", TruncationCli.config)
    return configs


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
        allowed = cli._ALLOWED[experiment]
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
