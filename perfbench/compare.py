"""Summarise or compare records written by `run.py --record FILE`.

    python3 perfbench/compare.py runs.jsonl              # medians and spreads
    python3 perfbench/compare.py runs.jsonl --json       # the same, as JSON
    python3 perfbench/compare.py parent.jsonl change.jsonl

A spread is the distance between the first and third quartile of a
metric's values over runs, as a share of their median.  A comparison
reports, per workload and metric, how far the second file's median moved
from the first's and whether that stays within the bound declared in
BENCHMARK.json.  Records whose backend or thread settings differ are
refused: their timings measure different programs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXED_ENV = ("have_compiled", "default_backend", "workers", "blas_threads", "nproc")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def env_mismatch(records: list[dict]) -> list[str]:
    """Settings in FIXED_ENV that take more than one value across `records`."""
    return [key for key in FIXED_ENV
            if len({json.dumps(r["env"].get(key)) for r in records}) > 1]


def summarize(records: list[dict]) -> dict:
    """workload -> metric -> median, quartiles, spread, unit and run count."""
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out: dict[str, dict] = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            out.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "unit": units[name], "runs": len(vals),
            }
    return out


def bounds() -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("other", nargs="?")
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)

    base = load(args.base)
    other = load(args.other) if args.other else []
    mismatch = env_mismatch(base + other)
    if mismatch:
        print(f"refusing to compare: runs differ in {', '.join(mismatch)}", file=sys.stderr)
        return 2
    summary = summarize(base)
    if not args.other:
        if args.json:
            print(json.dumps({"env": base[0]["env"],
                              "seeds": sorted({r["seed"] for r in base}),
                              "seconds": sorted({r["seconds"] for r in base}),
                              "workloads": summary}, indent=2))
            return 0
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                print(f"{workload:<16}{name:<38}{s['median']:>12.5g} {s['unit']:<6}"
                      f" spread {s['spread']:.3f} over {s['runs']} runs")
        return 0

    limits = bounds()
    changed = summarize(other)
    status = 0
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            if name not in limits or name not in changed.get(workload, {}):
                continue
            new = changed[workload][name]["median"]
            worse = (new - s["median"]) / s["median"]
            if limits[name]["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= limits[name]["bound"] else "WORSE"
            status = status or int(verdict != "ok")
            print(f"{workload:<16}{name:<16}{s['median']:>12.5g} -> {new:<12.5g}"
                  f"{s['unit']:<4} worse by {worse:+.3f} (bound {limits[name]['bound']}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
