"""Throughput comparison of the compiled and numpy weight kernels.

Times the inner path-weight evaluation on its own and then a full
estimate_Q call, for each installed backend.  Both use a truncated
inverted quadratic: only clipped forms reach the kernel, because
unclipped ones are evaluated from per-path trapezoid sums.  Run from the
repo root:

    python benchmarks/bench_backends.py --n-paths 20000 --n-steps 128
"""

import argparse
import time

import numpy as np

from bridgekac.backend import HAVE_COMPILED, available_backends, quadratic_weights
from bridgekac.feynman_kac import estimate_Q
from bridgekac.potentials import inverted_quadratic, truncate
from bridgekac.stochastic import RngSeed, sample_bridge_batch

CLIPPED = truncate(inverted_quadratic(0.05), 8.0)


def time_call(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_weights(n_paths: int, n_steps: int, repeats: int) -> None:
    alpha = sample_bridge_batch(1, n_steps, n_paths, RngSeed(0).generator(0))
    out = np.empty(n_paths)
    work = n_paths * (n_steps + 1)
    print(f"weight kernel: {n_paths} paths x {n_steps} steps")
    base = None
    for backend in available_backends():
        secs = time_call(
            lambda: quadratic_weights(alpha, 0.3, -0.2, 1.0, CLIPPED.form,
                                      backend=backend, out=out),
            repeats,
        )
        rate = work / secs / 1e6
        note = ""
        if base is None:
            base = secs
        else:
            note = f"  ({secs / base:.2f}x slower than {available_backends()[0]})"
        print(f"  {backend:<8} {secs * 1e3:8.2f} ms   {rate:8.1f} M node-evals/s{note}")


def bench_estimate(n_samples: int, n_steps: int, repeats: int) -> None:
    print(f"estimate_Q:    {n_samples} samples x {n_steps} steps ({CLIPPED.name})")
    for backend in available_backends():
        secs = time_call(
            lambda: estimate_Q(0.3, -0.2, CLIPPED, 1.0, n_samples, n_steps,
                               RngSeed(1), backend=backend),
            repeats,
        )
        print(f"  {backend:<8} {secs * 1e3:8.2f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-paths", type=int, default=20000)
    parser.add_argument("--n-steps", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    if not HAVE_COMPILED:
        print("note: compiled extension not installed; timing the numpy kernel only")
    bench_weights(args.n_paths, args.n_steps, args.repeats)
    bench_estimate(args.n_paths, args.n_steps, args.repeats)


if __name__ == "__main__":
    main()
