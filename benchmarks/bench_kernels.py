"""Time the squared-L2 distance kernels.

Usage: python benchmarks/bench_kernels.py [--queries N] [--base N] [--depth D]
"""

import argparse
import time

import numpy as np

from pcnn import kernels


def time_fn(fn, *args, repeats=5, warmup=1):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--queries", type=int, default=1200)
    ap.add_argument("--base", type=int, default=6000)
    ap.add_argument("--depth", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    queries = np.ascontiguousarray(rng.normal(size=(args.queries, args.depth)))
    base = np.ascontiguousarray(rng.normal(size=(args.base, args.depth)))
    one = np.ascontiguousarray(queries[0])

    print(f"backend: {kernels.backend_name()}")
    print(f"workload: {args.queries} queries x {args.base} base, depth {args.depth}")
    header = f"{'kernel':<14} {'ms':>12}"
    print(header)
    print("-" * len(header))
    for name, fn, argv in (
        ("sqdist_one", kernels.sqdist_one, (one, base)),
        ("sqdist_many", kernels.sqdist_many, (queries, base)),
    ):
        print(f"{name:<14} {time_fn(fn, *argv, repeats=args.repeats) * 1e3:>12.3f}")


if __name__ == "__main__":
    main()
