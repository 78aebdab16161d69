"""Time the three numpy kernels on synthetic shapes.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --grid 128 --points 2000000 --repeat 5

The deposit benchmarks mirror the transport verifier's workload: cell
masses pushed into a 4x oversampled histogram, as one large 1-D call
(rs1d) and as one batched call of many short columns (rs2d).  The scan
benchmark uses the maximizer's full correlation tables.
"""

import argparse
import time

import numpy as np

from bellforge import _kernels


def _best_of(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_chsh_scan(grid, rng):
    tables = [rng.uniform(-1.0, 1.0, (grid, grid)) for _ in range(4)]
    return lambda: _kernels.chsh_scan(*tables)


def bench_deposit_points(count, rng):
    x = rng.normal(size=count)
    w = np.full(count, 1.0 / count)
    nbins = 4096
    return lambda: _kernels.deposit_points(x, w, -6.0, 12.0 / nbins, nbins)


def _intervals(shape, rng):
    centers = np.sort(rng.normal(size=shape), axis=0)
    half = np.abs(rng.normal(scale=0.01, size=shape))
    return centers - half, centers + half, np.full(shape, 1.0 / shape[0])


def bench_deposit_intervals(count, rng):
    lo, hi, w = _intervals((count,), rng)
    nbins = 16384
    return lambda: _kernels.deposit_intervals(lo, hi, w, -8.0, 16.0 / nbins, nbins)


def bench_deposit_intervals_2d(rng, columns=256, rows=257, nbins=1024):
    lo, hi, w = _intervals((rows, columns), rng)
    return lambda: _kernels.deposit_intervals(lo, hi, w, -8.0, 16.0 / nbins, nbins)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=64, help="angle grid side for the scan")
    parser.add_argument("--points", type=int, default=1_000_000, help="point deposit sample count")
    parser.add_argument("--intervals", type=int, default=50_000, help="1-D interval deposit count")
    parser.add_argument("--repeat", type=int, default=3, help="repeats, best time kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    rows = [
        ("chsh_scan (%d^4 settings)" % args.grid, bench_chsh_scan(args.grid, rng)),
        ("deposit_points (%.1e pts)" % args.points, bench_deposit_points(args.points, rng)),
        ("deposit_intervals (%.1e x 16384)" % args.intervals,
         bench_deposit_intervals(args.intervals, rng)),
        ("deposit_intervals (256 cols x 257, 1024)", bench_deposit_intervals_2d(rng)),
    ]
    print("%-40s %10s" % ("kernel", "best [ms]"))
    for label, fn in rows:
        print("%-40s %10.2f" % (label, _best_of(fn, args.repeat) * 1e3))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
