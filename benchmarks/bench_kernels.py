"""Time the numpy kernels and the Wigner transform on synthetic shapes.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
    PYTHONPATH=src python3 benchmarks/bench_kernels.py --grid 128 --points 2000000 --repeat 5

The deposit benchmarks mirror the transport verifier's workload: cell
masses pushed into a 4x oversampled histogram, as one large 1-D call
(rs1d) and as one batched call of many short columns (rs2d).  The scan
benchmark uses the maximizer's full correlation tables.  The Wigner rows
time the real-FFT transform on the `wigner` command's states: the two-mode
psi-plus grid state at n=64 (64 x1 slabs) and at n=32, a 1-D two-packet
state at n=1024, and the 1-D marginal check at the command's default n=256
against its padded-FFT reference.  The 1-D map row times ``rs_map_1d`` on a
two-Gaussian state at n=4096, the largest 1-D shape of the transport
workload.  The 2-D transport rows time the three stages of one
deterministic `rs2d` op at the benchmark's transport shape (n=256, rho=0,
sigma=0.7, xmax=20): the chain, its verification and the off-pair
distance.  Both orderings build this one chain, since the state equals its
transpose.  The transform rows time, at the same shape, the largest array
the verifier transforms: the (4n)^2 padded transform of the axis-0 padded
state along axis 1, and a plain ``fourier`` of that (4n)^2 result.  The
Monte Carlo rows time the cell sampler of `rs1d --mc` and
`rs2d --mc` at 2e5 draws over the 4096 cells of a two-Gaussian state and
the 256^2 cells of the transport shape, each next to the
`Generator.choice` call whose draws it reproduces, and one 1-D Monte
Carlo verification at n=2048.  The ridge row times the joint record and
its conditional ridge (``ak_distribution`` then ``momentum_peaks``) at the
`ak-compare` defaults (n=1024, b=0.5).  The last rows time the per-call CLI
layer: building the argument parser, and one warm in-process `cli.main`
call, which reuses the parser built by the first call, of an `lhv` op and
of an `rs2d` op at the transport shape, deterministic and with
`--mc 200000`; the `rs2d` rows hold the whole op, state to JSON.
"""

import argparse
import contextlib
import functools
import io
import time

import numpy as np

from bellforge import _kernels, akmeas, causal, cli, waves, wigner


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


def bench_marginal_errors_1d(n=256):
    psi = waves.two_gaussian_packet(n=n)
    grid = wigner.wigner_transform(psi)
    return ("marginal_errors_1d (1-D, %d)" % n, functools.partial(wigner.marginal_errors_1d, grid))


def bench_rs_map_1d(n=4096):
    psi = waves.two_gaussian_packet(n=n)
    return ("rs_map_1d (two-gaussian, %d)" % n, functools.partial(causal.rs_map_1d, psi))


def bench_transport_2d():
    psi = waves.correlated_gaussian_2d(rho=0.0, sigma=0.7, n=256, xmax=20.0)
    chain = causal.rs_map_2d(psi)
    return [
        ("rs_map_2d (256^2)", functools.partial(causal.rs_map_2d, psi)),
        ("verify_marginals_2d (256^2)", functools.partial(causal.verify_marginals_2d, chain)),
        ("ccs_distance (256^2)", functools.partial(causal.ccs_distance, chain)),
    ]


def bench_transforms(n=256):
    psi = waves.correlated_gaussian_2d(rho=0.0, sigma=0.7, n=n, xmax=20.0)
    padded0 = waves.padded_transform(psi, 0, causal._FINE)
    big = waves.padded_transform(padded0, 1, causal._FINE)
    m = causal._FINE * n
    return [
        ("fourier (%d^2, axis 1)" % m, functools.partial(waves.fourier, big, 1)),
        ("padded_transform (%dx%d -> %d^2)" % (m, n, m),
         functools.partial(waves.padded_transform, padded0, 1, causal._FINE)),
    ]


def bench_monte_carlo(draws=200_000):
    psi = waves.two_gaussian_packet(n=4096)
    psi2 = waves.correlated_gaussian_2d(rho=0.0, sigma=0.7, n=256, xmax=20.0)
    rows = []
    for label, masses in (("4096", psi.density() * psi.axes[0].spacing),
                          ("256^2", psi2.density().ravel())):
        def choice(masses=masses):
            np.random.default_rng(1).choice(masses.size, draws, p=masses / masses.sum())

        def sample(masses=masses):
            causal._sample_cells(masses, draws, np.random.default_rng(1))

        rows += [("rng.choice (%.0e draws, %s)" % (draws, label), choice),
                 ("_sample_cells (%.0e draws, %s)" % (draws, label), sample)]
    psi = waves.two_gaussian_packet(n=2048)
    m = causal.rs_map_1d(psi)
    rows.append(("verify_marginals_1d mc (2048, %.0e)" % draws, functools.partial(
        causal.verify_marginals_1d, m, mc_samples=draws, seed=7)))
    return rows


def bench_ridge(n=1024, b=0.5):
    psi = waves.gaussian_packet(sigma=1.0, t=1.0, n=n)
    return ("ak_distribution + momentum_peaks (%d)" % n,
            lambda: akmeas.momentum_peaks(akmeas.ak_distribution(psi, b)))


_RS2D_TRANSPORT = ["rs2d", "--rho", "0", "--sigma", "0.7", "--n", "256", "--xmax", "20"]


def bench_cli():
    rows = [("cli.build_parser()", cli.build_parser)]
    for label, argv in (
        ("lhv --correlators", ["lhv", "--correlators=0.7071,-0.7071,0.7071,0.7071"]),
        ("rs2d 256^2", _RS2D_TRANSPORT),
        ("rs2d 256^2 --mc 2e5", _RS2D_TRANSPORT + ["--mc", "200000"]),
    ):
        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv))

        call()
        rows.append(("cli.main(%s), warm" % label, call))
    return rows


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
        ("wigner_transform (psi-plus grid, 64^2)", functools.partial(
            wigner.wigner_transform, waves.psi_marginal_state(+1, 10.0, n=64))),
        ("wigner_transform (psi-plus grid, 32^2)", functools.partial(
            wigner.wigner_transform, waves.psi_marginal_state(+1, 10.0, n=32))),
        ("wigner_transform (1-D, 1024)", functools.partial(
            wigner.wigner_transform, waves.two_gaussian_packet(n=1024, xmax=24.0))),
        bench_marginal_errors_1d(),
        bench_rs_map_1d(),
        *bench_transport_2d(),
        *bench_transforms(),
        *bench_monte_carlo(),
        bench_ridge(),
        *bench_cli(),
    ]
    print("%-40s %10s" % ("kernel", "best [ms]"))
    for label, fn in rows:
        print("%-40s %10.2f" % (label, _best_of(fn, args.repeat) * 1e3))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
