"""Paired A/B timing of a git revision against the working tree: warm
in-process commands, cold commands and single library calls.

Run from the repository root:

    python3 benchmarks/bench_ab.py                      # HEAD against src/, every op
    python3 benchmarks/bench_ab.py --base HEAD~1 --pairs 10 --out BENCH.json
    python3 benchmarks/bench_ab.py --ops rs2d,rs2d-mc --pairs 4
    python3 benchmarks/bench_ab.py --base HEAD~1 --ops cold-import,cold-chsh,cold-chsh-lhv
    python3 benchmarks/bench_ab.py --base HEAD~1 --ops rs_map_1d,rs_map_2d --calls 11

Every op has one of three kinds:

* ``warm``: one ``cli.main(argv)`` call in process.  ``sweep`` is the
  library op of perfbench's ``bell`` workload instead: 1000
  ``spinor.chsh_value`` calls on seeded random states and settings, drawn
  as perfbench's ``sweep_inputs`` draws them (outside the timed call); its
  stdout is the JSON of the 1000 values.
* ``cold``: ``python ARGV`` from spawn to exit, import included, since
  that is what a user waits for: every README example, ``import
  bellforge.cli`` alone, and the README pipe (``|`` feeds the first
  command's stdout to the second; one sample spans both).
* ``call``: one library or kernel call on perfbench's shapes.  argv is a
  setup, run once, and the timed expression; both see numpy as ``np`` and
  bellforge's modules by name.

``cli.main`` fixes glibc's mmap and trim thresholds once per process, so
``warm`` and ``cold`` ops time with that heap; ``call`` ops never run
``cli.main`` and time with glibc's dynamic thresholds, as a library caller
does.

Both trees are copied into a temporary directory without ``__pycache__``:
the base is ``git archive REV src``, the change is ``src/`` as it stands.
An untimed round then runs every op once per tree, so both trees hold the
same bytecode cache when timing starts (none if PYTHONDONTWRITEBYTECODE is
set); the JSON records that variable and whether ``.pyc`` files existed.
A pair runs, for every op, one fresh process of each tree back to back, and
the tree that goes first flips from pair to pair, so drift in the machine's
load and the order in which two processes run fall on both trees alike.  A
warm or call process makes one untimed call (imports, caches, the
allocator's first pages) and times ``--calls`` more with stdout captured;
its sample is their median.  A cold sample is one run.  One process per op
keeps the allocator state one op leaves behind out of the next op's time;
``perfbench/`` times the shuffled mix instead.

Per op the result gives each tree's median sample, the per-pair ratios
change/base, their median with a 95 % bootstrap interval (seeded, so the
same samples give the same interval) and the number of pairs in which the
change was faster.  A gain counts only if the interval lies below 1.
``same_stdout`` says whether the two trees printed identical bytes in the
untimed round; it is null for call ops, which print nothing.  An op that
fails on either tree, or that the base lacks, stops the run with the op,
the tree and the failing process's stderr.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

BF = ["-m", "bellforge"]
RS2D = ["rs2d", "--rho", "0", "--sigma", "0.7", "--n", "256", "--xmax", "20"]
# perfbench's transport rs2d state, and the chain one such op builds
RS2D_STATE = "psi = waves.correlated_gaussian_2d(rho=0.0, sigma=0.7, n=256, xmax=20.0)"
RS2D_CHAIN = RS2D_STATE + "; chain = causal.rs_map_2d(psi)"
PADDED0 = RS2D_STATE + "; p0 = waves.padded_transform(psi, 0, causal._FINE)"
README_RS2D_STATE = "psi = waves.correlated_gaussian_2d(rho=0.6, sigma=1.0, n=512, xmax=20.0)"
INTERVALS = ("rng = np.random.default_rng(0); c = np.sort(rng.normal(size={0}), axis=0); "
             "h = np.abs(rng.normal(scale=0.01, size={0})); lo, hi = c - h, c + h; "
             "w = np.full({0}, 1.0 / len(c))")

# (name, kind, argv)
OPS = (
    # the transport shapes of perfbench's mix, and the commands that share
    # waves.fourier with them
    ("rs2d", "warm", RS2D),
    ("rs2d-mc", "warm", RS2D + ["--mc", "200000", "--seed", "7"]),
    ("rs1d-2048", "warm", ["rs1d", "--state", "two-gaussian", "--n", "2048"]),
    ("rs1d-4096", "warm", ["rs1d", "--state", "two-gaussian", "--n", "4096"]),
    ("rs1d-2048-mc", "warm", ["rs1d", "--state", "two-gaussian", "--n", "2048",
                              "--mc", "200000", "--seed", "7"]),
    ("rs1d-4096-mc", "warm", ["rs1d", "--state", "two-gaussian", "--n", "4096",
                              "--mc", "200000", "--seed", "7"]),
    ("chsh-maximize", "warm", ["chsh", "--state", "psi-plus", "--kinds", "LELE", "--maximize"]),
    ("ak-compare", "warm", ["ak-compare"]),
    # n=256 runs its record blocks on the calling thread, with no pool
    ("ak-compare-256", "warm", ["ak-compare", "--n", "256"]),
    ("wigner-grid", "warm", ["wigner", "--state", "psi-plus-grid", "--n", "64"]),
    # perfbench's bell round draws the n=32 grid state twice, n=64 once
    ("wigner-grid-32", "warm", ["wigner", "--state", "psi-plus-grid", "--n", "32"]),
    # n=16 runs its slabs on the calling thread, with no pool
    ("wigner-grid-16", "warm", ["wigner", "--state", "psi-plus-grid", "--n", "16"]),
    # the displaced-parity searches of perfbench's bell round
    ("parity-protocol", "warm", ["parity-chsh", "--r", "1.3"]),
    ("parity-full", "warm", ["parity-chsh", "--r", "1.3", "--search", "full"]),
    # not a command: the worker runs the chsh_value sweep with this seed
    ("sweep", "warm", ["sweep", "7"]),
    ("lhv", "warm", ["lhv", "--correlators=0.7071,-0.7071,0.7071,0.7071"]),
    # the README examples, in its order
    ("cold-import", "cold", ["-c", "import bellforge.cli"]),
    ("cold-chsh", "cold", BF + ["chsh", "--state", "psi-plus", "--kinds", "LLLL",
                                "--angles", "0,22.5,45,67.5", "--degrees"]),
    ("cold-lhv", "cold", BF + ["lhv", "--correlators", "0.7071,-0.7071,0.7071,0.7071"]),
    ("cold-chsh-lhv", "cold", BF + ["chsh", "--state", "singlet", "--angles",
                                    "0,0.3927,0.7854,1.1781", "|"] + BF + ["lhv", "--from-state"]),
    ("cold-rs1d", "cold", BF + ["rs1d", "--state", "gaussian", "--sigma", "1", "--t", "0"]),
    ("cold-rs1d-mc", "cold", BF + ["rs1d", "--state", "two-gaussian", "--mc", "200000",
                                   "--seed", "7"]),
    ("cold-rs2d", "cold", BF + ["rs2d", "--rho", "0.6", "--ordering", "px", "--n", "512",
                                "--xmax", "20"]),
    ("cold-marginal-theorem", "cold", BF + ["marginal-theorem", "--cutoffs", "10,100,1000,10000"]),
    ("cold-wigner", "cold", BF + ["wigner", "--state", "excited", "--level", "1"]),
    ("cold-parity-chsh", "cold", BF + ["parity-chsh", "--r", "1"]),
    ("cold-parity-chsh-fixed", "cold", BF + ["parity-chsh", "--r", "1", "--displacements",
                                             "0.175,0,0,-0.175"]),
    ("cold-ak-compare", "cold", BF + ["ak-compare", "--sigma", "1", "--t", "1", "--b", "0.5",
                                      "--out", "ridge.csv"]),
    ("cold-waves-dump", "cold", BF + ["waves", "dump", "--state", "gaussian", "--t", "2",
                                      "--rep", "p", "--out", "packet.csv"]),
    # the kernels: the maximizer's full tables, point deposits, interval
    # deposits as one 1-D call and as one batched call of 256 columns
    ("chsh_scan", "call", ["rng = np.random.default_rng(0); "
                           "t = [rng.uniform(-1.0, 1.0, (64, 64)) for _ in range(4)]",
                           "_kernels.chsh_scan(*t)"]),
    ("deposit_points", "call", ["x = np.random.default_rng(0).normal(size=10**6); "
                                "w = np.full(10**6, 1e-6)",
                                "_kernels.deposit_points(x, w, -6.0, 12.0 / 4096, 4096)"]),
    ("deposit_intervals", "call", [INTERVALS.format("50000"),
                                   "_kernels.deposit_intervals(lo, hi, w, -8.0, 16.0 / 16384, 16384)"]),
    ("deposit_intervals-2d", "call", [INTERVALS.format("(257, 256)"),
                                      "_kernels.deposit_intervals(lo, hi, w, -8.0, 16.0 / 1024, 1024)"]),
    # the Wigner transform on the wigner command's states, and its marginal checks
    ("wigner_transform-64", "call", ["psi = waves.psi_marginal_state(+1, 10.0, n=64)",
                                     "wigner.wigner_transform(psi)"]),
    ("wigner_transform-32", "call", ["psi = waves.psi_marginal_state(+1, 10.0, n=32)",
                                     "wigner.wigner_transform(psi)"]),
    ("wigner_transform-1d", "call", ["psi = waves.two_gaussian_packet(n=1024, xmax=24.0)",
                                     "wigner.wigner_transform(psi)"]),
    ("marginal_errors_1d", "call", ["grid = wigner.wigner_transform(waves.two_gaussian_packet(n=256))",
                                    "wigner.marginal_errors_1d(grid)"]),
    ("marginal_errors_2d-64", "call", [
        "summary = wigner.wigner_transform(waves.psi_marginal_state(+1, 10.0, n=64))",
        "wigner.marginal_errors_2d(summary)"]),
    # the S functional of marginal-theorem --grid at the test's shape
    ("s_functional-512", "call", ["psi = waves.psi_marginal_state(+1, 10.0, n=512, xmax=12.0)",
                                  "psbell.s_functional(psi)"]),
    # the largest 1-D map, and the stages of one transport rs2d op
    ("rs_map_1d", "call", ["psi = waves.two_gaussian_packet(n=4096)", "causal.rs_map_1d(psi)"]),
    ("rs_map_2d", "call", [RS2D_STATE, "causal.rs_map_2d(psi)"]),
    # the README rs2d state
    ("rs_map_2d-512", "call", [README_RS2D_STATE, "causal.rs_map_2d(psi)"]),
    ("verify_marginals_2d", "call", [RS2D_CHAIN, "causal.verify_marginals_2d(chain)"]),
    ("ccs_distance", "call", [RS2D_CHAIN, "causal.ccs_distance(chain)"]),
    # the (4n)^2 array at n=256, which the 2-D verifier transformed whole
    # before it transformed axis 1 in row blocks
    ("fourier", "call", [PADDED0 + "; big = waves.padded_transform(p0, 1, causal._FINE)",
                         "waves.fourier(big, 1)"]),
    ("padded_transform", "call", [PADDED0, "waves.padded_transform(p0, 1, causal._FINE)"]),
    # the pp target of the 2-D verifier at the transport and README shapes
    ("double_fine_masses", "call", [PADDED0, "causal._double_fine_masses(p0)"]),
    ("double_fine_masses-512", "call", [
        README_RS2D_STATE + "; p0 = waves.padded_transform(psi, 0, causal._FINE)",
        "causal._double_fine_masses(p0)"]),
    # the Monte Carlo cell sampler at 2e5 draws, and one 1-D Monte Carlo check
    ("sample_cells-1d", "call", ["psi = waves.two_gaussian_packet(n=4096); "
                                 "m = psi.density() * psi.axes[0].spacing",
                                 "causal._sample_cells(m, 200000, np.random.default_rng(1))"]),
    ("sample_cells-2d", "call", [RS2D_STATE + "; m = psi.density().ravel()",
                                 "causal._sample_cells(m, 200000, np.random.default_rng(1))"]),
    ("verify_marginals_1d-mc", "call", ["m = causal.rs_map_1d(waves.two_gaussian_packet(n=2048))",
                                        "causal.verify_marginals_1d(m, mc_samples=200000, seed=7)"]),
    # the joint record and its ridge at the ak-compare defaults
    ("ridge", "call", ["psi = waves.gaussian_packet(sigma=1.0, t=1.0, n=1024)",
                       "akmeas.momentum_peaks(akmeas.ak_distribution(psi, 0.5))"]),
    ("build_parser", "call", ["", "cli.build_parser()"]),
)

# the timed process of a warm or call op imports this file as a module
WORKER = "import sys, bench_ab; bench_ab.work(*sys.argv[1:])"
MODULES = ("_kernels", "akmeas", "causal", "cli", "psbell", "waves", "wigner")


def sweep_inputs(seed, count=1000):
    """perfbench/workloads.py's sweep_inputs, draw for draw, without
    importing perfbench."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = math.sqrt(sum(abs(v) ** 2 for v in raw))
        angles = [float("%.6g" % rng.uniform(0.0, math.pi)) for _ in range(4)]
        kinds = "".join(rng.choice("LE") for _ in range(4))
        out.append(([v / norm for v in raw], angles, kinds))
    return out


def _sweep(spinor, inputs):
    values = []
    for state, angles, kinds in inputs:
        a, b, ap, bp = (spinor.AnalyzerSetting(t, k) for t, k in zip(angles, kinds))
        settings = spinor.ChshSettings(a=a, b=b, a_prime=ap, b_prime=bp)
        values.append(spinor.chsh_value(state, settings))
    print(json.dumps({"command": "sweep", "s": values}))
    return 0


def work(kind, argv, calls):
    """Time one warm or call op in this process; print one JSON line."""
    argv, calls = json.loads(argv), int(calls)
    if kind == "call":
        # numpy, and the bellforge modules that the op's code names
        ns = {m: importlib.import_module("bellforge." + m) for m in MODULES
              if m + "." in "".join(argv)}
        ns["np"] = np
        exec(argv[0], ns)
        expr = compile(argv[1], "<call>", "eval")
        op = lambda: eval(expr, ns)  # noqa: E731
    elif argv[0] == "sweep":
        from bellforge import spinor

        inputs = sweep_inputs(int(argv[1]))
        op = lambda: _sweep(spinor, inputs)  # noqa: E731
    else:
        from bellforge import cli

        op = lambda: cli.main(argv)  # noqa: E731
    walls = []
    for k in range(calls + 1):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = op()
        walls.append(time.perf_counter() - t0)
        if kind == "warm" and code:
            sys.exit("exit code %r" % code)
    digest = None if kind == "call" else hashlib.sha256(buf.getvalue().encode()).hexdigest()
    print(json.dumps({"median_s": statistics.median(walls[1:]), "stdout_sha256": digest}))


def _run(argv, env, cwd):
    """Run ``python ARGV`` to exit; a ``|`` in argv starts a second command
    on the first one's stdout.  (returncode, stdout, stderr) per command."""
    cut = argv.index("|") if "|" in argv else len(argv)
    pipe = dict(env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = subprocess.Popen([sys.executable, *argv[:cut]], **pipe)
    if cut == len(argv):
        out, err = first.communicate()
        return [(first.returncode, out, err)]
    second = subprocess.Popen([sys.executable, *argv[cut + 1:]], stdin=first.stdout, **pipe)
    first.stdout.close()
    out, err = second.communicate()
    first_err = first.stderr.read()
    first.wait()
    return [(first.returncode, b"", first_err), (second.returncode, out, err)]


def _sample(op, calls, src, cwd, tree):
    """(seconds, stdout sha256) of one fresh process of an OPS entry on the
    tree at src; a failing process ends the run with its stderr."""
    name, kind, argv = op
    env = dict(os.environ, PYTHONPATH=str(src))
    if kind != "cold":
        env["PYTHONPATH"] += os.pathsep + str(ROOT / "benchmarks")
        argv = ["-c", WORKER, kind, json.dumps(argv), str(calls)]
    t0 = time.perf_counter()
    procs = _run(argv, env, cwd)
    wall = time.perf_counter() - t0
    for code, _, err in procs:
        if code:
            sys.exit("bench_ab: op %s failed on the %s tree (exit %d); its stderr:\n%s" % (
                name, tree, code, err.decode(errors="replace")))
    out = procs[-1][1]
    if kind == "cold":
        return wall, hashlib.sha256(out).hexdigest()
    s = json.loads(out)
    return s["median_s"], s["stdout_sha256"]


def _trees(rev, tmp):
    """Copy ``src/`` of a git revision and of the working tree, with no
    bytecode cache, into tmp; return (base src, change src).

    The two paths have one length.  PYTHONPATH, the environment block at
    the top of each process's stack, then has one size for both trees, and
    so has every path string the interpreter keeps: with paths of unequal
    length, identical trees timed 10 % apart on some ops, in 9 of 10 pairs.
    """
    proc = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          capture_output=True)
    if proc.returncode:
        sys.exit("bench_ab: git archive %s failed:\n%s" % (rev, proc.stderr.decode(errors="replace")))
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(tmp / "base", filter="data")
    shutil.copytree(ROOT / "src", tmp / "work" / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return tmp / "base" / "src", tmp / "work" / "src"


def _bootstrap_median(ratios, resamples=2000, seed=0):
    """95 % percentile-bootstrap interval of the median ratio."""
    rng = np.random.default_rng(seed)
    r = np.asarray(ratios)
    meds = np.median(r[rng.integers(0, len(r), (resamples, len(r)))], axis=1)
    return [float(np.percentile(meds, 2.5)), float(np.percentile(meds, 97.5))]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10, help="pairs of processes per op")
    p.add_argument("--calls", type=int, default=7,
                   help="timed calls per warm or call process")
    p.add_argument("--ops", default="", help="comma-separated op names (default: all)")
    p.add_argument("--out", default="", help="write the results JSON here")
    args = p.parse_args(argv)
    names = [n for n, _, _ in OPS]
    args.ops = args.ops.split(",") if args.ops else names
    unknown = sorted(set(args.ops) - set(names))
    if unknown:
        p.error("unknown ops %s; choose from %s" % (", ".join(unknown), ", ".join(names)))
    if args.pairs < 2 or args.calls < 1:
        p.error("--pairs must be at least 2 and --calls at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    ops = [op for op in OPS if op[0] in args.ops]
    samples = {n: {"base": [], "change": []} for n, _, _ in ops}
    stdout = {n: {} for n, _, _ in ops}
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        tmp = Path(tmp)
        base, change = _trees(args.base, tmp)
        trees = (("base", base), ("change", change))
        labels = {"base": "base (%s)" % args.base, "change": "change (working tree)"}
        (tmp / "run").mkdir()
        for op in ops:
            for side, src in trees:
                stdout[op[0]][side] = _sample(op, args.calls, src, tmp / "run", labels[side])[1]
        pyc = {side: any(src.rglob("*.pyc")) for side, src in trees}
        for pair in range(args.pairs):
            order = trees if pair % 2 == 0 else trees[::-1]
            for op in ops:
                for side, src in order:
                    samples[op[0]][side].append(
                        _sample(op, args.calls, src, tmp / "run", labels[side])[0])
            print("pair %d/%d done" % (pair + 1, args.pairs), file=sys.stderr)

    results = {}
    for name, kind, op_argv in ops:
        base, change = samples[name]["base"], samples[name]["change"]
        ratios = [c / b for b, c in zip(base, change)]
        results[name] = {
            "kind": kind,
            "argv": op_argv,
            "base_median_s": statistics.median(base),
            "change_median_s": statistics.median(change),
            "ratio_median": statistics.median(ratios),
            "ratio_ci95": _bootstrap_median(ratios),
            "change_faster_pairs": sum(r < 1.0 for r in ratios),
            "same_stdout": None if kind == "call" else stdout[name]["base"] == stdout[name]["change"],
            "base_s": base,
            "change_s": change,
        }
    doc = {
        "harness": "benchmarks/bench_ab.py",
        "base": args.base,
        "pairs": args.pairs,
        "calls": args.calls,
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pyc_at_start": pyc,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ops": results,
    }
    print("%-24s %5s %9s %9s %7s %17s %7s %6s" % ("op", "kind", "base s", "change s", "ratio",
                                                  "95% interval", "faster", "same"))
    for name, r in results.items():
        print("%-24s %5s %9.4f %9.4f %7.3f   [%6.3f, %6.3f] %4d/%-2d %6s" % (
            name, r["kind"], r["base_median_s"], r["change_median_s"], r["ratio_median"],
            r["ratio_ci95"][0], r["ratio_ci95"][1], r["change_faster_pairs"], args.pairs,
            r["same_stdout"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
