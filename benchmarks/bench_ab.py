"""Paired A/B timing of warm in-process CLI calls and of the chsh_value
sweep: a git revision against the working tree.

Run from the repository root:

    python3 benchmarks/bench_ab.py                      # HEAD against src/
    python3 benchmarks/bench_ab.py --base HEAD~1 --pairs 10 --out BENCH.json
    python3 benchmarks/bench_ab.py --ops rs2d,rs2d-mc --pairs 4
    python3 benchmarks/bench_ab.py --base HEAD~1 --ops sweep --pairs 10
    python3 benchmarks/bench_ab.py --base HEAD~1 --ops wigner-grid,wigner-grid-32,wigner-grid-16
    python3 benchmarks/bench_ab.py --base HEAD~1 --ops parity-protocol,parity-full

The base tree is ``git archive REV src`` unpacked into a temporary
directory; the change is ``src/`` as it stands.  A pair runs, for every op,
one fresh process of each tree back to back, and the tree that goes first
flips from pair to pair, so drift in the machine's load and the order in
which two processes run fall on both trees alike.  A process makes one
untimed call of its op (imports, caches, the allocator's first pages)
and then times ``--calls`` more with stdout captured; its sample is their
median.  One process per op keeps the allocator state one op leaves behind
out of the next op's time; ``perfbench/`` times the shuffled mix instead.

The ``sweep`` op is the library op of perfbench's ``bell`` workload rather
than a command: one call is 1000 ``spinor.chsh_value`` calls on seeded
random states and settings, built as perfbench's ``sweep_inputs`` builds
them (outside the timed call), and its stdout is the JSON of the 1000
values.

Per op the result gives each tree's median sample, the per-pair ratios
change/base, their median with a 95 % bootstrap interval (seeded, so the
same samples give the same interval) and the number of pairs in which the
change was faster.  A gain counts only if the interval lies below 1.
``same_stdout`` says whether the two trees printed identical bytes.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (name, argv): the transport shapes of perfbench's mix, and the commands
# that share waves.fourier with them
OPS = (
    ("rs2d", ["rs2d", "--rho", "0", "--sigma", "0.7", "--n", "256", "--xmax", "20"]),
    ("rs2d-mc", ["rs2d", "--rho", "0", "--sigma", "0.7", "--n", "256", "--xmax", "20",
                 "--mc", "200000", "--seed", "7"]),
    ("rs1d-2048", ["rs1d", "--state", "two-gaussian", "--n", "2048"]),
    ("rs1d-4096", ["rs1d", "--state", "two-gaussian", "--n", "4096"]),
    ("rs1d-2048-mc", ["rs1d", "--state", "two-gaussian", "--n", "2048",
                      "--mc", "200000", "--seed", "7"]),
    ("rs1d-4096-mc", ["rs1d", "--state", "two-gaussian", "--n", "4096",
                      "--mc", "200000", "--seed", "7"]),
    ("chsh-maximize", ["chsh", "--state", "psi-plus", "--kinds", "LELE", "--maximize"]),
    ("ak-compare", ["ak-compare"]),
    ("wigner-grid", ["wigner", "--state", "psi-plus-grid", "--n", "64"]),
    # perfbench's bell round draws the n=32 grid state twice, n=64 once
    ("wigner-grid-32", ["wigner", "--state", "psi-plus-grid", "--n", "32"]),
    # n=16 runs its slabs on the calling thread, with no pool
    ("wigner-grid-16", ["wigner", "--state", "psi-plus-grid", "--n", "16"]),
    # the displaced-parity searches of perfbench's bell round
    ("parity-protocol", ["parity-chsh", "--r", "1.3"]),
    ("parity-full", ["parity-chsh", "--r", "1.3", "--search", "full"]),
    # not a command: the worker runs the chsh_value sweep with this seed
    ("sweep", ["sweep", "7"]),
)

# runs in the timed process: argv and the call count come as arguments, one
# JSON line goes to stdout.  The sweep inputs repeat perfbench/workloads.py's
# sweep_inputs draw for draw, without importing perfbench.
WORKER = r"""
import contextlib, hashlib, io, json, math, random, statistics, sys, time
from bellforge import cli, spinor
argv, calls = json.loads(sys.argv[1]), int(sys.argv[2])


def sweep_inputs(seed, count=1000):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = math.sqrt(sum(abs(v) ** 2 for v in raw))
        angles = [float("%.6g" % rng.uniform(0.0, math.pi)) for _ in range(4)]
        kinds = "".join(rng.choice("LE") for _ in range(4))
        out.append(([v / norm for v in raw], angles, kinds))
    return out


def sweep(inputs):
    values = []
    for state, angles, kinds in inputs:
        a, b, ap, bp = (spinor.AnalyzerSetting(t, k) for t, k in zip(angles, kinds))
        settings = spinor.ChshSettings(a=a, b=b, a_prime=ap, b_prime=bp)
        values.append(spinor.chsh_value(state, settings))
    print(json.dumps({"command": "sweep", "s": values}))
    return 0


if argv[0] == "sweep":
    inputs = sweep_inputs(int(argv[1]))
    op = lambda: sweep(inputs)
else:
    op = lambda: cli.main(argv)
walls, codes = [], set()
for k in range(calls + 1):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        codes.add(op())
    if k:
        walls.append(time.perf_counter() - t0)
print(json.dumps({"median_s": statistics.median(walls), "codes": sorted(codes),
                  "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}))
"""


def _archive(rev, dest):
    """Unpack ``src/`` of a git revision into dest; return dest/src."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def _sample(src, argv, calls, cwd):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", WORKER, json.dumps(argv), str(calls)],
                          env=env, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


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
    p.add_argument("--calls", type=int, default=7, help="timed warm calls per process")
    p.add_argument("--ops", default="", help="comma-separated op names (default: all)")
    p.add_argument("--out", default="", help="write the results JSON here")
    args = p.parse_args(argv)
    names = [n for n, _ in OPS]
    args.ops = args.ops.split(",") if args.ops else names
    unknown = sorted(set(args.ops) - set(names))
    if unknown:
        p.error("unknown ops %s; choose from %s" % (", ".join(unknown), ", ".join(names)))
    if args.pairs < 2 or args.calls < 1:
        p.error("--pairs must be at least 2 and --calls at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    ops = [(n, a) for n, a in OPS if n in args.ops]
    samples = {n: {"base": [], "change": []} for n, _ in ops}
    stdout = {n: {} for n, _ in ops}
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = (("base", _archive(args.base, tmp)), ("change", ROOT / "src"))
        for pair in range(args.pairs):
            order = trees if pair % 2 == 0 else trees[::-1]
            for name, op_argv in ops:
                for side, src in order:
                    s = _sample(src, op_argv, args.calls, tmp)
                    samples[name][side].append(s["median_s"])
                    stdout[name].setdefault(side, (s["codes"], s["stdout_sha256"]))
            print("pair %d/%d done" % (pair + 1, args.pairs), file=sys.stderr)

    results = {}
    for name, op_argv in ops:
        base, change = samples[name]["base"], samples[name]["change"]
        ratios = [c / b for b, c in zip(base, change)]
        results[name] = {
            "argv": op_argv,
            "base_median_s": statistics.median(base),
            "change_median_s": statistics.median(change),
            "ratio_median": statistics.median(ratios),
            "ratio_ci95": _bootstrap_median(ratios),
            "change_faster_pairs": sum(r < 1.0 for r in ratios),
            "same_stdout": stdout[name]["base"] == stdout[name]["change"],
            "base_s": base,
            "change_s": change,
        }
    doc = {
        "harness": "benchmarks/bench_ab.py",
        "base": args.base,
        "pairs": args.pairs,
        "calls": args.calls,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ops": results,
    }
    print("%-16s %9s %9s %7s %17s %7s %6s" % ("op", "base s", "change s", "ratio",
                                              "95% interval", "faster", "same"))
    for name, r in results.items():
        print("%-16s %9.4f %9.4f %7.3f   [%6.3f, %6.3f] %4d/%-2d %6s" % (
            name, r["base_median_s"], r["change_median_s"], r["ratio_median"],
            r["ratio_ci95"][0], r["ratio_ci95"][1], r["change_faster_pairs"], args.pairs,
            r["same_stdout"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
