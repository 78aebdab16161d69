"""Cold-CLI timing: every README example, each run in a fresh process.

Run from the repository root:

    python3 benchmarks/bench_e2e.py --side change=src
    python3 benchmarks/bench_e2e.py --side parent=../parent/src --side change=src \
        --repeat 10 --out BENCH.json

Each ``--side LABEL=SRC`` names a source tree (the directory that holds
``bellforge/``).  A sample is the wall time of ``python -m bellforge ...``
from spawn to exit, import included, since that is what a user waits for;
the README pipeline ``chsh | lhv --from-state`` is timed as one sample from
the first spawn to the last exit, and ``import`` times ``import
bellforge.cli`` alone.  Rounds run every command once per side, and the
side that goes first alternates from round to round, so drift in the
machine's load falls on both sides alike.  The JSON holds, per side and
command, the median and quartiles of the samples, the exit codes and the
sha256 of the first run's stdout (equal digests mean byte-identical
output), with the machine's nproc and the Python and numpy versions.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# (name, argv after ``python -m bellforge``); OUT is replaced by a path in a
# scratch directory
README_EXAMPLES = (
    ("chsh", ["chsh", "--state", "psi-plus", "--kinds", "LLLL",
              "--angles", "0,22.5,45,67.5", "--degrees"]),
    ("lhv", ["lhv", "--correlators", "0.7071,-0.7071,0.7071,0.7071"]),
    ("rs1d", ["rs1d", "--state", "gaussian", "--sigma", "1", "--t", "0"]),
    ("rs1d-mc", ["rs1d", "--state", "two-gaussian", "--mc", "200000", "--seed", "7"]),
    ("rs2d", ["rs2d", "--rho", "0.6", "--ordering", "px", "--n", "512", "--xmax", "20"]),
    ("marginal-theorem", ["marginal-theorem", "--cutoffs", "10,100,1000,10000"]),
    ("wigner", ["wigner", "--state", "excited", "--level", "1"]),
    ("parity-chsh", ["parity-chsh", "--r", "1"]),
    ("parity-chsh-fixed", ["parity-chsh", "--r", "1", "--displacements", "0.175,0,0,-0.175"]),
    ("ak-compare", ["ak-compare", "--sigma", "1", "--t", "1", "--b", "0.5", "--out", "OUT"]),
    ("waves-dump", ["waves", "dump", "--state", "gaussian", "--t", "2", "--rep", "p",
                    "--out", "OUT"]),
)
PIPE = ("chsh|lhv", ["chsh", "--state", "singlet", "--angles", "0,0.3927,0.7854,1.1781"],
        ["lhv", "--from-state"])


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _cli(argv, out_dir):
    return [sys.executable, "-m", "bellforge"] + [
        str(out_dir / "table.csv") if a == "OUT" else a for a in argv
    ]


def _run_one(name, src, out_dir):
    """One cold sample: (wall seconds, exit code, stdout bytes)."""
    env = _env(src)
    t0 = time.perf_counter()
    if name == "import":
        proc = subprocess.run([sys.executable, "-c", "import bellforge.cli"], env=env,
                              cwd=out_dir, capture_output=True)
        return time.perf_counter() - t0, proc.returncode, proc.stdout
    if name == PIPE[0]:
        first = subprocess.Popen(_cli(PIPE[1], out_dir), env=env, cwd=out_dir,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        second = subprocess.run(_cli(PIPE[2], out_dir), env=env, cwd=out_dir,
                                stdin=first.stdout, capture_output=True)
        first.stdout.close()
        code = first.wait() or second.returncode
        return time.perf_counter() - t0, code, second.stdout
    argv = dict(README_EXAMPLES)[name]
    proc = subprocess.run(_cli(argv, out_dir), env=env, cwd=out_dir, capture_output=True)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def _src_digest(src):
    """sha256 over the package's Python sources, so a result names the exact
    code it timed whether or not that code is committed."""
    h = hashlib.sha256()
    for path in sorted(Path(src, "bellforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_describe(src):
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--side", action="append", required=True, metavar="LABEL=SRC",
                   help="a source tree to time, e.g. change=src")
    p.add_argument("--repeat", type=int, default=5, help="samples per command and side")
    p.add_argument("--out", default="", help="write the results JSON here")
    args = p.parse_args(argv)
    args.sides = []
    for spec in args.side:
        label, sep, src = spec.partition("=")
        if not sep or not (Path(src) / "bellforge").is_dir():
            p.error("--side wants LABEL=SRC with SRC/bellforge present, got %r" % spec)
        args.sides.append((label, Path(src).resolve()))
    if args.repeat < 2:
        p.error("--repeat must be at least 2 to give quartiles")
    return args


def main(argv=None):
    args = parse_args(argv)
    names = ["import"] + [n for n, _ in README_EXAMPLES] + [PIPE[0]]
    walls = {label: {n: [] for n in names} for label, _ in args.sides}
    codes = {label: {n: set() for n in names} for label, _ in args.sides}
    digests = {label: {} for label, _ in args.sides}
    with tempfile.TemporaryDirectory(prefix="bench_e2e_") as tmp:
        out_dir = Path(tmp)
        for rnd in range(args.repeat):
            order = args.sides if rnd % 2 == 0 else args.sides[::-1]
            for name in names:
                for label, src in order:
                    wall, code, stdout = _run_one(name, src, out_dir)
                    walls[label][name].append(wall)
                    codes[label][name].add(code)
                    digests[label].setdefault(name, hashlib.sha256(stdout).hexdigest())
            print("round %d/%d done" % (rnd + 1, args.repeat), file=sys.stderr)

    result = {
        "harness": "benchmarks/bench_e2e.py",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeat": args.repeat,
        "sides": {
            label: {
                "git_describe": _git_describe(src),
                "src_sha256": _src_digest(src),
                "commands": {
                    n: dict(_summary(walls[label][n]), exit_codes=sorted(codes[label][n]),
                            stdout_sha256=digests[label][n])
                    for n in names
                },
            }
            for label, src in args.sides
        },
    }
    width = max(len(n) for n in names)
    print("%-*s" % (width, "command") + "".join("  %26s" % label for label, _ in args.sides))
    for n in names:
        cells = []
        for label, _ in args.sides:
            c = result["sides"][label]["commands"][n]
            cells.append("  %8.3f [%6.3f, %6.3f] s" % (c["median_s"], c["q1_s"], c["q3_s"]))
        print("%-*s" % (width, n) + "".join(cells))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
