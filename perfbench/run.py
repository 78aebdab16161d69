"""bellforge benchmark: seeded workloads, output oracles, traced pass.

    python3 perfbench/run.py --workload {transport,bell} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` (no install needed).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
results document (provenance, per-op records, digests, trace overhead and
coverage) is written under ``.bench_out/results/``.  See README.md beside
this file for the workloads and metric definitions.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # mix ops a timed run holds above its op_s.tail percentile, at least
TRIM = 0.1  # share cut from each end of a command's samples before averaging


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# running ops


class InProcess:
    """Calls ``bellforge.cli.main(argv)`` in this process, one op at a time."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        t = time.perf_counter()
        import bellforge.cli

        self.import_s = time.perf_counter() - t
        if Path(bellforge.__file__).resolve().parent != SRC / "bellforge":
            raise SystemExit("bellforge imported from %s, not %s" % (bellforge.__file__, SRC))
        self.bellforge = bellforge

    def run(self, op, tracer=None, sweep_inputs=None):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        root = tracer.begin("op:" + op.kind, start=t0) if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op.mode == "sweep":
                    out.write(workloads.run_sweep(self.bellforge.spinor, sweep_inputs))
                    code = 0
                else:
                    code = self.bellforge.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        if tracer:
            tracer.end(root, at=t1)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "start": t0, "wall": t1 - t0}


def with_inputs(ops):
    """The ops and the generated inputs of their sweeps, by op id."""
    return ops, {op.id: workloads.sweep_inputs(int(op.argv[1])) for op in ops if op.mode == "sweep"}


def run_ops(runner, ops, inputs, tracer=None):
    records = []
    for op in ops:
        rec = runner.run(op, tracer=tracer, sweep_inputs=inputs.get(op.id))
        rec["op"] = op
        rec["csv_bytes"] = None
        if op.csv and os.path.exists(op.csv):
            with open(op.csv, "rb") as fh:
                rec["csv_bytes"] = fh.read()
            os.unlink(op.csv)
        records.append(rec)
    return records


def judge(records, inputs):
    for rec in records:
        op = rec["op"]
        rows = None
        if rec["csv_bytes"] is not None:
            rows = list(csv.reader(io.StringIO(rec["csv_bytes"].decode())))
        rec["reason"] = oracles.judge(op, rec["code"], rec["stdout"], rec["stderr"],
                                      rows, inputs.get(op.id))
        rec["csv_rows"] = len(rows) - 1 if rows else 0


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload, seed):
    """Body of one fresh set-up sample: import, inputs, warm-up."""
    with_inputs(workloads.round_ops(workload, seed, 0))
    runner = InProcess()
    run_ops(runner, *with_inputs(workloads.warmup_ops()))
    print(json.dumps({"t0": T0, "import_s": runner.import_s}), flush=True)


def measure_setup(workload, seed):
    """SETUP_SAMPLES fresh processes, each timed from spawn to ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        line = proc.stdout.readline()
        t_ready = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise RuntimeError("set-up probe failed with exit code %s" % proc.returncode)
        info = json.loads(line)
        samples.append({"setup_s": t_ready - t_spawn, "startup_s": info["t0"] - t_spawn,
                        "import_s": info["import_s"]})
    return samples


# ---------------------------------------------------------------------------
# metrics


def min_mix_ops(pct):
    """Fewest mix ops that leave TAIL_BEYOND of them above percentile ``pct``."""
    n = TAIL_BEYOND
    while tail(range(n), pct)[1] < TAIL_BEYOND:
        n += 1
    return n


def tail(values, pct):
    """The order statistic at percentile ``pct``, and how many values lie above it."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(len(ordered) * pct / 100.0) - 1))
    return ordered[idx], len(ordered) - idx - 1


def trimmed_mean(values):
    """Mean of the values left after cutting TRIM of them from each end."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, phase_s, setup, tail_pct):
    """End-to-end metrics; op_s.*, ops_per_s and ok_ratio cover the mix only."""
    mix = [r for r in records if not r["op"].side]
    walls = [r["wall"] for r in mix]
    failed = sum(1 for r in mix if r["reason"])
    tail_s, beyond = tail(walls, tail_pct)
    m = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(mix) / sum(walls), "1/s"),
        "ok_ratio": ((len(mix) - failed) / len(mix), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["op"].kind].append(r["wall"])
    for kind in workloads.TIMED_KINDS:
        m[kind + "_s"] = (trimmed_mean(by_kind[kind]), "s")
    extra = {
        "samples": len(mix),
        "side_samples": len(records) - len(mix),
        "op_s.tail_percentile": tail_pct,
        "op_s.tail_beyond": beyond,
        "samples_per_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "fail_ratio": failed / len(mix),
        "phase_s": phase_s,
    }
    return m, extra


def per_layer(untraced, traced, tracer, setup):
    agg = spans.aggregate(tracer.spans)
    m = spans.layer_metrics(agg, tracer.counts)
    m["import.startup_s"] = (statistics.median(s["startup_s"] for s in setup), "s")
    m["import.bellforge_cli_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    cli_ops = [r for r in traced if r["op"].kind != "sweep"]
    m["cli.json_bytes"] = (sum(len(r["stdout"].encode()) for r in cli_ops), "bytes")
    m["cli.csv_rows"] = (sum(r["csv_rows"] for r in traced), "count")
    roots = {s[0] for s in tracer.spans if s[2].startswith("op:")}
    base = sum(r["wall"] for r in untraced)
    extra = {
        "overhead": sum(r["wall"] for r in traced) / base - 1.0,
        "coverage": spans.coverage(tracer.spans, roots),
        "cli.handlers.self_s": sum(v["self_s"] for k, v in agg.items()
                                   if k.startswith("cli._cmd_")),
        "spans": len(tracer.spans),
        "layers": agg,
    }
    return m, extra


# ---------------------------------------------------------------------------
# provenance and results


def provenance():
    import numpy
    import scipy

    sys.path.insert(0, str(SRC))
    from bellforge import _kernels

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    commit = None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
        if Path(top[0]).resolve() == ROOT:
            commit = top[1]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "use_numba": bool(_kernels.USE_NUMBA),
    }


def op_record(rec):
    op = rec["op"]
    return {
        "id": op.id, "kind": op.kind, "argv": list(op.argv), "mode": op.mode,
        "side": op.side, "probe": op.probe, "code": rec["code"], "wall_s": rec["wall"],
        "failed": rec["reason"], "stdout_sha256": sha256(rec["stdout"].encode()),
        "csv_sha256": sha256(rec["csv_bytes"]) if rec["csv_bytes"] is not None else None,
    }


def round0_digest(records):
    lines = ["%s %s %s" % (r["id"], r["stdout_sha256"], r["csv_sha256"])
             for r in records if r["id"].startswith("r0-")]
    return sha256("\n".join(lines).encode())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not (SRC / "bellforge" / "cli.py").is_file():
        print("error: %s holds no bellforge sources" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    (ROOT / workloads.CSV_DIR).mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup = measure_setup(args.workload, args.seed)
    runner = InProcess()
    run_ops(runner, *with_inputs(workloads.warmup_ops()))
    # the traced pass runs a shorter round 0, untraced and then traced
    ops, inputs = with_inputs(workloads.round_ops(
        args.workload, args.seed, 0, workloads.TRACE_REPS if args.trace else None))

    all_inputs = dict(inputs)
    t_phase = time.perf_counter()
    records = run_ops(runner, ops, inputs)
    r = 1
    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    while not args.trace and (time.perf_counter() - t_phase < args.seconds
                              or sum(not rec["op"].side for rec in records)
                              < min_mix_ops(tail_pct)):
        ops, inputs = with_inputs(workloads.round_ops(args.workload, args.seed, r))
        all_inputs.update(inputs)
        records += run_ops(runner, ops, inputs)
        r += 1
    phase_s = time.perf_counter() - t_phase
    judge(records, all_inputs)

    traced, tracer = [], None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_ops(runner, ops, inputs, tracer)
        finally:
            tracer.uninstall()
        judge(traced, all_inputs)
        metrics, extra = per_layer(records, traced, tracer, setup)
    else:
        metrics, extra = end_to_end(records, phase_s, setup, tail_pct)

    # the contract probes count in attempted and failed, not in the metrics
    probes = []
    if args.trace and args.workload in workloads.PROBE_WORKLOADS:
        probes = run_ops(runner, workloads.probe_ops(), {})
        judge(probes, {})
        extra["probe_fail_ratio"] = sum(1 for rec in probes if rec["reason"]) / len(probes)

    done = records + traced + probes
    failed = sum(1 for rec in done if rec["reason"])
    correct = not any(rec["reason"] for rec in done if not rec["op"].probe)
    summary = {
        "correct": correct, "attempted": len(done), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    ops_out = [op_record(rec) for rec in records]
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), **summary,
        "details": extra,
        "setup_samples": setup,
        "round0_digest": round0_digest(ops_out),
        "ops": ops_out,
        "traced_ops": [op_record(rec) for rec in traced],
        "probes": [op_record(rec) for rec in probes],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / (name + ".json"), "w") as fh:
        json.dump(results, fh, indent=1, default=float)
    if tracer is not None:
        with open(OUT / "results" / (name + "-spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    for rec in done:
        if rec["reason"]:
            print("FAILED %s %s: %s" % (rec["op"].id, " ".join(rec["op"].argv), rec["reason"]))
    print("results: %s" % (OUT / "results" / (name + ".json")).relative_to(ROOT))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
