"""Spans recorded from outside the program, and the per-layer metrics.

``Tracer.install`` wraps the public functions of each bellforge module
(and the ``cli._cmd_*`` handlers) at every module attribute that names
them, so a call made through ``from .spinor import check_state`` is seen
as well as one made through ``spinor.check_state``.  ``_kernels`` is
wrapped at its three dispatchers only: their numpy twins are the body of
the dispatch, and wrapping them would move the kernel's self time to the
twin.  ``cli.build_parser`` is left unwrapped, so argument parsing stays
in the self time of ``cli.main``.

A span is ``[id, parent, name, start, end]`` with ``perf_counter`` times,
which on Linux read the system-wide monotonic clock and so compare across
processes.  Spans stay in memory until the run writes them out.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

KERNELS = ("chsh_scan", "deposit_points", "deposit_intervals")
LAYER_MODULES = ("spinor", "lhv", "waves", "causal", "wigner", "psbell", "akmeas")
STATE_BUILDERS = (
    "waves.gaussian_packet", "waves.superposition", "waves.two_gaussian_packet",
    "waves.excited_state", "waves.correlated_gaussian_2d", "waves.tensor",
    "waves.psi_marginal_state",
)
# the dispatcher and the two verifiers it calls make up the verification layer
VERIFIERS = ("causal.verify_marginals", "causal.verify_marginals_1d", "causal.verify_marginals_2d")


def _size(a):
    return int(getattr(a, "size", len(a)))


# Work counts computed from call arguments (and, for the verifier, from the
# return value).  Each takes the wrapped function's arguments and result.
COUNTERS = {
    "_kernels.deposit_intervals": lambda a, k, r: {
        "intervals": _size(a[0]), "interval_bins": _size(a[0]) * int(a[5])},
    "_kernels.deposit_points": lambda a, k, r: {"points": _size(a[0])},
    "_kernels.chsh_scan": lambda a, k, r: {
        "cells": a[0].shape[0] * a[2].shape[0] * a[0].shape[1] * a[1].shape[1]},
    "waves.fourier": lambda a, k, r: {"elements": int(a[0].values.size)},
    "wigner.wigner_transform": lambda a, k, r: {"elements": int(a[0].values.size)},
    "causal.verify_marginals": lambda a, k, r: {"passed": int(bool(r["passed"]))},
}


class Tracer:
    """Records nested spans and per-name work counts for one process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._patches = []

    def begin(self, name, start=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter() if start is None else start, None])
        self._stack.append(sid)
        return sid

    def end(self, sid, at=None):
        self.spans[sid][4] = time.perf_counter() if at is None else at
        self._stack.pop()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[name][key] += val
            return result

        return traced

    def install(self):
        """Wrap every traced function of the imported bellforge package."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "bellforge" or name.startswith("bellforge.")}
        targets = {}
        for short in LAYER_MODULES:
            mod = pkg["bellforge." + short]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets[fn] = short + "." + attr
        kernels = pkg["bellforge._kernels"]
        for attr in KERNELS:
            targets[getattr(kernels, attr)] = "_kernels." + attr
        cli = pkg["bellforge.cli"]
        for attr, fn in vars(cli).items():
            if inspect.isfunction(fn) and (attr == "main" or attr.startswith("_cmd_")):
                targets[fn] = "cli." + attr
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for mod in pkg.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def dump(self):
        return {"spans": self.spans,
                "counts": {k: dict(v) for k, v in self.counts.items()}}


# ---------------------------------------------------------------------------
# arithmetic on span lists


def union_length(intervals, lo, hi):
    """Length of the union of [a, b] intervals clipped to [lo, hi]."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """{span id: duration minus the part covered by its child spans}."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - union_length(children[sid], start, end)
            for sid, _, _, start, end in spans}


def aggregate(spans):
    """{name: {"calls", "total_s", "self_s"}} over a span list."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
    return dict(out)


def coverage(spans, roots):
    """Share of root-span time covered by the roots' direct children."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent in roots:
            children[parent].append((start, end))
    covered = wall = 0.0
    for sid, _, _, start, end in spans:
        if sid in roots:
            wall += end - start
            covered += union_length(children[sid], start, end)
    return covered / wall if wall else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(agg, counts):
    """Per-layer metrics (name -> (value, unit)) from aggregated spans."""

    def row(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def cnt(name, key):
        return counts.get(name, {}).get(key, 0)

    m = {}
    m["cli.self_s"] = (row("cli.main")["self_s"], "s")
    di, dp, cs = "_kernels.deposit_intervals", "_kernels.deposit_points", "_kernels.chsh_scan"
    m["kernels.deposit_intervals.calls"] = (row(di)["calls"], "count")
    m["kernels.deposit_intervals.self_s"] = (row(di)["self_s"], "s")
    m["kernels.deposit_intervals.intervals"] = (cnt(di, "intervals"), "count")
    m["kernels.deposit_intervals.interval_bins"] = (cnt(di, "interval_bins"), "count")
    m["kernels.deposit_points.calls"] = (row(dp)["calls"], "count")
    m["kernels.deposit_points.self_s"] = (row(dp)["self_s"], "s")
    m["kernels.deposit_points.points"] = (cnt(dp, "points"), "count")
    m["kernels.chsh_scan.calls"] = (row(cs)["calls"], "count")
    m["kernels.chsh_scan.self_s"] = (row(cs)["self_s"], "s")
    m["kernels.chsh_scan.cells"] = (cnt(cs, "cells"), "count")
    m["waves.fourier.calls"] = (row("waves.fourier")["calls"], "count")
    m["waves.fourier.self_s"] = (row("waves.fourier")["self_s"], "s")
    m["waves.fourier.elements"] = (cnt("waves.fourier", "elements"), "count")
    m["waves.state.self_s"] = (sum(row(n)["self_s"] for n in STATE_BUILDERS), "s")
    for fn in ("rs_map_1d", "rs_map_2d", "takabayasi_gap_detailed", "ccs_distance"):
        m["causal.%s.self_s" % fn] = (row("causal." + fn)["self_s"], "s")
    m["causal.verify_marginals.self_s"] = (sum(row(n)["self_s"] for n in VERIFIERS), "s")
    calls = row("causal.verify_marginals")["calls"]
    passed = cnt("causal.verify_marginals", "passed")
    m["causal.verify_marginals.passed_ratio"] = (passed / calls if calls else 0.0, "ratio")
    for fn in ("correlation", "chsh_value"):
        m["spinor.%s.calls" % fn] = (row("spinor." + fn)["calls"], "count")
        m["spinor.%s.self_s" % fn] = (row("spinor." + fn)["self_s"], "s")
    m["spinor.maximize_chsh.self_s"] = (row("spinor.maximize_chsh")["self_s"], "s")
    for fn in ("lhv_feasible", "brute_force_feasible", "quantum_behavior"):
        m["lhv.%s.self_s" % fn] = (row("lhv." + fn)["self_s"], "s")
    wt = "wigner.wigner_transform"
    m["wigner.wigner_transform.calls"] = (row(wt)["calls"], "count")
    m["wigner.wigner_transform.self_s"] = (row(wt)["self_s"], "s")
    m["wigner.wigner_transform.elements"] = (cnt(wt, "elements"), "count")
    m["wigner.chsh_parity.calls"] = (row("wigner.chsh_parity")["calls"], "count")
    m["wigner.maximize_chsh_parity.self_s"] = (row("wigner.maximize_chsh_parity")["self_s"], "s")
    m["psbell.overlap_integral.calls"] = (row("psbell.overlap_integral")["calls"], "count")
    m["psbell.overlap_integral.self_s"] = (row("psbell.overlap_integral")["self_s"], "s")
    m["akmeas.ak_distribution.self_s"] = (row("akmeas.ak_distribution")["self_s"], "s")
    m["akmeas.momentum_peaks.self_s"] = (row("akmeas.momentum_peaks")["self_s"], "s")
    return m
