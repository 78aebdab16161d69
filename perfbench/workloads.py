"""Seeded op generators for the two benchmark workloads.

A workload is an endless sequence of rounds.  Every round of a workload
holds the same multiset of op shapes (command, size, deterministic or
Monte Carlo), and the discrete choices that set an op's cost rotate with
the round index (``Draw.cycle``), so the per-command statistics of a run
do not depend on the seed; the seed draws the continuous parameters and the
order of the ops within the round.  Round ``r`` of seed ``s`` is the same
list of ops in every run, which is what makes output digests comparable
between runs.

Parameter ranges stay where every op is expected to succeed: the 2-D
transport ops use the one correlation (rho = 0) whose deterministic
verification passes at n=256, and the correlator draws keep a margin of
at least 0.05 from the local bound 2, where the feasibility decision is
ill-posed.  The exit-code contract probes are the exception: they are
listed as they stand and are expected to fail until the CLI honours its
documented exit codes.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from oracles import max_chsh_variant, spinor_correlators

WORKLOADS = ("transport", "bell")

# bellforge subcommands whose wall time (trimmed mean) is an end-to-end metric
TIMED_KINDS = (
    "chsh", "lhv", "rs1d", "rs2d", "wigner", "parity-chsh",
    "marginal-theorem", "ak-compare", "sweep",
)

SPINOR_STATES = ("psi-plus", "psi-minus", "singlet", "product")
SWEEP_SETTINGS = 1000
CSV_DIR = ".bench_out/csv"

# README exit-code contract probes (ROADMAP item 4) with the exit code the
# README documents for them: 2 invalid input, 3 tolerance failure.  They run
# once per traced run of the PROBE_WORKLOADS, after the traced pass: in
# process they take about 12 s, mostly the n=512 chain that the
# ``--epsilons 1.5,1`` probe runs, which in every timed run would leave too
# little of the benchmark's time for the timed phase.  They run
# once per transport run, after the timed phase.
PROBES = (
    (("rs1d", "--n", "64", "--state", "two-gaussian"), 3),
    (("rs2d", "--xmax", "3", "--n", "64"), 3),
    (("rs1d", "--sigma", "nan"), 2),
    (("chsh", "--angles", "nan,0,0,0"), 2),
    (("parity-chsh", "--r", "inf"), 2),
    (("rs1d", "--mc", "-5"), 2),
    (("lhv", "--correlators", "nan,0,0,0"), 2),
    (("wigner", "--state", "excited", "--level", "200"), 3),
    (("rs2d", "--epsilons", "1.5,1"), 2),
)
PROBE_WORKLOADS = ("transport",)


@dataclass
class Op:
    """One invocation: a bellforge subcommand or a sweep.

    ``mode`` is "cli" (one subcommand) or "sweep" (the library op).  ``side``
    marks ops of a kind outside the workload's mix.  ``expect_code`` is set only for contract
    probes.  ``params`` carries what the oracle needs to know about
    the inputs.
    """

    id: str
    kind: str
    argv: tuple
    mode: str = "cli"
    side: bool = False
    expect_code: int | None = None
    csv: str | None = None
    params: dict = field(default_factory=dict)

    @property
    def probe(self):
        return self.expect_code is not None


def _f(x):
    return "%.6g" % x


class Draw(random.Random):
    """Seeded draws for one round, plus stratified picks.

    ``cycle`` picks the discrete choices that set an op's cost (which state,
    which analyzer kinds) by rotating through the options with the round
    index, so a run holds the same multiset of them whatever the seed; the
    seed still draws the continuous parameters and the op order.
    """

    def __init__(self, seed, r):
        super().__init__(seed)
        self.r = r
        self._uses = {}

    def cycle(self, options):
        j = self._uses.get(options, 0)
        self._uses[options] = j + 1
        return options[(self.r + j) % len(options)]


def _csv_path(op_id):
    return "%s/%s.csv" % (CSV_DIR, op_id)


# ---------------------------------------------------------------------------
# op shapes


def _angles(rng):
    return [float(_f(rng.uniform(0.0, math.pi))) for _ in range(4)]


def _kinds(rng):
    return "".join(rng.choice("LE") for _ in range(4))


KINDS = tuple("".join(k) for k in itertools.product("LE", repeat=4))


def chsh(rng, op_id, angles=True, maximize=False, out=False):
    """``chsh`` with seeded state and kinds, given angles and/or --maximize."""
    state, kinds = rng.cycle(SPINOR_STATES), rng.cycle(KINDS)
    argv = ["chsh", "--state", state, "--kinds", kinds]
    params = {"state": state, "kinds": kinds, "angles": None}
    if angles:
        params["angles"] = _angles(rng)
        if rng.random() < 0.5:
            shown = [float(_f(math.degrees(a))) for a in params["angles"]]
            params["angles"] = [math.radians(a) for a in shown]
            argv += ["--angles=" + ",".join(_f(a) for a in shown), "--degrees"]
        else:
            argv.append("--angles=" + ",".join(_f(a) for a in params["angles"]))
    if maximize:
        argv += ["--maximize", "--seed", str(rng.randrange(1000))]
        params["sample_seed"] = rng.randrange(1 << 30)
    csv = _csv_path(op_id) if out else None
    if csv:
        argv += ["--out", csv]
    return Op(op_id, "chsh", tuple(argv), csv=csv, params=params)


def _state_angles_away_from_bound(rng):
    while True:
        state, kinds, angles = rng.choice(SPINOR_STATES), _kinds(rng), _angles(rng)
        e = spinor_correlators(state, kinds, angles)
        if abs(max_chsh_variant(e) - 2.0) > 0.05:
            return state, kinds, angles


def lhv_correlators(rng, op_id, inside, brute):
    while True:
        e = [round(rng.uniform(-1.0, 1.0), 4) for _ in range(4)]
        m = max_chsh_variant([e[:2], e[2:]])
        if (m <= 1.95) if inside else (m >= 2.05):
            break
    argv = ["lhv", "--correlators=" + ",".join(_f(v) for v in e)]
    if brute:
        argv.append("--brute-force")
    return Op(op_id, "lhv", tuple(argv), params={"correlators": e})


def lhv_state(rng, op_id, brute):
    state, kinds, angles = _state_angles_away_from_bound(rng)
    argv = ["lhv", "--state", state, "--kinds", kinds,
            "--angles=" + ",".join(_f(a) for a in angles)]
    if brute:
        argv.append("--brute-force")
    return Op(op_id, "lhv", tuple(argv),
              params={"state": state, "kinds": kinds, "angles": angles})


def _state_1d_args(rng, states=("gaussian", "two-gaussian", "excited")):
    state = rng.cycle(states)
    if state == "gaussian":
        return state, ["--state", state, "--sigma", _f(rng.uniform(0.7, 1.4)),
                       "--t", _f(rng.uniform(0.0, 2.0))]
    if state == "two-gaussian":
        return state, ["--state", state, "--t", _f(rng.uniform(0.0, 1.0))]
    return state, ["--state", state, "--level", str(rng.randint(1, 4))]


def rs1d(rng, op_id, n, mc, out=False):
    state, args = _state_1d_args(rng)
    argv = ["rs1d", *args, "--n", str(n), "--epsilon", rng.choice(("1", "-1"))]
    if mc:
        argv += ["--mc", str(mc), "--seed", str(rng.randrange(1000))]
    csv = _csv_path(op_id) if out else None
    if csv:
        argv += ["--out", csv]
    return Op(op_id, "rs1d", tuple(argv), csv=csv,
              params={"n": n, "mc": mc, "epsilon": int(argv[argv.index("--epsilon") + 1])})


def rs2d(rng, op_id, ordering, mc, n=256, xmax=20.0, out=False):
    # rho = 0 and sigma = 0.7: at n <= 256 the deterministic 2-D verification
    # passes for every ordering and epsilon pair here, and for no rho != 0
    eps = "%s,%s" % (rng.choice(("1", "-1")), rng.choice(("1", "-1")))
    argv = ["rs2d", "--rho", "0", "--sigma", "0.7", "--ordering", ordering,
            "--epsilons=" + eps, "--n", str(n), "--xmax", _f(xmax)]
    if mc:
        argv += ["--mc", str(mc), "--seed", str(rng.randrange(1000))]
    csv = _csv_path(op_id) if out else None
    if csv:
        argv += ["--out", csv]
    return Op(op_id, "rs2d", tuple(argv), csv=csv, params={"n": n, "mc": mc})


def marginal_theorem(rng, op_id):
    pool = (5, 10, 20, 50, 100, 300, 1000, 3000, 10000)
    cutoffs = sorted(rng.sample(pool, 4))
    return Op(op_id, "marginal-theorem",
              ("marginal-theorem", "--cutoffs=" + ",".join(str(c) for c in cutoffs)))


def wigner_1d(rng, op_id, states=("gaussian", "two-gaussian", "excited")):
    state, args = _state_1d_args(rng, states)
    return Op(op_id, "wigner", ("wigner", *args), params={"state": state})


def wigner_grid(rng, op_id, n):
    state = rng.choice(("psi-plus-grid", "psi-minus-grid"))
    argv = ("wigner", "--state", state, "--n", str(n), "--cutoff", _f(rng.uniform(5.0, 20.0)))
    return Op(op_id, "wigner", argv, params={"state": state})


def parity_search(rng, op_id, search):
    argv = ("parity-chsh", "--r", _f(rng.uniform(0.5, 2.0)), "--search", search)
    return Op(op_id, "parity-chsh", argv)


def parity_displacements(rng, op_id):
    d = [rng.uniform(-0.3, 0.3) for _ in range(4)]
    argv = ("parity-chsh", "--r", _f(rng.uniform(0.5, 2.0)),
            "--displacements=" + ",".join(_f(v) for v in d))
    return Op(op_id, "parity-chsh", argv)


def ak_compare(rng, op_id, out=False):
    argv = ["ak-compare", "--sigma", _f(rng.uniform(0.7, 1.3)),
            "--t", _f(rng.uniform(0.5, 1.5)), "--b", _f(rng.uniform(0.3, 0.8))]
    csv = _csv_path(op_id) if out else None
    if csv:
        argv += ["--out", csv]
    return Op(op_id, "ak-compare", tuple(argv), csv=csv)


def sweep(rng, op_id):
    """The library op: spinor.chsh_value on random states and settings (C04)."""
    return Op(op_id, "sweep", ("sweep", str(rng.randrange(1 << 30))), mode="sweep")


def sweep_inputs(seed):
    """(state, angles, kinds) triples for a sweep op, from its seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(SWEEP_SETTINGS):
        raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = math.sqrt(sum(abs(v) ** 2 for v in raw))
        out.append(([v / norm for v in raw], _angles(rng), _kinds(rng)))
    return out


def run_sweep(spinor, inputs):
    """The sweep op body: one ``spinor.chsh_value`` per input triple."""
    values = []
    for state, angles, kinds in inputs:
        a, b, ap, bp = (spinor.AnalyzerSetting(t, k) for t, k in zip(angles, kinds))
        settings = spinor.ChshSettings(a=a, b=b, a_prime=ap, b_prime=bp)
        values.append(spinor.chsh_value(state, settings))
    return json.dumps({"command": "sweep", "s": values}) + "\n"


# ---------------------------------------------------------------------------
# rounds
#
# A round is the workload's mix plus its side ops.  The mix is what the
# workload is about and alone makes op_s.*, ops_per_s and ok_ratio.  Side
# ops time the other command kinds with one light shape each, so that every
# per-command metric and every layer exists on every workload, and add
# samples of the CHEAP_SIDE kinds, whose ops take milliseconds and whose
# per-command statistic would otherwise rest on few of them; they are
# excluded from op_s.*, ops_per_s and ok_ratio.  The counts per shape are
# chosen so that op_s.p50 falls inside a cluster of ops of similar cost,
# never on the gap between two clusters.  ``reps`` is the per-kind count of
# side ops (CHEAP_SIDE_FACTOR times that for the CHEAP_SIDE kinds); a timed
# run uses REPS[workload], the traced pass TRACE_REPS.  Each kind lists its
# shapes so that the first two reach all of its layers.

REPS = {"transport": 5, "bell": 3}
TRACE_REPS = 2
# op_s.tail is the mix's latency at this percentile; a timed run holds at
# least enough mix ops for ten of them to lie beyond it.  Each sits inside a
# cluster of ops of similar cost: the rs1d n=4096 and rs2d n=256
# deterministic ops on transport, the sweeps (below the psi-grid n=64 ops)
# on bell, so it stays put when a run completes one round more or less.
TAIL_PERCENTILE = {"transport": 75.0, "bell": 90.0}
CHEAP_SIDE = ("lhv", "marginal-theorem", "parity-chsh")
CHEAP_SIDE_FACTOR = 3


def _cycle(shapes, reps):
    return [shapes[i % len(shapes)] for i in range(reps)]


def _side_shapes(kinds, reps):
    shapes = {
        "chsh": (lambda g, i: chsh(g, i, maximize=True),),
        "lhv": (lambda g, i: lhv_state(g, i, brute=False),
                lambda g, i: lhv_state(g, i, brute=True)),
        "rs1d": (lambda g, i: rs1d(g, i, 1024, 0), lambda g, i: rs1d(g, i, 1024, 50000)),
        "rs2d": (lambda g, i: rs2d(g, i, g.choice(("px", "xp")), 200000, n=128, xmax=14.0),),
        "wigner": (lambda g, i: wigner_1d(g, i, states=("gaussian",)),),
        "parity-chsh": (lambda g, i: parity_search(g, i, "protocol"),),
        "marginal-theorem": (marginal_theorem,),
        "ak-compare": (ak_compare,),
        "sweep": (sweep,),
    }
    return [s for kind in kinds
            for s in _cycle(shapes[kind], reps * (CHEAP_SIDE_FACTOR if kind in CHEAP_SIDE else 1))]


def _transport_round(reps):
    shapes = [
        lambda g, i: rs1d(g, i, 2048, 0),
        lambda g, i: rs1d(g, i, 2048, 0, out=True),
        lambda g, i: rs1d(g, i, 2048, 0),
        lambda g, i: rs1d(g, i, 2048, 200000),
        lambda g, i: rs1d(g, i, 4096, 0),
        lambda g, i: rs1d(g, i, 4096, 200000),
        lambda g, i: rs2d(g, i, "px", 0),
        lambda g, i: rs2d(g, i, "xp", 0, out=True),
        lambda g, i: rs2d(g, i, g.choice(("px", "xp")), 0),
        lambda g, i: rs2d(g, i, g.choice(("px", "xp")), 200000),
    ]
    side_kinds = ("chsh", "lhv", "wigner", "parity-chsh", "marginal-theorem", "ak-compare", "sweep")
    return shapes, _side_shapes(side_kinds, reps)


def _bell_round(reps):
    shapes = [
        chsh,
        lambda g, i: chsh(g, i, angles=False, maximize=True, out=True),
        lambda g, i: chsh(g, i, angles=False, maximize=True),
        lambda g, i: chsh(g, i, angles=False, maximize=True),
        lambda g, i: lhv_correlators(g, i, inside=True, brute=False),
        lambda g, i: lhv_correlators(g, i, inside=True, brute=True),
        lambda g, i: lhv_correlators(g, i, inside=False, brute=True),
        lambda g, i: lhv_state(g, i, brute=False),
        lambda g, i: lhv_state(g, i, brute=True),
        lambda g, i: parity_search(g, i, "protocol"),
        lambda g, i: parity_search(g, i, "protocol"),
        lambda g, i: parity_search(g, i, "full"),
        parity_displacements,
        marginal_theorem, marginal_theorem,
        lambda g, i: wigner_1d(g, i, states=("gaussian",)),
        lambda g, i: wigner_1d(g, i, states=("two-gaussian",)),
        lambda g, i: wigner_1d(g, i, states=("excited",)),
        lambda g, i: wigner_grid(g, i, 32),
        lambda g, i: wigner_grid(g, i, 32),
        lambda g, i: wigner_grid(g, i, 64),
        lambda g, i: ak_compare(g, i, out=True),
        ak_compare,
        sweep, sweep, sweep,
    ]
    return shapes, _side_shapes(("rs1d", "rs2d") + CHEAP_SIDE, reps)


_ROUNDS = {"transport": _transport_round, "bell": _bell_round}


def round_ops(workload, seed, r, reps=None):
    """The ops of round ``r``, in their seeded order."""
    rng = Draw("%s:%d:%d" % (workload, seed, r), r)
    shapes, side = _ROUNDS[workload](REPS[workload] if reps is None else reps)
    ops = [shape(rng, "r%d-%d" % (r, k)) for k, shape in enumerate(shapes)]
    for k, shape in enumerate(side):
        op = shape(rng, "r%d-s%d" % (r, k))
        op.side = True
        ops.append(op)
    rng.shuffle(ops)
    return ops


def probe_ops():
    """The contract probes, in their listed order."""
    return [Op("p%d" % k, "probe", argv, expect_code=code) for k, (argv, code) in enumerate(PROBES)]


def warmup_ops():
    """One small untimed op per kind for the in-process workloads."""
    rng = Draw("warmup", 0)
    return [
        chsh(rng, "w-chsh", maximize=True),
        lhv_state(rng, "w-lhv", brute=False),
        rs1d(rng, "w-rs1d", 512, 0),
        rs2d(rng, "w-rs2d", "px", 20000, n=64, xmax=10.0),
        Op("w-mt", "marginal-theorem", ("marginal-theorem", "--cutoffs=10,100")),
        Op("w-wigner", "wigner", ("wigner", "--state", "gaussian", "--n", "64")),
        Op("w-parity", "parity-chsh", ("parity-chsh", "--r", "1")),
        Op("w-ak", "ak-compare", ("ak-compare",)),
        sweep(rng, "w-sweep"),
    ]
