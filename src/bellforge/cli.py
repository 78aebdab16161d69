"""Command line interface.

Every subcommand prints one JSON document to stdout (sorted keys,
"schema_version": "1") and optionally writes a CSV table via --out.
Output is deterministic byte for byte for fixed arguments and seeds.

Exit codes: 0 success, 2 invalid input (including argparse errors),
3 tolerance failure (grid resolution or truncation), 1 anything else.

main() may be called repeatedly in one process: it builds the parser once
and looks up the ``_cmd_*`` handler on every call, so a warm call pays only
for parsing its own arguments (tens of microseconds) and its command's work.
"""

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import akmeas, causal, lhv, psbell, spinor, waves, wigner
from .errors import BellforgeError, GridResolutionError, ValidationError

SCHEMA_VERSION = "1"

_SPINOR_STATES = {
    "psi-plus": spinor.psi_plus,
    "psi-minus": spinor.psi_minus,
    "singlet": spinor.singlet_state,
    "product": spinor.product_xx,
}


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("not JSON serializable: %r" % type(obj))


def _checked(convert, accept, wanted):
    """argparse type: convert(text), refused unless it parses and accept(value)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError("must be %s, got %r" % (wanted, text))
        return value
    return parse


_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_count = _checked(int, lambda v: v >= 0, "a nonnegative integer")


def _parse_floats(text, count, name):
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError("%s must be comma-separated numbers" % name) from exc
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError("%s must be finite numbers" % name)
    if count is not None and len(vals) != count:
        raise ValidationError("%s must hold exactly %d numbers" % (name, count))
    return vals


def _angles_from_args(args):
    vals = _parse_floats(args.angles, 4, "--angles")
    if args.degrees:
        vals = [np.deg2rad(v) for v in vals]
    return vals


def _angles_rad(s):
    """The four analyzer angles of CHSH settings, in the order a, b, a', b'."""
    return [s.a.theta, s.b.theta, s.a_prime.theta, s.b_prime.theta]


def _pairs(s):
    """The four (name, a-side, b-side) setting pairs of a CHSH experiment."""
    return (("ab", s.a, s.b), ("ab'", s.a, s.b_prime),
            ("a'b", s.a_prime, s.b), ("a'b'", s.a_prime, s.b_prime))


# ---------------------------------------------------------------------------
# subcommand handlers (each returns payload, csv spec or None; main adds
# "schema_version" and "command" to the payload)


def _cmd_chsh(args):
    if not args.angles and not args.maximize:
        raise ValidationError("chsh needs --angles and/or --maximize")
    state = _SPINOR_STATES[args.state]()
    payload = {
        "state": args.state,
        "kinds": args.kinds,
    }
    csv_settings = None
    if args.angles:
        settings = spinor.chsh_settings(_angles_from_args(args), args.kinds)
        payload["angles_rad"] = _angles_rad(settings)
        payload["correlations"] = {
            name: spinor.correlation(state, x, y) for name, x, y in _pairs(settings)
        }
        payload["s"] = spinor.chsh_value(state, settings)
        csv_settings = settings
    if args.maximize:
        best, value = spinor.maximize_chsh(state, args.kinds)
        payload["maximize"] = {"angles_rad": _angles_rad(best), "s": value}
        if csv_settings is None:
            csv_settings = best
    rows = (
        (name, x.theta, y.theta, x.kind, y.kind, spinor.correlation(state, x, y))
        for name, x, y in _pairs(csv_settings)
    )
    return payload, (("pair", "angle_a_rad", "angle_b_rad", "kind_a", "kind_b", "correlation"), rows)


def _piped_chsh_document():
    """(state name, kinds, angles) of the chsh JSON document on stdin."""
    try:
        doc = json.load(sys.stdin)
        angles, kinds, state_name = doc["angles_rad"], doc["kinds"], doc["state"]
        if not (isinstance(angles, list)
                and isinstance(kinds, str) and isinstance(state_name, str)):
            raise TypeError("angles_rad must be a list, kinds and state strings")
        angles = [float(v) for v in angles]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            "--from-state expects chsh JSON with state, kinds, angles_rad on stdin"
        ) from exc
    if len(angles) != 4 or not all(map(math.isfinite, angles)):
        raise ValidationError("angles_rad must hold exactly four finite numbers")
    if state_name not in _SPINOR_STATES:
        raise ValidationError("unknown state %r in piped document" % state_name)
    return state_name, kinds, angles


def _cmd_lhv(args):
    sources = sum(1 for flag in (args.correlators, args.from_state, args.angles) if flag)
    if sources != 1:
        raise ValidationError("lhv needs exactly one of --correlators, --from-state, --angles")
    if args.correlators:
        e = _parse_floats(args.correlators, 4, "--correlators")
        behavior = lhv.behavior_from_correlators(e)
        source = {"correlators": e}
    else:
        if args.from_state:
            state_name, kinds, angles = _piped_chsh_document()
            source = {"state": state_name, "kinds": kinds, "angles_rad": angles}
        else:
            state_name, kinds, angles = args.state, args.kinds, _angles_from_args(args)
            source = {"state": state_name, "kinds": kinds}
        behavior = lhv.quantum_behavior(
            _SPINOR_STATES[state_name](), spinor.chsh_settings(angles, kinds)
        )

    decide = lhv.brute_force_feasible if args.brute_force else lhv.lhv_feasible
    result = decide(behavior)
    corr = behavior.correlators()
    payload = {
        "method": "brute-force" if args.brute_force else "min-norm",
        "source": source,
        "correlators": {
            "%d%d" % (i + 1, j + 1): float(corr[i, j]) for i in range(2) for j in range(2)
        },
        "feasible": result.feasible,
        "certificate": None,
        "joint": None,
    }
    if result.certificate is not None:
        payload["certificate"] = {
            "coeffs": result.certificate.coeffs.tolist(),
            "value": result.certificate.value,
            "bound": result.certificate.bound,
        }
    if result.joint is not None:
        payload["joint"] = result.joint.q.tolist()
    coeffs = result.certificate.coeffs if result.certificate is not None else None
    rows = (
        (i + 1, j + 1, float(corr[i, j]), "" if coeffs is None else coeffs[i, j])
        for i in range(2)
        for j in range(2)
    )
    return payload, (("i", "j", "correlator", "certificate_coeff"), rows)


def _state_1d(args):
    name = args.state
    # each state falls back to its own default grid only when --xmax is absent
    grid = {"n": args.n} if args.xmax is None else {"n": args.n, "xmax": args.xmax}
    if name == "gaussian":
        return waves.gaussian_packet(
            x0=args.x0, p0=args.p0, sigma=args.sigma, t=args.t, mass=args.mass, **grid
        )
    if name == "two-gaussian":
        return waves.two_gaussian_packet(t=args.t, mass=args.mass, **grid)
    if name == "excited":
        return waves.excited_state(args.level, **grid)
    raise ValidationError("unknown 1-D state %r" % name)


def _cmd_rs1d(args):
    psi = _state_1d(args)
    m = causal.rs_map_1d(psi, args.epsilon)
    report = causal.verify_marginals(m, mc_samples=args.mc, seed=args.seed)
    payload = {
        "state": args.state,
        "epsilon": args.epsilon,
        "n": psi.axes[0].n,
        "verification": report,
        "takabayasi": causal.takabayasi_gap_detailed(psi),
    }
    rows = zip(m.x, m.p_hat)
    return payload, (("x", "p_hat"), rows)


def _cmd_rs2d(args):
    epsilons = _parse_floats(args.epsilons, 2, "--epsilons")
    if any(v not in (1.0, -1.0) for v in epsilons):
        raise ValidationError("--epsilons must each be 1 or -1")
    epsilons = [int(v) for v in epsilons]
    psi = waves.correlated_gaussian_2d(
        rho=args.rho, sigma=args.sigma, n=args.n, xmax=args.xmax
    )
    chain = causal.rs_map_2d(psi, epsilons[0], epsilons[1], ordering=args.ordering)
    report = causal.verify_marginals(chain, mc_samples=args.mc, seed=args.seed)
    other = causal.rs_map_2d(
        psi, epsilons[0], epsilons[1], ordering="xp" if args.ordering == "px" else "px"
    )
    pm = chain.point_maps()
    pm_other = other.point_maps()
    base = psi.masses()
    payload = {
        "rho": args.rho,
        "ordering": args.ordering,
        "epsilons": epsilons,
        "n": args.n,
        "verification": report,
        # mass-weighted so empty tail cells pinned to the grid edge don't dominate
        "swap_difference": {
            "p1": float(np.sum(base * np.abs(pm["p1"] - pm_other["p1"]))),
            "p2": float(np.sum(base * np.abs(pm["p2"] - pm_other["p2"]))),
        },
        "off_pair_distance": causal.ccs_distance(chain),
    }
    mid = args.n // 2
    x1 = psi.axes[0].points()
    rows = (
        (x1[k], float(pm["p1"][k, mid]), float(pm["p2"][k, mid])) for k in range(args.n)
    )
    return payload, (("x1", "p1", "p2"), rows)


def _cmd_marginal_theorem(args):
    cutoffs = _parse_floats(args.cutoffs, None, "--cutoffs")
    report = psbell.marginal_theorem_demo(
        cutoffs, grid_n=args.grid, grid_xmax=args.grid_xmax
    )
    payload = {
        "cutoffs": report["cutoffs"],
        "overlap": report["overlap"],
        "s_plus": report["s_plus"],
        "s_minus": report["s_minus"],
        "verdict": {
            "monotone": True,
            "exceeds_2_at": report["exceeds_2_at"],
            "extrapolated_limit": report["extrapolated_limit"],
            "tsirelson": report["tsirelson"],
        },
    }
    if "grid_check" in report:
        payload["grid_check"] = report["grid_check"]
    rows = zip(report["cutoffs"], report["overlap"], report["s_plus"], report["s_minus"])
    return payload, (("cutoff", "overlap", "s_plus", "s_minus"), rows)


_GRID_STATES = ("psi-plus-grid", "psi-minus-grid")


def _cmd_wigner(args):
    payload = {"state": args.state}
    grid_state = args.state in _GRID_STATES
    if args.n is None:  # the 2-D transform costs O(n^4 log n) time, O(n^3) memory
        args.n = 64 if grid_state else 256
    if grid_state:
        sign = +1 if args.state == "psi-plus-grid" else -1
        psi = waves.psi_marginal_state(sign, args.cutoff, n=args.n, xmax=args.xmax)
        summary = wigner.wigner_transform(psi)
        payload.update(
            {
                "n": args.n,
                "cutoff": args.cutoff,
                "min_w": summary.min_w,
                "marginal_errors": wigner.marginal_errors_2d(summary),
            }
        )
        x1 = summary.x_axes[0].points()
        p1 = summary.p_axes[0].points()
        rows = (
            (x1[k], p1[j], float(summary.central_slice[k, j]))
            for k in range(args.n)
            for j in range(args.n)
        )
        return payload, (("q1", "p1", "w"), rows)

    psi = _state_1d(args)
    grid = wigner.wigner_transform(psi)
    payload["n"] = psi.axes[0].n
    payload.update(wigner.hudson_check(grid))
    payload["marginal_errors"] = wigner.marginal_errors_1d(grid)
    x = grid.x_axis.points()
    p = grid.p_axis.points()
    rows = (
        (x[k], p[j], float(grid.values[k, j]))
        for k in range(x.shape[0])
        for j in range(p.shape[0])
    )
    return payload, (("x", "p", "w"), rows)


def _cmd_parity_chsh(args):
    payload = {"r": args.r}
    if args.displacements:
        d = _parse_floats(args.displacements, 4, "--displacements")
        payload["displacements"] = d
        payload["s"] = wigner.chsh_parity(args.r, d)
    else:
        best = wigner.maximize_chsh_parity(args.r, search=args.search)
        payload["search"] = best["search"]
        payload["s_max"] = best["s_max"]
        payload["displacements"] = [float(np.real(v)) for v in best["displacements"]]
    rows = zip(
        ("a", "b", "a_prime", "b_prime", "s"),
        (*payload["displacements"], payload.get("s", payload.get("s_max"))),
    )
    return payload, (("quantity", "value"), rows)


def _cmd_ak_compare(args):
    psi = waves.gaussian_packet(
        sigma=args.sigma, t=args.t, mass=args.mass, n=args.n, xmax=args.xmax
    )
    record = akmeas.ak_distribution(psi, args.b)
    peaks = akmeas.momentum_peaks(record, window_std=args.window_std)
    # the map rides the conjugate grid, whose cell width is pi/xmax; build
    # it on a wider 1-D grid than the record so its discretization error
    # stays below the ridge comparison scale
    spread = waves.gaussian_spread(args.sigma, args.t, args.mass)
    psi_map = waves.gaussian_packet(
        sigma=args.sigma, t=args.t, mass=args.mass,
        n=max(args.n, 4096), xmax=54.0 * spread,
    )
    m = causal.rs_map_1d(psi_map)
    p_rs = m.evaluate(peaks["x1"])
    usable = ~peaks["flat"]
    if usable.sum() < 2:
        raise GridResolutionError(
            "only %d conditional ridge(s) could be located; the window b = %g"
            " is too narrow or too wide for the grid" % (usable.sum(), args.b)
        )
    slope_rs = float(np.polyfit(peaks["x1"][usable], p_rs[usable], 1)[0])

    _, var1 = record.mean_var_x1()
    _, var2 = record.mean_var_x2()
    payload = {
        "sigma": args.sigma,
        "t": args.t,
        "mass": args.mass,
        "b": args.b,
        "n": args.n,
        "record_slope": peaks["slope"],
        "record_slope_expected": akmeas.gaussian_record_slope(
            args.sigma, args.t, args.mass, args.b
        ),
        "map_slope": slope_rs,
        "map_slope_expected": akmeas.gaussian_map_slope(args.sigma, args.t, args.mass),
        "variances": {
            "x1": var1,
            "x1_expected": record.var_x + args.b**2,
            "x2": var2,
            "x2_expected": record.var_p + 1.0 / (4.0 * args.b**2),
        },
        "warnings": list(record.warnings),
    }
    rows = (
        (float(q), float(pa), float(pr))
        for q, pa, pr in zip(peaks["x1"], peaks["p_peak"], p_rs)
    )
    return payload, (("q", "p_ak", "p_rs"), rows)


def _cmd_waves_dump(args):
    if not args.out:
        raise ValidationError("waves dump requires --out")
    psi = _state_1d(args)
    rep = args.rep
    if rep == "p":
        psi = waves.fourier(psi)
    ax = psi.axes[0]
    pts = ax.points()
    dens = psi.density()
    payload = {
        "state": args.state,
        "rep": rep,
        "n": ax.n,
        "spacing": ax.spacing,
        "norm2": psi.norm2(),
    }
    rows = (
        (pts[k], float(psi.values[k].real), float(psi.values[k].imag), float(dens[k]))
        for k in range(ax.n)
    )
    header = ("x" if rep == "x" else "p", "real", "imag", "density")
    return payload, (header, rows)


# ---------------------------------------------------------------------------
# parser


_STATES_1D = ("gaussian", "two-gaussian", "excited")


def _add_state_1d_arguments(p, default_n=2048, states=_STATES_1D):
    p.add_argument("--state", default="gaussian", choices=states)
    p.add_argument("--sigma", type=_finite_float, default=1.0)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--mass", type=_finite_float, default=1.0)
    p.add_argument("--x0", type=_finite_float, default=0.0)
    p.add_argument("--p0", type=_finite_float, default=0.0)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--n", type=int, default=default_n)
    p.add_argument("--xmax", type=_finite_float, default=None)


def _add_command(sub, name, summary):
    """A subparser with the --out option that every command shares."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--out", default="", help="write the command's table as CSV")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Numerical checks for two-photon Bell tests and "
        "marginal-faithful phase-space constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "chsh", "correlations and CHSH value for a two-photon state")
    p.add_argument("--state", default="psi-plus", choices=sorted(_SPINOR_STATES))
    p.add_argument("--kinds", default="LLLL", help="analyzer kinds, four letters L/E ordered a,b,a',b'")
    p.add_argument("--angles", default="", help="four analyzer angles a,b,a',b'")
    p.add_argument("--degrees", action="store_true", help="read --angles in degrees")
    p.add_argument("--maximize", action="store_true", help="also search the best angles")
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: the --maximize search is deterministic")

    p = _add_command(sub, "lhv", "decide local-hidden-variable feasibility")
    p.add_argument("--correlators", default="", help="four correlators E11,E12,E21,E22")
    p.add_argument("--from-state", action="store_true",
                   help="read a chsh JSON document from stdin")
    p.add_argument("--state", default="psi-plus", choices=sorted(_SPINOR_STATES))
    p.add_argument("--kinds", default="LLLL")
    p.add_argument("--angles", default="")
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--brute-force", action="store_true",
                   help="decide by checking every sign variant instead of the mixture fit")

    p = _add_command(sub, "rs1d", "1-D CDF-matching transport map and verification")
    _add_state_1d_arguments(p)
    p.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
    p.add_argument("--mc", type=_count, default=0, help="verify with this many Monte Carlo samples")
    p.add_argument("--seed", type=_count, default=0)

    p = _add_command(sub, "rs2d", "2-D chained transport and verification")
    p.add_argument("--rho", type=_finite_float, default=0.5)
    p.add_argument("--sigma", type=_finite_float, default=1.0)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--xmax", type=_finite_float, default=20.0)
    p.add_argument("--ordering", default="px", choices=["px", "xp"])
    p.add_argument("--epsilons", default="1,1")
    p.add_argument("--mc", type=_count, default=0)
    p.add_argument("--seed", type=_count, default=0)

    p = _add_command(sub, "marginal-theorem", "quadrant Bell violation table over cutoffs")
    p.add_argument("--cutoffs", default="10,100,1000,10000")
    p.add_argument("--grid", type=int, default=0,
                   help="cross-check the smallest cutoff on an n x n grid")
    p.add_argument("--grid-xmax", type=_finite_float, default=None)

    p = _add_command(sub, "wigner", "discrete Wigner transform diagnostics")
    _add_state_1d_arguments(p, default_n=None, states=_STATES_1D + _GRID_STATES)
    p.add_argument("--cutoff", type=_finite_float, default=10.0)

    p = _add_command(sub, "parity-chsh", "displaced-parity CHSH for the squeezed vacuum")
    p.add_argument("--r", type=_finite_float, default=2.0)
    p.add_argument("--search", default="protocol", choices=["protocol", "full"])
    p.add_argument("--displacements", default="",
                   help="evaluate four real displacements a,b,a',b' instead of searching")

    p = _add_command(sub, "ak-compare", "joint-record ridge versus transport map")
    p.add_argument("--sigma", type=_finite_float, default=1.0)
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--mass", type=_finite_float, default=1.0)
    p.add_argument("--b", type=_finite_float, default=0.5)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--xmax", type=_finite_float, default=None)
    p.add_argument("--window-std", type=_positive_float, default=3.0)

    p = sub.add_parser("waves", help="wavefunction utilities")
    wsub = p.add_subparsers(dest="subcommand", required=True)
    d = _add_command(wsub, "dump", "write a sampled state as CSV (requires --out)")
    _add_state_1d_arguments(d, default_n=4096)
    d.add_argument("--rep", default="x", choices=["x", "p"])

    return parser


_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    words = [args.command] + ([args.subcommand] if "subcommand" in args else [])
    # looked up per call, so a handler replaced on the module is the one that runs
    handler = globals()["_cmd_" + "_".join(words).replace("-", "_")]
    try:
        payload, csv_spec = handler(args)
    except BellforgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    payload.update(schema_version=SCHEMA_VERSION, command=" ".join(words))
    out = args.out
    if out:
        payload["csv"] = out
    try:
        text = json.dumps(
            payload, default=_json_default, indent=2, sort_keys=True, allow_nan=False
        )
    except ValueError as exc:
        print("error: result is not finite JSON (%s)" % exc, file=sys.stderr)
        return 1
    if out:
        try:
            fh = open(out, "w", newline="")
        except OSError as exc:  # a missing directory, a directory, no permission
            print("error: cannot write --out: %s" % exc, file=sys.stderr)
            return 2
        with fh:
            writer = csv.writer(fh)
            writer.writerow(csv_spec[0])
            writer.writerows(csv_spec[1])
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
