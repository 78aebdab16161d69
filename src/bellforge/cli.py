"""Command line interface.

Every subcommand prints one JSON document to stdout (sorted keys,
"schema_version": "1") and optionally writes a CSV table via --out.
Output is deterministic byte for byte for fixed arguments and seeds.

Exit codes: 0 success, 2 invalid input (including argparse errors),
3 tolerance failure (grid resolution or truncation), 1 anything else.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import akmeas, causal, lhv, psbell, spinor, waves, wigner
from .errors import BellforgeError, ValidationError

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


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_floats(text, count=None, name="values"):
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError("%s must be comma-separated numbers" % name) from exc
    if count is not None and len(vals) != count:
        raise ValidationError("%s must hold exactly %d numbers" % (name, count))
    return vals


def _angles_from_args(args):
    vals = _parse_floats(args.angles, 4, "--angles")
    if args.degrees:
        vals = [np.deg2rad(v) for v in vals]
    return vals


def _settings(angles, kinds):
    ka, kb, kap, kbp = spinor._parse_kinds(kinds)
    a, b, ap, bp = angles
    return spinor.ChshSettings(
        a=spinor.AnalyzerSetting(a, ka),
        b=spinor.AnalyzerSetting(b, kb),
        a_prime=spinor.AnalyzerSetting(ap, kap),
        b_prime=spinor.AnalyzerSetting(bp, kbp),
    )


def _correlations(state, settings):
    return {
        "ab": spinor.correlation(state, settings.a, settings.b),
        "ab'": spinor.correlation(state, settings.a, settings.b_prime),
        "a'b": spinor.correlation(state, settings.a_prime, settings.b),
        "a'b'": spinor.correlation(state, settings.a_prime, settings.b_prime),
    }


# ---------------------------------------------------------------------------
# subcommand handlers (each returns payload, csv spec or None)


def _cmd_chsh(args):
    if not args.angles and not args.maximize:
        raise ValidationError("chsh needs --angles and/or --maximize")
    state = _SPINOR_STATES[args.state]()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "chsh",
        "state": args.state,
        "kinds": args.kinds,
    }
    csv_settings = None
    if args.angles:
        angles = _angles_from_args(args)
        settings = _settings(angles, args.kinds)
        payload["angles_rad"] = [
            settings.a.theta,
            settings.b.theta,
            settings.a_prime.theta,
            settings.b_prime.theta,
        ]
        payload["correlations"] = _correlations(state, settings)
        payload["s"] = spinor.chsh_value(state, settings)
        csv_settings = settings
    if args.maximize:
        best, value = spinor.maximize_chsh(state, args.kinds, seed=args.seed)
        payload["maximize"] = {
            "angles_rad": [best.a.theta, best.b.theta, best.a_prime.theta, best.b_prime.theta],
            "s": value,
        }
        if csv_settings is None:
            csv_settings = best
    corr = _correlations(state, csv_settings)
    rows = [
        ("ab", csv_settings.a.theta, csv_settings.b.theta,
         csv_settings.a.kind, csv_settings.b.kind, corr["ab"]),
        ("ab'", csv_settings.a.theta, csv_settings.b_prime.theta,
         csv_settings.a.kind, csv_settings.b_prime.kind, corr["ab'"]),
        ("a'b", csv_settings.a_prime.theta, csv_settings.b.theta,
         csv_settings.a_prime.kind, csv_settings.b.kind, corr["a'b"]),
        ("a'b'", csv_settings.a_prime.theta, csv_settings.b_prime.theta,
         csv_settings.a_prime.kind, csv_settings.b_prime.kind, corr["a'b'"]),
    ]
    return payload, (("pair", "angle_a_rad", "angle_b_rad", "kind_a", "kind_b", "correlation"), rows)


def _cmd_lhv(args):
    sources = sum(1 for flag in (args.correlators, args.from_state, args.angles) if flag)
    if sources != 1:
        raise ValidationError("lhv needs exactly one of --correlators, --from-state, --angles")
    if args.correlators:
        e = _parse_floats(args.correlators, 4, "--correlators")
        behavior = lhv.behavior_from_correlators(e)
        source = {"correlators": e}
    elif args.from_state:
        try:
            doc = json.load(sys.stdin)
            angles = [float(v) for v in doc["angles_rad"]]
            kinds = doc["kinds"]
            state_name = doc["state"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                "--from-state expects chsh JSON with state, kinds, angles_rad on stdin"
            ) from exc
        if state_name not in _SPINOR_STATES:
            raise ValidationError("unknown state %r in piped document" % state_name)
        behavior = lhv.quantum_behavior(
            _SPINOR_STATES[state_name](), _settings(angles, kinds)
        )
        source = {"state": state_name, "kinds": kinds, "angles_rad": angles}
    else:
        state = _SPINOR_STATES[args.state]()
        behavior = lhv.quantum_behavior(
            state, _settings(_angles_from_args(args), args.kinds)
        )
        source = {"state": args.state, "kinds": args.kinds}

    decide = lhv.brute_force_feasible if args.brute_force else lhv.lhv_feasible
    result = decide(behavior)
    corr = behavior.correlators()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "lhv",
        "method": "brute-force" if args.brute_force else "nnls",
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
    rows = [
        (i + 1, j + 1, float(corr[i, j]), "" if coeffs is None else coeffs[i, j])
        for i in range(2)
        for j in range(2)
    ]
    return payload, (("i", "j", "correlator", "certificate_coeff"), rows)


def _state_1d(args):
    name = args.state
    if name == "gaussian":
        return waves.gaussian_packet(
            x0=args.x0, p0=args.p0, sigma=args.sigma, t=args.t,
            mass=args.mass, n=args.n, xmax=args.xmax,
        )
    if name == "two-gaussian":
        return waves.two_gaussian_packet(t=args.t, mass=args.mass, n=args.n, xmax=args.xmax or 24.0)
    if name == "excited":
        return waves.excited_state(args.level, n=args.n, xmax=args.xmax or 16.0)
    raise ValidationError("unknown 1-D state %r" % name)


def _cmd_rs1d(args):
    psi = _state_1d(args)
    m = causal.rs_map_1d(psi, args.epsilon)
    report = causal.verify_marginals(m, psi, mc_samples=args.mc, seed=args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "rs1d",
        "state": args.state,
        "epsilon": args.epsilon,
        "n": psi.axes[0].n,
        "verification": report,
        "takabayasi": causal.takabayasi_gap_detailed(psi),
    }
    rows = list(zip(m.x.tolist(), m.p_hat.tolist()))
    return payload, (("x", "p_hat"), rows)


def _cmd_rs2d(args):
    epsilons = [int(v) for v in _parse_floats(args.epsilons, 2, "--epsilons")]
    psi = waves.correlated_gaussian_2d(
        rho=args.rho, sigma=args.sigma, n=args.n, xmax=args.xmax
    )
    chain = causal.rs_map_2d(psi, epsilons[0], epsilons[1], ordering=args.ordering)
    report = causal.verify_marginals(chain, psi, mc_samples=args.mc, seed=args.seed)
    other = causal.rs_map_2d(
        psi, epsilons[0], epsilons[1], ordering="xp" if args.ordering == "px" else "px"
    )
    pm = chain.point_maps()
    pm_other = other.point_maps()
    base = psi.density() * psi.axes[0].spacing * psi.axes[1].spacing
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "rs2d",
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
        "off_pair_distance": causal.ccs_distance(
            chain, psi, "qp" if args.ordering == "px" else "pq"
        ),
    }
    mid = args.n // 2
    x1 = psi.axes[0].points()
    rows = [
        (x1[k], float(pm["p1"][k, mid]), float(pm["p2"][k, mid])) for k in range(args.n)
    ]
    return payload, (("x1", "p1", "p2"), rows)


def _cmd_marginal_theorem(args):
    cutoffs = _parse_floats(args.cutoffs, None, "--cutoffs")
    report = psbell.marginal_theorem_demo(
        cutoffs, grid_n=args.grid, grid_xmax=args.grid_xmax
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "marginal-theorem",
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
    rows = list(
        zip(report["cutoffs"], report["overlap"], report["s_plus"], report["s_minus"])
    )
    return payload, (("cutoff", "overlap", "s_plus", "s_minus"), rows)


def _cmd_wigner(args):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "wigner",
        "state": args.state,
    }
    if args.state in ("psi-plus-grid", "psi-minus-grid"):
        sign = +1 if args.state == "psi-plus-grid" else -1
        psi = waves.psi_marginal_state(sign, args.cutoff, n=args.n, xmax=args.xmax)
        summary = wigner.wigner_transform(psi)
        payload.update(
            {
                "n": args.n,
                "cutoff": args.cutoff,
                "min_w": summary.min_w,
                "marginal_errors": wigner.marginal_errors_2d(summary, psi),
            }
        )
        x1 = summary.x_axes[0].points()
        p1 = summary.p_axes[0].points()
        rows = [
            (x1[k], p1[j], float(summary.central_slice[k, j]))
            for k in range(args.n)
            for j in range(args.n)
        ]
        return payload, (("q1", "p1", "w"), rows)

    psi = _state_1d(args)
    grid = wigner.wigner_transform(psi)
    resid = wigner.gaussianity_residual(psi)
    payload.update(
        {
            "n": psi.axes[0].n,
            "min_w": float(grid.values.min()),
            "gaussian": bool(resid < 1e-6),
            "residual": resid,
            "marginal_errors": wigner.marginal_errors_1d(grid, psi),
        }
    )
    x = grid.x_axis.points()
    p = grid.p_axis.points()
    rows = [
        (x[k], p[j], float(grid.values[k, j]))
        for k in range(x.shape[0])
        for j in range(p.shape[0])
    ]
    return payload, (("x", "p", "w"), rows)


def _cmd_parity_chsh(args):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "parity-chsh",
        "r": args.r,
    }
    if args.displacements:
        d = _parse_floats(args.displacements, 4, "--displacements")
        payload["displacements"] = d
        payload["s"] = wigner.chsh_parity(args.r, d)
    else:
        best = wigner.maximize_chsh_parity(args.r, search=args.search)
        payload["search"] = best["search"]
        payload["s_max"] = best["s_max"]
        payload["displacements"] = [float(np.real(v)) for v in best["displacements"]]
    d = payload["displacements"]
    rows = [
        ("a", d[0]),
        ("b", d[1]),
        ("a_prime", d[2]),
        ("b_prime", d[3]),
        ("s", payload.get("s", payload.get("s_max"))),
    ]
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
    slope_rs = float(np.polyfit(peaks["x1"][usable], p_rs[usable], 1)[0])

    mean1, var1 = record.mean_var_x1()
    mean2, var2 = record.mean_var_x2()
    _, var_x = waves.mean_and_var(psi)
    _, var_p = waves.mean_and_var(waves.fourier(psi))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "ak-compare",
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
            "x1_expected": var_x + args.b**2,
            "x2": var2,
            "x2_expected": var_p + 1.0 / (4.0 * args.b**2),
        },
        "warnings": list(record.warnings),
    }
    rows = [
        (float(q), float(pa), float(pr))
        for q, pa, pr in zip(peaks["x1"], peaks["p_peak"], p_rs)
    ]
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
        "schema_version": SCHEMA_VERSION,
        "command": "waves dump",
        "state": args.state,
        "rep": rep,
        "n": ax.n,
        "spacing": ax.spacing,
        "norm2": psi.norm2(),
    }
    rows = [
        (pts[k], float(psi.values[k].real), float(psi.values[k].imag), float(dens[k]))
        for k in range(ax.n)
    ]
    header = ("x" if rep == "x" else "p", "real", "imag", "density")
    return payload, (header, rows)


# ---------------------------------------------------------------------------
# parser


def _add_state_1d_arguments(p, default_state="gaussian", default_n=2048):
    p.add_argument("--state", default=default_state,
                   choices=["gaussian", "two-gaussian", "excited"])
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--n", type=int, default=default_n)
    p.add_argument("--xmax", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Numerical checks for two-photon Bell tests and "
        "marginal-faithful phase-space constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chsh", help="correlations and CHSH value for a two-photon state")
    p.add_argument("--state", default="psi-plus", choices=sorted(_SPINOR_STATES))
    p.add_argument("--kinds", default="LLLL", help="analyzer kinds, four letters L/E ordered a,b,a',b'")
    p.add_argument("--angles", default="", help="four analyzer angles a,b,a',b'")
    p.add_argument("--degrees", action="store_true", help="read --angles in degrees")
    p.add_argument("--maximize", action="store_true", help="also search the best angles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="", help="write the correlation table as CSV")
    p.set_defaults(handler=_cmd_chsh)

    p = sub.add_parser("lhv", help="decide local-hidden-variable feasibility")
    p.add_argument("--correlators", default="", help="four correlators E11,E12,E21,E22")
    p.add_argument("--from-state", action="store_true",
                   help="read a chsh JSON document from stdin")
    p.add_argument("--state", default="psi-plus", choices=sorted(_SPINOR_STATES))
    p.add_argument("--kinds", default="LLLL")
    p.add_argument("--angles", default="")
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--brute-force", action="store_true",
                   help="decide by checking every sign variant instead of the mixture fit")
    p.add_argument("--out", default="")
    p.set_defaults(handler=_cmd_lhv)

    p = sub.add_parser("rs1d", help="1-D CDF-matching transport map and verification")
    _add_state_1d_arguments(p)
    p.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
    p.add_argument("--mc", type=int, default=0, help="verify with this many Monte Carlo samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(handler=_cmd_rs1d)

    p = sub.add_parser("rs2d", help="2-D chained transport and verification")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--xmax", type=float, default=20.0)
    p.add_argument("--ordering", default="px", choices=["px", "xp"])
    p.add_argument("--epsilons", default="1,1")
    p.add_argument("--mc", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(handler=_cmd_rs2d)

    p = sub.add_parser("marginal-theorem", help="quadrant Bell violation table over cutoffs")
    p.add_argument("--cutoffs", default="10,100,1000,10000")
    p.add_argument("--grid", type=int, default=0,
                   help="cross-check the smallest cutoff on an n x n grid")
    p.add_argument("--grid-xmax", type=float, default=None)
    p.add_argument("--out", default="")
    p.set_defaults(handler=_cmd_marginal_theorem)

    p = sub.add_parser("wigner", help="discrete Wigner transform diagnostics")
    _add_state_1d_arguments(p, default_n=256)
    p.add_argument("--cutoff", type=float, default=10.0)
    pm_choices = ["gaussian", "two-gaussian", "excited", "psi-plus-grid", "psi-minus-grid"]
    for action in p._actions:
        if action.dest == "state":
            action.choices = pm_choices
    p.add_argument("--out", default="")
    p.set_defaults(handler=_cmd_wigner)

    p = sub.add_parser("parity-chsh", help="displaced-parity CHSH for the squeezed vacuum")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--search", default="protocol", choices=["protocol", "full"])
    p.add_argument("--displacements", default="",
                   help="evaluate four real displacements a,b,a',b' instead of searching")
    p.add_argument("--out", default="")
    p.set_defaults(handler=_cmd_parity_chsh)

    p = sub.add_parser("ak-compare", help="joint-record ridge versus transport map")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--window-std", type=float, default=3.0)
    p.add_argument("--out", default="")
    p.set_defaults(handler=_cmd_ak_compare)

    p = sub.add_parser("waves", help="wavefunction utilities")
    wsub = p.add_subparsers(dest="subcommand", required=True)
    d = wsub.add_parser("dump", help="write a sampled state as CSV (requires --out)")
    _add_state_1d_arguments(d, default_n=4096)
    d.add_argument("--rep", default="x", choices=["x", "p"])
    d.add_argument("--out", default="")
    d.set_defaults(handler=_cmd_waves_dump)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, csv_spec = args.handler(args)
    except BellforgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    out = getattr(args, "out", "")
    if out:
        header, rows = csv_spec
        _write_csv(out, header, rows)
        payload["csv"] = out
    sys.stdout.write(json.dumps(payload, default=_json_default, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
