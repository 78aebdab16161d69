"""Output checks that do not call the code under test.

Each checker takes the op, its parsed stdout document and its CSV rows
(or None) and raises ``OracleError`` with a reason when the output is
wrong.  Reference values come from closed forms written out here:

* spin correlations E(a, b) = n_a . T . n_b, with n the Bloch vector of
  the analyzer (linear: (sin 2t, 0, cos 2t), elliptic: (0, sin 2t, cos 2t))
  and T the state's Pauli correlation matrix;
* local feasibility of a 2x2x2 behavior: by Fine's theorem it is local
  exactly when no CHSH sign variant exceeds 2;
* the displaced-parity correlator of the two-mode squeezed vacuum,
  exp(-2 cosh(2r)(|a|^2 + |b|^2) + 4 sinh(2r) Re(a b));
* the spreading-Gaussian ridge and transport-map slopes.

Tolerances are the ones the README, the verifiers and the unit suite state.
"""

import json
import math
import random

TSIRELSON = 2.0 * math.sqrt(2.0)
TRACEBACK = "Traceback (most recent call last)"

# L1 thresholds of causal.verify_marginals: deterministic and Monte Carlo
VERIFY_THRESHOLD = {False: 5e-3, True: 5e-2}
WIGNER_1D_TOL = 1e-10     # test_wigner: 1-D marginals against the explicit transform
WIGNER_QQ_TOL = 1e-12     # test_wigner: position-pair marginal of a 2-D state
AK_SLOPE_TOL = 1e-3       # C13: ridge and map slope residual scale
AK_VARIANCE_RTOL = 1e-2   # C12: window variance identities


class OracleError(Exception):
    pass


def _require(cond, reason, *args):
    if not cond:
        raise OracleError(reason % args if args else reason)


def strict_json(text):
    """Parse one JSON document, refusing NaN and +/-Infinity."""

    def refuse(token):
        raise OracleError("non-strict JSON constant %s" % token)

    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise OracleError("stdout is not JSON: %s" % exc) from None


# ---------------------------------------------------------------------------
# closed forms

_PAULI_T = {
    "psi-plus": ((1, 0, 0), (0, -1, 0), (0, 0, 1)),
    "psi-minus": ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
    "singlet": ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
    "product": ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
}


def _bloch(kind, theta):
    s, c = math.sin(2 * theta), math.cos(2 * theta)
    return (s, 0.0, c) if kind == "L" else (0.0, s, c)


def _pauli_t_of_vector(psi):
    """T_ij = <psi| sigma_i (x) sigma_j |psi> for a normalized 4-vector."""
    sig = (
        ((0, 1), (1, 0)),
        ((0, -1j), (1j, 0)),
        ((1, 0), (0, -1)),
    )
    t = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = 0j
            for r1 in range(2):
                for r2 in range(2):
                    for c1 in range(2):
                        for c2 in range(2):
                            m = sig[i][r1][c1] * sig[j][r2][c2]
                            if m:
                                acc += psi[2 * r1 + r2].conjugate() * m * psi[2 * c1 + c2]
            t[i][j] = acc.real
    return t


def correlation(t, kind_a, theta_a, kind_b, theta_b):
    na, nb = _bloch(kind_a, theta_a), _bloch(kind_b, theta_b)
    return sum(na[i] * t[i][j] * nb[j] for i in range(3) for j in range(3))


def chsh_s(t, kinds, angles):
    """|E(a,b) - E(a,b')| + |E(a',b) + E(a',b')| with kinds/angles ordered a,b,a',b'."""
    ka, kb, kap, kbp = kinds
    a, b, ap, bp = angles
    return abs(correlation(t, ka, a, kb, b) - correlation(t, ka, a, kbp, bp)) + abs(
        correlation(t, kap, ap, kb, b) + correlation(t, kap, ap, kbp, bp)
    )


def spinor_correlators(state, kinds, angles):
    """2x2 correlators E_ij for settings (a_i, b_j) of a named state."""
    t = _PAULI_T[state]
    ka, kb, kap, kbp = kinds
    a, b, ap, bp = angles
    return [
        [correlation(t, ka, a, kb, b), correlation(t, ka, a, kbp, bp)],
        [correlation(t, kap, ap, kb, b), correlation(t, kap, ap, kbp, bp)],
    ]


_CHSH_SIGNS = tuple(
    (c0, c1, c2, c3)
    for c0 in (1, -1) for c1 in (1, -1) for c2 in (1, -1) for c3 in (1, -1)
    if c0 * c1 * c2 * c3 == -1
)


def max_chsh_variant(e):
    return max(c[0] * e[0][0] + c[1] * e[0][1] + c[2] * e[1][0] + c[3] * e[1][1]
               for c in _CHSH_SIGNS)


def parity_correlation(r, alpha, beta):
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    return math.exp(-2 * c * (alpha * alpha + beta * beta) + 4 * s * alpha * beta)


def parity_s(r, d):
    a, b, ap, bp = d
    return (parity_correlation(r, a, b) - parity_correlation(r, a, bp)
            + parity_correlation(r, ap, b) + parity_correlation(r, ap, bp))


def gaussian_record_slope(sigma, t, mass, b):
    return (t / (4 * mass * sigma**2)) / (sigma**2 + (t / (2 * mass * sigma)) ** 2 + b**2)


def gaussian_map_slope(sigma, t, mass):
    return (1 / (2 * sigma)) / math.sqrt(sigma**2 + (t / (2 * mass * sigma)) ** 2)


def _close(got, want, tol):
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _arg(op, flag, default=None):
    argv = list(op.argv)
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def _csv_floats(rows, header):
    _require(rows is not None and len(rows) >= 2, "CSV missing or empty")
    _require(tuple(rows[0]) == tuple(header), "CSV header %r", rows[0])
    return [[float(v) for v in row] for row in rows[1:]]


# ---------------------------------------------------------------------------
# per-command checkers


def check_chsh(op, doc, rows):
    p = op.params
    t = _PAULI_T[p["state"]]
    kinds = p["kinds"]
    if p["angles"] is not None:
        e = spinor_correlators(p["state"], kinds, p["angles"])
        got = doc["correlations"]
        for key, want in (("ab", e[0][0]), ("ab'", e[0][1]), ("a'b", e[1][0]), ("a'b'", e[1][1])):
            _require(abs(got[key]) <= 1 + 1e-12, "|E_%s| > 1", key)
            _require(_close(got[key], want, 1e-9), "E_%s=%r, closed form %r", key, got[key], want)
        s = chsh_s(t, kinds, p["angles"])
        _require(_close(doc["s"], s, 1e-9), "s=%r, closed form %r", doc["s"], s)
        _require(doc["s"] <= TSIRELSON + 1e-9, "s=%r above 2*sqrt(2)", doc["s"])
    if "--maximize" in op.argv:
        best = doc["maximize"]["s"]
        _require(best <= TSIRELSON + 1e-9, "maximize s=%r above 2*sqrt(2)", best)
        at = chsh_s(t, kinds, doc["maximize"]["angles_rad"])
        _require(_close(best, at, 1e-9), "maximize s=%r, closed form at its angles %r", best, at)
        rng = random.Random(p.get("sample_seed", 0))
        for _ in range(64):
            sampled = chsh_s(t, kinds, [rng.uniform(0, math.pi) for _ in range(4)])
            _require(best >= sampled - 1e-9, "maximize s=%r below sampled %r", best, sampled)
    if op.csv:
        table = _csv_floats_chsh(rows)
        for a, b, ka, kb, corr in table:
            want = correlation(t, ka, a, kb, b)
            _require(abs(corr - want) <= 1e-9, "CSV correlation %r, closed form %r", corr, want)


def _csv_floats_chsh(rows):
    header = ("pair", "angle_a_rad", "angle_b_rad", "kind_a", "kind_b", "correlation")
    _require(rows is not None and len(rows) == 5, "CSV must hold a header and four rows")
    _require(tuple(rows[0]) == header, "CSV header %r", rows[0])
    return [(float(r[1]), float(r[2]), r[3], r[4], float(r[5])) for r in rows[1:]]


def check_lhv(op, doc, rows):
    p = op.params
    e = ([p["correlators"][:2], p["correlators"][2:]] if "correlators" in p
         else spinor_correlators(p["state"], p["kinds"], p["angles"]))
    got = doc["correlators"]
    for i in range(2):
        for j in range(2):
            key = "%d%d" % (i + 1, j + 1)
            _require(_close(got[key], e[i][j], 1e-9), "E%s=%r, expected %r", key, got[key], e[i][j])
    local = max_chsh_variant(e) <= 2.0
    _require(doc["feasible"] is local, "feasible=%r but max CHSH variant %r",
             doc["feasible"], max_chsh_variant(e))
    cert = doc["certificate"]
    if local:
        _require(cert is None, "feasible behavior carries a certificate")
        joint = [v for a in doc["joint"] for b in a for c in b for v in c]
        _require(min(joint) >= 0 and abs(sum(joint) - 1) <= 1e-6, "joint is not a distribution")
    else:
        _require(cert is not None, "infeasible behavior without certificate")
        _require(cert["value"] > cert["bound"], "certificate value %r within bound %r",
                 cert["value"], cert["bound"])
        _require(_close(cert["bound"], 2.0, 1e-9), "certificate bound %r is not 2", cert["bound"])
        value = sum(cert["coeffs"][i][j] * e[i][j] for i in range(2) for j in range(2))
        _require(_close(cert["value"], value, 1e-9), "certificate value %r, recomputed %r",
                 cert["value"], value)


def _check_verification(op, doc):
    ver = doc["verification"]
    mc = bool(op.params.get("mc"))
    limit = VERIFY_THRESHOLD[mc]
    _require(ver["passed"] is True, "verification did not pass: %r", ver["distances"])
    _require(ver["method"] == ("mc" if mc else "deterministic"), "method %r", ver["method"])
    for name, dist in ver["distances"].items():
        _require(0 <= dist < limit, "distance %s=%r not below %g", name, dist, limit)


def check_rs1d(op, doc, rows):
    _check_verification(op, doc)
    _require(doc["n"] == op.params["n"], "n=%r", doc["n"])
    if op.csv:
        table = _csv_floats(rows, ("x", "p_hat"))
        _require(len(table) == op.params["n"], "CSV has %d rows", len(table))
        sign = op.params["epsilon"]
        for (x0, p0), (x1, p1) in zip(table, table[1:]):
            _require(x1 > x0, "CSV x not increasing")
            _require(sign * (p1 - p0) >= -1e-12, "map not monotone in epsilon direction")


def check_rs2d(op, doc, rows):
    _check_verification(op, doc)
    for key, val in doc["swap_difference"].items():
        _require(val >= 0, "swap_difference %s=%r", key, val)
    if op.csv:
        table = _csv_floats(rows, ("x1", "p1", "p2"))
        _require(len(table) == op.params["n"], "CSV has %d rows", len(table))


def check_marginal_theorem(op, doc, rows):
    sp, sm = doc["s_plus"], doc["s_minus"]
    _require(all(b > a for a, b in zip(sp, sp[1:])), "s_plus not increasing")
    _require(all(abs(a + b) <= 1e-12 for a, b in zip(sp, sm)), "s_minus != -s_plus")
    _require(max(abs(v) for v in sp) <= TSIRELSON + 1e-9, "|S| above 2*sqrt(2)")
    _require(_close(doc["verdict"]["tsirelson"], TSIRELSON, 1e-12), "tsirelson field")
    first = next((c for c, s in zip(doc["cutoffs"], sp) if s > 2.0), None)
    _require(doc["verdict"]["exceeds_2_at"] == first, "exceeds_2_at=%r, table says %r",
             doc["verdict"]["exceeds_2_at"], first)


def check_wigner(op, doc, rows):
    errs = doc["marginal_errors"]
    state = op.params["state"]
    if state.endswith("-grid"):
        _require(errs["qq"] < WIGNER_QQ_TOL, "qq marginal error %r", errs["qq"])
    else:
        _require(max(errs.values()) < WIGNER_1D_TOL, "marginal errors %r", errs)
        _require(doc["gaussian"] is (state == "gaussian"), "gaussian flag %r for %s",
                 doc["gaussian"], state)


def check_parity_chsh(op, doc, rows):
    r = _arg(op, "--r")
    d = doc["displacements"]
    if any(a.startswith("--displacements") for a in op.argv):
        s = doc["s"]
        _require(_close(s, parity_s(r, d), 1e-12), "s=%r, closed form %r", s, parity_s(r, d))
    else:
        s = doc["s_max"]
        _require(_close(s, parity_s(r, d), 1e-9), "s_max=%r, closed form at its point %r",
                 s, parity_s(r, d))
        for i in range(1, 9):
            for j in range(1, 9):
                sampled = parity_s(r, (0.1 * i, 0.0, 0.0, -0.1 * j))
                _require(s >= sampled - 1e-6, "s_max=%r below sampled %r", s, sampled)
    _require(abs(s) <= TSIRELSON + 1e-9, "s=%r above 2*sqrt(2)", s)


def check_ak_compare(op, doc, rows):
    sigma, t, b = _arg(op, "--sigma", 1.0), _arg(op, "--t", 1.0), _arg(op, "--b", 0.5)
    rec = gaussian_record_slope(sigma, t, 1.0, b)
    mp = gaussian_map_slope(sigma, t, 1.0)
    _require(_close(doc["record_slope_expected"], rec, 1e-12), "record_slope_expected")
    _require(_close(doc["map_slope_expected"], mp, 1e-12), "map_slope_expected")
    _require(_close(doc["record_slope"], rec, AK_SLOPE_TOL), "record_slope=%r vs %r",
             doc["record_slope"], rec)
    _require(_close(doc["map_slope"], mp, AK_SLOPE_TOL), "map_slope=%r vs %r", doc["map_slope"], mp)
    var = doc["variances"]
    for key in ("x1", "x2"):
        want = var[key + "_expected"]
        _require(abs(var[key] - want) <= AK_VARIANCE_RTOL * want, "variance %s", key)
    if op.csv:
        table = _csv_floats(rows, ("q", "p_ak", "p_rs"))
        _require(len(table) > 2, "CSV has %d rows", len(table))


def check_sweep(op, doc, rows, inputs):
    values = doc["s"]
    _require(len(values) == len(inputs), "sweep returned %d values", len(values))
    for s, (psi, angles, kinds) in zip(values, inputs):
        want = chsh_s(_pauli_t_of_vector(psi), kinds, angles)
        _require(_close(s, want, 1e-9), "chsh_value=%r, closed form %r", s, want)
        _require(s <= TSIRELSON + 1e-9, "chsh_value=%r above 2*sqrt(2)", s)


CHECKERS = {
    "chsh": check_chsh,
    "lhv": check_lhv,
    "rs1d": check_rs1d,
    "rs2d": check_rs2d,
    "marginal-theorem": check_marginal_theorem,
    "wigner": check_wigner,
    "parity-chsh": check_parity_chsh,
    "ak-compare": check_ak_compare,
}


def judge(op, code, stdout, stderr, rows=None, sweep_inputs=None):
    """None when the op behaved as documented, else the reason it failed."""
    if TRACEBACK in stderr:
        return "traceback on stderr"
    try:
        doc = strict_json(stdout) if stdout.strip() else None
        if op.probe:
            _require(code == op.expect_code, "exit %r, documented %r", code, op.expect_code)
            return None
        _require(code == 0, "exit %r", code)
        _require(doc is not None, "no JSON document on stdout")
        if op.kind == "sweep":
            check_sweep(op, doc, rows, sweep_inputs)
            return None
        _require(doc.get("schema_version") == "1", "schema_version %r", doc.get("schema_version"))
        CHECKERS[op.kind](op, doc, rows)
    except OracleError as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "malformed output: %s: %s" % (type(exc).__name__, exc)
    return None
