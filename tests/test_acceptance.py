"""End-to-end checks of every shipped guarantee, one test per guarantee.

Each test prints a single [C##] PASS/FAIL line with the measured numbers
and then asserts.
"""

import csv
import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np

from bellforge import akmeas, causal, cli, lhv, psbell, spinor, waves, wigner
from bellforge.spinor import TSIRELSON, AnalyzerSetting, ChshSettings


QUARTER = tuple(np.deg2rad([0.0, 22.5, 45.0, 67.5]))


def _check(tag, ok, desc):
    print("[%s] %s - %s" % (tag, "PASS" if ok else "FAIL", desc))
    assert ok, "%s: %s" % (tag, desc)


def _settings(angles, kinds):
    a, b, ap, bp = angles
    ka, kb, kap, kbp = kinds
    return ChshSettings(
        a=AnalyzerSetting(a, ka),
        b=AnalyzerSetting(b, kb),
        a_prime=AnalyzerSetting(ap, kap),
        b_prime=AnalyzerSetting(bp, kbp),
    )


def _random_settings(rng):
    ang = rng.uniform(0.0, np.pi, 4)
    kinds = [("L", "E")[k] for k in rng.integers(0, 2, 4)]
    return _settings(ang, kinds)


def _random_state(rng):
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return raw / np.linalg.norm(raw)


def test_c01_quarter_settings_reach_tsirelson():
    state = spinor.psi_plus()
    t0 = time.perf_counter()
    s_ll = spinor.chsh_value(state, _settings(QUARTER, "LLLL"))
    s_ee = spinor.chsh_value(state, _settings(QUARTER, "EEEE"))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(s_ll - TSIRELSON) < 1e-6
        and abs(s_ee - TSIRELSON) < 1e-6
        and elapsed < 1.0
    )
    _check(
        "C01", ok,
        "quarter settings: S_LL=%.9f S_EE=%.9f (target 2*sqrt(2)) in %.3fs"
        % (s_ll, s_ee, elapsed),
    )


def test_c02_mixed_kinds_cap_at_two():
    t0 = time.perf_counter()
    worst = 0.0
    for state in (spinor.psi_plus(), spinor.psi_minus()):
        for kinds in ("LELE", "ELEL"):
            _, value = spinor.maximize_chsh(state, kinds)
            worst = max(worst, abs(value - 2.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    _check(
        "C02", ok,
        "mixed-kind maxima within %.2e of 2 over LELE/ELEL on both states in %.2fs"
        % (worst, elapsed),
    )


def test_c03_closed_form_correlations():
    rng = np.random.default_rng(11)
    plus, minus = spinor.psi_plus(), spinor.psi_minus()
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(0.0, np.pi, 2)
        sl_a, sl_b = AnalyzerSetting(a, "L"), AnalyzerSetting(b, "L")
        se_a, se_b = AnalyzerSetting(a, "E"), AnalyzerSetting(b, "E")
        cases = (
            (spinor.correlation(plus, sl_a, sl_b), math.cos(2 * (a - b))),
            (spinor.correlation(plus, se_a, se_b), math.cos(2 * (a + b))),
            (spinor.correlation(plus, sl_a, se_b), math.cos(2 * a) * math.cos(2 * b)),
            (spinor.correlation(minus, sl_a, sl_b), -math.cos(2 * (a - b))),
            (spinor.correlation(minus, se_a, se_b), -math.cos(2 * (a - b))),
            (spinor.correlation(minus, sl_a, se_b), -math.cos(2 * a) * math.cos(2 * b)),
        )
        worst = max(worst, max(abs(got - want) for got, want in cases))
    ok = worst < 1e-10
    _check("C03", ok, "10^4 angle pairs match closed forms, worst error %.2e" % worst)


def test_c04_quantum_bound_never_exceeded():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100_000):
        s = spinor.chsh_value(_random_state(rng), _random_settings(rng))
        worst = max(worst, s)
    ok = worst <= TSIRELSON + 1e-9
    _check("C04", ok, "10^5 random draws: max S = %.9f <= 2*sqrt(2) + 1e-9" % worst)


def test_c05_lhv_decision_matches_vertex_oracle():
    rng = np.random.default_rng(23)

    def vertex_mixture():
        w = rng.random(16)
        return lhv.JointDistribution((w / w.sum()).reshape(2, 2, 2, 2)).marginal_behavior()

    mismatches = 0
    for k in range(1000):
        if k % 3 == 0:
            b = vertex_mixture()
        elif k % 3 == 1:
            lam = rng.random()
            b = lhv.Behavior(lam * lhv.pr_box().p + (1.0 - lam) * vertex_mixture().p)
        else:
            b = lhv.quantum_behavior(_random_state(rng), _random_settings(rng))
        if lhv.lhv_feasible(b).feasible != lhv.brute_force_feasible(b).feasible:
            mismatches += 1

    opt = lhv.quantum_behavior(
        spinor.psi_minus(),
        _settings((0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8), "LLLL"),
    )
    res = lhv.lhv_feasible(opt)
    cert_val = res.certificate.value if res.certificate else float("nan")
    ok = (
        mismatches == 0
        and not res.feasible
        and abs(cert_val - TSIRELSON) < 1e-6
    )
    _check(
        "C05", ok,
        "oracle agreement on 1000 behaviors (%d mismatches); optimal certificate %.9f"
        % (mismatches, cert_val),
    )


def test_c06_transport_1d_marginals():
    results = []
    for name, psi in (
        ("gaussian", waves.gaussian_packet(n=4096)),
        ("two-gaussian", waves.two_gaussian_packet(n=4096)),
    ):
        t0 = time.perf_counter()
        rep = causal.verify_marginals(causal.rs_map_1d(psi))
        elapsed = time.perf_counter() - t0
        results.append((name, rep["distances"]["p"], elapsed))
    ok = all(d < 5e-3 and dt < 5.0 for _, d, dt in results)
    _check(
        "C06", ok,
        "; ".join("%s L1=%.2e in %.2fs" % r for r in results) + " (N=4096)",
    )


def test_c07_transport_2d_contexts():
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=512, xmax=20.0)
    chain = causal.rs_map_2d(psi, ordering="px")
    rep = causal.verify_marginals(chain)
    chain_swap = causal.rs_map_2d(psi, ordering="xp")
    rep_swap = causal.verify_marginals(chain_swap)
    pm, pm_swap = chain.point_maps(), chain_swap.point_maps()
    table_diff = max(
        float(np.max(np.abs(pm["p1"] - pm_swap["p1"]))),
        float(np.max(np.abs(pm["p2"] - pm_swap["p2"]))),
    )
    ok = rep["passed"] and rep_swap["passed"] and table_diff > 1e-3
    _check(
        "C07", ok,
        "px distances %s; xp distances %s; map-table swap diff %.3f"
        % (
            {k: "%.2e" % v for k, v in rep["distances"].items()},
            {k: "%.2e" % v for k, v in rep_swap["distances"].items()},
            table_diff,
        ),
    )


def test_c08_field_pushforward_gap_decays():
    gaps = [
        causal.takabayasi_gap(waves.gaussian_packet(sigma=1.0, t=t))
        for t in (0.0, 1.0, 2.0, 4.0)
    ]
    ok = gaps[0] > 1.5 and all(b < a for a, b in zip(gaps, gaps[1:]))
    _check(
        "C08", ok,
        "pushforward gap over t=0,1,2,4: " + ", ".join("%.4f" % g for g in gaps),
    )


def test_c09_cutoff_family_violation():
    t0 = time.perf_counter()
    rep = psbell.marginal_theorem_demo()
    s_plus = rep["s_plus"]
    anti = max(
        abs(psbell.family_s(c, +1) + psbell.family_s(c, -1)) for c in rep["cutoffs"]
    )
    elapsed = time.perf_counter() - t0
    ok = (
        all(b > a for a, b in zip(s_plus, s_plus[1:]))
        and all(s <= TSIRELSON + 1e-6 for s in s_plus)
        and anti < 1e-6
        and abs(rep["extrapolated_limit"] - TSIRELSON) < 0.05 * TSIRELSON
        and elapsed < 120.0
    )
    _check(
        "C09", ok,
        "S(L) = %s, antisymmetry %.1e, limit %.4f (2*sqrt(2) within 5%%) in %.2fs"
        % (["%.4f" % s for s in s_plus], anti, rep["extrapolated_limit"], elapsed),
    )


def test_c10_wigner_gaussian_and_excited():
    worst_min = 0.0
    worst_marg = 0.0
    for psi in (
        waves.gaussian_packet(x0=0.7, p0=-1.1, sigma=0.8, t=0.5, n=512, xmax=16.0),
        waves.gaussian_packet(sigma=1.3, n=512, xmax=20.0),
    ):
        grid = wigner.wigner_transform(psi)
        worst_min = min(worst_min, float(grid.values.min()))
        worst_marg = max(worst_marg, max(wigner.marginal_errors_1d(grid).values()))
    psi2 = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=64, xmax=8.0)
    summary = wigner.wigner_transform(psi2)
    worst_min = min(worst_min, summary.min_w)
    worst_marg = max(worst_marg, max(wigner.marginal_errors_2d(summary).values()))

    grid1 = wigner.wigner_transform(waves.excited_state(1, n=256, xmax=10.0))
    w_origin = float(grid1.values[128, 128])
    ok = (
        worst_min >= -1e-8
        and worst_marg < 1e-5
        and abs(w_origin + 1.0 / math.pi) < 1e-4
    )
    _check(
        "C10", ok,
        "gaussian min W %.2e, worst marginal %.2e; excited W(0,0) = %.6f (target %.6f)"
        % (worst_min, worst_marg, w_origin, -1.0 / math.pi),
    )


def test_c11_parity_chsh_squeezing_curve():
    t0 = time.perf_counter()
    values = [
        wigner.maximize_chsh_parity(r)["s_max"] for r in (0.0, 0.5, 1.0, 2.0, 3.0)
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        2.15 <= values[-1] <= 2.20
        and all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        and values[0] <= 2.0 + 1e-9
        and elapsed < 30.0
    )
    _check(
        "C11", ok,
        "S over r=0,0.5,1,2,3: %s in %.2fs" % (["%.6f" % v for v in values], elapsed),
    )


def test_c12_record_variances():
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        for b in (0.2, 1.0):
            psi = waves.gaussian_packet(sigma=sigma, n=1024, xmax=12.0 * sigma + 8.0 * b)
            record = akmeas.ak_distribution(psi, b)
            _, v1 = record.mean_var_x1()
            _, v2 = record.mean_var_x2()
            want1 = sigma**2 + b**2
            want2 = 1.0 / (4.0 * sigma**2) + 1.0 / (4.0 * b**2)
            worst = max(worst, abs(v1 - want1) / want1, abs(v2 - want2) / want2)
    ok = worst < 0.01
    _check(
        "C12", ok,
        "window variance identities over sigma x b grid, worst relative error %.2e"
        % worst,
    )


def test_c13_ridge_and_transport_table(tmp_path):
    out = tmp_path / "ak.csv"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["ak-compare", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "p_ak", "p_rs"]
    q, p_ak, p_rs = np.array(rows[1:], dtype=float).T
    fits = {}
    for name, y in (("p_ak", p_ak), ("p_rs", p_rs)):
        coef = np.polyfit(q, y, 1)
        fits[name] = (coef[0], float(np.max(np.abs(np.polyval(coef, q) - y))))
    slope_gap = abs(fits["p_ak"][0] - fits["p_rs"][0])
    ok = fits["p_ak"][1] < 1e-3 and fits["p_rs"][1] < 1e-3 and slope_gap > 0.1
    _check(
        "C13", ok,
        "ridge slope %.4f (resid %.1e), map slope %.4f (resid %.1e), gap %.3f"
        % (fits["p_ak"][0], fits["p_ak"][1], fits["p_rs"][0], fits["p_rs"][1], slope_gap),
    )
