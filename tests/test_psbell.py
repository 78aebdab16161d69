import math

import numpy as np
import pytest

from bellforge import psbell, waves
from bellforge.errors import DomainError, ValidationError


# overlap integral and S values for the four standard cutoffs, frozen from
# high-precision quadrature of the closed form
FROZEN = {
    10.0: (1.1740441247, 1.7809467349),
    100.0: (1.3929131842, 2.0350285456),
    1000.0: (1.5482702022, 2.2256577371),
    10000.0: (1.6495197375, 2.3544877996),
}


def family_s(cutoff, sign=+1):
    """Closed-form S of the psi_(+/-) family: S_(+/-) = +/-(sqrt(2)/8)(2 + I)^2."""
    return sign * psbell._s_of_overlap(psbell.overlap_integral(cutoff))


def test_overlap_integral_frozen_values():
    for cutoff, (i_val, _) in FROZEN.items():
        assert psbell.overlap_integral(cutoff) == pytest.approx(i_val, abs=1e-6)
    with pytest.raises(DomainError):
        psbell.overlap_integral(-1.0)
    with pytest.raises(DomainError):
        psbell.overlap_integral(0.5)
    # past 1e10 the quadrature is unchecked, and by 1e43 it is off by 8.5e-4
    for cutoff in (math.nextafter(1e10, math.inf), 1e40):
        with pytest.raises(DomainError, match="exceeds 1e10"):
            psbell.overlap_integral(cutoff)


def _quad_overlap(cutoff):
    """I(L) by adaptive quadrature of the scalar closed-form inner integral,
    split at w = sqrt(2): the reference the tanh-sinh rule must match."""
    from scipy import integrate

    big_m = math.sqrt(cutoff + 1.0)

    def inner(w):
        d = w * w - 2.0
        if d > 0.0:
            m = math.sqrt(d)
            return (math.atan(big_m / m) - math.atan(1.0 / m)) / m
        k = math.sqrt(-d)
        return (
            math.log((big_m - k) / (big_m + k)) - math.log((1.0 - k) / (1.0 + k))
        ) / (2.0 * k)

    lo, _ = integrate.quad(inner, 1.0, math.sqrt(2.0), epsabs=1e-12, limit=300)
    hi, _ = integrate.quad(inner, math.sqrt(2.0), big_m, epsabs=1e-12, limit=300)
    return 8.0 * (lo + hi) / (math.pi * math.log(cutoff + 1.0))


def test_overlap_integral_matches_adaptive_quadrature():
    pytest.importorskip("scipy")
    for cutoff in np.geomspace(1.01, 1e10, 61):
        assert abs(psbell.overlap_integral(cutoff) - _quad_overlap(cutoff)) <= 1e-12, cutoff


def test_overlap_nodes_avoid_the_branch_points():
    """No node may land on w = 1 (log singularity) or w = sqrt(2) (branch
    switch), even when the second interval is a few ulps long."""
    for a, b in ((1.0, math.sqrt(2.0)), (math.sqrt(2.0), math.sqrt(2.0) * (1 + 1e-15)),
                 (math.sqrt(2.0), 1e5)):
        w, weight = psbell._tanh_sinh_nodes(a, b)
        assert np.all((w > a) & (w < b))
        assert np.all(np.isfinite(psbell._inner_v(w, max(b, 1.5))))
    for cutoff in (1.0 + 1e-12, 1.01, 1e10):
        assert math.isfinite(psbell.overlap_integral(cutoff))


def test_family_s_frozen_and_antisymmetric():
    for cutoff, (_, s_val) in FROZEN.items():
        assert family_s(cutoff, +1) == pytest.approx(s_val, abs=1e-6)
        assert family_s(cutoff, -1) == pytest.approx(-s_val, abs=1e-6)
    # S = sqrt(2)/8 (2 + I)^2 with I < 2 keeps S below the quantum bound
    for cutoff in (1e5, 1e7, 1e9):
        assert family_s(cutoff) < psbell.TSIRELSON + 1e-6


def test_demo_report():
    rep = psbell.marginal_theorem_demo()
    assert rep["exceeds_2_at"] == 100.0
    assert all(b > a for a, b in zip(rep["s_plus"], rep["s_plus"][1:]))
    assert rep["extrapolated_limit"] == pytest.approx(psbell.TSIRELSON, rel=0.05)
    assert rep["extrapolated_limit"] < psbell.TSIRELSON + 1e-6
    assert np.allclose(np.asarray(rep["s_minus"]), -np.asarray(rep["s_plus"]), atol=1e-12)
    with pytest.raises(DomainError):
        psbell.marginal_theorem_demo(cutoffs=(10.0,))
    with pytest.raises(DomainError):
        psbell.marginal_theorem_demo(cutoffs=(100.0, 10.0))


def test_grid_cross_check():
    rep = psbell.marginal_theorem_demo(cutoffs=(10.0, 100.0), grid_n=512, grid_xmax=12.0)
    s_grid = rep["grid_check"]["s_grid"]
    assert 1.2 < s_grid < psbell.TSIRELSON
    # the grid estimate must sit below the closed form (finite box +
    # discrete zero lines both bleed correlation)
    assert s_grid < family_s(10.0)
    # the miss is set by the momentum cell dp = pi/xmax: each halving of dp
    # cuts it by more than half.  Measured 0.338, 0.071 and 0.0125; the
    # last is bounded by 0.02, which leaves 0.0075 of headroom
    gaps = [abs(s_grid - family_s(10.0))]
    for n, xmax in ((512, 24.0), (1024, 48.0)):
        psi = waves.psi_marginal_state(+1, 10.0, n=n, xmax=xmax)
        gaps.append(abs(psbell.s_functional(psi) - family_s(10.0)))
    assert gaps[1] < 0.5 * gaps[0] and gaps[2] < 0.5 * gaps[1]
    assert gaps[2] < 0.02


def _sign_groups(masses, points, axis):
    """Collapse an axis of a mass table to three sign groups (-, 0, +)."""
    s = np.sign(points)
    arr = np.moveaxis(masses, axis, 0)
    grouped = np.stack(
        [arr[s < 0].sum(axis=0), arr[s == 0].sum(axis=0), arr[s > 0].sum(axis=0)]
    )
    return np.moveaxis(grouped, 0, axis)


def quad_densities(psi):
    """Sign-pair mass tables for all four quadrature pairs: the reference
    that the S functional's sign contractions must match.

    Returns a dict mapping each pair in {qq, qp, pq, pp} to a 3x3 table
    indexed by the sign groups (-, 0, +) of the two coordinates, each pair
    state built by ``waves.fourier`` rather than ``waves.pair_states``.
    """
    pq = waves.fourier(psi, axis=0)
    states = {"qq": psi, "qp": waves.fourier(psi, axis=1), "pq": pq,
              "pp": waves.fourier(pq, axis=1)}
    return {
        ccs: _sign_groups(_sign_groups(w.masses(), w.axes[0].points(), 0), w.axes[1].points(), 1)
        for ccs, w in states.items()
    }


def test_quad_densities_are_distributions():
    psi = waves.psi_marginal_state(+1, 10.0, n=256, xmax=12.0)
    tables = quad_densities(psi)
    assert set(tables) == {"qq", "qp", "pq", "pp"}
    for t in tables.values():
        assert t.shape == (3, 3)
        assert np.all(t >= -1e-12)
        assert t.sum() == pytest.approx(1.0, abs=1e-9)


def _sign_correlator(table):
    """<sgn(a) sgn(b)> of a 3x3 table over the sign groups (-, 0, +)."""
    signs = np.array([-1.0, 0.0, 1.0])
    return float(signs @ table @ signs)


def test_quadrant_correlator_signs():
    psi = waves.psi_marginal_state(+1, 10.0, n=256, xmax=12.0)
    e_qq = _sign_correlator(quad_densities(psi)["qq"])
    # quadrant phase weighting puts more mass on equal signs for psi_plus
    assert e_qq > 0.5
    minus = waves.psi_marginal_state(-1, 10.0, n=256, xmax=12.0)
    assert _sign_correlator(quad_densities(minus)["qq"]) == pytest.approx(-e_qq, abs=1e-9)
    with pytest.raises(ValidationError, match="2-D state"):
        psbell.s_functional(waves.gaussian_packet())
    for axis in (0, 1):
        with pytest.raises(ValidationError, match="position representation"):
            psbell.s_functional(waves.fourier(psi, axis))


def test_s_functional_matches_correlator_sum():
    for sign in (+1, -1):
        psi = waves.psi_marginal_state(sign, 10.0, n=256, xmax=12.0)
        e = {ccs: _sign_correlator(t) for ccs, t in quad_densities(psi).items()}
        total = e["qq"] + e["qp"] + e["pq"] - e["pp"]
        assert psbell.s_functional(psi) == pytest.approx(total, abs=1e-12)


def test_richardson_recovers_linear_model():
    # synthetic data exactly linear in 1/log(L+1) extrapolates exactly
    cutoffs = (100.0, 1000.0)
    limit, slope = 2.5, -3.0
    values = [limit + slope / math.log(c + 1.0) for c in cutoffs]
    assert psbell._richardson(cutoffs, values) == pytest.approx(limit, abs=1e-12)
