import csv
import math

import numpy as np
import pytest

from bellforge import cli, waves, wigner
from bellforge.errors import DomainError, ValidationError
from bellforge.spinor import TSIRELSON


# protocol-search CHSH maxima over squeezing, frozen from converged runs
PROTOCOL_MAXIMA = {
    0.0: 2.0,
    0.5: 2.144420,
    1.0: 2.183900,
    2.0: 2.190428,
    3.0: 2.190549,
}


def _random_state(n, dim, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n,) * dim) + 1j * rng.normal(size=(n,) * dim)
    return waves.GridWavefunction((waves.position_axis(n, 3.0),) * dim, values)


def _correlation_1d(v):
    """C[k, m] = v[k + m] conj v[k - m] for lags m = -n/2..n/2-1, zero off the grid."""
    n = v.shape[0]
    c = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for i, m in enumerate(range(-n // 2, n // 2)):
            if 0 <= k + m < n and 0 <= k - m < n:
                c[k, i] = v[k + m] * np.conj(v[k - m])
    return c


def _lag_phases(ax):
    """exp(-2 i p_j y_m) on the half-spacing momentum grid, as (j, m)."""
    n = ax.n
    p = (np.arange(n) - n // 2) * math.pi / (n * ax.spacing)
    y = (np.arange(n) - n // 2) * ax.spacing
    return np.exp(-2j * np.outer(p, y))


@pytest.mark.parametrize("n", [8, 16])
def test_1d_transform_matches_explicit_sum(n):
    psi = _random_state(n, 1, seed=n)
    ax = psi.axes[0]
    ref = _correlation_1d(psi.values) @ _lag_phases(ax).T * (ax.spacing / math.pi)
    grid = wigner.wigner_transform(psi)
    assert np.max(np.abs(ref.imag)) < 1e-13
    assert np.max(np.abs(grid.values - ref.real)) < 1e-13


@pytest.mark.parametrize("n", [8, 16])
def test_2d_transform_matches_explicit_sum(n):
    psi = _random_state(n, 2, seed=n + 1)
    v = psi.values
    lags = range(-n // 2, n // 2)
    # c[k1, k2, m1, m2] = psi[k1+m1, k2+m2] conj psi[k1-m1, k2-m2]
    c = np.zeros((n, n, n, n), dtype=complex)
    for k1 in range(n):
        for i1, m1 in enumerate(lags):
            if not (0 <= k1 + m1 < n and 0 <= k1 - m1 < n):
                continue
            for k2 in range(n):
                for i2, m2 in enumerate(lags):
                    if 0 <= k2 + m2 < n and 0 <= k2 - m2 < n:
                        c[k1, k2, i1, i2] = v[k1 + m1, k2 + m2] * np.conj(v[k1 - m1, k2 - m2])
    e1, e2 = (_lag_phases(ax) for ax in psi.axes)
    scale = psi.axes[0].spacing * psi.axes[1].spacing / math.pi**2
    ref = np.einsum("abcd,ic,jd->abij", c, e1, e2) * scale  # (k1, k2, j1, j2)
    assert np.max(np.abs(ref.imag)) < 1e-13
    ref = ref.real
    x1, x2 = (ax.spacing for ax in psi.axes)
    p1, p2 = (wigner._half_momentum_axis(ax).spacing for ax in psi.axes)
    want = {
        "qq": ref.sum(axis=(2, 3)) * p1 * p2,
        "qp": ref.sum(axis=(1, 2)) * x2 * p1,
        "pq": ref.sum(axis=(0, 3)).T * x1 * p2,
        "pp": ref.sum(axis=(0, 1)) * x1 * x2,
    }
    summary = wigner.wigner_transform(psi)
    assert summary.min_w == pytest.approx(ref.min(), abs=1e-13)
    assert np.max(np.abs(summary.central_slice - ref[:, n // 2, :, n // 2])) < 1e-13
    for key, marginal in want.items():
        assert np.max(np.abs(summary.marginals[key] - marginal)) < 1e-13, key


@pytest.mark.parametrize("n", [8, 64, 512])
def test_half_grid_transform_matches_explicit_sum_1d(n):
    psi = _random_state(n, 1, seed=n + 2)
    p = wigner._half_momentum_axis(psi.axes[0]).points()
    got = wigner._half_grid_transform(psi, (0,))
    assert np.max(np.abs(got - waves.dft_at(psi, p))) < 1e-13


def test_half_grid_transform_matches_explicit_sum_2d():
    psi = _random_state(32, 2, seed=7)
    p1, p2 = (wigner._half_momentum_axis(ax).points() for ax in psi.axes)
    along0 = waves.dft_at(psi, p1, axis=0)  # (x2, p1)
    along1 = waves.dft_at(psi, p2, axis=1)  # (x1, p2)
    assert np.max(np.abs(wigner._half_grid_transform(psi, (0,)) - along0.T)) < 1e-13
    assert np.max(np.abs(wigner._half_grid_transform(psi, (1,)) - along1)) < 1e-13
    # both axes: the explicit sum over x2 of the axis-0 transform
    both = waves.dft_at(waves.GridWavefunction(psi.axes, along0.T), p2, axis=1)
    assert np.max(np.abs(wigner._half_grid_transform(psi, (0, 1)) - both)) < 1e-13


def _wigner_csv(tmp_path, capsys, *argv):
    out = tmp_path / "w.csv"
    assert cli.main(["wigner", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def test_wigner_csv_1d_rows_match_grid(tmp_path, capsys):
    header, body = _wigner_csv(tmp_path, capsys, "--state", "excited", "--n", "64", "--xmax", "8")
    grid = wigner.wigner_transform(waves.excited_state(1, n=64, xmax=8.0))
    assert header == ["x", "p", "w"]
    assert body.shape == (64 * 64, 3)
    x, p = np.meshgrid(grid.x_axis.points(), grid.p_axis.points(), indexing="ij")
    assert np.array_equal(body[:, 0], x.ravel())
    assert np.array_equal(body[:, 1], p.ravel())
    assert np.array_equal(body[:, 2], grid.values.ravel())


def test_wigner_csv_grid_rows_match_central_slice(tmp_path, capsys):
    header, body = _wigner_csv(tmp_path, capsys, "--state", "psi-minus-grid", "--n", "16")
    summary = wigner.wigner_transform(waves.psi_marginal_state(-1, 10.0, n=16))
    assert header == ["q1", "p1", "w"]
    assert body.shape == (16 * 16, 3)
    q, p = np.meshgrid(summary.x_axes[0].points(), summary.p_axes[0].points(), indexing="ij")
    assert np.array_equal(body[:, 0], q.ravel())
    assert np.array_equal(body[:, 1], p.ravel())
    assert np.array_equal(body[:, 2], summary.central_slice.ravel())


def test_1d_marginals_exact():
    for psi in (waves.gaussian_packet(x0=0.5, p0=-0.8, sigma=0.9, n=512, xmax=12.0),
                waves.excited_state(2, n=512, xmax=12.0)):
        grid = wigner.wigner_transform(psi)
        errs = wigner.marginal_errors_1d(grid)
        assert errs["q"] < 1e-10
        assert errs["p"] < 1e-10


def test_wigner_normalization_and_reality():
    psi = waves.two_gaussian_packet(n=1024, xmax=24.0)
    grid = wigner.wigner_transform(psi)
    total = grid.values.sum() * grid.x_axis.spacing * grid.p_axis.spacing
    assert total == pytest.approx(1.0, abs=1e-9)
    assert np.isrealobj(grid.values)


def test_excited_state_minimum():
    psi = waves.excited_state(1, n=256, xmax=10.0)
    grid = wigner.wigner_transform(psi)
    assert float(grid.values.min()) == pytest.approx(-1.0 / math.pi, abs=1e-6)
    # the minimum sits at the phase-space origin
    k, j = np.unravel_index(np.argmin(grid.values), grid.values.shape)
    assert abs(grid.x_axis.points()[k]) < 1e-9
    assert abs(grid.p_axis.points()[j]) < 1e-9


def _hudson_check(psi):
    return wigner.hudson_check(wigner.wigner_transform(psi))


def test_hudson_criterion():
    gauss = _hudson_check(waves.gaussian_packet(p0=1.0, t=0.5, n=512, xmax=16.0))
    assert gauss["gaussian"]
    assert gauss["min_w"] > -1e-8
    two = _hudson_check(waves.two_gaussian_packet(n=1024, xmax=24.0))
    assert not two["gaussian"]
    assert two["min_w"] < -1e-3


def test_moving_packet_peak_location():
    x0, p0 = 1.2, -0.9
    psi = waves.gaussian_packet(x0=x0, p0=p0, sigma=1.0, n=512, xmax=16.0)
    grid = wigner.wigner_transform(psi)
    k, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.x_axis.points()[k] == pytest.approx(x0, abs=grid.x_axis.spacing)
    assert grid.p_axis.points()[j] == pytest.approx(p0, abs=grid.p_axis.spacing)


def test_2d_interference_state_negative():
    psi = waves.psi_marginal_state(+1, 100.0, n=64, xmax=120.0)
    summary = wigner.wigner_transform(psi)
    assert summary.min_w < -1e-3
    errs = wigner.marginal_errors_2d(summary)
    assert errs["qq"] < 1e-12


def test_2d_gaussian_nonnegative():
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=64, xmax=8.0)
    summary = wigner.wigner_transform(psi)
    assert summary.min_w > -1e-8
    errs = wigner.marginal_errors_2d(summary)
    assert max(errs.values()) < 1e-5
    # the q marginal is exact on a coarse grid too
    coarse = waves.correlated_gaussian_2d(rho=0.4, sigma=1.0, n=32, xmax=6.0)
    assert wigner.marginal_errors_2d(wigner.wigner_transform(coarse))["qq"] < 1e-12


def test_transform_validation():
    psi = waves.gaussian_packet(n=256, xmax=10.0)
    with pytest.raises(ValidationError):
        wigner.wigner_transform(waves.fourier(psi))
    with pytest.raises(ValidationError):
        wigner.gaussianity_residual(waves.correlated_gaussian_2d(n=32, xmax=6.0))


def test_tmsv_wigner_normalized():
    # the closed form factorizes over (q1, q2) and (p1, p2); check the
    # 4-D normalization as a product of two 2-D plane integrals
    q = np.linspace(-6, 6, 241)
    dq = q[1] - q[0]
    for r in (0.0, 0.7):
        wq = wigner.tmsv_wigner(r, q[:, None], q[None, :], 0.0, 0.0)
        wp = wigner.tmsv_wigner(r, 0.0, 0.0, q[:, None], q[None, :])
        total = math.pi**2 * float(wq.sum()) * float(wp.sum()) * dq**4
        assert total == pytest.approx(1.0, abs=1e-6)


def test_parity_correlation_properties():
    assert wigner.parity_correlation(1.0, 0.0, 0.0) == pytest.approx(1.0)
    # consistency with the Wigner closed form at a displaced point
    r, alpha, beta = 0.6, 0.3 + 0.2j, -0.1 + 0.4j
    q1, p1 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    q2, p2 = math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag
    w = wigner.tmsv_wigner(r, q1, q2, p1, p2)
    assert wigner.parity_correlation(r, alpha, beta) == pytest.approx(
        float(math.pi**2 * w), rel=1e-12
    )


def _direct_exponent(r, alpha, beta):
    """The exponent of E(alpha, beta) as the direct closed form evaluates it."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    alpha, beta = complex(alpha), complex(beta)
    return -2.0 * c * (abs(alpha) ** 2 + abs(beta) ** 2) + 4.0 * s * (alpha * beta).real


def test_parity_correlation_keeps_direct_bits():
    rng = np.random.default_rng(12)
    for _ in range(3000):
        r = rng.uniform(0.0, 6.0)
        alpha, beta = rng.normal(scale=0.8, size=2) + 1j * rng.normal(scale=0.8, size=2)
        assert wigner.parity_correlation(r, alpha, beta) == math.exp(_direct_exponent(r, alpha, beta))


@pytest.mark.parametrize("d", [(10, 10, 10, 10), (10, -10, 10, 10), (1e200, 0, 0, 0)])
@pytest.mark.parametrize("r", [-354.0, 50.0, 354.0])
def test_parity_chsh_finite_at_extreme_squeezing(r, d):
    """Where cosh(2r) |alpha|^2 and sinh(2r) Re(alpha beta) cancel to
    rounding noise or inf - inf, E still lies in [0, 1]."""
    for alpha in (d[0], d[1] * 1j):
        e = wigner.parity_correlation(r, alpha, d[1])
        assert 0.0 <= e <= 1.0
    s = wigner.chsh_parity(r, d)
    assert math.isfinite(s) and abs(s) <= TSIRELSON


def test_parity_correlation_nonpositive_exponent_form():
    """The rewritten exponent equals the direct one where both are accurate."""
    rng = np.random.default_rng(13)
    for _ in range(500):
        r = rng.uniform(-3.0, 3.0)
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        direct = _direct_exponent(r, alpha, beta)
        assert wigner._nonpositive_exponent(r, alpha, beta) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def _scipy_maximize(r, search):
    """The search as scipy.optimize.minimize runs it: the reference the
    in-tree Nelder-Mead must reproduce bit for bit."""
    from scipy import optimize

    scale = math.exp(-r)  # the search runs on u = d e^r
    if search == "protocol":
        def loss(u):
            return -wigner._protocol_value(r, abs(u[0]) * scale, abs(u[1]) * scale)
        seeds = [(0.05, 0.05), (0.2, 0.2), (0.5, 0.5), (0.9, 0.9)]
    else:
        def loss(u):
            return -wigner.chsh_parity(r, tuple(u * scale))
        seeds = [(0.1, 0.0, 0.0, -0.1), (0.3, -0.05, 0.05, -0.3),
                 (0.5, 0.1, -0.1, -0.5), (0.2, 0.2, -0.2, -0.2)]
    best = None
    for seed in seeds:
        res = optimize.minimize(
            loss, math.e * np.asarray(seed, dtype=float), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        if best is None or res.fun < best.fun:
            best = res
    if search == "protocol":
        return -float(best.fun), (abs(best.x[0]) * scale, 0.0, 0.0, -abs(best.x[1]) * scale)
    return -float(best.fun), tuple(float(v) for v in best.x * scale)


@pytest.mark.parametrize("search", ["protocol", "full"])
@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 1.7, 3.0, 6.0])
def test_nelder_mead_matches_scipy_bit_for_bit(r, search):
    pytest.importorskip("scipy")
    got = wigner.maximize_chsh_parity(r, search=search)
    s_max, displacements = _scipy_maximize(r, search)
    assert got["s_max"] == s_max
    assert got["displacements"] == displacements


def test_protocol_maxima_frozen():
    values = []
    for r in sorted(PROTOCOL_MAXIMA):
        got = wigner.maximize_chsh_parity(r)["s_max"]
        assert got == pytest.approx(PROTOCOL_MAXIMA[r], abs=1e-5)
        values.append(got)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


# the protocol optimum as r -> infinity (docstring of maximize_chsh_parity)
PROTOCOL_LIMIT = 1.0 + 2.0 * 2.0 ** (-1.0 / 3.0) - 2.0 ** (-4.0 / 3.0)
SQUEEZINGS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0)


@pytest.mark.parametrize("search", ["protocol", "full"])
def test_search_follows_the_optimum_to_large_squeezing(search):
    """The optimal displacements shrink like e^(-r); a search that does not
    follow them stalls on the S = 1 (protocol) or S = 2 (full) plateau."""
    values = [wigner.maximize_chsh_parity(r, search=search)["s_max"] for r in SQUEEZINGS]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), values  # rounding only
    if search == "protocol":
        for r, v in zip(SQUEEZINGS, values):
            if r >= 6.0:
                assert abs(v - PROTOCOL_LIMIT) < 1e-9, (r, v)
    else:
        assert values[-1] == pytest.approx(2.3244948, abs=1e-6)
    assert max(values) < TSIRELSON


def test_full_search_beats_protocol():
    protocol = wigner.maximize_chsh_parity(3.0)["s_max"]
    full = wigner.maximize_chsh_parity(3.0, search="full")["s_max"]
    assert full > protocol
    assert full == pytest.approx(2.3244889, abs=1e-4)
    assert full < TSIRELSON


def test_random_displacements_respect_bound():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        r = rng.uniform(0.0, 3.0)
        d = rng.normal(scale=0.7, size=4) + 1j * rng.normal(scale=0.7, size=4)
        assert wigner.chsh_parity(r, tuple(d)) <= TSIRELSON + 1e-9


def test_parity_validation():
    with pytest.raises(DomainError):
        wigner.maximize_chsh_parity(-0.1)
    with pytest.raises(DomainError):
        wigner.maximize_chsh_parity(1.0, search="other")
    with pytest.raises(ValidationError):
        wigner.chsh_parity(1.0, (0.1, 0.2))
