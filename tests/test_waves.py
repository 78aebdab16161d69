import math

import numpy as np
import pytest

from bellforge import waves
from bellforge.errors import DomainError, TruncationError, ValidationError


def test_axis_validation():
    with pytest.raises(ValidationError):
        waves.Axis(100, 0.1)  # not a power of two
    with pytest.raises(ValidationError):
        waves.Axis(2, 0.1)
    with pytest.raises(ValidationError):
        waves.Axis(64, -1.0)
    with pytest.raises(ValidationError):
        waves.Axis(64, 0.1, "momentum")


def test_axis_geometry():
    ax = waves.position_axis(64, 8.0)
    pts = ax.points()
    assert pts[ax.n // 2] == 0.0
    assert pts[0] == -8.0
    assert ax.extent == pytest.approx(8.0)
    conj = ax.conjugate()
    assert conj.representation == "p"
    assert conj.spacing == pytest.approx(2.0 * np.pi / (ax.n * ax.spacing))
    back = conj.conjugate()
    assert back.representation == "x"
    assert back.spacing == pytest.approx(ax.spacing)


def test_fourier_unitary_and_involutive():
    psi = waves.gaussian_packet(x0=0.7, p0=-1.3, sigma=0.8, n=512, xmax=12.0)
    phi = waves.fourier(psi)
    assert phi.axes[0].representation == "p"
    assert phi.norm2() == pytest.approx(1.0, abs=1e-12)
    back = waves.fourier(phi)
    assert back.axes[0].representation == "x"
    assert np.max(np.abs(back.values - psi.values)) < 1e-12


def test_gaussian_momentum_density_closed_form():
    x0, p0, sigma = 0.4, 1.1, 0.9
    psi = waves.gaussian_packet(x0=x0, p0=p0, sigma=sigma, n=2048, xmax=14.0)
    phi = waves.fourier(psi)
    p = phi.axes[0].points()
    analytic = (2.0 * sigma / np.sqrt(2.0 * np.pi)) * np.exp(-2.0 * sigma**2 * (p - p0) ** 2)
    assert np.max(np.abs(phi.density() - analytic)) < 1e-12
    # free evolution only rotates momentum phases; stay below the Nyquist
    # momentum of the wider late-time grid when cross-evaluating
    later = waves.gaussian_packet(x0=x0, p0=p0, sigma=sigma, t=3.0, n=2048, xmax=40.0)
    window = np.abs(p - p0) < 8.0
    dens_later = np.abs(waves.dft_at(later, p[window])) ** 2
    assert np.max(np.abs(dens_later - analytic[window])) < 1e-10


def test_gaussian_moments_follow_free_motion():
    x0, p0, sigma, t, mass = 1.5, 0.7, 1.2, 2.0, 1.3
    psi = waves.gaussian_packet(x0=x0, p0=p0, sigma=sigma, t=t, mass=mass)
    mean, var = waves.mean_and_var(psi)
    assert mean == pytest.approx(x0 + p0 * t / mass, abs=1e-9)
    assert var == pytest.approx(waves.gaussian_spread(sigma, t, mass) ** 2, rel=1e-9)


def test_truncation_guard():
    with pytest.raises(TruncationError):
        waves.gaussian_packet(sigma=1.0, xmax=5.0)
    with pytest.raises(TruncationError):
        waves.superposition([(1.0, 12.0, 0.0, 1.0)], xmax=16.0)
    with pytest.raises(DomainError):
        waves.gaussian_packet(sigma=-1.0)


def test_momentum_range_guard():
    """A mean momentum within 8 widths 1/(2 sigma) of the grid's momentum
    edge pi/dx aliases: the state is refused, not sampled."""
    edge = math.pi / waves.position_axis(256, 12.0).spacing  # 33.5
    with pytest.raises(TruncationError):
        waves.gaussian_packet(p0=edge - 3.9, n=256, xmax=12.0)
    with pytest.raises(TruncationError):
        waves.gaussian_packet(p0=-300.0, n=2048)
    with pytest.raises(TruncationError):
        waves.superposition([(1.0, 0.0, 0.0, 1.0), (1.0, 0.0, edge, 1.0)], n=256, xmax=12.0)
    psi = waves.gaussian_packet(p0=edge - 4.1, n=256, xmax=12.0)
    assert psi.meta["norm_defect"] < 1e-6


def test_excited_states_orthonormal():
    states = [waves.excited_state(k) for k in range(4)]
    dx = states[0].axes[0].spacing
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            g = float(np.real(np.sum(np.conj(si.values) * sj.values) * dx))
            assert g == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)
    with pytest.raises(DomainError):
        waves.excited_state(-1)


def _hermite_reference(level, n=2048, xmax=16.0):
    """The eigenstate from scipy's H_k and the factorial normalization,
    normalized on the grid as ``excited_state`` does."""
    from scipy.special import eval_hermite

    x = waves.position_axis(n, xmax).points()
    norm = (2.0**level * float(math.factorial(level)) * np.sqrt(np.pi)) ** (-0.5)
    values = norm * eval_hermite(level, x) * np.exp(-(x**2) / 2.0)
    return values / np.sqrt(np.sum(values**2) * (2.0 * xmax / n))


def test_excited_state_matches_hermite_reference():
    pytest.importorskip("scipy")
    for level in range(61):
        got = waves.excited_state(level).values
        assert np.max(np.abs(got - _hermite_reference(level))) <= 1e-14, level


def test_high_excited_state_needs_a_wide_grid():
    """Level 180 reaches x ~ 19: a 16-wide grid truncates it, a 24-wide one
    holds it, and no factorial or H_k overflows on the way."""
    with pytest.raises(TruncationError):
        waves.excited_state(180)
    psi = waves.excited_state(180, n=1024, xmax=24.0)
    assert psi.meta["norm_defect"] < 1e-6
    assert np.all(np.isfinite(psi.values))


def test_dft_matches_fft_on_grid():
    psi = waves.two_gaussian_packet()
    phi = waves.fourier(psi)
    direct = waves.dft_at(psi, phi.axes[0].points())
    assert np.max(np.abs(direct - phi.values)) < 1e-10


def test_tensor_product_marginals():
    a = waves.gaussian_packet(x0=-0.5, sigma=0.7, n=256, xmax=8.0)
    b = waves.gaussian_packet(x0=0.9, sigma=1.1, n=256, xmax=10.0)
    prod = waves.tensor(a, b)
    assert prod.norm2() == pytest.approx(1.0, abs=1e-12)
    m0 = waves.marginal_density(prod, 0)
    m1 = waves.marginal_density(prod, 1)
    assert np.max(np.abs(m0 - a.density())) < 1e-12
    assert np.max(np.abs(m1 - b.density())) < 1e-12


def test_masses_multiply_the_spacings_in_axis_order():
    psi = waves.correlated_gaussian_2d(rho=0.6, n=128, xmax=14.0)
    s0, s1 = (ax.spacing for ax in psi.axes)
    assert psi.masses().tobytes() == (psi.density() * s0 * s1).tobytes()
    # the one product of both spacings rounds differently
    assert psi.masses().tobytes() != (psi.density() * psi.cell_volume()).tobytes()
    one = waves.two_gaussian_packet(n=256)
    assert one.masses().tobytes() == (one.density() * one.axes[0].spacing).tobytes()


def test_correlated_gaussian_moments():
    rho = 0.6
    psi = waves.correlated_gaussian_2d(rho=rho, sigma=1.0, n=256, xmax=8.0)
    assert psi.norm2() == pytest.approx(1.0, abs=1e-12)
    x = psi.axes[0].points()
    dens = psi.density() * psi.cell_volume()
    cov = float(np.sum(np.outer(x, x) * dens))
    v1 = float(np.sum((x[:, None] ** 2) * dens))
    assert cov / v1 == pytest.approx(rho, abs=1e-9)
    with pytest.raises(DomainError):
        waves.correlated_gaussian_2d(rho=1.0)
    for sigma in (0.0, -0.7, math.nan):
        with pytest.raises(DomainError, match="sigma must be positive"):
            waves.correlated_gaussian_2d(sigma=sigma, n=16)


def test_marginal_state_construction():
    psi = waves.psi_marginal_state(+1, 100.0)
    assert psi.norm2() == pytest.approx(1.0, abs=1e-12)
    assert psi.meta["norm_defect"] < 1e-4
    assert psi.meta["sign"] == 1
    minus = waves.psi_marginal_state("-", 100.0)
    assert minus.meta["sign"] == -1
    with pytest.raises(DomainError):
        waves.psi_marginal_state(+1, -3.0)
    with pytest.raises(DomainError):
        waves.psi_marginal_state(+1, 10.0, xmax=9.0)
    with pytest.raises(ValidationError):
        waves.psi_marginal_state("x", 10.0)


def test_two_gaussian_density_bimodal():
    psi = waves.two_gaussian_packet()
    x = psi.axes[0].points()
    dens = psi.density()
    peaks = np.where((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:]))[0] + 1
    assert len(peaks) == 2
    left, right = peaks
    assert x[left] < 0.0 < x[right]
    assert dens[left] > dens[right]  # weights 0.8 vs 0.6
    trough = dens[left:right].min()
    assert trough < dens[right]
