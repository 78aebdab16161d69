import math

import numpy as np
import pytest

import _pins
from bellforge import waves
from bellforge.errors import DomainError, TruncationError, ValidationError


def dft_at(psi, p_values, axis=0):
    """Explicit transform of one axis onto arbitrary momentum points.

    Same convention as ``waves.fourier`` but evaluated by direct summation:
    the reference on grids the FFT cannot reach (e.g. half-step offsets).
    Returns the transformed array; the target axis is last.
    """
    ax = psi.axes[axis]
    x = ax.points()
    kernel = np.exp(-1.0j * np.outer(np.asarray(p_values, dtype=float), x))
    moved = np.moveaxis(psi.values, axis, -1)
    return (
        np.tensordot(moved, kernel, axes=([-1], [1])) * ax.spacing / np.sqrt(2.0 * np.pi)
    )


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
    dens_later = np.abs(dft_at(later, p[window])) ** 2
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
    # every Gaussian, two-gaussian components included, refuses a mass that
    # is not positive: a negative one would evolve the state backwards
    for mass in (-1.0, 0.0):
        with pytest.raises(DomainError, match="sigma and mass must be positive"):
            waves.two_gaussian_packet(t=1.0, mass=mass, n=256)


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
    direct = dft_at(psi, phi.axes[0].points())
    assert np.max(np.abs(direct - phi.values)) < 1e-10


def test_masses_multiply_the_spacings_in_axis_order():
    psi = waves.correlated_gaussian_2d(rho=0.6, n=128, xmax=14.0)
    s0, s1 = (ax.spacing for ax in psi.axes)
    assert psi.masses().tobytes() == (psi.density() * s0 * s1).tobytes()
    # the one product of both spacings rounds differently
    assert psi.masses().tobytes() != (psi.density() * psi.cell_volume()).tobytes()
    one = waves.two_gaussian_packet(n=256)
    assert one.masses().tobytes() == (one.density() * one.axes[0].spacing).tobytes()


# rho, sigma of the 2-D Gaussian states checked for the exact x1 <-> x2 symmetry
SYMMETRIC_GAUSSIANS = [(rho, sigma) for rho in (-0.9, -0.7, 0.0, 0.3, 0.5, 0.6, 0.8)
                       for sigma in (0.7, 1.0)]


@pytest.mark.parametrize("n", [64, 128, 256])
def test_correlated_gaussian_equals_its_transpose(n):
    """(2 rho x_i) x_j and (2 rho x_j) x_i round apart at many (rho, n); the
    state is built from one triangle, so the swap x1 <-> x2 is exact."""
    for rho, sigma in SYMMETRIC_GAUSSIANS:
        v = waves.correlated_gaussian_2d(rho=rho, sigma=sigma, n=n, xmax=8.0).values
        assert v.tobytes() == np.ascontiguousarray(v.T).tobytes(), (rho, sigma)


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
    minus = waves.psi_marginal_state(-1, 100.0)
    assert minus.meta["sign"] == -1
    with pytest.raises(DomainError):
        waves.psi_marginal_state(+1, -3.0)
    with pytest.raises(DomainError):
        waves.psi_marginal_state(+1, 10.0, xmax=9.0)
    for sign in ("x", "-", 0, 2):
        with pytest.raises(ValidationError, match="sign must be"):
            waves.psi_marginal_state(sign, 10.0)


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


# ---------------------------------------------------------------------------
# bit pins of the transforms and densities


def _pin_state(shape, reps, seed, real=False):
    """Seeded random values on axes of the given representations: every bit
    of the mantissas is exercised, unlike a smooth analytic state."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    if not real:
        values = values + 1j * rng.normal(size=shape)
    axes = tuple(waves.Axis(n, 0.1 + 0.05 * k, rep) for k, (n, rep) in enumerate(zip(shape, reps)))
    return waves.GridWavefunction(axes, values, {})


# the output bytes for (shape, reps, seed, real, axis), recorded before the
# transforms began to work in place
FOURIER_CASES = [
    ((256,), "x", 1, False, 0),
    ((256,), "p", 2, False, 0),
    ((256,), "x", 3, True, 0),
    ((4,), "x", 4, False, 0),
    ((32, 64), "xx", 5, False, 0),
    ((32, 64), "xx", 5, False, 1),
    ((32, 64), "pp", 6, False, 0),
    ((32, 64), "pp", 6, False, 1),
    ((32, 64), "px", 7, False, 0),
    ((32, 64), "px", 7, False, 1),
]


@pytest.mark.parametrize("case", FOURIER_CASES)
def test_fourier_bits_pinned(case):
    shape, reps, seed, real, axis = case
    out = waves.fourier(_pin_state(shape, reps, seed, real), axis)
    _pins.check("fourier", case, _pins.array(out.values))


# as above for (shape, seed, axis, factor) on position axes
PADDED_CASES = [
    ((256,), 8, 0, 2),
    ((256,), 8, 0, 4),
    ((4,), 9, 0, 4),
    ((32, 16), 10, 0, 2),
    ((32, 16), 10, 0, 4),
    ((32, 16), 10, 1, 2),
    ((32, 16), 10, 1, 4),
]


@pytest.mark.parametrize("case", PADDED_CASES)
def test_padded_transform_bits_pinned(case):
    shape, seed, axis, factor = case
    out = waves.padded_transform(_pin_state(shape, "x" * len(shape), seed), axis, factor)
    _pins.check("padded_transform", case, _pins.array(out.values))


# as above for (n, axis, factor) on the correlated Gaussian (rho = 0.6,
# xmax = 8): real values stored as complex, whose zero imaginary parts and
# zero padding make exact zeros in the sums
PADDED_GAUSSIAN_CASES = [(32, 0, 4), (32, 1, 4), (16, 1, 2)]


@pytest.mark.parametrize("case", PADDED_GAUSSIAN_CASES)
def test_padded_transform_of_real_state_bits_pinned(case):
    n, axis, factor = case
    psi = waves.correlated_gaussian_2d(rho=0.6, n=n, xmax=8.0)
    out = waves.padded_transform(psi, axis, factor)
    _pins.check("padded_gaussian", case, _pins.array(out.values))


# as above for density() and masses() of (shape, seed)
DENSITY_CASES = [((256,), 11), ((32, 64), 12)]


@pytest.mark.parametrize("case", DENSITY_CASES)
def test_density_and_masses_bits_pinned(case):
    shape, seed = case
    psi = _pin_state(shape, "x" * len(shape), seed)
    _pins.check("density_masses", case + ("density",), _pins.array(psi.density()))
    _pins.check("density_masses", case + ("masses",), _pins.array(psi.masses()))
