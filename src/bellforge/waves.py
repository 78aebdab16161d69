"""Grid-sampled wavefunctions and the unitary centered Fourier transform.

Units: hbar = 1 throughout; the transform convention is the symmetric one,
psi_tilde(p) = (2 pi)^(-1/2) Integral exp(-i p x) psi(x) dx.

Grids are centered: x_k = (k - N/2) Delta for k = 0..N-1 with N a power of
two, and the conjugate grid p_n = (n - N/2) * 2 pi / (N Delta).  With the
phase factors below the discrete transform is exactly unitary (discrete
Parseval holds to machine precision) and maps centered grid to centered
grid, so position and momentum densities are registered without shifts.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationError, ValidationError

POSITION = "x"
MOMENTUM = "p"


def _check_length(n):
    """Return n if it is a valid axis length, else raise ValidationError."""
    if n < 4 or (n & (n - 1)) != 0:
        raise ValidationError("axis length must be a power of two, at least 4")
    return n


@dataclass(frozen=True)
class Axis:
    n: int
    spacing: float
    representation: str = POSITION

    def __post_init__(self):
        _check_length(self.n)
        if self.spacing <= 0:
            raise ValidationError("axis spacing must be positive")
        if self.representation not in (POSITION, MOMENTUM):
            raise ValidationError("axis representation must be 'x' or 'p'")

    def points(self):
        return (np.arange(self.n) - self.n // 2) * self.spacing

    @property
    def extent(self):
        return self.n * self.spacing / 2.0

    def conjugate(self):
        rep = MOMENTUM if self.representation == POSITION else POSITION
        return Axis(self.n, 2.0 * np.pi / (self.n * self.spacing), rep)


def position_axis(n, xmax):
    """Centered position axis covering [-xmax, xmax)."""
    n = _check_length(int(n))  # before n divides the width
    return Axis(n, 2.0 * float(xmax) / n, POSITION)


@dataclass(frozen=True)
class GridWavefunction:
    axes: tuple
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.ndim != len(self.axes):
            raise ValidationError("values dimensionality must match number of axes")
        for ax, m in zip(self.axes, self.values.shape):
            if ax.n != m:
                raise ValidationError("axis length disagrees with values shape")

    @property
    def dim(self):
        return len(self.axes)

    def cell_volume(self):
        return float(np.prod([ax.spacing for ax in self.axes]))

    def norm2(self):
        return float(np.sum(np.abs(self.values) ** 2) * self.cell_volume())

    def density(self):
        return np.abs(self.values) ** 2

    def masses(self):
        """Cell masses: the density times each axis spacing, in axis order.

        One order of multiplication for every caller, so their masses round
        alike.
        """
        m = self.density()
        for ax in self.axes:
            m *= ax.spacing
        return m


def _finalize(values, axes, meta, deficit_tol=1e-6, norm2_exact=1.0):
    """Check the sampled norm against norm2_exact, renormalize exactly, and
    return the state with meta plus the relative defect as "norm_defect".

    Raises if the defect exceeds deficit_tol or the sampled norm is not a
    positive double.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norm2 = GridWavefunction(tuple(axes), values).norm2()
    if not 0.0 < norm2 < math.inf:
        raise ValidationError("wavefunction norm on the grid is %r, not a positive double" % norm2)
    defect = abs(norm2 / norm2_exact - 1.0)
    if defect > deficit_tol:
        raise TruncationError(
            "sampled norm deficit %.3g exceeds %.3g; enlarge or refine the grid"
            % (defect, deficit_tol)
        )
    return GridWavefunction(tuple(axes), values / np.sqrt(norm2), dict(meta, norm_defect=defect))


# ---------------------------------------------------------------------------
# Fourier transform


def fourier(psi, axis=0):
    """Unitary transform along one axis; toggles position <-> momentum.

    Position -> momentum applies the forward convention; momentum ->
    position the inverse, so applying twice returns the input.
    """
    if not 0 <= axis < psi.dim:
        raise ValidationError("axis index out of range")
    ax = psi.axes[axis]
    n = ax.n
    shape = [1] * psi.dim
    shape[axis] = n
    alt = ((-1.0) ** np.arange(n)).reshape(shape)
    front = (-1.0) ** (n // 2)
    if ax.representation == POSITION:
        spec = np.fft.fft(psi.values * alt, axis=axis)
        new_values = spec * alt * (front * ax.spacing / np.sqrt(2.0 * np.pi))
    else:
        spec = np.fft.ifft(psi.values * alt, axis=axis)
        new_values = spec * alt * (front * n * ax.spacing / np.sqrt(2.0 * np.pi))
    axes = list(psi.axes)
    axes[axis] = ax.conjugate()
    return GridWavefunction(tuple(axes), new_values, dict(psi.meta))


def padded_transform(psi, axis, factor):
    """Transform of one position axis onto a factor-times-finer momentum
    grid, by zero padding that axis; the values are ``dft_at``'s there."""
    ax = psi.axes[axis]
    if ax.representation != POSITION:
        raise ValidationError("can only oversample a position-representation axis")
    pad_n = factor * ax.n
    shape = list(psi.values.shape)
    shape[axis] = pad_n
    padded = np.zeros(shape, dtype=complex)
    start = (factor - 1) * ax.n // 2
    sl = [slice(None)] * psi.values.ndim
    sl[axis] = slice(start, start + ax.n)
    padded[tuple(sl)] = psi.values
    axes = list(psi.axes)
    axes[axis] = Axis(pad_n, ax.spacing, ax.representation)
    return fourier(GridWavefunction(tuple(axes), padded, {}), axis=axis)


def dft_at(psi, p_values, axis=0):
    """Explicit transform of one axis onto arbitrary momentum points.

    Same convention as ``fourier`` but evaluated by direct summation, used
    to cross-check densities on grids the FFT cannot reach (e.g. half-step
    offsets).  Returns the transformed array; the target axis is last.
    """
    ax = psi.axes[axis]
    x = ax.points()
    kernel = np.exp(-1.0j * np.outer(np.asarray(p_values, dtype=float), x))
    moved = np.moveaxis(psi.values, axis, -1)
    return (
        np.tensordot(moved, kernel, axes=([-1], [1])) * ax.spacing / np.sqrt(2.0 * np.pi)
    )


# ---------------------------------------------------------------------------
# analytic families


def _gaussian_values(x, x0, p0, sigma, t, mass):
    try:
        sigma_c = sigma * (1.0 + 1.0j * t / (2.0 * mass * sigma**2))
        center = x0 + p0 * t / mass
        phase = p0**2 * t / (2.0 * mass)
    except OverflowError:  # p0**2 left double range
        raise DomainError("p0, t and mass put the packet phase outside double range") from None
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # range checks refuse it
        return (
            (2.0 * np.pi) ** (-0.25)
            * sigma_c ** (-0.5)
            * np.exp(
                -((x - center) ** 2) / (4.0 * sigma * sigma_c)
                + 1.0j * p0 * (x - x0)
                - 1.0j * phase
            )
        )


def gaussian_spread(sigma, t, mass):
    """Position standard deviation of the freely evolved Gaussian."""
    try:
        return float(np.sqrt(sigma**2 + t**2 / (4.0 * sigma**2 * mass**2)))
    except (OverflowError, ZeroDivisionError):  # a square left double range
        raise DomainError("sigma, t and mass put the packet width outside double range") from None


def _check_position_range(xmax, spread, center):
    """Past the grid edge xmax the state is cut off: keep 8 spread widths
    between it and the packet center."""
    if xmax - abs(center) < 8.0 * spread:
        raise TruncationError("grid half-width %.3g leaves < 8 spread widths around center %.3g"
                              % (xmax, center))


def _check_momentum_range(ax, p0, sigma):
    """Past the momentum edge pi/dx the sampled state aliases: keep 8 momentum
    widths 1/(2 sigma) between it and p0."""
    edge = math.pi / ax.spacing
    if edge - abs(p0) < 8.0 / (2.0 * sigma):
        raise TruncationError("momentum range +-%.3g leaves < 8 momentum widths around p0 = %.3g"
                              % (edge, p0))


def gaussian_packet(x0=0.0, p0=0.0, sigma=1.0, t=0.0, mass=1.0, n=2048, xmax=None):
    """Freely evolving Gaussian packet, sampled from the closed form.

    The grid must cover at least 8 spread widths around the drifted center
    at time t, and its momentum range at least 8 momentum widths 1/(2 sigma)
    around p0; otherwise the lost tail mass raises a truncation error.
    """
    if sigma <= 0 or mass <= 0:
        raise DomainError("sigma and mass must be positive")
    spread = gaussian_spread(sigma, t, mass)
    center = x0 + p0 * t / mass
    if xmax is None:
        # 12 spread widths: the conjugate cell width pi/xmax sets the
        # transport-map resolution, and 10 widths leaves it too coarse
        xmax = abs(center) + 12.0 * spread
    ax = position_axis(n, xmax)  # refuses a nonpositive xmax before the range check
    _check_position_range(xmax, spread, center)
    values = _gaussian_values(ax.points(), x0, p0, sigma, t, mass)
    _check_momentum_range(ax, p0, sigma)
    meta = {"x0": x0, "p0": p0, "sigma": sigma, "t": t, "mass": mass}
    return _finalize(values, (ax,), meta)


def superposition(components, t=0.0, mass=1.0, n=4096, xmax=16.0):
    """Weighted sum of freely evolved Gaussians, renormalized on the grid.

    components: iterable of (weight, x0, p0, sigma).  Each component must
    fit the grid as a single ``gaussian_packet`` must.
    """
    ax = position_axis(n, xmax)
    x = ax.points()
    values = np.zeros(n, dtype=complex)
    for weight, x0, p0, sigma in components:
        _check_position_range(xmax, gaussian_spread(sigma, t, mass), x0 + p0 * t / mass)
        values += weight * _gaussian_values(x, x0, p0, sigma, t, mass)
        _check_momentum_range(ax, p0, sigma)
    norm2 = GridWavefunction((ax,), values).norm2()
    return GridWavefunction((ax,), values / np.sqrt(norm2), {"t": t, "mass": mass})


TWO_GAUSSIAN_COMPONENTS = ((0.8, -1.75, 0.0, 1.0), (0.6, 1.75, 0.0, 1.0))


def two_gaussian_packet(t=0.0, mass=1.0, n=4096, xmax=24.0):
    """Asymmetric two-Gaussian superposition with fringe contrast bounded
    away from zero in momentum (unequal weights, equal widths)."""
    return superposition(TWO_GAUSSIAN_COMPONENTS, t=t, mass=mass, n=n, xmax=xmax)


def excited_state(level, n=2048, xmax=16.0):
    """Harmonic-oscillator eigenstate (m = omega = 1), grid-sampled.

    Built by the three-term recurrence of the normalized Hermite functions,
    psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}, from
    psi_0 = pi^(-1/4) exp(-x^2/2), so no factorial or H_k(x) leaves double
    range at high levels (Bunck, BIT Numer. Math. 49, 281 (2009)).
    """
    if level < 0:
        raise DomainError("level must be a nonnegative integer")
    ax = position_axis(n, xmax)
    x = ax.points()
    prev = np.zeros_like(x)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # _finalize refuses the norm
        values = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
        for k in range(level):
            prev, values = values, math.sqrt(2.0 / (k + 1)) * x * values - math.sqrt(k / (k + 1)) * prev
    return _finalize(values.astype(complex), (ax,), {"level": level})


def correlated_gaussian_2d(rho=0.5, sigma=1.0, n=256, xmax=8.0):
    """Real 2-D Gaussian whose position density has correlation rho."""
    if not -1.0 < rho < 1.0:
        raise DomainError("correlation must lie in (-1, 1)")
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    if not sys.float_info.min <= sigma * sigma <= sys.float_info.max:
        raise DomainError("sigma = %g leaves double range: sigma^2 is not a normal double" % sigma)
    ax = position_axis(n, xmax)
    x = ax.points()
    x1 = x[:, None]
    x2 = x[None, :]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # _finalize refuses the norm
        q = (x1**2 + x2**2 - 2.0 * rho * x1 * x2) / (1.0 - rho**2)
        values = np.exp(-q / (4.0 * sigma**2)).astype(complex)
    # the continuum integral of |values|^2 is 2 pi sigma^2 sqrt(1 - rho^2)
    exact = 2.0 * np.pi * sigma**2 * np.sqrt(1.0 - rho**2)
    return _finalize(values, (ax, ax), {"rho": rho, "sigma": sigma}, norm2_exact=exact)


def tensor(psi1, psi2):
    """Product state psi1(x1) psi2(x2) on the combined grid."""
    values = np.multiply.outer(psi1.values, psi2.values)
    return GridWavefunction(tuple(psi1.axes) + tuple(psi2.axes), values, {})


# ---------------------------------------------------------------------------
# cutoff interference states


def _parse_sign(sign):
    if sign not in (+1, -1, "+", "-"):
        raise ValidationError("sign must be +1 or -1")
    return +1 if sign in (+1, "+") else -1


def _signed_cutoff_cdf(q, cutoff):
    """Signed integral of h_L(|q|)^2 from 0: sgn(q) ln(min(|q|,L)+1)/ln(L+1)."""
    r = np.minimum(np.abs(q), cutoff)
    return np.sign(q) * np.log1p(r) / np.log1p(cutoff)


def psi_marginal_state(sign, cutoff, n=1024, xmax=None):
    """Two-mode interference state with radial profile h(|q|) ~ 1/sqrt((|q|+1) ln(L+1))
    on |q| <= L and quadrant-dependent phase (1 +/- exp(i pi/4) sgn q1 sgn q2)/(2 sqrt 2).

    Sampling is cell-averaged in magnitude: every grid cell carries exactly
    its integrated probability mass, so the discrete norm is exact to
    rounding.  Cells on the coordinate axes take the quadrant-averaged
    magnitude 1/2 (their area is split evenly between signs).
    """
    sgn = _parse_sign(sign)
    if cutoff <= 0:
        raise DomainError("cutoff must be positive")
    if xmax is None:
        xmax = 1.2 * cutoff
    if xmax <= cutoff:
        raise DomainError("grid half-width must exceed the cutoff")
    ax = position_axis(n, xmax)
    x = ax.points()
    edges_lo = x - ax.spacing / 2.0
    edges_hi = x + ax.spacing / 2.0
    cell_mass = _signed_cutoff_cdf(edges_hi, cutoff) - _signed_cutoff_cdf(edges_lo, cutoff)
    radial = np.sqrt(np.clip(cell_mass, 0.0, None) / ax.spacing)

    s = np.sign(x)
    quadrant = np.outer(s, s)  # +1, -1, or 0 on the axes
    phase = (1.0 + sgn * np.exp(1.0j * np.pi / 4.0) * quadrant) / (2.0 * np.sqrt(2.0))
    weight = np.where(quadrant == 0.0, 0.5, phase)
    values = weight * np.outer(radial, radial)
    meta = {"cutoff": float(cutoff), "sign": sgn}
    return _finalize(values, (ax, ax), meta, deficit_tol=1e-4)


# ---------------------------------------------------------------------------
# moments and marginals


def marginal_density(psi, axis):
    """1-D density of |psi|^2 along one axis (others integrated out)."""
    dens = psi.density()
    others = tuple(k for k in range(psi.dim) if k != axis)
    vol = float(np.prod([psi.axes[k].spacing for k in others])) if others else 1.0
    return dens.sum(axis=others) * vol if others else dens


def moments(ax, rho):
    """Mean and variance of the axis points under the density rho on that axis."""
    x = ax.points()
    w = rho * ax.spacing
    total = w.sum()
    mean = float(np.sum(x * w) / total)
    var = float(np.sum((x - mean) ** 2 * w) / total)
    return mean, var


def mean_and_var(psi, axis=0):
    return moments(psi.axes[axis], marginal_density(psi, axis))
