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
import os
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
        return float(np.sum(self.density()) * self.cell_volume())

    def density(self):
        d = np.abs(self.values)
        return np.square(d, out=d)

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
    return _transform(psi, axis, 1)


def padded_transform(psi, axis, factor):
    """Transform of one position axis onto a factor-times-finer momentum
    grid, by zero padding that axis: the continuous transform of the
    sampled values at the finer momenta."""
    if psi.axes[axis].representation != POSITION:
        raise ValidationError("can only oversample a position-representation axis")
    return _transform(psi, axis, factor)


def pair_states(psi, factor=1):
    """The four position/momentum pair states of a 2-D position state, keyed
    "qq", "qp", "pq" and "pp": each momentum axis from ``padded_transform``
    by factor, and pp transformed from pq along axis 1."""
    pq = padded_transform(psi, 0, factor)
    return {"qq": psi, "qp": padded_transform(psi, 1, factor), "pq": pq,
            "pp": padded_transform(pq, 1, factor)}


def _transform(psi, axis, factor):
    """``fourier`` of psi zero padded to factor times its length along axis,
    in one fresh array that is written, transformed and scaled in place."""
    ax = psi.axes[axis]
    n = factor * ax.n
    shape = list(psi.values.shape)
    shape[axis] = n
    values = (np.zeros if factor > 1 else np.empty)(shape, dtype=complex)
    _centered_transform(values, psi.values, axis, (factor - 1) * ax.n // 2, ax)
    axes = list(psi.axes)
    axes[axis] = Axis(n, ax.spacing, ax.representation).conjugate()
    return GridWavefunction(tuple(axes), values, dict(psi.meta))


def _centered_transform(values, source, axis, start, ax):
    """Write source times the sign pattern alt into values from index start
    along axis, then transform values in place along axis as ``fourier``
    does on an axis like ax, of values' length there.  source may be values.

    Only the source rows are multiplied by alt; the rest of values (the zero
    rows of a padded transform) needs no multiply.  Scaling by the product
    alt * c is exact: alt * c = +-c, so (spec alt) c and spec (alt c) round
    alike.
    """
    n = values.shape[axis]
    alt_shape = [1] * values.ndim
    alt_shape[axis] = n
    alt = ((-1.0) ** np.arange(n)).reshape(alt_shape)
    rows = [slice(None)] * values.ndim
    rows[axis] = slice(start, start + source.shape[axis])
    np.multiply(source, alt[tuple(rows)], out=values[tuple(rows)])
    front = (-1.0) ** (n // 2)
    if ax.representation == POSITION:
        np.fft.fft(values, axis=axis, out=values)
        values *= alt * (front * ax.spacing / np.sqrt(2.0 * np.pi))
    else:
        np.fft.ifft(values, axis=axis, out=values)
        values *= alt * (front * n * ax.spacing / np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# thread pool for the 2-D Wigner slabs and the joint-record blocks


# At most four threads.  Each 2-D Wigner thread keeps one slab and one
# transform buffer, 16 n^3 bytes (4.2 MB at n=64, 34 MB at n=128), and the
# Python half of each slab (slicing, calls, the row writes) holds the
# interpreter lock: on two CPUs two threads run an n=64 transform 1.5-1.9
# times as fast as one (1.7 in the median), so about a fifth of a slab's time
# is serial.  Four threads would then be at most about 2.5 times as fast as
# one, and eight about 3.3 times while holding twice the memory.
_MAX_WORKERS = 4


def _worker_count(count, min_per_worker):
    """Threads for a loop over count items: one per CPU this process may run
    on, at most _MAX_WORKERS and at most one per min_per_worker items."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS, count // min_per_worker))


def _ordered_map(func, items, min_per_worker, fold=list):
    """fold of the iterator of func(item) over items, in item order.

    With one worker (see ``_worker_count``) func runs on the calling thread
    and no pool starts.  Otherwise it runs on a thread pool, and fold takes
    each result on the calling thread as it is ready, in item order; an
    error cancels the items not yet started and reaches the caller after
    every started one has ended.  func must call no public bellforge
    function, so that a caller's wrappers see every call on one thread.
    """
    workers = _worker_count(len(items), min_per_worker)
    if workers == 1:
        return fold(map(func, items))
    # imported here: concurrent.futures loads logging, ~5 ms of a cold start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return fold(pool.map(func, items))


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
    if sigma <= 0 or mass <= 0:
        raise DomainError("sigma and mass must be positive")
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
        # (2 rho x_i) x_j and (2 rho x_j) x_i may round apart: mirror one triangle
        q = np.triu(q) + np.triu(q, 1).T
        values = np.exp(-q / (4.0 * sigma**2)).astype(complex)
    # the continuum integral of |values|^2 is 2 pi sigma^2 sqrt(1 - rho^2)
    exact = 2.0 * np.pi * sigma**2 * np.sqrt(1.0 - rho**2)
    return _finalize(values, (ax, ax), {"rho": rho, "sigma": sigma}, norm2_exact=exact)


# ---------------------------------------------------------------------------
# cutoff interference states


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
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
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
    phase = (1.0 + sign * np.exp(1.0j * np.pi / 4.0) * quadrant) / (2.0 * np.sqrt(2.0))
    weight = np.where(quadrant == 0.0, 0.5, phase)
    values = weight * np.outer(radial, radial)
    meta = {"cutoff": float(cutoff), "sign": int(sign)}
    return _finalize(values, (ax, ax), meta, deficit_tol=1e-4)


# ---------------------------------------------------------------------------
# moments


def moments(ax, rho):
    """Mean and variance of the axis points under the density rho on that axis."""
    x = ax.points()
    w = rho * ax.spacing
    total = w.sum()
    mean = float(np.sum(x * w) / total)
    var = float(np.sum((x - mean) ** 2 * w) / total)
    return mean, var


def mean_and_var(psi):
    """Mean and variance of position (or momentum) for a 1-D state."""
    return moments(psi.axes[0], psi.density())
