"""Joint position/momentum records from a windowed transform.

The record of a simultaneous measurement with a Gaussian window of width
b is the density

    P(x1, x2) = |F[psi(u) g_b(u - x1)](x2)|^2,
    g_b(u) = (2 pi b^2)^(-1/4) exp(-u^2 / (4 b^2)),

with F the unitary transform and g_b normalized in L2, so P integrates
to 1 for any state.  Exact identities used as cross-checks:

* x1 marginal = |psi|^2 convolved with g_b^2,
* x2 marginal = |psi_tilde|^2 convolved with a Gaussian of std 1/(2b),
* Var(x1) = Var_psi(x) + b^2 and Var(x2) = Var_psi(p) + 1/(4 b^2),
* P equals the Wigner function smoothed by the (b^2, 1/(4b^2)) Gaussian.

Both records are degraded relative to the bare marginals; the window
trades position blur b^2 against momentum blur 1/(4 b^2).  Conditional
slices P(x2 | x1) keep a ridge whose location generally differs from the
CDF-matching transport map evaluated at the same x1: the two momentum
assignments are distinct observables.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import waves, wigner
from .errors import DomainError, ValidationError

# x1 rows transformed per block.  At n = 1024 a block of 128 rows keeps each
# temporary at 1-2 MB, which malloc serves again from memory freed by the
# previous block; 512-row blocks took fresh pages (about 18 MB of page
# faults) on every call and made ak_distribution 30-45 % slower.
_CHUNK = 128


@dataclass(frozen=True)
class AkDistribution:
    x1_axis: waves.Axis
    x2_axis: waves.Axis
    joint: np.ndarray  # (n_x1, n_x2) density
    b: float
    warnings: tuple

    def cell(self):
        return self.x1_axis.spacing * self.x2_axis.spacing

    def total_mass(self):
        return float(self.joint.sum() * self.cell())

    def marginal_x1(self):
        return self.joint.sum(axis=1) * self.x2_axis.spacing

    def marginal_x2(self):
        return self.joint.sum(axis=0) * self.x1_axis.spacing

    def _moments(self, axis):
        rho = self.marginal_x1() if axis == 0 else self.marginal_x2()
        ax = self.x1_axis if axis == 0 else self.x2_axis
        w = rho * ax.spacing
        total = w.sum()
        x = ax.points()
        mean = float(np.sum(x * w) / total)
        var = float(np.sum((x - mean) ** 2 * w) / total)
        return mean, var

    def mean_var_x1(self):
        return self._moments(0)

    def mean_var_x2(self):
        return self._moments(1)


def window_profile(x, b):
    """L2-normalized Gaussian window g_b."""
    return (2.0 * math.pi * b * b) ** -0.25 * np.exp(-(x * x) / (4.0 * b * b))


def _state_scales(psi):
    _, var_x = waves.mean_and_var(psi)
    _, var_p = waves.mean_and_var(waves.fourier(psi))
    return math.sqrt(var_x), math.sqrt(var_p)


def _regime_warnings(psi, b, ax, pax):
    dq, dp = _state_scales(psi)
    notes = []
    if dq * dp < 4.0:
        notes.append(
            "spread product std(x)*std(p) = %.3g is below 4; no window width can"
            " keep both records faithful" % (dq * dp)
        )
    if b > dq / 2.0:
        notes.append(
            "window b = %.3g exceeds half the position spread %.3g; the position"
            " record is strongly blurred" % (b, dq)
        )
    if b < 2.0 / dp:
        notes.append(
            "window b = %.3g is under twice the inverse momentum spread %.3g; the"
            " momentum record is strongly blurred" % (b, 2.0 / dp)
        )
    if b < 3.0 * ax.spacing:
        notes.append("window b = %.3g spans fewer than 3 grid cells" % b)
    if 1.0 / (2.0 * b) < 3.0 * pax.spacing:
        notes.append(
            "momentum blur 1/(2b) = %.3g spans fewer than 3 momentum cells"
            % (1.0 / (2.0 * b))
        )
    return tuple(notes)


def ak_distribution(psi, b):
    """Joint record density P(x1, x2) for a 1-D state and window width b.

    x1 runs over the position grid and x2 over the conjugate momentum
    grid.  Regime notes (never errors) accompany the record when the
    window cannot resolve the state or the grid.
    """
    if psi.dim != 1 or psi.axes[0].representation != waves.POSITION:
        raise ValidationError("joint record needs a 1-D position-representation state")
    if b <= 0:
        raise DomainError("window width must be positive")
    ax = psi.axes[0]
    x = ax.points()
    n = ax.n
    joint = np.empty((n, n))
    chunk = min(n, _CHUNK)
    for start in range(0, n, chunk):
        centers = x[start : start + chunk, None]
        windowed = psi.values[None, :] * window_profile(x[None, :] - centers, b)
        block = waves.GridWavefunction(
            (waves.Axis(chunk, ax.spacing, waves.POSITION), ax), windowed, {}
        )
        joint[start : start + chunk] = np.abs(waves.fourier(block, axis=1).values) ** 2
    pax = waves.fourier(psi).axes[0]
    return AkDistribution(ax, pax, joint, float(b), _regime_warnings(psi, b, ax, pax))


# ---------------------------------------------------------------------------
# smoothed references


def _convolve_centered(density, kernel, n):
    # mode="same" centers even-length kernels at (n-1)//2; our grids put
    # the origin at n//2, so slice the full convolution explicitly
    return np.convolve(density, kernel, mode="full")[n // 2 : n // 2 + n]


def smoothed_position_density(psi, b):
    """|psi|^2 convolved with g_b^2 on the state's grid."""
    ax = psi.axes[0]
    kernel = window_profile(ax.points(), b) ** 2
    return _convolve_centered(psi.density(), kernel, ax.n) * ax.spacing


def smoothed_momentum_density(psi, b):
    """|psi_tilde|^2 convolved with the 1/(2b)-wide momentum blur."""
    tilde = waves.fourier(psi)
    pax = tilde.axes[0]
    p = pax.points()
    s = 1.0 / (2.0 * b)
    kernel = np.exp(-(p * p) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
    return _convolve_centered(tilde.density(), kernel, pax.n) * pax.spacing


def wigner_smoothed(psi, b):
    """Wigner function smeared by the window Gaussians, on the record grids.

    Equals the joint record density up to grid discretization; the p
    smear resamples the half-spacing Wigner momentum grid onto the
    record's x2 grid.
    """
    grid = wigner.wigner_transform(psi)
    x = grid.x_axis.points()
    pw = grid.p_axis.points()
    x2 = waves.fourier(psi).axes[0].points()
    gx = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * b * b))
    gx /= b * math.sqrt(2.0 * math.pi)
    sp = 1.0 / (2.0 * b)
    gp = np.exp(-((pw[:, None] - x2[None, :]) ** 2) / (2.0 * sp * sp))
    gp /= sp * math.sqrt(2.0 * math.pi)
    smeared = gx @ grid.values @ gp * grid.x_axis.spacing * grid.p_axis.spacing
    return smeared


# ---------------------------------------------------------------------------
# conditional ridge extraction


def momentum_peaks(record, window_std=3.0):
    """Ridge of the conditional P(x2 | x1) over the central x1 window.

    Peaks are refined by a parabola through the log-density at the
    discrete maximum and its neighbors, which is exact for Gaussian
    ridges.  Conditionals with no curvature at the top (or negligible
    mass) are flagged flat and left at the raw grid maximum.
    """
    if not isinstance(record, AkDistribution):
        raise ValidationError("momentum_peaks expects an AkDistribution")
    mean1, var1 = record.mean_var_x1()
    std1 = math.sqrt(var1)
    x1 = record.x1_axis.points()
    keep = np.abs(x1 - mean1) <= window_std * std1
    idx = np.nonzero(keep)[0]
    p = record.x2_axis.points()
    dp = record.x2_axis.spacing
    row_floor = 1e-12 * float(record.joint.max()) * record.joint.shape[1]

    peaks = np.empty(idx.shape)
    flat = np.zeros(idx.shape, dtype=bool)
    for out_k, k in enumerate(idx):
        row = record.joint[k]
        j = int(np.argmax(row))
        peaks[out_k] = p[j]
        if row.sum() < row_floor or j == 0 or j == record.joint.shape[1] - 1:
            flat[out_k] = True
            continue
        trip = row[j - 1 : j + 2]
        if trip.min() <= 0.0:
            flat[out_k] = True
            continue
        logs = np.log(trip)
        denom = logs[0] - 2.0 * logs[1] + logs[2]
        if denom >= -1e-12:
            flat[out_k] = True
            continue
        peaks[out_k] += 0.5 * (logs[0] - logs[2]) / denom * dp

    usable = ~flat
    if usable.sum() >= 2:
        slope, intercept = np.polyfit(x1[idx][usable], peaks[usable], 1)
    else:
        slope, intercept = float("nan"), float("nan")
    return {
        "x1": x1[idx],
        "p_peak": peaks,
        "flat": flat,
        "slope": float(slope),
        "intercept": float(intercept),
    }


def gaussian_record_slope(sigma, t, mass, b):
    """Closed-form conditional-ridge slope for a spreading Gaussian record."""
    cov = t / (4.0 * mass * sigma**2)
    var1 = sigma**2 + (t / (2.0 * mass * sigma)) ** 2 + b**2
    return cov / var1


def gaussian_map_slope(sigma, t, mass):
    """Closed-form slope of the CDF-matching transport map for the same state."""
    var_x = sigma**2 + (t / (2.0 * mass * sigma)) ** 2
    return (1.0 / (2.0 * sigma)) / math.sqrt(var_x)
