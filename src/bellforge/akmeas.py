"""Joint position/momentum records from a windowed transform.

The record of a simultaneous measurement with a Gaussian window of width
b is the density

    P(x1, x2) = |F[psi(u) g_b(u - x1)](x2)|^2,
    g_b(u) = (2 pi b^2)^(-1/4) exp(-u^2 / (4 b^2)),

with F the unitary transform and g_b normalized in L2, so P integrates
to 1 for any state.  It obeys exact identities, each of which the tests
check against a reference computed apart from the record:

* x1 marginal = |psi|^2 convolved with g_b^2,
* x2 marginal = |psi_tilde|^2 convolved with a Gaussian of std 1/(2b),
* Var(x1) = Var_psi(x) + b^2 and Var(x2) = Var_psi(p) + 1/(4 b^2),
* P equals the Wigner function smoothed by the (b^2, 1/(4b^2)) Gaussian.

Both records are degraded relative to the bare marginals; the window
trades position blur b^2 against momentum blur 1/(4 b^2).  Conditional
slices P(x2 | x1) keep a ridge whose location generally differs from the
CDF-matching transport map evaluated at the same x1: the two momentum
assignments are distinct observables.

The record is built in blocks of _CHUNK x1 rows, each one in-place pass:
the window g_b(x2 - x1) is written into the block's own rows of the joint,
psi times it into one complex buffer per thread, the buffer is transformed
in place by the core of ``waves.fourier``, and |.|^2 goes back into the
rows.  A record of 8 blocks or more (n >= 1024) runs its blocks on the
thread pool of the 2-D Wigner transform, since numpy's exp and FFT release
the interpreter lock.  Every row is computed alone, so no bit depends on
the number of threads.
"""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import waves
from .errors import DomainError, ValidationError

# x1 rows per block.  A block writes its window and |.|^2 into its own rows
# of the joint and keeps one (_CHUNK, n) complex buffer per thread, 2 MB at
# n = 1024, and makes no temporary of the block's size: such temporaries
# take fresh pages (about 18 MB of page faults per call with 512-row blocks)
# and made ak_distribution 30-45 % slower.
_CHUNK = 128
# Below 4 blocks per thread the pool does not pay: on two CPUs two threads
# take n = 1024 (8 blocks) from 16 to 10 ms, but save only 0.1-0.3 ms of the
# 1.2-4 ms at n = 256 and 512, less than the 5 ms a cold process spends
# importing concurrent.futures.
_MIN_BLOCKS_PER_WORKER = 4


@dataclass(frozen=True)
class AkDistribution:
    x1_axis: waves.Axis
    x2_axis: waves.Axis
    joint: np.ndarray  # (n_x1, n_x2) density
    b: float
    warnings: tuple
    var_x: float  # position and momentum variances of the state
    var_p: float

    def marginal_x1(self):
        return self.joint.sum(axis=1) * self.x2_axis.spacing

    def marginal_x2(self):
        return self.joint.sum(axis=0) * self.x1_axis.spacing

    def mean_var_x1(self):
        return waves.moments(self.x1_axis, self.marginal_x1())

    def mean_var_x2(self):
        return waves.moments(self.x2_axis, self.marginal_x2())


def _window_profile(x, b, out=None):
    """L2-normalized Gaussian window g_b at the points of the array x,
    written into out if given (out may be x)."""
    out = np.square(x, out=out)
    np.negative(out, out=out)
    np.divide(out, 4.0 * b * b, out=out)
    np.exp(out, out=out)
    return np.multiply((2.0 * math.pi * b * b) ** -0.25, out, out=out)


def _regime_warnings(var_x, var_p, b, ax, pax):
    dq, dp = math.sqrt(var_x), math.sqrt(var_p)
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
    if not sys.float_info.min <= b * b <= sys.float_info.max:
        raise DomainError("window width b = %g leaves double range: b^2 is not a normal double" % b)
    ax = psi.axes[0]
    x = ax.points()
    n = ax.n
    chunk = min(n, _CHUNK)
    joint = np.empty((n, n))
    buffers = threading.local()  # one (chunk, n) complex buffer per thread

    def block(start):
        # the rows of x1 in [start, start + chunk), in place; no public
        # bellforge function is called here, so the pool threads leave a
        # caller's wrappers alone
        if not hasattr(buffers, "values"):
            buffers.values = np.empty((chunk, n), dtype=complex)
        values, rows = buffers.values, joint[start:start + chunk]
        np.subtract(x[None, :], x[start:start + chunk, None], out=rows)
        np.multiply(psi.values, _window_profile(rows, b, out=rows), out=values)
        waves._centered_transform(values, values, 1, 0, ax)
        np.abs(values, out=rows)
        np.square(rows, out=rows)

    waves._ordered_map(block, range(0, n, chunk), _MIN_BLOCKS_PER_WORKER)
    pax = ax.conjugate()
    _, var_x = waves.mean_and_var(psi)
    _, var_p = waves.mean_and_var(waves.fourier(psi))
    warnings = _regime_warnings(var_x, var_p, b, ax, pax)
    return AkDistribution(ax, pax, joint, float(b), warnings, var_x, var_p)


# ---------------------------------------------------------------------------
# conditional ridge extraction


def momentum_peaks(record, window_std=3.0):
    """Ridge of the conditional P(x2 | x1) over the central x1 window.

    Peaks are refined by a parabola through the log-density at the
    discrete maximum and its neighbors, which is exact for Gaussian
    ridges.  Conditionals are flagged flat and left at the raw grid maximum
    when they have negligible mass, their maximum on an end of the grid, a
    nonpositive value at the top, or no curvature there.  var_x1 is the
    record's x1 variance, whose square root scales the window.
    """
    if not isinstance(record, AkDistribution):
        raise ValidationError("momentum_peaks expects an AkDistribution")
    mean1, var1 = record.mean_var_x1()
    x1 = record.x1_axis.points()
    idx = np.nonzero(np.abs(x1 - mean1) <= window_std * math.sqrt(var1))[0]
    rows = record.joint[idx]
    n2 = rows.shape[1]
    row_floor = 1e-12 * float(record.joint.max()) * n2

    j = np.argmax(rows, axis=1)
    trip = np.take_along_axis(rows, np.clip(j, 1, n2 - 2)[:, None] + np.arange(-1, 2), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(trip)
        denom = logs[:, 0] - 2.0 * logs[:, 1] + logs[:, 2]
        flat = ((rows.sum(axis=1) < row_floor) | (j == 0) | (j == n2 - 1)
                | (trip.min(axis=1) <= 0.0) | (denom >= -1e-12))
        shift = 0.5 * (logs[:, 0] - logs[:, 2]) / denom * record.x2_axis.spacing
    peaks = record.x2_axis.points()[j]
    usable = ~flat
    peaks[usable] += shift[usable]
    if usable.sum() >= 2:
        slope = np.polyfit(x1[idx][usable], peaks[usable], 1)[0]
    else:
        slope = float("nan")
    return {
        "x1": x1[idx],
        "p_peak": peaks,
        "flat": flat,
        "slope": float(slope),
        "var_x1": var1,
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
