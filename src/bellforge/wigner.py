"""Discrete Wigner functions and the displaced-parity Bell test.

The 1-D transform evaluates

    W(x_k, p_j) = (spacing/pi) * sum_m psi(x_k + y_m) psi*(x_k - y_m) e^{-2 i p_j y_m}

with y_m = m * spacing (m = -n/2..n/2-1, off-grid terms zero) and p_j on
a momentum grid of spacing pi / (n * spacing), half the FFT-conjugate
spacing.  The summand is Hermitian in m, so one real inverse FFT of its
conjugate over lags m = 0..n/2 per row gives the real sum, and the q marginal
of W collapses to |psi(x_k)|^2 exactly (finite-sum identity, not an
approximation).  The p marginal approximates |psi_tilde(p_j)|^2 at the
half-grid points, the central n points of a twice zero-padded FFT, with
spectral accuracy.

Each result carries the state it was transformed from, so the marginal
checks and Hudson's criterion take the result alone.  The 2-D transform
never materializes the rank-4 array: it streams one x1 slab of conjugate
lag products at a time through one real inverse FFT over both lags,
accumulates the minimum, all four pair marginals and the central slice in
FFT order, and shifts and scales the (n, n) results once at the end.

The two-mode squeezed vacuum enters through closed forms: its Wigner
function, the displaced-parity correlator E(alpha, beta) = pi^2 W at the
displaced phase-space point, and the CHSH combination
S = E(a,b) - E(a,b') + E(a',b) + E(a',b').  E factorizes over a
two-displacement protocol (a = d1, b = 0, a' = 0, b' = -d2), whose
optimum approaches 1 + 2*2^(-1/3) - 2^(-4/3) ~ 2.19055 as r grows; an
unrestricted search over four real displacements climbs higher.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import waves
from .errors import DomainError, ValidationError

_AMPLITUDE_FLOOR = 1e-6  # gaussianity_residual fits where |psi| > this * max|psi|
_GAUSSIAN_RESIDUAL = 1e-6  # hudson_check calls a state Gaussian below this residual


# ---------------------------------------------------------------------------
# discrete transforms


def _half_momentum_axis(axis):
    return waves.Axis(axis.n, math.pi / (axis.n * axis.spacing), waves.MOMENTUM)


@dataclass(frozen=True)
class WignerGrid:
    source: waves.GridWavefunction  # the 1-D state transformed
    p_axis: waves.Axis
    values: np.ndarray  # (n_x, n_p)

    @property
    def x_axis(self):
        return self.source.axes[0]

    def q_marginal(self):
        return self.values.sum(axis=1) * self.p_axis.spacing

    def p_marginal(self):
        return self.values.sum(axis=0) * self.x_axis.spacing


def _lag_windows(values):
    """Views (A, B) over the last axis of values, for points k < n and lags
    m = 0..n/2: A[..., k, m] = conj psi[..., k + m] and B[..., k, m] =
    psi[..., k - m], zero where the index leaves the grid."""
    n = values.shape[-1]
    h = n // 2
    pad = np.zeros((2,) + values.shape[:-1] + (n + 2 * h,), dtype=complex)
    pad[0, ..., h:h + n] = np.conj(values)
    pad[1, ..., h:h + n] = values
    win = sliding_window_view(pad, h + 1, axis=-1)
    return win[0, ..., h:, :], win[1, ..., :n, ::-1]


def _wigner_1d(psi):
    ax = psi.axes[0]
    a, b = _lag_windows(psi.values)
    # a * b = conj C for C[k, m] = psi(k + m) psi*(k - m), Hermitian in m, so
    # the real inverse transform over lags m = 0..n/2 is sum_m C[m] e^{-2 pi i jm/n}
    w = np.fft.fftshift(np.fft.irfft(a * b, ax.n, norm="forward"), axes=-1)
    w *= ax.spacing / math.pi
    return WignerGrid(psi, _half_momentum_axis(ax), w)


@dataclass(frozen=True)
class Wigner2DSummary:
    source: waves.GridWavefunction  # the 2-D state transformed
    p_axes: tuple
    min_w: float
    marginals: dict  # keys qq, qp, pq, pp
    central_slice: np.ndarray  # W(x1, 0, p1, 0) as (k1, j1)

    @property
    def x_axes(self):
        return tuple(self.source.axes)


def _wigner_2d(psi):
    n = psi.axes[0].n
    if psi.axes[1].n != n:
        raise ValidationError("2-D transform expects equal axis sizes")
    dx0, dx1 = psi.axes[0].spacing, psi.axes[1].spacing
    p_axes = (_half_momentum_axis(psi.axes[0]), _half_momentum_axis(psi.axes[1]))
    dp0, dp1 = p_axes[0].spacing, p_axes[1].spacing

    a, b = _lag_windows(psi.values)  # (x1, k2, m2) views

    # sums of the unscaled transform, in FFT (unshifted) frequency order
    min_w = np.inf
    qq = np.empty((n, n))
    qp = np.empty((n, n))
    pq = np.zeros((n, n))
    pp = np.zeros((n, n))
    central = np.empty((n, n))
    slab = np.empty((n, n, n // 2 + 1), dtype=complex)
    w = np.empty((n, n, n))

    for k1 in range(n):
        # slab[m1, k2, m2] = psi*[k1+m1, k2+m2] psi[k1-m1, k2-m2], x1 lags m1
        # in FFT order (0..lo, then -lo..-1), zero where k1 +- m1 leaves the
        # grid; it is Hermitian in (m1, m2), so one real inverse transform over
        # both lags gives sum_m C[m] exp(-2 pi i j.m / n) for C = conj slab
        lo = min(k1, n - 1 - k1)
        np.multiply(a[k1:k1 + lo + 1], b[k1 - lo:k1 + 1][::-1], out=slab[:lo + 1])
        np.multiply(a[k1 - lo:k1], b[k1 + 1:k1 + lo + 1][::-1], out=slab[n - lo:])
        slab[lo + 1:n - lo] = 0.0
        np.fft.irfftn(slab, s=(n, n), axes=(0, 2), norm="forward", out=w)
        # w indexed (j1, k2, j2)
        min_w = min(min_w, float(w.min()))
        q2p2 = w.sum(axis=0)  # p1 integrated out
        qq[k1] = q2p2.sum(axis=1)
        qp[k1] = q2p2.sum(axis=0)
        pq += w.sum(axis=2)
        pp += w.sum(axis=1)
        central[k1] = w[:, n // 2, 0]

    scale = dx0 * dx1 / math.pi**2
    shift = np.fft.fftshift
    marginals = {
        "qq": qq * (scale * dp0 * dp1),
        "qp": shift(qp, axes=1) * (scale * dp0 * dx1),
        "pq": shift(pq, axes=0) * (scale * dx0 * dp1),
        "pp": shift(pp) * (scale * dx0 * dx1),
    }
    central = shift(central, axes=1) * scale
    return Wigner2DSummary(psi, p_axes, scale * min_w, marginals, central)


def wigner_transform(psi):
    """Wigner function of a 1-D or 2-D grid state."""
    for ax in psi.axes:
        if ax.representation != waves.POSITION:
            raise ValidationError("Wigner transform expects the position representation")
    if psi.dim == 1:
        return _wigner_1d(psi)
    if psi.dim == 2:
        return _wigner_2d(psi)
    raise ValidationError("Wigner transform supports 1-D and 2-D states only")


def _half_grid_transform(psi, axes):
    """psi_tilde on the half-spacing momentum grid of each listed axis: the
    central n points of the 2n-point conjugate grid of a twice zero-padded
    transform."""
    sl = [slice(None)] * psi.dim
    for axis in axes:
        n = psi.axes[axis].n
        psi = waves.padded_transform(psi, axis, 2)
        sl[axis] = slice(n // 2, n // 2 + n)
    return psi.values[tuple(sl)]


def marginal_errors_1d(grid):
    """Max-norm errors of the Wigner marginals against transform densities.

    The q marginal is exact by construction; the p marginal is checked
    against the source state's transform on the half-spacing grid.
    """
    q_err = float(np.max(np.abs(grid.q_marginal() - grid.source.density())))
    tilde = _half_grid_transform(grid.source, (0,))
    p_err = float(np.max(np.abs(grid.p_marginal() - np.abs(tilde) ** 2)))
    return {"q": q_err, "p": p_err}


def marginal_errors_2d(summary):
    """Max-norm errors of all four pair marginals of a 2-D Wigner function."""
    refs = {
        "qq": summary.source.density(),
        "qp": np.abs(_half_grid_transform(summary.source, (1,))) ** 2,  # (x1, p2)
        "pq": np.abs(_half_grid_transform(summary.source, (0,))) ** 2,  # (p1, x2)
        "pp": np.abs(_half_grid_transform(summary.source, (0, 1))) ** 2,
    }
    return {k: float(np.max(np.abs(summary.marginals[k] - ref))) for k, ref in refs.items()}


# ---------------------------------------------------------------------------
# gaussianity and Hudson's criterion


def _quadratic_residual(x, y):
    coef = np.polynomial.polynomial.polyfit(x, y, 2)
    fit = np.polynomial.polynomial.polyval(x, coef)
    return float(np.max(np.abs(fit - y)))


def gaussianity_residual(psi):
    """Worst quadratic-fit residual of log-magnitude and unwrapped phase.

    Evaluated where |psi| exceeds _AMPLITUDE_FLOOR * max|psi|.  A Gaussian
    (possibly chirped or displaced) fits both to rounding; anything else
    leaves an O(1) residual.
    """
    if psi.dim != 1:
        raise ValidationError("gaussianity check is for 1-D states")
    amp = np.abs(psi.values)
    mask = amp > _AMPLITUDE_FLOOR * amp.max()
    x = psi.axes[0].points()[mask]
    log_mag = np.log(amp[mask])
    phase = np.unwrap(np.angle(psi.values[mask]))
    return max(_quadratic_residual(x, log_mag), _quadratic_residual(x, phase))


def hudson_check(grid):
    """Minimum of a 1-D Wigner grid alongside a direct gaussianity flag of
    its source state.

    For pure states the two agree: the minimum is nonnegative (to
    rounding) exactly when the state is Gaussian.
    """
    resid = gaussianity_residual(grid.source)
    return {
        "min_w": float(grid.values.min()),
        "gaussian": bool(resid < _GAUSSIAN_RESIDUAL),
        "residual": resid,
    }


# ---------------------------------------------------------------------------
# two-mode squeezed vacuum, displaced parity, CHSH


def _cosh_sinh_2r(r):
    """cosh(2r) and sinh(2r), which leave double range for |r| above about 355."""
    try:
        return math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise DomainError("squeezing r = %g overflows cosh(2r); keep |r| below 355" % r) from None


def tmsv_wigner(r, q1, q2, p1, p2):
    """Wigner function of the two-mode squeezed vacuum (hbar = 1 quadratures)."""
    c, s = _cosh_sinh_2r(r)
    q1, q2, p1, p2 = np.broadcast_arrays(q1, q2, p1, p2)
    quad = c * (q1**2 + q2**2 + p1**2 + p2**2) - 2.0 * s * (q1 * q2 - p1 * p2)
    return np.exp(-quad) / math.pi**2


def parity_correlation(r, alpha, beta):
    """Displaced parity correlator E(alpha, beta) = pi^2 W at the displaced point.

    alpha and beta are complex displacement amplitudes; the phase-space
    point is (q, p) = sqrt(2) (Re, Im) of each.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    c, s = _cosh_sinh_2r(r)
    try:
        val = -2.0 * c * (abs(alpha) ** 2 + abs(beta) ** 2) + 4.0 * s * (alpha * beta).real
    except OverflowError:  # a squared displacement left double range
        val = math.nan
    if not val <= 0.0:
        val = _nonpositive_exponent(r, alpha, beta)
    return math.exp(val)


def _nonpositive_exponent(r, alpha, beta):
    """The exponent of E as a sum of nonpositive terms,

        -2 e^{-2|r|} (|alpha|^2 + |beta|^2) - 2 sinh(2|r|) |alpha - sgn(r) beta*|^2,

    from cosh(2r) = sinh(2|r|) + e^{-2|r|}.  E <= 1, so the direct exponent
    is never positive; where it reads positive or NaN, its two terms of
    size cosh(2r) cancelled to rounding noise (or to inf - inf).
    """
    ar = abs(r)
    val = -2.0 * math.exp(-2.0 * ar) * (abs(alpha) * abs(alpha) + abs(beta) * abs(beta))
    squeeze = math.sinh(2.0 * ar)
    if squeeze:
        diff = alpha - math.copysign(1.0, r) * beta.conjugate()
        val -= 2.0 * squeeze * (diff.real * diff.real + diff.imag * diff.imag)
    return val


def chsh_parity(r, displacements):
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') for four displacements."""
    if len(displacements) != 4:
        raise ValidationError("expected four displacements (a, b, a_prime, b_prime)")
    a, b, ap, bp = (complex(d) for d in displacements)
    return (
        parity_correlation(r, a, b)
        - parity_correlation(r, a, bp)
        + parity_correlation(r, ap, b)
        + parity_correlation(r, ap, bp)
    )


def _protocol_value(r, d1, d2):
    return chsh_parity(r, (d1, 0.0, 0.0, -d2))


def _nelder_mead(loss, x0, xatol, fatol, maxiter):
    """Unbounded, non-adaptive Nelder-Mead; returns (x, loss(x)).

    A step-for-step copy of scipy.optimize.minimize(method="Nelder-Mead")
    with these options (same initial simplex, arithmetic, sorts and
    stopping test), so it returns the same bits.
    """
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([loss(x) for x in sim], dtype=float)
    # scipy sorts twice here; argsort need not be stable, so a second sort
    # may still reorder ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = loss(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = loss(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = loss(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = loss(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = loss(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def maximize_chsh_parity(r, search="protocol"):
    """Best CHSH value over displacement choices at fixed squeezing.

    search="protocol" restricts to the two-displacement family
    (a, b, a', b') = (d1, 0, 0, -d2) with d1, d2 >= 0, the configuration
    whose large-r optimum is 1 + 2*2^(-1/3) - 2^(-4/3).  search="full"
    optimizes four independent real displacements and can exceed the
    protocol value; neither search can pass 2*sqrt(2).  The optimal
    displacements shrink like e^(-r), so each search runs Nelder-Mead on
    u = d e^r, from four seeds (times e, so r = 1 starts at the seeds as
    displacements) and keeps the best.
    """
    if r < 0:
        raise DomainError("squeezing parameter must be nonnegative")
    scale = math.exp(-r)
    if search == "protocol":

        def loss(u):
            return -_protocol_value(r, abs(u[0]) * scale, abs(u[1]) * scale)

        seeds = [(0.05, 0.05), (0.2, 0.2), (0.5, 0.5), (0.9, 0.9)]
    elif search == "full":

        def loss(u):
            return -chsh_parity(r, tuple(u * scale))

        seeds = [
            (0.1, 0.0, 0.0, -0.1),
            (0.3, -0.05, 0.05, -0.3),
            (0.5, 0.1, -0.1, -0.5),
            (0.2, 0.2, -0.2, -0.2),
        ]
    else:
        raise DomainError("search must be 'protocol' or 'full'")

    best_x, best_fun = None, None
    for seed in seeds:
        x, fun = _nelder_mead(
            loss, math.e * np.asarray(seed, dtype=float), xatol=1e-10, fatol=1e-12, maxiter=4000
        )
        if best_fun is None or fun < best_fun:
            best_x, best_fun = x, fun
    s_max = -float(best_fun)
    d = best_x * scale
    if search == "protocol":
        displacements = (abs(d[0]), 0.0, 0.0, -abs(d[1]))
    else:
        displacements = tuple(float(v) for v in d)
    return {
        "r": float(r),
        "search": search,
        "s_max": s_max,
        "displacements": displacements,
    }
