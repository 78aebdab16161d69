"""Bell functional built from quadrant signs of conjugate quadratures.

For a 2-D state the four sign observables sgn(q1), sgn(p1), sgn(q2),
sgn(p2) define correlators E_ab with a, b in {q, p}, measured on the
corresponding mixed densities |psi_ab|^2.  The Bell combination

    S = E_qq + E_qp + E_pq - E_pp

is bounded by 2 for any separable sign assignment and by 2*sqrt(2) for
the quadrature family built here.  On the grid each correlator is one
contraction E_ab = sgn(a) . M_ab . sgn(b) of the pair state's cell masses
M_ab with the sign vectors of its two axes (``waves.pair_states`` builds
the four states).  Grid points lying exactly on a zero line carry sign 0,
so their masses drop out of the correlators.

The distinguished family psi_(+/-) with cutoff L (see
``waves.psi_marginal_state``) admits closed-form correlators in terms of
one overlap integral I(L):

    E_qq = +/- sqrt(2)/2          E_qp = E_pq = +/- (sqrt(2)/4) I(L)
    E_pp = -/+ (sqrt(2)/8) I(L)^2

so S = +/- (sqrt(2)/8) (2 + I(L))^2, which crosses the classical bound 2
once I(L) exceeds 2 sqrt(2 sqrt(2)) - 2 and tends to 2*sqrt(2) as L grows
(I -> 2).  ``marginal_theorem_demo`` tabulates this crossing.
"""

import functools
import math

import numpy as np

from . import waves
from .errors import DomainError, ToleranceError, ValidationError

TSIRELSON = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# the S functional on grid states


def s_functional(psi):
    """E_qq + E_qp + E_pq - E_pp of a 2-D position state on the grid, each
    E = sgn(a) . M . sgn(b) over the cell masses M of one pair state."""
    if psi.dim != 2:
        raise ValidationError("quadrant analysis needs a 2-D state")
    for ax in psi.axes:
        if ax.representation != waves.POSITION:
            raise ValidationError("state must be given in the position representation")
    e = {ccs: float(np.sign(w.axes[0].points()) @ w.masses() @ np.sign(w.axes[1].points()))
         for ccs, w in waves.pair_states(psi).items()}
    return e["qq"] + e["qp"] + e["pq"] - e["pp"]


# ---------------------------------------------------------------------------
# overlap integral of the cutoff log density with the Cauchy tail


_SQRT2 = math.sqrt(2.0)


def _inner_v(w, big_m):
    """Integral of 1/(v^2 + w^2 - 2) over v in [1, M], closed form, for an
    array of w in (1, M] other than sqrt(2).

    w^2 - 2 is formed as (w - sqrt2)(w + sqrt2) and, below sqrt(2), the
    log term as log(w^2 - 1) - 2 log(1 + k) with w^2 - 1 = (w - 1)(w + 1),
    so neither loses its sign or its digits next to w = sqrt(2) or w = 1.
    """
    d = (w - _SQRT2) * (w + _SQRT2)
    out = np.empty_like(w)
    above = d > 0.0
    m = np.sqrt(d[above])
    out[above] = (np.arctan(big_m / m) - np.arctan(1.0 / m)) / m
    wb = w[~above]
    k = np.sqrt(-d[~above])
    out[~above] = (
        np.log((big_m - k) / (big_m + k)) - np.log((wb - 1.0) * (wb + 1.0)) + 2.0 * np.log1p(k)
    ) / (2.0 * k)
    return out


@functools.cache
def _tanh_sinh_rule():
    """Tanh-sinh rule on [-1, 1], step 1/32 over |t| <= 3.5 (225 nodes), as
    (lower, distance, weight).

    Node t maps to x = tanh(pi/2 sinh t).  The distance 1 - |x| from the
    nearer end is formed directly, not as a difference, so nodes close to
    an end keep their digits; lower marks the nodes nearer -1.
    """
    t = np.arange(-112, 113) / 32.0
    u = 0.5 * math.pi * np.sinh(t)
    dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
    weight = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2 / 32.0
    return t < 0.0, dist, weight


def _tanh_sinh_nodes(a, b):
    """Nodes and weights of the tanh-sinh rule on [a, b], each node placed
    from its nearer end; nodes that round onto an end are dropped, since
    the integrand may be singular there."""
    lower, dist, weight = _tanh_sinh_rule()
    half = 0.5 * (b - a)
    x = np.where(lower, a + half * dist, b - half * dist)
    keep = (x > a) & (x < b)
    return x[keep], half * weight[keep]


def overlap_integral(cutoff):
    """I(L): normalized double integral of 1/(v^2 + w^2 - 2) over [1, sqrt(L+1)]^2.

    The inner integral is analytic; the outer is a fixed tanh-sinh rule
    (225 nodes) on each side of w = sqrt(2), where the integrand switches
    branch (the w -> 1 endpoint carries an integrable log singularity).
    It agrees with adaptive quadrature to 1e-13 for L from 1.01 to 1e10,
    and a larger L is refused: past it the error grows, to 8.5e-4 at 1e43.
    I is increasing in L with limit 2.
    """
    if cutoff <= 0:
        raise DomainError("cutoff must be positive")
    if cutoff > 1e10:
        raise DomainError("cutoff %g exceeds 1e10, the largest the quadrature is checked to" % cutoff)
    big_m = math.sqrt(cutoff + 1.0)
    if big_m <= _SQRT2:
        raise DomainError("cutoff too small: the integration square is degenerate")
    w_lo, wt_lo = _tanh_sinh_nodes(1.0, _SQRT2)
    w_hi, wt_hi = _tanh_sinh_nodes(_SQRT2, big_m)
    f = _inner_v(np.concatenate([w_lo, w_hi]), big_m)
    total = float(np.dot(np.concatenate([wt_lo, wt_hi]), f))
    return 8.0 * total / (math.pi * math.log(cutoff + 1.0))


def _s_of_overlap(i_val):
    """S_+ = (sqrt(2)/8) (2 + I)^2 from the overlap integral I."""
    return math.sqrt(2.0) / 8.0 * (2.0 + i_val) ** 2


# ---------------------------------------------------------------------------
# the violation table


def _richardson(cutoffs, values):
    """One-step Richardson extrapolation in h = 1/log(L+1) from the two
    largest cutoffs; the leading finite-L correction of S is O(h).  None
    when both cutoffs give the same h, as cutoffs an ulp apart can."""
    h1 = 1.0 / math.log(cutoffs[-2] + 1.0)
    h2 = 1.0 / math.log(cutoffs[-1] + 1.0)
    if h1 == h2:
        return None
    return (values[-1] * h1 - values[-2] * h2) / (h1 - h2)


def marginal_theorem_demo(
    cutoffs=(10.0, 100.0, 1000.0, 10000.0), grid_n=0, grid_xmax=None
):
    """Tabulate S_(+/-)(L) and locate the crossing of the classical bound.

    Closed-form route: one overlap integral per cutoff.  S_- = -S_+, and
    S_+ increases with L: cutoffs too close for the quadrature to tell
    apart give equal values, and a decrease raises ToleranceError.  The
    limit is extrapolated from the two largest cutoffs.  With grid_n > 0 the
    smallest cutoff is also cross-checked by building the state on a
    grid_n^2 grid and evaluating the S functional directly; the grid value
    sits below the closed form because the finite box and discrete zero
    lines both bleed correlation.
    """
    cutoffs = tuple(float(c) for c in cutoffs)
    if len(cutoffs) < 2:
        raise DomainError("need at least two cutoffs to extrapolate")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise DomainError("cutoffs must be strictly increasing")

    overlaps = [overlap_integral(c) for c in cutoffs]
    s_plus = [_s_of_overlap(i) for i in overlaps]
    s_minus = [-s for s in s_plus]
    if any(b < a for a, b in zip(s_plus, s_plus[1:])):
        raise ToleranceError("S_+ decreased as the cutoff grew")

    exceeds = next((c for c, s in zip(cutoffs, s_plus) if s > 2.0), None)
    report = {
        "cutoffs": list(cutoffs),
        "overlap": overlaps,
        "s_plus": s_plus,
        "s_minus": s_minus,
        "exceeds_2_at": exceeds,
        "extrapolated_limit": _richardson(cutoffs, s_plus),
        "tsirelson": TSIRELSON,
    }
    if grid_n:
        psi = waves.psi_marginal_state(+1, cutoffs[0], n=grid_n, xmax=grid_xmax)
        report["grid_check"] = {
            "cutoff": cutoffs[0],
            "n": int(grid_n),
            "s_grid": s_functional(psi),
        }
    return report
