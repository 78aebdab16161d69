"""Local-realism feasibility for 2-setting/2-outcome correlation experiments.

A *behavior* is the table p^{r,s}(a_i, b_j) of joint outcome probabilities
for the four setting pairs (i, j in {1,2}; r, s in {+1,-1}).  It admits a
local model iff it is a convex mixture of the 16 deterministic strategies
(fixed outcomes r_1, r_2, s_1, s_2), which is also equivalent (for
no-signalling behaviors) to all eight CHSH-type sign variants evaluating
to at most 2.

Two independent deciders are provided and must agree:

* ``lhv_feasible``        the minimum-norm vertex mixture (a small exact
  quadratic program); feasible when it reproduces the behavior
* ``brute_force_feasible`` explicit facet check; the classical bound of
  every sign variant is computed by enumerating the vertices

The mixture is the unique q minimizing ||q||^2 subject to V q = p and
q >= 0, with V the 16x16 vertex matrix.  Among the 7-parameter family of
mixtures that fit a behavior it is the one closest to uniform, so it is a
continuous function of p and does not depend on how a solver wanders.
"""

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BellforgeError, ValidationError
from .spinor import _axes, _correlation_tensor, check_state

_SIGNS = (1, -1)
_FEAS_TOL = 1e-7
_ENTER_TOL = 1e-14  # weights above -_ENTER_TOL count as nonnegative
_DEPENDENT_TOL = 1e-10  # an entering bound this close to the active span is dependent
_MAX_QP_STEPS = 64


@dataclass(frozen=True)
class Behavior:
    """p[i, j, ri, si]: settings (a_i, b_j), outcome indices 0 -> +1, 1 -> -1."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2, 2, 2, 2):
            raise ValidationError("behavior table must have shape (2, 2, 2, 2)")
        if np.min(p) < -1e-12:
            raise ValidationError("behavior has negative probability %g" % np.min(p))
        p = np.clip(p, 0.0, None)
        sums = p.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValidationError(
                "behavior columns must each sum to 1 (max deviation %g)"
                % np.max(np.abs(sums - 1.0))
            )
        marg_a = p.sum(axis=3)  # (i, j, ri): side-A marginal given b_j
        if np.max(np.abs(marg_a[:, 0, :] - marg_a[:, 1, :])) > 1e-9:
            raise ValidationError("behavior signals from B to A (side-A marginals differ)")
        marg_b = p.sum(axis=2)
        if np.max(np.abs(marg_b[0, :, :] - marg_b[1, :, :])) > 1e-9:
            raise ValidationError("behavior signals from A to B (side-B marginals differ)")
        object.__setattr__(self, "p", p)

    def correlators(self):
        """E[i, j] = sum_rs r s p^{rs}(a_i, b_j)."""
        r = np.array([1.0, -1.0])
        return np.einsum("ijrs,r,s->ij", self.p, r, r)


@dataclass(frozen=True)
class JointDistribution:
    """q[ir1, ir2, is1, is2]: one weight per outcome tuple (r, r', s, s')."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (2, 2, 2, 2):
            raise ValidationError("joint distribution must have shape (2, 2, 2, 2)")
        if np.min(q) < -1e-12:
            raise ValidationError("joint distribution has negative weight")
        q = np.clip(q, 0.0, None)
        if abs(q.sum() - 1.0) > 1e-9:
            raise ValidationError("joint distribution must sum to 1")
        object.__setattr__(self, "q", q)

    def marginal_behavior(self):
        p = _vertex_matrix() @ self.q.reshape(16)
        return Behavior(p.reshape(2, 2, 2, 2))


@dataclass(frozen=True)
class Certificate:
    """A CHSH sign variant sum_ij c_ij E_ij whose classical bound is exceeded."""

    coeffs: np.ndarray  # (2, 2) entries +/-1, with product c11 c12 c21 c22 = -1
    value: float
    bound: float

    def evaluate(self, behavior):
        return float(np.sum(self.coeffs * behavior.correlators()))


@dataclass(frozen=True)
class LhvResult:
    feasible: bool
    joint: JointDistribution | None = None
    certificate: Certificate | None = None


def _vertices():
    """The 16 deterministic strategies as outcome tuples (r1, r2, s1, s2)."""
    return list(product(_SIGNS, _SIGNS, _SIGNS, _SIGNS))


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.cache
def _vertex_matrix():
    """16x16 matrix: column v gives the behavior of deterministic strategy v.

    Row index flattens (i, j, ri, si); column index flattens (ir1, ir2, is1, is2).
    """
    m = np.zeros((16, 16))
    for col, (r1, r2, s1, s2) in enumerate(_vertices()):
        r_of = (r1, r2)
        s_of = (s1, s2)
        for i in range(2):
            for j in range(2):
                ri = _SIGNS.index(r_of[i])
                si = _SIGNS.index(s_of[j])
                m[((i * 2 + j) * 2 + ri) * 2 + si, col] = 1.0
    return _read_only(m)


@functools.cache
def _qp_operators():
    """V^+ and G = N N^T, the orthogonal projector onto null(V), from one SVD.

    V has rank 9: 16 weights meet 9 independent constraints (the
    normalization is the sum of any setting pair's four rows).
    """
    u, s, vt = np.linalg.svd(_vertex_matrix())
    rank = int(np.sum(s > 1e-10 * s[0]))
    pinv = vt[:rank].T @ (u[:, :rank] / s[:rank]).T
    null = vt[rank:].T
    return _read_only(pinv), _read_only(null @ null.T)


@functools.cache
def _facets():
    """The 8 CHSH sign patterns (odd number of minus signs), each with its
    classical bound, the largest value any of the 16 vertices gives it."""
    out = []
    for c in product(_SIGNS, repeat=4):
        if c[0] * c[1] * c[2] * c[3] == -1:
            coeffs = np.array(c, dtype=float).reshape(2, 2)
            values = _vertex_matrix().T @ np.einsum(
                "ij,r,s->ijrs", coeffs, [1.0, -1.0], [1.0, -1.0]
            ).reshape(16)
            out.append((_read_only(coeffs), float(np.max(values))))
    return tuple(out)


def _best_certificate(behavior):
    e = behavior.correlators()
    best = None
    for coeffs, bound in _facets():
        value = float(np.sum(coeffs * e))
        if best is None or value - bound > best.value - best.bound:
            best = Certificate(coeffs=coeffs, value=value, bound=bound)
    return best


def _min_norm_weights(p):
    """Goldfarb-Idnani dual active set for min ||q||^2, V q = p, q >= 0.

    Starts from q0 = V^+ p, the unconstrained minimum, and moves only
    inside null(V), so V q = V q0 throughout.  The Hessian is the identity,
    so the slack of bound i is q_i itself, and the primal step that raises
    q_k while keeping the active bounds at zero is row k of the projector
    onto null(V) with those bounds removed.  That projector starts as G and
    takes a rank-one update per added or dropped bound, as does
    ``m = H G[active]``, whose column k is the change in the active
    multipliers per unit step (H inverts G[active, active]).  Returns q at
    the optimum, or at the step that proves the bounds and V q = p
    inconsistent: the entering bound depends on the active ones and no
    active multiplier can drop.  Goldfarb & Idnani, Math. Programming 27, 1
    (1983).
    """
    pinv, g = _qp_operators()
    q = pinv @ p
    proj = g.copy()
    m = np.empty((16, 16))
    mult = np.empty(16)
    active = []
    for _ in range(_MAX_QP_STEPS):
        k = int(q.argmin())
        if q[k] >= -_ENTER_TOL:
            return q
        mult_k = 0.0
        while True:
            na = len(active)
            step = proj[k].copy()
            gamma = step[k]
            dmult = m[:na, k]
            t_dual, drop = np.inf, -1  # step that brings a multiplier to zero
            for i in range(na):
                if dmult[i] > 0.0 and mult[i] / dmult[i] < t_dual:
                    t_dual, drop = mult[i] / dmult[i], i
            t_full = -q[k] / gamma if gamma > _DEPENDENT_TOL else np.inf
            if t_full == np.inf and t_dual == np.inf:
                return q
            t = min(t_full, t_dual)
            if t_full < np.inf:
                q += t * step
            mult[:na] -= t * dmult
            mult_k += t
            if t_full <= t_dual:
                q[k] = 0.0
                mult[na] = mult_k
                step /= gamma
                m[:na] -= dmult[:, None] * step
                m[na] = step
                proj -= np.multiply.outer(proj[k], step)
                active.append(k)
                break
            # bound `drop` leaves the active set; since G is idempotent,
            # H = m m^T, so row `drop` of m gives both rank-one updates
            del active[drop]
            mult[drop:na - 1] = mult[drop + 1:na]
            row = m[drop] / np.sqrt(m[drop] @ m[drop])
            m[drop:na - 1] = m[drop + 1:na]
            m[:na - 1] -= np.multiply.outer(m[:na - 1] @ row, row)
            proj += np.multiply.outer(row, row)
    raise BellforgeError("minimum-norm mixture did not converge in %d steps" % _MAX_QP_STEPS)


def _mixture_weights(behavior):
    """Minimum-norm vertex mixture; returns (weights, max marginal error).

    The weights are clipped at zero, so a behavior outside the local
    polytope, where the quadratic program stops at a point with negative
    weights, shows up as a marginal error.
    """
    p = behavior.p.reshape(16)
    w = np.clip(_min_norm_weights(p), 0.0, None)
    resid = np.max(np.abs(_vertex_matrix() @ w - p))
    return w, float(max(resid, abs(w.sum() - 1.0)))


def lhv_feasible(behavior):
    """Decide local-model feasibility by the minimum-norm vertex mixture.

    Feasible: returns the mixture as a joint distribution over the 16
    outcome tuples.  Infeasible: returns the sign variant exceeding its
    classical bound by the largest margin.
    """
    w, resid = _mixture_weights(behavior)
    if resid <= _FEAS_TOL:
        return LhvResult(feasible=True, joint=JointDistribution(w.reshape(2, 2, 2, 2) / w.sum()))
    cert = _best_certificate(behavior)
    if cert.value <= cert.bound + _FEAS_TOL:
        raise BellforgeError(
            "mixture residual %g yet no facet is violated; behavior sits on the boundary"
            % resid
        )
    return LhvResult(feasible=False, certificate=cert)


def brute_force_feasible(behavior):
    """Decide feasibility by checking every sign variant against its bound.

    Independent of ``lhv_feasible``'s residual test; the two must agree.
    """
    cert = _best_certificate(behavior)
    if cert.value > cert.bound + _FEAS_TOL:
        return LhvResult(feasible=False, certificate=cert)
    w, resid = _mixture_weights(behavior)
    if resid > 10 * _FEAS_TOL:
        raise BellforgeError(
            "all facets satisfied but no mixture found (residual %g)" % resid
        )
    return LhvResult(feasible=True, joint=JointDistribution(w.reshape(2, 2, 2, 2) / w.sum()))


def quantum_behavior(state, settings):
    """Projective outcome probabilities of a 4-dim two-photon state.

    Outcome r projects onto (I + r A)/2, so with the Pauli tensor T
    p(r, s | i, j) = (T[I, I] + r T[A_i, I] + s T[I, B_j] + r s T[A_i, B_j]) / 4.
    """
    t = _correlation_tensor(check_state(state))
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    sign = np.array(_SIGNS, dtype=float)[:, None]
    # Pauli coefficients of the projectors, indexed (setting, outcome, mu)
    proj_a = 0.5 * (identity + sign * _axes(settings.a, settings.a_prime)[:, None, :])
    proj_b = 0.5 * (identity + sign * _axes(settings.b, settings.b_prime)[:, None, :])
    return Behavior(np.einsum("irm,mn,jsn->ijrs", proj_a, t, proj_b))


def behavior_from_correlators(e):
    """Behavior with the given four correlators and unbiased marginals.

    e is indexable as e[i][j] (or a flat length-4 sequence, row-major).
    Unbiased marginals make this the minimal completion: p(r, s | i, j)
    = (1 + r s E_ij) / 4, which is a valid no-signalling behavior for
    |E_ij| <= 1.
    """
    e = np.asarray(e, dtype=float).reshape(2, 2)
    if np.any(np.abs(e) > 1.0 + 1e-12):
        raise ValidationError("correlators must lie in [-1, 1]")
    p = np.empty((2, 2, 2, 2))
    for ri, r in enumerate(_SIGNS):
        for si, s in enumerate(_SIGNS):
            p[:, :, ri, si] = 0.25 * (1.0 + r * s * np.clip(e, -1.0, 1.0))
    return Behavior(p)


def pr_box():
    """The no-signalling extremal behavior with all four correlators +/-1, S=4:
    perfectly correlated except on the (2,2) pair."""
    return behavior_from_correlators([[1.0, 1.0], [1.0, -1.0]])
