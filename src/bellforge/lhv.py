"""Local-realism feasibility for 2-setting/2-outcome correlation experiments.

A *behavior* is the table p^{r,s}(a_i, b_j) of joint outcome probabilities
for the four setting pairs (i, j in {1,2}; r, s in {+1,-1}).  It admits a
local model iff it is a convex mixture of the 16 deterministic strategies
(fixed outcomes r_1, r_2, s_1, s_2), which is also equivalent (for
no-signalling behaviors) to all eight CHSH-type sign variants evaluating
to at most 2.

Two independent deciders are provided and must agree:

* ``lhv_feasible``        nonnegative least squares against the 16 vertices
* ``brute_force_feasible`` explicit facet check; the classical bound of
  every sign variant is recomputed by enumerating the vertices
"""

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import nnls

from .errors import BellforgeError, ValidationError
from .spinor import _axes, _correlation_tensor, check_state

_SIGNS = (1, -1)
_FEAS_TOL = 1e-7


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

    @classmethod
    def from_dict(cls, data):
        """Schema: {"p": {"11": [[p++, p+-], [p-+, p--]], "12": ..., ...}}."""
        try:
            tables = data["p"]
            p = np.empty((2, 2, 2, 2))
            for i in range(2):
                for j in range(2):
                    p[i, j] = np.asarray(tables["%d%d" % (i + 1, j + 1)], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("behavior file must map p.11..p.22 to 2x2 tables") from exc
        return cls(p)

    def to_dict(self):
        return {
            "p": {
                "%d%d" % (i + 1, j + 1): self.p[i, j].tolist()
                for i in range(2)
                for j in range(2)
            }
        }


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


_VMAT = None


def _vertex_matrix():
    """16x16 matrix: column v gives the behavior of deterministic strategy v.

    Row index flattens (i, j, ri, si); column index flattens (ir1, ir2, is1, is2).
    """
    global _VMAT
    if _VMAT is None:
        m = np.zeros((16, 16))
        for col, (r1, r2, s1, s2) in enumerate(_vertices()):
            r_of = (r1, r2)
            s_of = (s1, s2)
            for i in range(2):
                for j in range(2):
                    ri = _SIGNS.index(r_of[i])
                    si = _SIGNS.index(s_of[j])
                    m[((i * 2 + j) * 2 + ri) * 2 + si, col] = 1.0
        _VMAT = m
    return _VMAT


def _facet_variants():
    """The 8 CHSH sign patterns (odd number of minus signs)."""
    out = []
    for c in product(_SIGNS, repeat=4):
        if c[0] * c[1] * c[2] * c[3] == -1:
            out.append(np.array(c, dtype=float).reshape(2, 2))
    return out


def _best_certificate(behavior):
    e = behavior.correlators()
    best = None
    for coeffs in _facet_variants():
        value = float(np.sum(coeffs * e))
        # classical bound recomputed from the vertices, not assumed
        bounds = _vertex_matrix().T @ np.einsum(
            "ij,r,s->ijrs", coeffs, [1.0, -1.0], [1.0, -1.0]
        ).reshape(16)
        bound = float(np.max(bounds))
        if best is None or value - bound > best.value - best.bound:
            best = Certificate(coeffs=coeffs, value=value, bound=bound)
    return best


def _mixture_weights(behavior):
    """Least-squares vertex mixture; returns (weights, max marginal error)."""
    a = np.vstack([_vertex_matrix(), np.ones((1, 16))])
    y = np.concatenate([behavior.p.reshape(16), [1.0]])
    w, _ = nnls(a, y)
    resid = np.max(np.abs(_vertex_matrix() @ w - behavior.p.reshape(16)))
    return w, float(max(resid, abs(w.sum() - 1.0)))


def lhv_feasible(behavior):
    """Decide local-model feasibility by vertex-mixture least squares.

    Feasible: returns the mixture as a joint distribution over the 16
    outcome tuples.  Infeasible: returns the sign variant exceeding its
    classical bound by the largest margin.
    """
    w, resid = _mixture_weights(behavior)
    if resid <= _FEAS_TOL:
        w = np.clip(w, 0.0, None)
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
    w = np.clip(w, 0.0, None)
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
