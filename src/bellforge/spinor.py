"""Two-photon polarization states, dichotomic analyzers, and CHSH values.

States are complex 4-vectors in the product basis |xx>, |xy>, |yx>, |yy>
(first slot is photon 1).  An analyzer is a transmission axis theta plus a
kind: ``L`` transmits cos(theta)|x> + sin(theta)|y>, ``E`` transmits
cos(theta)|x> + i sin(theta)|y>.  The associated +/-1 observable is
|theta><theta| - |theta+pi/2><theta+pi/2|, which works out to

    A_L(theta) = cos(2 theta) Z + sin(2 theta) X
    A_E(theta) = cos(2 theta) Z + sin(2 theta) Y

in the Pauli basis, i.e. A = u . (I, Z, X, Y) with u = (0, cos 2theta,
sin 2theta, 0) or (0, cos 2theta, 0, sin 2theta).  Everything downstream
reads one real tensor per state, T[mu, nu] = <state| sigma_mu (x) sigma_nu
|state> over (I, Z, X, Y): P(a, b) = u_a^T T u_b, and the CHSH scan
tables take their four coefficients from T.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NormalizationError, ValidationError

LINEAR = "L"
ELLIPTIC = "E"

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
# sigma_mu for mu = I, Z, X, Y: the index order of every correlation tensor
_PAULI = np.array([np.eye(2), PAULI_Z, PAULI_X, PAULI_Y])
# index of the sin(2 theta) Pauli of each analyzer kind
_SINE_SLOT = {LINEAR: 2, ELLIPTIC: 3}

TSIRELSON = 2.0 * np.sqrt(2.0)

_NORM_TOL = 1e-9
_GRID_N = 64  # scan step pi/64 per angle
_DESCENT_TOL = 1e-10  # golden-section bracket width that ends a line search
_DESCENT_SWEEPS = 80  # most coordinate sweeps of the refinement


def psi_plus():
    """(|xx> + |yy>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def psi_minus():
    """(|xy> - |yx>)/sqrt(2)."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def singlet_state():
    """The spin singlet mapped onto the same 4-dim space as psi_minus."""
    return psi_minus()


def product_xx():
    """|xx>, a separable reference state."""
    return np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def check_state(state):
    state = np.asarray(state, dtype=complex)
    if state.shape != (4,):
        raise ValidationError("state must be a complex 4-vector")
    if abs(np.vdot(state, state).real - 1.0) > _NORM_TOL:
        raise NormalizationError(
            "state norm^2 = %.12g differs from 1 beyond 1e-9" % np.vdot(state, state).real
        )
    return state


@dataclass(frozen=True)
class AnalyzerSetting:
    """Transmission axis (radians, reduced mod pi) and analyzer kind."""

    theta: float
    kind: str = LINEAR

    def __post_init__(self):
        if self.kind not in (LINEAR, ELLIPTIC):
            raise ValidationError("analyzer kind must be 'L' or 'E'")
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise DomainError("analyzer angle must be finite, got %r" % theta)
        object.__setattr__(self, "theta", theta % np.pi)


@dataclass(frozen=True)
class ChshSettings:
    a: AnalyzerSetting
    a_prime: AnalyzerSetting
    b: AnalyzerSetting
    b_prime: AnalyzerSetting


def analyzer_ket(s):
    """Transmitted single-photon state of the analyzer."""
    c, sn = np.cos(s.theta), np.sin(s.theta)
    if s.kind == LINEAR:
        return np.array([c, sn], dtype=complex)
    return np.array([c, 1.0j * sn], dtype=complex)


def observable_from_setting(s):
    """The +/-1-valued observable |theta><theta| - |theta+pi/2><theta+pi/2|."""
    k = analyzer_ket(s)
    k_perp = analyzer_ket(AnalyzerSetting(s.theta + np.pi / 2.0, s.kind))
    return np.outer(k, k.conj()) - np.outer(k_perp, k_perp.conj())


def _correlation_tensor(state):
    """T[mu, nu] = <state| sigma_mu (x) sigma_nu |state> of a checked state."""
    psi = state.reshape(2, 2)
    return np.einsum("ij,mik,njl,kl->mn", psi.conj(), _PAULI, _PAULI, psi).real


def _axes(*settings):
    """Rows u with A(s) = u . sigma, one per setting: A = 2|k><k| - I for the
    transmitted ket k, so u is <k|sigma_mu|k> with its I component dropped."""
    k = np.array([analyzer_ket(s) for s in settings])
    u = np.einsum("ri,mij,rj->rm", k.conj(), _PAULI, k).real
    u[:, 0] = 0.0
    return u


def correlation(state, sa, sb):
    """<state| A(sa) (x) B(sb) |state>, a real number in [-1, 1]."""
    t = _correlation_tensor(check_state(state))
    ua, ub = _axes(sa, sb)
    return float(ua @ t @ ub)


def singlet_correlation(a_vec, b_vec):
    """Spin correlation <sigma.a (x) sigma.b> on the singlet; equals -a.b."""
    a_vec = np.asarray(a_vec, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    for v in (a_vec, b_vec):
        if v.shape != (3,) or abs(np.dot(v, v) - 1.0) > 1e-9:
            raise DomainError("direction must be a unit 3-vector (within 1e-9)")
    u = np.zeros((2, 4))
    u[:, [2, 3, 1]] = a_vec, b_vec  # x, y, z go to the X, Y, Z slots
    return float(u[0] @ _correlation_tensor(singlet_state()) @ u[1])


def chsh_value(state, settings):
    """|P(a,b) - P(a,b')| + |P(a',b) + P(a',b')|."""
    t = _correlation_tensor(check_state(state))
    u = _axes(settings.a, settings.a_prime, settings.b, settings.b_prime)
    (p_ab, p_abp), (p_apb, p_apbp) = u[:2] @ t @ u[2:].T
    return float(abs(p_ab - p_abp) + abs(p_apb + p_apbp))


def _sandwiches(t, kind_a, kind_b):
    """The four entries of T, in this order, that generate P(theta_a, theta_b).

    P = cz_a cz_b <ZZ> + cz_a sz_b <ZQ> + sz_a cz_b <PZ> + sz_a sz_b <PQ>
    with P = X or Y per side kind and cz = cos 2theta, sz = sin 2theta.
    """
    p, q = _SINE_SLOT[kind_a], _SINE_SLOT[kind_b]
    return t[1, 1], t[1, q], t[p, 1], t[p, q]


def _corr_matrix(t, cz_a, sz_a, cz_b, sz_b):
    zz, zq, pz, pq = t
    return (
        zz * np.outer(cz_a, cz_b)
        + zq * np.outer(cz_a, sz_b)
        + pz * np.outer(sz_a, cz_b)
        + pq * np.outer(sz_a, sz_b)
    )


def _corr_scalar(t, theta_a, theta_b):
    zz, zq, pz, pq = t
    cz_a, sz_a = np.cos(2 * theta_a), np.sin(2 * theta_a)
    cz_b, sz_b = np.cos(2 * theta_b), np.sin(2 * theta_b)
    return (
        zz * cz_a * cz_b
        + zq * cz_a * sz_b
        + pz * sz_a * cz_b
        + pq * sz_a * sz_b
    )


def _parse_kinds(kinds):
    kinds = tuple(kinds)
    if len(kinds) != 4 or any(k not in (LINEAR, ELLIPTIC) for k in kinds):
        raise ValidationError("kinds must be four letters from {L, E}, ordered a,b,a',b'")
    return kinds


def chsh_settings(angles, kinds):
    """The four analyzer settings of a CHSH experiment from four angles and
    four kinds, both in the order (a, b, a', b')."""
    ka, kb, kap, kbp = _parse_kinds(kinds)
    a, b, ap, bp = angles
    return ChshSettings(
        a=AnalyzerSetting(a, ka),
        b=AnalyzerSetting(b, kb),
        a_prime=AnalyzerSetting(ap, kap),
        b_prime=AnalyzerSetting(bp, kbp),
    )


def maximize_chsh(state, kinds):
    """Maximize the CHSH value over analyzer angles for fixed kinds.

    ``kinds`` holds the four analyzer kinds in the order (a, b, a', b').
    Exhaustive scan on a step-pi/64 grid, then coordinate-descent
    refinement.  Deterministic: the scan covers the whole torus and ties
    break to the lexicographically smallest (a, a', b, b') tuple.
    """
    state = check_state(state)
    ka, kb, kap, kbp = _parse_kinds(kinds)

    t = _correlation_tensor(state)
    theta = np.arange(_GRID_N) * (np.pi / _GRID_N)
    cz, sz = np.cos(2 * theta), np.sin(2 * theta)
    pairs = ((ka, kb), (ka, kbp), (kap, kb), (kap, kbp))  # ab, ab', a'b, a'b'
    t_ab, t_abp, t_apb, t_apbp = sandwiches = [_sandwiches(t, x, y) for x, y in pairs]
    tables = [_corr_matrix(sw, cz, sz, cz, sz) for sw in sandwiches]
    _, ia, iap, ib, ibp = _kernels.chsh_scan(*tables)
    angles = np.array([theta[ia], theta[ib], theta[iap], theta[ibp]])

    def objective(v):
        a, b, ap, bp = v
        return abs(_corr_scalar(t_ab, a, b) - _corr_scalar(t_abp, a, bp)) + abs(
            _corr_scalar(t_apb, ap, b) + _corr_scalar(t_apbp, ap, bp)
        )

    angles, value = _coordinate_descent(objective, angles, np.pi / _GRID_N)
    return chsh_settings(angles, kinds), float(value)


def _coordinate_descent(f, x0, h):
    """Maximize f by repeated golden-section line searches per coordinate."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x = np.array(x0, dtype=float)
    best = f(x)
    for _ in range(_DESCENT_SWEEPS):
        improved = best
        for k in range(x.shape[0]):
            lo, hi = x[k] - h, x[k] + h
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            xc = x.copy()
            xc[k] = c
            fc = f(xc)
            xc[k] = d
            fd = f(xc)
            while hi - lo > _DESCENT_TOL:
                if fc > fd:
                    hi, d, fd = d, c, fc
                    c = hi - invphi * (hi - lo)
                    xc[k] = c
                    fc = f(xc)
                else:
                    lo, c, fc = c, d, fd
                    d = lo + invphi * (hi - lo)
                    xc[k] = d
                    fd = f(xc)
            mid = 0.5 * (lo + hi)
            xc[k] = mid
            fm = f(xc)
            if fm > best:
                best = fm
                x[k] = mid
        if best - improved < 1e-12:
            break
    return x, best
