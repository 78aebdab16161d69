import contextlib
import io
import itertools
import math

import numpy as np
import pytest

import _pins
from bellforge import cli, lhv, spinor
from bellforge.errors import DomainError, NormalizationError, ValidationError
from bellforge.spinor import AnalyzerSetting, ChshSettings


def _settings(a, b, ap, bp, kinds="LLLL"):
    ka, kb, kap, kbp = kinds
    return ChshSettings(
        a=AnalyzerSetting(a, ka),
        b=AnalyzerSetting(b, kb),
        a_prime=AnalyzerSetting(ap, kap),
        b_prime=AnalyzerSetting(bp, kbp),
    )


QUARTER = np.deg2rad([0.0, 22.5, 45.0, 67.5])


def test_states_normalized():
    for state in (spinor.psi_plus(), spinor.psi_minus(), spinor.product_xx()):
        assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-12)


def test_check_state_rejects_bad_norm_and_shape():
    with pytest.raises(NormalizationError):
        spinor.check_state(np.array([1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        spinor.check_state(np.zeros(3))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [
    [NAN, 0.0, 0.0, 1.0],
    [INF, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, complex(0.0, NAN)],
    [INF, -INF, 0.0, 0.0],
])
@pytest.mark.parametrize("call", [
    spinor.check_state,
    lambda st: spinor.chsh_value(st, _settings(*QUARTER)),
    lambda st: spinor.correlation(st, AnalyzerSetting(0.0), AnalyzerSetting(0.4)),
    lambda st: spinor.maximize_chsh(st, "LELE"),
    lambda st: lhv.quantum_behavior(st, _settings(*QUARTER)),
], ids=["check_state", "chsh_value", "correlation", "maximize_chsh", "quantum_behavior"])
def test_non_finite_states_are_rejected(bad, call):
    # the norm of these states is NaN, which compares false with any tolerance
    with pytest.raises(NormalizationError) as err:
        call(bad)
    assert err.value.exit_code == 2


def test_analyzer_setting_wraps_angle_and_validates_kind():
    s = AnalyzerSetting(np.pi + 0.25, "L")
    assert s.theta == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        AnalyzerSetting(0.1, "Q")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            AnalyzerSetting(bad, "L")


def reference_ket(s):
    """Transmitted single-photon state of the analyzer as a complex array:
    the ket whose sandwiches ``spinor._axes`` reproduces in closed form."""
    c, sn = np.cos(s.theta), np.sin(s.theta)
    if s.kind == spinor.LINEAR:
        return np.array([c, sn], dtype=complex)
    return np.array([c, 1.0j * sn], dtype=complex)


def _observable_from_setting(s):
    """The +/-1-valued observable |theta><theta| - |theta+pi/2><theta+pi/2|."""
    k = reference_ket(s)
    k_perp = reference_ket(AnalyzerSetting(s.theta + np.pi / 2.0, s.kind))
    return np.outer(k, k.conj()) - np.outer(k_perp, k_perp.conj())


def test_analyzer_observable_is_involutive():
    for kind in "LE":
        obs = _observable_from_setting(AnalyzerSetting(0.37, kind))
        assert np.allclose(obs @ obs, np.eye(2), atol=1e-12)
        assert np.allclose(obs, obs.conj().T, atol=1e-12)


def test_closed_form_correlations():
    rng = np.random.default_rng(11)
    sp, sm, prod = spinor.psi_plus(), spinor.psi_minus(), spinor.product_xx()
    for _ in range(300):
        a, b = rng.uniform(0.0, np.pi, 2)
        ll = spinor.correlation(sp, AnalyzerSetting(a, "L"), AnalyzerSetting(b, "L"))
        assert ll == pytest.approx(np.cos(2 * (a - b)), abs=1e-10)
        ee = spinor.correlation(sp, AnalyzerSetting(a, "E"), AnalyzerSetting(b, "E"))
        assert ee == pytest.approx(np.cos(2 * (a + b)), abs=1e-10)
        le = spinor.correlation(sp, AnalyzerSetting(a, "L"), AnalyzerSetting(b, "E"))
        assert le == pytest.approx(np.cos(2 * a) * np.cos(2 * b), abs=1e-10)
        sll = spinor.correlation(sm, AnalyzerSetting(a, "L"), AnalyzerSetting(b, "L"))
        assert sll == pytest.approx(-np.cos(2 * (a - b)), abs=1e-10)
        see = spinor.correlation(sm, AnalyzerSetting(a, "E"), AnalyzerSetting(b, "E"))
        assert see == pytest.approx(-np.cos(2 * (a - b)), abs=1e-10)
        pll = spinor.correlation(prod, AnalyzerSetting(a, "L"), AnalyzerSetting(b, "L"))
        assert pll == pytest.approx(np.cos(2 * a) * np.cos(2 * b), abs=1e-10)


def test_quarter_settings_reach_tsirelson_both_kinds():
    for kinds in ("LLLL", "EEEE"):
        s = _settings(*QUARTER, kinds=kinds)
        val = spinor.chsh_value(spinor.psi_plus(), s)
        assert val == pytest.approx(spinor.TSIRELSON, abs=1e-9)


def test_chsh_value_uses_minus_on_ab_prime():
    # putting the sign break on a different pair would change this value
    s = _settings(*QUARTER)
    state = spinor.psi_plus()
    p = [
        spinor.correlation(state, s.a, s.b),
        spinor.correlation(state, s.a, s.b_prime),
        spinor.correlation(state, s.a_prime, s.b),
        spinor.correlation(state, s.a_prime, s.b_prime),
    ]
    assert spinor.chsh_value(state, s) == pytest.approx(
        abs(p[0] - p[1]) + abs(p[2] + p[3]), abs=1e-14
    )


def test_maximize_matches_known_optima():
    _, v_ll = spinor.maximize_chsh(spinor.psi_plus(), "LLLL")
    assert v_ll == pytest.approx(spinor.TSIRELSON, abs=1e-6)
    _, v_mixed = spinor.maximize_chsh(spinor.psi_plus(), "LELE")
    assert v_mixed == pytest.approx(2.0, abs=1e-6)
    _, v_prod = spinor.maximize_chsh(spinor.product_xx(), "LLLL")
    assert v_prod == pytest.approx(2.0, abs=1e-6)


def test_maximize_is_deterministic():
    s1, v1 = spinor.maximize_chsh(spinor.psi_minus(), "LLEE")
    s2, v2 = spinor.maximize_chsh(spinor.psi_minus(), "LLEE")
    assert v1 == v2
    assert s1 == s2


def test_random_states_never_beat_tsirelson():
    rng = np.random.default_rng(5)
    kinds = np.array(list("LE"))
    for _ in range(2000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = raw / np.linalg.norm(raw)
        s = _settings(*rng.uniform(0.0, np.pi, 4), kinds="".join(rng.choice(kinds, 4)))
        assert spinor.chsh_value(state, s) <= spinor.TSIRELSON + 1e-9


def test_parse_kinds_validation():
    assert spinor._parse_kinds("LLEE") == ("L", "L", "E", "E")
    assert spinor._parse_kinds(("L", "E", "L", "E")) == ("L", "E", "L", "E")
    with pytest.raises(ValidationError):
        spinor._parse_kinds("LL")
    with pytest.raises(ValidationError):
        spinor._parse_kinds("LLLQ")


# ---------------------------------------------------------------------------
# the Pauli-tensor closed forms against a slow kron reference


KINDS = ["".join(k) for k in itertools.product("LE", repeat=4)]


def _kron_correlation(state, sa, sb):
    op = np.kron(_observable_from_setting(sa), _observable_from_setting(sb))
    return np.vdot(state, op @ state).real


def _kron_chsh(state, s):
    p = [_kron_correlation(state, x, y)
         for x, y in ((s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b), (s.a_prime, s.b_prime))]
    return abs(p[0] - p[1]) + abs(p[2] + p[3])


def test_tensor_closed_forms_match_kron_reference():
    rng = np.random.default_rng(13)
    for kinds in KINDS:
        for _ in range(25):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = raw / np.linalg.norm(raw)
            s = _settings(*rng.uniform(-2 * np.pi, 2 * np.pi, 4), kinds=kinds)
            for x, y in ((s.a, s.b), (s.a_prime, s.b_prime), (s.b, s.a)):
                assert abs(spinor.correlation(state, x, y) - _kron_correlation(state, x, y)) < 1e-12
            assert abs(spinor.chsh_value(state, s) - _kron_chsh(state, s)) < 1e-12


# ---------------------------------------------------------------------------
# the closed-form analyzer axes against the ket sandwich, bit for bit


def _ket_axes(*settings):
    """<k|sigma_mu|k> of each transmitted ket, with its I component dropped."""
    k = np.array([reference_ket(s) for s in settings])
    u = np.einsum("ri,mij,rj->rm", k.conj(), spinor._PAULI, k).real
    u[:, 0] = 0.0
    return u


def _ket_correlation(state, sa, sb):
    t = spinor._correlation_tensor(spinor.check_state(state))
    ua, ub = _ket_axes(sa, sb)
    return float(ua @ t @ ub)


def _ket_chsh(state, s):
    t = spinor._correlation_tensor(spinor.check_state(state))
    u = _ket_axes(s.a, s.a_prime, s.b, s.b_prime)
    (p_ab, p_abp), (p_apb, p_apbp) = u[:2] @ t @ u[2:].T
    return float(abs(p_ab - p_abp) + abs(p_apb + p_apbp))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_axes_and_chsh_are_bit_identical_to_the_ket_sandwich():
    rng = np.random.default_rng(22)
    states = [spinor.psi_plus(), spinor.psi_minus(), spinor.singlet_state(), spinor.product_xx()]
    for _ in range(10_000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(raw / np.linalg.norm(raw))
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, (len(states), 4))
    # the multiples of pi/32 in [-2 pi, 2 pi]; at multiples of pi the sine term is
    # an exact zero, whose sign bit counts too
    angles.flat[:129] = np.arange(-64, 65) * (np.pi / 32)
    kinds = rng.choice(list("LE"), (len(states), 4))
    got, want = {"axes": [], "chsh": [], "corr": []}, {"axes": [], "chsh": [], "corr": []}
    for state, theta, kind in zip(states, angles, kinds):
        s = _settings(*theta, kinds="".join(kind))
        four = (s.a, s.a_prime, s.b, s.b_prime)
        got["axes"].append(spinor._axes(*four))
        want["axes"].append(_ket_axes(*four))
        got["chsh"].append(spinor.chsh_value(state, s))
        want["chsh"].append(_ket_chsh(state, s))
        for x, y in ((s.a, s.b), (s.b_prime, s.a_prime)):
            got["corr"].append(spinor.correlation(state, x, y))
            want["corr"].append(_ket_correlation(state, x, y))
    for key in got:
        assert np.array_equal(_bits(got[key]), _bits(want[key])), key


# ---------------------------------------------------------------------------
# the exact CHSH maximum on the analyzers' circles, the oracle for
# maximize_chsh (Horodecki, Horodecki & Horodecki 1995)

_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _circle(kind):
    """Orthonormal rows spanning a kind's Bloch-vector circle, over (I, Z, X, Y)."""
    c = np.zeros((2, 4))
    c[0, 1] = c[1, spinor._SINE_SLOT[kind]] = 1.0
    return c


def _exact_chsh_max(state, kinds):
    """Max over all angles of chsh_value for kinds (a, b, a', b'), once for
    each side whose two settings share a kind (none, one or two values).

    With b, b' on one circle, b - b' = 2 sin(phi) R w and b + b' =
    2 cos(phi) w for a unit w and the 90-degree rotation R, and the best a
    and a' on their circles give |M_a (b - b')| + |M_a' (b + b')| with
    M = (circle of a) T (circle of b)^T.  Maximizing over phi and w leaves
    2 sqrt(lambda_max(R^T M_a^T M_a R + M_a'^T M_a')).  With a, a' on one
    circle the same holds with the sides swapped, after choosing the signs
    that open the two absolute values.
    """
    t = spinor._correlation_tensor(spinor.check_state(state))
    ka, kb, kap, kbp = kinds
    gram = []
    if kb == kbp:
        m, mp = (_circle(k) @ t @ _circle(kb).T for k in (ka, kap))
        gram.append(_ROT90.T @ m.T @ m @ _ROT90 + mp.T @ mp)
    if ka == kap:
        n, npr = (_circle(k) @ t.T @ _circle(ka).T for k in (kb, kbp))
        gram.append(n.T @ n + _ROT90.T @ npr.T @ npr @ _ROT90)
    return [2.0 * math.sqrt(np.linalg.eigvalsh(g)[-1]) for g in gram]


COVERED_KINDS = [k for k in KINDS if k[0] == k[2] or k[1] == k[3]]


def test_exact_chsh_max_known_values():
    assert len(COVERED_KINDS) == 12
    for state, kinds, want in ((spinor.psi_plus(), "LLLL", spinor.TSIRELSON),
                               (spinor.psi_plus(), "EEEE", spinor.TSIRELSON),
                               (spinor.psi_plus(), "LELE", 2.0),
                               (spinor.product_xx(), "LLLL", 2.0)):
        assert _exact_chsh_max(state, kinds) == pytest.approx([want, want], abs=1e-12)
    assert _exact_chsh_max(spinor.psi_plus(), "LLEE") == []


def test_maximize_chsh_reaches_the_exact_maximum():
    # every covered kind string on the named states and 20 seeded random
    # ones; shortfall = exact maximum - maximize_chsh value
    rng = np.random.default_rng(0)
    states = [spinor.psi_plus(), spinor.psi_minus(), spinor.product_xx()]
    for _ in range(20):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(raw / np.linalg.norm(raw))
    shortfall = []
    for state in states:
        for kinds in COVERED_KINDS:
            exact = _exact_chsh_max(state, kinds)
            assert max(exact) - min(exact) < 1e-12, kinds
            _, value = spinor.maximize_chsh(state, kinds)
            shortfall.append(exact[0] - value)
    shortfall = np.array(shortfall)
    assert shortfall.min() > -1e-12  # no search beats the maximum
    assert shortfall.max() < 1e-6
    assert np.count_nonzero(shortfall > 1e-10) <= 0.01 * shortfall.size


# ``chsh --state S --kinds K --maximize`` stdout for every state and K in
# KINDS, recorded with the exhaustive 64^4 scan and the kron-built
# correlation tables (numpy 2.4, x86-64); the separable scan and the tensor
# must not move a byte
MAXIMIZE_STATES = ["psi-plus", "psi-minus", "singlet", "product"]


def test_maximize_output_is_byte_identical_to_kron_and_full_scan():
    moved = []
    for state in MAXIMIZE_STATES:
        for kinds in KINDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["chsh", "--state", state, "--kinds", kinds, "--maximize"])
            moved += _pins.compare("chsh_maximize_stdout", (state, kinds),
                                   _pins.stdout(code, out.getvalue()))
    assert not moved, "\n".join(moved)
