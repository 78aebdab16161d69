import contextlib
import hashlib
import io
import itertools

import numpy as np
import pytest

from bellforge import cli, spinor
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


def test_analyzer_setting_wraps_angle_and_validates_kind():
    s = AnalyzerSetting(np.pi + 0.25, "L")
    assert s.theta == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        AnalyzerSetting(0.1, "Q")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            AnalyzerSetting(bad, "L")


def test_analyzer_observable_is_involutive():
    for kind in "LE":
        obs = spinor.observable_from_setting(AnalyzerSetting(0.37, kind))
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


def test_singlet_correlation_rotational_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        assert spinor.singlet_correlation(a, b) == pytest.approx(-np.dot(a, b), abs=1e-12)
    with pytest.raises(DomainError):
        spinor.singlet_correlation([1.0, 0.0, 0.0], [2.0, 0.0, 0.0])


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
    op = np.kron(spinor.observable_from_setting(sa), spinor.observable_from_setting(sb))
    return np.vdot(state, op @ state).real


def _kron_chsh(state, s):
    p = [_kron_correlation(state, x, y)
         for x, y in ((s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b), (s.a_prime, s.b_prime))]
    return abs(p[0] - p[1]) + abs(p[2] + p[3])


def _kron_singlet(a, b):
    def sigma(v):
        return v[0] * spinor.PAULI_X + v[1] * spinor.PAULI_Y + v[2] * spinor.PAULI_Z

    psi = spinor.singlet_state()
    return np.vdot(psi, np.kron(sigma(a), sigma(b)) @ psi).real


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
    for _ in range(100):
        a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        assert abs(spinor.singlet_correlation(a, b) - _kron_singlet(a, b)) < 1e-12


# sha256 prefixes of ``chsh --state S --kinds K --maximize`` stdout, K in
# KINDS order, recorded with the exhaustive 64^4 scan and the kron-built
# correlation tables (numpy 2.4, x86-64); the separable scan and the tensor
# must not move a byte
MAXIMIZE_DIGESTS = {
    "psi-plus": [
        "8dcc1b992ea44010", "0d96377c9d16109c", "d862dbc1aecc4b11", "e94f256029f809d3",  # LL..
        "9fcb1d375b736c75", "97331f400aeb6606", "c2b6793a68db9160", "8d26008fd62fd5b6",  # LE..
        "8603342f483397a8", "0c68e5084297670b", "56d5dcb36ff95462", "04ac7feee5780826",  # EL..
        "31ee5b84f652f519", "efaa40320217ffe5", "97625743ea37b063", "ec0f0f93b58c4a0a",  # EE..
    ],
    "psi-minus": [
        "e924a97a1bd4d301", "4c44d05310156ace", "2c32bb1ae57cbcda", "186caf1b26b4c193",  # LL..
        "ab9a101d511d40b3", "e5fa1830c36f90e7", "2cbf420d54dec761", "476459f0e72b14d0",  # LE..
        "89fa0a3d289d50bc", "e9b99064c2e3d881", "0ab9d5a6dd40483f", "5ed6522261ae11cb",  # EL..
        "61a011d4d61cac6f", "98038448f24f84e5", "86ae4063afe81505", "b0e3b1f20202d776",  # EE..
    ],
    "singlet": [
        "0bec3fdf7b0c44f0", "70885d7934a55ccd", "d096a812c44078de", "8715de03f150c91a",  # LL..
        "c35baec674f33dbc", "818addc30631a9cd", "730fa33ce28177e3", "dce163e067344740",  # LE..
        "7196b000bccb4c58", "cdc37a2ea06c61e4", "995a8563888f9ae6", "c74f2ae2cab08ee9",  # EL..
        "cf5f06ffd786e55f", "e25b3d21980f3f58", "9bbcaebc4c665171", "10d44c3fe79715a8",  # EE..
    ],
    "product": [
        "993158b9b8c1f114", "39ef7b77cb4c7d07", "c89ec1961c2f0c81", "e7e8a8e7e472bcd9",  # LL..
        "7dee92dffe801486", "0434500cc970a9c3", "f56e7e8f7310b9ac", "4a0248dfada58e8b",  # LE..
        "f3478c02ea5cab11", "0a7952b4bef2ff23", "222fc261f52fb741", "ff8d00cbfc312861",  # EL..
        "66eabf092b84877f", "7d45ac75967c94ca", "c545ef9e5d280cd8", "9b02df1c4bef3c49",  # EE..
    ],
}


def test_maximize_output_is_byte_identical_to_kron_and_full_scan():
    for state, digests in MAXIMIZE_DIGESTS.items():
        for kinds, want in zip(KINDS, digests):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["chsh", "--state", state, "--kinds", kinds, "--maximize"]) == 0
            assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == want, (state, kinds)
