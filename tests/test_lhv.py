import numpy as np
import pytest

from bellforge import lhv, spinor
from bellforge.errors import ValidationError
from bellforge.spinor import AnalyzerSetting, ChshSettings


QUARTER = np.deg2rad([0.0, 22.5, 45.0, 67.5])


def _quarter_settings():
    a, b, ap, bp = QUARTER
    return ChshSettings(
        a=AnalyzerSetting(a),
        b=AnalyzerSetting(b),
        a_prime=AnalyzerSetting(ap),
        b_prime=AnalyzerSetting(bp),
    )


def _random_vertex_mixture(rng):
    w = rng.random(16)
    w /= w.sum()
    q = lhv.JointDistribution(w.reshape(2, 2, 2, 2))
    return q.marginal_behavior()


def _random_no_signalling(rng):
    # mix a vertex model with a PR box; stays no-signalling, spans both sides
    lam = rng.random()
    p = lam * lhv.pr_box().p + (1.0 - lam) * _random_vertex_mixture(rng).p
    return lhv.Behavior(p)


def test_behavior_validation():
    with pytest.raises(ValidationError):
        lhv.Behavior(np.zeros((2, 2, 2, 2)))
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0] = [[0.5, 0.0], [0.0, 0.5]]
    p[0, 1] = [[0.7, 0.0], [0.0, 0.3]]  # side-A marginal now depends on b
    with pytest.raises(ValidationError):
        lhv.Behavior(p)


def test_vertex_models_are_feasible():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = _random_vertex_mixture(rng)
        res = lhv.lhv_feasible(b)
        assert res.feasible
        assert res.joint is not None
        back = res.joint.marginal_behavior()
        assert np.max(np.abs(back.p - b.p)) < 1e-7


def test_quantum_optimum_is_infeasible_with_certificate():
    b = lhv.quantum_behavior(spinor.psi_plus(), _quarter_settings())
    res = lhv.lhv_feasible(b)
    assert not res.feasible
    assert res.certificate is not None
    assert res.certificate.value == pytest.approx(spinor.TSIRELSON, abs=1e-6)
    assert res.certificate.bound == pytest.approx(2.0, abs=1e-12)
    assert res.certificate.evaluate(b) == pytest.approx(res.certificate.value, abs=1e-12)


def test_pr_box_maximally_infeasible():
    res = lhv.lhv_feasible(lhv.pr_box())
    assert not res.feasible
    assert res.certificate.value == pytest.approx(4.0, abs=1e-12)


def test_nnls_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    both = {True: 0, False: 0}
    for _ in range(300):
        b = _random_no_signalling(rng)
        fast = lhv.lhv_feasible(b).feasible
        slow = lhv.brute_force_feasible(b).feasible
        assert fast == slow
        both[fast] += 1
    assert both[True] > 0 and both[False] > 0


def test_quantum_behaviors_agree_between_methods():
    rng = np.random.default_rng(9)
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = raw / np.linalg.norm(raw)
        angles = rng.uniform(0.0, np.pi, 4)
        settings = ChshSettings(
            a=AnalyzerSetting(angles[0]),
            b=AnalyzerSetting(angles[1]),
            a_prime=AnalyzerSetting(angles[2]),
            b_prime=AnalyzerSetting(angles[3]),
        )
        b = lhv.quantum_behavior(state, settings)
        assert lhv.lhv_feasible(b).feasible == lhv.brute_force_feasible(b).feasible


def test_behavior_from_correlators():
    e = [0.3, -0.2, 0.6, 0.1]
    b = lhv.behavior_from_correlators(e)
    assert np.allclose(b.correlators().ravel(), e, atol=1e-12)
    # unbiased marginals by construction
    assert np.allclose(b.p.sum(axis=3), 0.5, atol=1e-12)
    with pytest.raises(ValidationError):
        lhv.behavior_from_correlators([1.2, 0.0, 0.0, 0.0])


def test_quantum_behavior_matches_correlations():
    settings = _quarter_settings()
    state = spinor.psi_plus()
    b = lhv.quantum_behavior(state, settings)
    e = b.correlators()
    pairs = [
        (0, 0, settings.a, settings.b),
        (0, 1, settings.a, settings.b_prime),
        (1, 0, settings.a_prime, settings.b),
        (1, 1, settings.a_prime, settings.b_prime),
    ]
    for i, j, sa, sb in pairs:
        assert e[i, j] == pytest.approx(spinor.correlation(state, sa, sb), abs=1e-12)


def _kron_behavior(state, settings):
    """p[i, j, ri, si] = <state| Pi_ri(a_i) (x) Pi_si(b_j) |state>, by np.kron."""
    def projectors(s):
        k = spinor.analyzer_ket(s)
        plus = np.outer(k, k.conj())
        return plus, np.eye(2) - plus

    sides = ((settings.a, settings.a_prime), (settings.b, settings.b_prime))
    p = np.empty((2, 2, 2, 2))
    for i, sa in enumerate(sides[0]):
        for j, sb in enumerate(sides[1]):
            for ri, pa in enumerate(projectors(sa)):
                for si, pb in enumerate(projectors(sb)):
                    p[i, j, ri, si] = np.vdot(state, np.kron(pa, pb) @ state).real
    return p


def test_quantum_behavior_matches_kron_reference():
    rng = np.random.default_rng(21)
    states = [spinor.psi_plus(), spinor.psi_minus(), spinor.product_xx()]
    for _ in range(60):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(raw / np.linalg.norm(raw))
    for k, state in enumerate(states):
        kinds = rng.choice(list("LE"), 4)
        angles = rng.uniform(-np.pi, np.pi, 4)
        settings = ChshSettings(*(AnalyzerSetting(t, kd) for t, kd in zip(angles, kinds)))
        got = lhv.quantum_behavior(state, settings).p
        assert np.max(np.abs(got - _kron_behavior(state, settings))) < 1e-12, k


def _sparse_feasible_behaviors(rng, count):
    """Vertex mixtures concentrated on a few vertices, alone or mixed with a
    PR box, kept when local: their minimum-norm joints sit on the boundary
    q >= 0, so the active set is exercised."""
    out = []
    while len(out) < count:
        w = rng.dirichlet(np.full(16, 0.15))
        p = (lhv._vertex_matrix() @ w).reshape(2, 2, 2, 2)
        lam = rng.choice([0.0, rng.uniform(0.0, 0.3)])
        b = lhv.Behavior(lam * lhv.pr_box().p + (1.0 - lam) * p)
        if lhv.brute_force_feasible(b).feasible:
            out.append(b)
    return out


def _kkt_residual(q, zero_tol=1e-12):
    """How far q is from satisfying the optimality conditions of
    min ||q||^2 s.t. V q = p, q >= 0: q = V^T y + mu with mu >= 0 and
    mu_i = 0 wherever q_i > 0.  Solved as a nonnegative least-squares
    problem in (y+, y-, mu on the zero set)."""
    from scipy.optimize import nnls

    v = lhv._vertex_matrix()
    zero = q <= zero_tol
    a = np.hstack([v.T, -v.T, np.eye(16)[:, zero]])
    return nnls(a, q)[1]


def test_min_norm_joint_reproduces_p_and_is_optimal():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(3)
    behaviors = _sparse_feasible_behaviors(rng, 120)
    behaviors += [b for b in (_random_no_signalling(rng) for _ in range(120))
                  if lhv.brute_force_feasible(b).feasible]
    on_boundary = 0
    for b in behaviors:
        q = lhv.lhv_feasible(b).joint.q.reshape(16)
        assert np.max(np.abs(lhv._vertex_matrix() @ q - b.p.reshape(16))) <= 1e-12
        assert _kkt_residual(q) <= 1e-12
        on_boundary += bool(np.any(q == 0.0))
    assert on_boundary > 50


def test_kkt_check_rejects_other_mixtures():
    """The optimality check is not vacuous: a different valid mixture of the
    same behavior (the midpoint towards another vertex mixture) fails it."""
    pytest.importorskip("scipy")
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(16))
    b = lhv.JointDistribution(w.reshape(2, 2, 2, 2)).marginal_behavior()
    q = lhv.lhv_feasible(b).joint.q.reshape(16)
    assert _kkt_residual(q) <= 1e-12
    other = 0.5 * (q + w)
    assert np.max(np.abs(lhv._vertex_matrix() @ other - b.p.reshape(16))) <= 1e-12
    assert _kkt_residual(other) > 1e-6


def test_min_norm_joint_is_stable_under_ulp_changes():
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for b in _sparse_feasible_behaviors(rng, 60):
        q = lhv.lhv_feasible(b).joint.q
        for _ in range(3):
            p = b.p * (1.0 + 4.0 * eps * rng.uniform(-1.0, 1.0, b.p.shape))
            moved = lhv.lhv_feasible(lhv.Behavior(p)).joint.q
            assert np.max(np.abs(moved - q)) <= 1e-14


def test_near_boundary_behaviors_agree_between_deciders():
    """Correlator behaviors straddling the local bound S = 2."""
    for s in (1.9, 1.99, 1.999999, 2.0, 2.000001, 2.01, 2.1):
        e = [[s / 4.0, s / 4.0], [s / 4.0, -s / 4.0]]
        b = lhv.behavior_from_correlators(e)
        assert lhv.lhv_feasible(b).feasible == lhv.brute_force_feasible(b).feasible == (s <= 2.0)
