import hashlib
import itertools

import numpy as np
import pytest

from bellforge import causal, waves
from bellforge.errors import DomainError, ValidationError


def test_cdf_inverse_plateau_midpoint():
    edges = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    f = np.array([[0.0, 0.5, 0.5, 0.5, 1.0]]).T  # one column, flat over [1, 3]
    out = causal._cdf_inverse(edges, f, np.array([[0.5]]))
    assert out[0, 0] == pytest.approx(2.0)
    # interior interpolation
    out = causal._cdf_inverse(edges, f, np.array([[0.25, 0.75]]).T)
    assert out[0, 0] == pytest.approx(0.5)
    assert out[1, 0] == pytest.approx(3.5)
    # clipping keeps out-of-range queries on the support
    out = causal._cdf_inverse(edges, f, np.array([[-0.1, 1.1]]).T)
    assert 0.0 <= out[0, 0] <= 4.0 and 0.0 <= out[1, 0] <= 4.0


def test_group_fine_axis():
    with pytest.raises(ValidationError):
        causal._group_fine_axis(np.ones(8), 3)
    a = np.arange(1.0, 7.0)  # factor 2, three coarse cells
    got = causal._group_fine_axis(a, 2)
    want = np.array([1.0 + 0.5 * 2.0, 0.5 * 2.0 + 3.0 + 0.5 * 4.0, 0.5 * 4.0 + 5.0 + 0.5 * 6.0])
    assert np.allclose(got, want, atol=1e-14)
    # grouping conserves mass when the boundary fine cells are empty
    b = np.exp(-np.linspace(-3, 3, 64) ** 2)
    b[:2] = b[-2:] = 0.0
    g = causal._group_fine_axis(b, 4)
    assert g.sum() == pytest.approx(b.sum(), rel=1e-12)


def _ref_group_fine_axis(fine, factor):
    """Coarse cell k, one fine cell at a time: fine cells factor*k - factor/2
    .. factor*k + factor/2, the two straddling its edges at half weight."""
    half = factor // 2
    out = []
    for k in range(len(fine) // factor):
        total = 0.0
        for j in range(factor * k - half, factor * k + half + 1):
            if 0 <= j < len(fine):
                total += (0.5 if abs(j - factor * k) == half else 1.0) * fine[j]
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_group_fine_axis_matches_per_cell_sum(factor):
    rng = np.random.default_rng(factor)
    fine = rng.random((6 * factor, 5))
    want = np.stack([_ref_group_fine_axis(fine[:, c], factor) for c in range(5)], axis=1)
    tol = (factor + 1) * np.finfo(float).eps  # a sum of at most factor + 1 masses
    np.testing.assert_allclose(causal._group_fine_axis(fine, factor, axis=0), want, rtol=tol)
    for rows in (fine.T, np.ascontiguousarray(fine.T)):  # strided and contiguous
        np.testing.assert_allclose(causal._group_fine_axis(rows, factor, axis=1), want.T, rtol=tol)
    np.testing.assert_allclose(causal._group_fine_axis(fine[:, 0], factor), want[:, 0], rtol=tol)


def _skewed_state(n, xmax):
    """A complex 2-D state that is not symmetric under x1 <-> x2, so the two
    orderings build different chains."""
    ax = waves.position_axis(n, xmax)
    x1, x2 = ax.points()[:, None], ax.points()[None, :]
    values = np.exp(
        -(x1**2 + 2.0 * x2**2 - 1.2 * x1 * x2) / 4.0
        + 1j * (0.8 * x1 - 0.3 * x1 * x2 + 0.2 * x2**2)
    )
    norm2 = np.sum(np.abs(values) ** 2) * ax.spacing**2
    return waves.GridWavefunction((ax, ax), values / np.sqrt(norm2), {})


def _ref_double_fine_masses(psi, first, factor):
    """Both axes padded at once and the (factor*n0, factor*n1) array
    transformed along axis 0, then axis 1."""
    ax0, ax1 = psi.axes
    padded = np.zeros((factor * ax0.n, factor * ax1.n), dtype=complex)
    s0 = (factor - 1) * ax0.n // 2
    s1 = (factor - 1) * ax1.n // 2
    padded[s0 : s0 + ax0.n, s1 : s1 + ax1.n] = psi.values
    big = waves.GridWavefunction(
        (waves.Axis(factor * ax0.n, ax0.spacing), waves.Axis(factor * ax1.n, ax1.spacing)),
        padded,
        {},
    )
    big_mm = waves.fourier(waves.fourier(big, axis=0), axis=1)
    masses = big_mm.density() * big_mm.axes[0].spacing * big_mm.axes[1].spacing
    return causal._group_fine_axis(masses if first == 0 else masses.T, factor, axis=0)


def _swapped(psi):
    """psi with its two axes exchanged, as a contiguous copy."""
    return waves.GridWavefunction(psi.axes[::-1], np.ascontiguousarray(psi.values.T), {})


@pytest.mark.parametrize("n", [32, 64])
def test_double_fine_masses_equal_fully_padded_transform(n):
    for psi in (_skewed_state(n, 8.0), waves.correlated_gaussian_2d(rho=0.5, n=n, xmax=8.0)):
        for s in (psi, _swapped(psi)):
            np.testing.assert_array_equal(
                causal._double_fine_masses(waves.padded_transform(s, 0, 4)),
                _ref_double_fine_masses(s, 0, 4),
            )


# sha256 prefixes of the map tables of rs_map_2d on _skewed_state (map1_nodes,
# map1_edges, map2_nodes and map2_edges, in that order), epsilon pairs in the
# order (1, 1), (1, -1), (-1, 1), (-1, -1); recorded with the complex-key
# table search (numpy 2.4, x86-64), which the merged search must match bit
# for bit
MAP_2D_DIGESTS = {
    (64, "px"): ["f29a83a133e86666", "766696fa88ab8d47", "1b366dbfa1f74040", "0d3c3b93fb9339a3"],
    (64, "xp"): ["48adae32d5771577", "12055af8bae45c98", "bb163d0764df9ef0", "9c4bb188108f0187"],
    (128, "px"): ["13cd551ba939f251", "cad1d9b7aaaf40fa", "931e6305a0b89199", "f2c6619c544d0f2f"],
    (128, "xp"): ["f08ff6419e6dcf06", "b79e8cad72eea8d7", "8229797e6eaf925f", "9f6081b519305f69"],
}


_CHAIN_TABLES = ("map1_nodes", "map1_edges", "map2_nodes", "map2_edges")


@pytest.mark.parametrize("n, ordering", sorted(MAP_2D_DIGESTS))
def test_rs_map_2d_tables_pinned(n, ordering):
    psi = _skewed_state(n, 8.0 if n == 64 else 10.0)
    for (e1, e2), want in zip(itertools.product((1, -1), repeat=2), MAP_2D_DIGESTS[n, ordering]):
        chain = causal.rs_map_2d(psi, e1, e2, ordering)
        digest = hashlib.sha256()
        for name in _CHAIN_TABLES:
            digest.update(getattr(chain, name).tobytes())
        assert digest.hexdigest()[:16] == want, (n, ordering, e1, e2)


# sha256 prefixes of the map tables of rs_map_1d at n=2048 (p_hat, then
# p_hat_edges), for epsilon 1 and -1; recorded while the 1-D map had its own
# inversion call, which the one-column conditional map must match bit for bit
MAP_1D_DIGESTS = {
    "gaussian": ["c9299cc3360ac44e", "bd2f4b64955ef5e4"],
    "two-gaussian": ["93e40cc465c3f18b", "531f2d87f42a117f"],
    "excited": ["81208f0a9a60f572", "02ce13cfaa7f7e9a"],
}

_STATES_2048 = {
    "gaussian": lambda: waves.gaussian_packet(n=2048),
    "two-gaussian": lambda: waves.two_gaussian_packet(n=2048),
    "excited": lambda: waves.excited_state(1, n=2048),
}


@pytest.mark.parametrize("state", sorted(MAP_1D_DIGESTS))
def test_rs_map_1d_tables_pinned(state):
    psi = _STATES_2048[state]()
    for epsilon, want in zip((1, -1), MAP_1D_DIGESTS[state]):
        m = causal.rs_map_1d(psi, epsilon)
        digest = hashlib.sha256()
        digest.update(m.p_hat.tobytes())
        digest.update(m.p_hat_edges.tobytes())
        assert digest.hexdigest()[:16] == want, (state, epsilon)


def test_momentum_field_of_boosted_packet():
    psi = waves.gaussian_packet(p0=1.7, n=512, xmax=12.0)
    field = causal.debb_momentum_field(psi)
    ok = np.abs(psi.values) > 1e-6
    assert np.max(np.abs(field[ok] - 1.7)) < 1e-8
    with pytest.raises(ValidationError):
        causal.debb_momentum_field(waves.fourier(psi))


def test_map_validation():
    psi = waves.gaussian_packet(n=256, xmax=10.0)
    with pytest.raises(DomainError):
        causal.rs_map_1d(psi, epsilon=0)
    psi2 = waves.correlated_gaussian_2d(n=64, xmax=8.0)
    with pytest.raises(ValidationError):
        causal.rs_map_1d(psi2)
    with pytest.raises(ValidationError):
        causal.rs_map_2d(psi2, ordering="yy")
    with pytest.raises(DomainError):
        causal.rs_map_2d(psi2, epsilon1=2)
    with pytest.raises(ValidationError):
        causal.verify_marginals(object())


def test_map_monotone_and_edge_consistent():
    psi = waves.two_gaussian_packet()
    m = causal.rs_map_1d(psi, +1)
    assert np.all(np.diff(m.p_hat_edges) >= 0.0)
    assert np.allclose(m.evaluate(m.x_edges), m.p_hat_edges, atol=1e-12)
    m_neg = causal.rs_map_1d(psi, -1)
    assert np.all(np.diff(m_neg.p_hat_edges) <= 0.0)


def test_epsilon_reflection_for_real_states():
    # real wavefunction: symmetric momentum density, so the antitone map
    # is the exact reflection of the monotone one
    psi = waves.two_gaussian_packet()
    mp = causal.rs_map_1d(psi, +1)
    mm = causal.rs_map_1d(psi, -1)
    x = np.linspace(-6.0, 6.0, 101)
    assert np.max(np.abs(mm.evaluate(x) + mp.evaluate(x))) < 1e-9


def test_gaussian_map_converges_to_linear():
    # stationary Gaussian: analytic map is (x - x0) / (2 sigma^2); the
    # discrete map converges quadratically in the momentum cell width
    def err(n, xmax):
        g = waves.gaussian_packet(x0=0.3, sigma=0.8, n=n, xmax=xmax)
        m = causal.rs_map_1d(g)
        xs = np.linspace(0.3 - 1.6, 0.3 + 1.6, 41)
        return np.max(np.abs(m.evaluate(xs) - (xs - 0.3) / (2 * 0.8**2)))

    coarse = err(2048, 8.3)
    fine = err(8192, 33.2)
    assert fine < 4e-3
    assert coarse / fine > 8.0


def test_verify_1d_deterministic():
    for psi in (waves.gaussian_packet(), waves.two_gaussian_packet(), waves.excited_state(2)):
        m = causal.rs_map_1d(psi)
        rep = causal.verify_marginals(m)
        assert rep["method"] == "deterministic"
        assert rep["distances"]["x"] == 0.0
        assert rep["passed"], rep["distances"]


def test_verify_1d_monte_carlo():
    psi = waves.gaussian_packet()
    m = causal.rs_map_1d(psi)
    rep = causal.verify_marginals(m, mc_samples=200_000, seed=1)
    assert rep["method"] == "mc"
    assert rep["passed"], rep["distances"]
    again = causal.verify_marginals(m, mc_samples=200_000, seed=1)
    assert again["distances"] == rep["distances"]  # seeded, reproducible


ONE_D_STATES = {
    "gaussian": lambda n: waves.gaussian_packet(n=n),
    "two-gaussian": lambda n: waves.two_gaussian_packet(n=n),
    "excited": lambda n: waves.excited_state(1, n=n),
}


def _assert_draws_like_choice(masses, count, seed):
    """_sample_cells draws what Generator.choice draws and leaves the
    generator where choice leaves it."""
    rng = np.random.default_rng(seed)
    got = causal._sample_cells(masses, count, rng)
    ref = np.random.default_rng(seed)
    flat = masses.ravel()
    want = ref.choice(flat.size, count, p=flat / flat.sum())
    np.testing.assert_array_equal(got, want)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [1024, 2048, 4096])
@pytest.mark.parametrize("state", sorted(ONE_D_STATES))
def test_sample_cells_equals_choice_on_1d_states(state, n):
    psi = ONE_D_STATES[state](n)
    _assert_draws_like_choice(psi.density() * psi.axes[0].spacing, 200_000, n + 3)


@pytest.mark.parametrize("n", [128, 256])
def test_sample_cells_equals_choice_on_2d_masses(n):
    psi = waves.correlated_gaussian_2d(rho=0.0, sigma=0.7, n=n, xmax=20.0)
    _assert_draws_like_choice(psi.density() * psi.axes[0].spacing * psi.axes[1].spacing, 200_000, n)


@pytest.mark.parametrize("seed", range(4))
def test_sample_cells_equals_choice_with_zero_cells(seed):
    # zero cells repeat CDF values; a steep spread of masses puts many CDF
    # values in one bucket, and few draws per cell give a coarse table
    rng = np.random.default_rng(seed)
    n = (1000, 4097, 33, 3000)[seed]
    masses = rng.random(n) ** 12
    masses[rng.random(n) < 0.6] = 0.0
    masses[: n // 20 + 1] = 0.0
    masses[-(n // 12 + 1) :] = 0.0
    masses[n // 2] = 1.0
    for count in (0, 1, 7, 50_000):
        _assert_draws_like_choice(masses, count, seed)


class _FixedDraws:
    """Stands in for a Generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, count):
        assert count == self.u.size
        return self.u


def test_sample_cells_draws_on_cdf_values_go_right():
    # CDF 1/4, 1/4, 1/2, 1: draws equal to a CDF value, or to a bucket
    # bound b/k, take choice's searchsorted side "right"
    masses = np.array([1.0, 0.0, 1.0, 2.0])
    u = np.array([0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0 - 2.0**-53])
    cdf = np.cumsum(masses / masses.sum())
    got = causal._sample_cells(masses, u.size, _FixedDraws(u))
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, "right"))
    np.testing.assert_array_equal(got, [0, 0, 2, 2, 3, 3, 3])


def test_sample_cells_single_cell():
    _assert_draws_like_choice(np.array([2.5]), 1000, 0)
    assert not causal._sample_cells(np.array([2.5]), 10, np.random.default_rng(0)).any()


@pytest.mark.parametrize(
    "masses", [[0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.5, -0.1, 0.6], [0.0, 0.0, 0.0]]
)
def test_sample_cells_refuses_bad_masses(masses):
    with pytest.raises(ValidationError, match="cell masses"):
        causal._sample_cells(np.array(masses), 10, np.random.default_rng(0))


@pytest.mark.parametrize("epsilon", [+1, -1])
@pytest.mark.parametrize("state", sorted(ONE_D_STATES))
def test_evaluate_in_cells_equals_evaluate_bitwise(state, epsilon):
    psi = ONE_D_STATES[state](1024)
    m = causal.rs_map_1d(psi, epsilon)
    n = len(m.x)
    rng = np.random.default_rng(epsilon + 5)
    cells = rng.integers(0, n, 20_000)
    lo, hi = m.x_edges[cells], m.x_edges[cells + 1]
    r = np.concatenate([rng.random(cells.size - 4), [0.0, 0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-52]])
    inside = lo + r * (hi - lo)
    # points on each cell's lower and upper edge, and on the last edge
    all_cells = np.arange(n)
    x = np.concatenate([inside, m.x_edges[:-1], m.x_edges[1:], [m.x_edges[-1]]])
    cells = np.concatenate([cells, all_cells, all_cells, [n - 1]])
    got = causal._evaluate_in_cells(m, x, cells)
    assert got.tobytes() == m.evaluate(x).tobytes()


@pytest.mark.parametrize("epsilon", [+1, -1])
def test_evaluate_in_cells_keeps_signed_zero_nodes(epsilon):
    # a node value of zero keeps its sign only through np.interp's node rule
    psi = waves.GridWavefunction((waves.Axis(4, 1.0),), np.ones(4, dtype=complex))
    p_edges = np.array([-3.0, -2.0, -0.0, 1.0, 3.0]) * epsilon  # -0.0 on the +1 side, 0.0 on -1
    m = causal.MonotoneMap(psi, 0.5 * (p_edges[:-1] + p_edges[1:]), p_edges, epsilon)
    assert m.x_edges.tolist() == [-2.5, -1.5, -0.5, 0.5, 1.5]
    x = np.array([-2.5, -1.5, -1.5, -0.5, -0.5, 0.0, 0.5, 1.5, 1.5])
    cells = np.array([0, 0, 1, 1, 2, 2, 2, 3, 3])
    got = causal._evaluate_in_cells(m, x, cells)
    assert got.tobytes() == m.evaluate(x).tobytes()


def _padded_transform_calls(monkeypatch, chain):
    """(axis, factor) of every padded transform one deterministic 2-D
    verification runs."""
    calls = []
    transform = waves.padded_transform

    def counted(state, axis, factor):
        calls.append((axis, factor))
        return transform(state, axis, factor)

    monkeypatch.setattr(waves, "padded_transform", counted)
    causal.verify_marginals_2d(chain)
    return calls


def test_verify_2d_transforms_axis0_once_for_px(monkeypatch):
    psi = waves.correlated_gaussian_2d(rho=0.3, sigma=0.7, n=64, xmax=10.0)
    chain = causal.rs_map_2d(psi, ordering="px")
    assert _padded_transform_calls(monkeypatch, chain) == [(0, causal._FINE), (1, causal._FINE)]


def test_verify_2d_transforms_each_frame_axis_once_for_xp(monkeypatch):
    # the pp target reuses the chain frame's axis-0 transform, as for px
    psi = _skewed_state(64, 8.0)
    chain = causal.rs_map_2d(psi, ordering="xp")
    assert _padded_transform_calls(monkeypatch, chain) == [(0, causal._FINE), (1, causal._FINE)]


@pytest.mark.parametrize("n, xmax", [(64, 8.0), (128, 10.0)])
def test_xp_chain_is_px_chain_of_swapped_state(n, xmax):
    """xp maps x2 first: its tables, verification distances and off-pair
    distance equal, bit for bit, those of the px chain of the state with its
    axes swapped, whose (p1, x2) pair is the xp chain's (x1, p2)."""
    psi = _skewed_state(n, xmax)
    swapped = _swapped(psi)
    for e1, e2 in itertools.product((1, -1), repeat=2):
        xp = causal.rs_map_2d(psi, e1, e2, "xp")
        px = causal.rs_map_2d(swapped, e1, e2, "px")
        for name in _CHAIN_TABLES:
            assert getattr(xp, name).tobytes() == getattr(px, name).tobytes(), (name, e1, e2)
        got = causal.verify_marginals_2d(xp)["distances"]
        want = causal.verify_marginals_2d(px)["distances"]
        assert got == {"qq": want["qq"], "qp": want["pq"], "pp": want["pp"]}
        assert causal.ccs_distance(xp) == causal.ccs_distance(px)


def test_chain_2d_structure_and_marginals():
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=256, xmax=12.0)
    chain = causal.rs_map_2d(psi, ordering="px")
    rep = causal.verify_marginals(chain)
    assert set(rep["distances"]) == {"qq", "pq", "pp"}
    assert rep["distances"]["qq"] == 0.0
    assert rep["distances"]["pq"] < 5e-3
    assert rep["distances"]["pp"] < 2e-2  # tightens with n, see acceptance run
    chain_xp = causal.rs_map_2d(psi, ordering="xp")
    rep_xp = causal.verify_marginals(chain_xp)
    assert set(rep_xp["distances"]) == {"qq", "qp", "pp"}
    assert rep_xp["distances"]["qp"] < 5e-3

    # the two orderings realize different composite maps
    pm = chain.point_maps()
    pm_xp = chain_xp.point_maps()
    assert np.max(np.abs(pm["p1"] - pm_xp["p1"])) > 1e-3
    assert pm["p1"].shape == (256, 256)


def test_chain_2d_monte_carlo():
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=128, xmax=10.0)
    chain = causal.rs_map_2d(psi, ordering="px")
    rep = causal.verify_marginals(chain, mc_samples=300_000, seed=7)
    assert rep["method"] == "mc"
    assert rep["passed"], rep["distances"]


def test_off_pair_density_not_reproduced():
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=256, xmax=12.0)
    chain = causal.rs_map_2d(psi, ordering="px")
    assert causal.ccs_distance(chain) > 0.05


def test_takabayasi_gap_shrinks_under_spreading():
    gap0 = causal.takabayasi_gap(waves.gaussian_packet(sigma=1.0, t=0.0))
    gap4 = causal.takabayasi_gap(waves.gaussian_packet(sigma=1.0, t=4.0))
    assert gap0 > 1.5  # field is identically zero, pushforward sits at p = 0
    assert gap4 < gap0
    detail = causal.takabayasi_gap_detailed(waves.gaussian_packet())
    assert detail["excluded_mass"] < 1e-12


def test_ballistic_transport():
    rep = causal.ballistic_transport_check()
    assert rep["l1"] < 1e-2
    assert rep["mass_in_range"] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DomainError):
        causal.ballistic_transport_check(t=2.0, t_prime=1.0)


def test_pass_thresholds_pinned():
    assert causal._THRESHOLDS == {"deterministic": 5e-3, "mc": 5e-2}
    for method, threshold in causal._THRESHOLDS.items():
        below = float(np.nextafter(threshold, 0.0))
        assert causal._report({"a": 0.0, "b": below}, method)["passed"]
        assert not causal._report({"a": 0.0, "b": threshold}, method)["passed"]
        assert causal._report({"b": below}, method) == {
            "distances": {"b": below}, "method": method, "passed": True}


@pytest.mark.parametrize("threshold, passed", [(np.inf, True), (0.0, False)])
def test_every_verifier_reads_the_thresholds(monkeypatch, threshold, passed):
    psi1 = waves.gaussian_packet(n=256)
    psi2 = waves.correlated_gaussian_2d(rho=0.0, n=64, xmax=8.0)
    monkeypatch.setattr(causal, "_THRESHOLDS", {"deterministic": threshold, "mc": threshold})
    reports = [
        causal.verify_marginals(causal.rs_map_1d(psi1)),
        causal.verify_marginals(causal.rs_map_1d(psi1), mc_samples=20_000),
        causal.verify_marginals(causal.rs_map_2d(psi2)),
        causal.verify_marginals(causal.rs_map_2d(psi2), mc_samples=20_000),
    ]
    assert [r["method"] for r in reports] == ["deterministic", "mc"] * 2
    assert [r["passed"] for r in reports] == [passed] * 4
