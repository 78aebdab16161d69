import itertools
import tracemalloc

import numpy as np
import pytest

import _pins
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


# n = 16 is one row block of the axis-1 transform, n = 256 sixteen
@pytest.mark.parametrize("n", [16, 32, 64, 256])
def test_double_fine_masses_equal_fully_padded_transform(n):
    for psi in (_skewed_state(n, 8.0), waves.correlated_gaussian_2d(rho=0.5, n=n, xmax=8.0)):
        for s in (psi, _swapped(psi)):
            np.testing.assert_array_equal(
                causal._double_fine_masses(waves.padded_transform(s, 0, 4)),
                _ref_double_fine_masses(s, 0, 4),
            )


def test_double_fine_masses_traced_peak_is_bounded():
    # n = 256: the (4n)^2 transform, its masses and their grouping peaked at
    # 28 MiB; row blocks keep the (n, 4n) result (2 MiB) and about 2 MiB more
    padded0 = waves.padded_transform(waves.correlated_gaussian_2d(rho=0.0, sigma=0.7, n=256,
                                                                  xmax=20.0), 0, causal._FINE)
    tracemalloc.start()
    try:
        causal._double_fine_masses(padded0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# the map tables of rs_map_2d on _skewed_state (map1_nodes, map1_edges,
# map2_nodes and map2_edges, in that order) for each epsilon pair; recorded
# with the complex-key table search (numpy 2.4, x86-64), which the merged
# search must match bit for bit.  The xp rows map x2 first: they chain the
# axis-swapped state, and were recorded when rs_map_2d swapped the axes
# itself for that ordering
MAP_2D_CASES = [(64, "px"), (64, "xp"), (128, "px"), (128, "xp")]


_CHAIN_TABLES = ("map1_nodes", "map1_edges", "map2_nodes", "map2_edges")


@pytest.mark.parametrize("n, ordering", MAP_2D_CASES)
def test_rs_map_2d_tables_pinned(n, ordering):
    psi = _skewed_state(n, 8.0 if n == 64 else 10.0)
    for e1, e2 in itertools.product((1, -1), repeat=2):
        chain = causal.rs_map_2d(psi if ordering == "px" else _swapped(psi), e1, e2)
        _pins.check("rs_map_2d", (n, ordering, e1, e2),
                    _pins.array(**{name: getattr(chain, name) for name in _CHAIN_TABLES}))


# the map tables of rs_map_1d at n=2048 (p_hat, then p_hat_edges), for
# epsilon 1 and -1; recorded while the 1-D map had its own inversion call,
# which the one-column conditional map must match bit for bit
_STATES_2048 = {
    "gaussian": lambda: waves.gaussian_packet(n=2048),
    "two-gaussian": lambda: waves.two_gaussian_packet(n=2048),
    "excited": lambda: waves.excited_state(1, n=2048),
}


@pytest.mark.parametrize("state", sorted(_STATES_2048))
def test_rs_map_1d_tables_pinned(state):
    psi = _STATES_2048[state]()
    for epsilon in (1, -1):
        m = causal.rs_map_1d(psi, epsilon)
        _pins.check("rs_map_1d", (state, epsilon),
                    _pins.array(p_hat=m.p_hat, p_hat_edges=m.p_hat_edges))


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
    target = waves.padded_transform(psi, 0, causal._FINE)
    m = causal.MonotoneMap(psi, target, 0.5 * (p_edges[:-1] + p_edges[1:]), p_edges, epsilon)
    assert m.x_edges.tolist() == [-2.5, -1.5, -0.5, 0.5, 1.5]
    x = np.array([-2.5, -1.5, -1.5, -0.5, -0.5, 0.0, 0.5, 1.5, 1.5])
    cells = np.array([0, 0, 1, 1, 2, 2, 2, 3, 3])
    got = causal._evaluate_in_cells(m, x, cells)
    assert got.tobytes() == m.evaluate(x).tobytes()


@pytest.mark.parametrize("n", [256, 2048, 4096])
def test_map_keeps_the_padded_state_it_matched(n):
    psi = waves.two_gaussian_packet(n=n)
    got = causal.rs_map_1d(psi).target
    want = waves.padded_transform(psi, 0, causal._FINE)
    assert got.axes == want.axes and got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("n, xmax", [(64, 10.0), (256, 20.0)])
def test_chain_keeps_the_states_it_matched(n, xmax):
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=0.7, n=n, xmax=xmax)
    chain = causal.rs_map_2d(psi)
    mixed = waves.fourier(psi, axis=0)
    for got, want in ((chain.mixed, mixed), (chain.momentum, waves.fourier(mixed, axis=1))):
        assert got.axes == want.axes and got.values.tobytes() == want.values.tobytes()


def _transform_calls(monkeypatch, chain):
    """(transformed shape, axis) of every transform one deterministic 2-D
    verification runs.  ``waves._centered_transform`` is the transform
    behind ``padded_transform`` and each row block of
    ``_double_fine_masses``, so both show here."""
    calls = []
    transform = waves._centered_transform

    def counted(values, source, axis, start, ax):
        calls.append((values.shape, axis))
        return transform(values, source, axis, start, ax)

    monkeypatch.setattr(waves, "_centered_transform", counted)
    causal.verify_marginals_2d(chain)
    return calls


# n = 64: axis 0 padded once to 256 rows, then axis 1 padded in row blocks of
# _ROWS rows, never as the full (256, 256) array
_N64_TRANSFORMS = [((256, 64), 0)] + [((causal._ROWS, 256), 1)] * (256 // causal._ROWS)


def test_verify_2d_transforms_axis0_once_for_px(monkeypatch):
    psi = waves.correlated_gaussian_2d(rho=0.3, sigma=0.7, n=64, xmax=10.0)
    chain = causal.rs_map_2d(psi)
    assert _transform_calls(monkeypatch, chain) == _N64_TRANSFORMS


def test_verify_2d_transforms_each_frame_axis_once_for_xp(monkeypatch):
    # xp chains the axis-swapped state, whose pp target reuses its own
    # axis-0 transform, as for px
    chain = causal.rs_map_2d(_swapped(_skewed_state(64, 8.0)))
    assert _transform_calls(monkeypatch, chain) == _N64_TRANSFORMS


# rho, sigma of the 2-D Gaussian states, as in test_waves' exact-symmetry check
SYMMETRIC_GAUSSIANS = [(rho, sigma) for rho in (-0.9, -0.7, 0.0, 0.3, 0.5, 0.6, 0.8)
                       for sigma in (0.7, 1.0)]


@pytest.mark.parametrize("n", [64, 128, 256])
def test_other_ordering_point_maps_are_the_swapped_transpose(n):
    """rs2d reads the xp ordering off the one chain it builds, its (p1, p2)
    point maps as (p2, p1) transposed: the xp chain is the chain of the
    axis-swapped state, and the rho-Gaussian equals its transpose bit for
    bit, so that chain's tables, and with them its point maps, are this
    chain's.  Checked against the swapped state's chain built in full."""
    for rho, sigma in SYMMETRIC_GAUSSIANS:
        psi = waves.correlated_gaussian_2d(rho=rho, sigma=sigma, n=n, xmax=8.0)
        for e1, e2 in itertools.product((1, -1), repeat=2):
            chain, xp = causal.rs_map_2d(psi, e1, e2), causal.rs_map_2d(_swapped(psi), e1, e2)
            for name in _CHAIN_TABLES:
                got, want = getattr(xp, name), getattr(chain, name)
                assert got.tobytes() == want.tobytes(), (rho, sigma, e1, e2, name)


def test_chain_2d_structure_and_marginals():
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=256, xmax=12.0)
    chain = causal.rs_map_2d(psi)
    rep = causal.verify_marginals(chain)
    assert set(rep["distances"]) == {"qq", "pq", "pp"}
    assert rep["distances"]["qq"] == 0.0
    assert rep["distances"]["pq"] < 5e-3
    assert rep["distances"]["pp"] < 2e-2  # tightens with n, see acceptance run
    chain_xp = causal.rs_map_2d(_swapped(psi))  # x2 mapped first
    rep_xp = causal.verify_marginals(chain_xp)
    assert set(rep_xp["distances"]) == {"qq", "pq", "pp"}
    assert rep_xp["distances"]["pq"] < 5e-3

    # the two orderings realize different composite maps on the grid; the
    # swapped chain's p2, transposed, is the xp p1 on the state's axes
    pm = chain.point_maps()
    pm_xp = chain_xp.point_maps()
    assert np.max(np.abs(pm["p1"] - pm_xp["p2"].T)) > 1e-3
    assert pm["p1"].shape == (256, 256)


def test_chain_2d_monte_carlo():
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=1.0, n=128, xmax=10.0)
    chain = causal.rs_map_2d(psi)
    rep = causal.verify_marginals(chain, mc_samples=300_000, seed=7)
    assert rep["method"] == "mc"
    assert rep["passed"], rep["distances"]


# ---------------------------------------------------------------------------
# the 2-D chain against its continuum limit: a Gaussian state's chain is affine


def _exact_gaussian_chain(psi, rho, sigma, e1=+1, e2=+1):
    """The continuum chain of the rho-Gaussian on psi's grid, as chain tables.

    Stage 1, at the x1 nodes and edges of each x2 node:
    p1 = e1 (x1 - rho x2) / (2 sigma^2 (1 - rho^2)).  Stage 2, at the x2
    nodes and edges of each p1 cell node p1_j:
    p2 = -rho p1_j + e2 x2 / (2 sigma^2).
    """
    ax1, ax2 = psi.axes
    x2 = ax2.points()[None, :]
    s1 = 2.0 * sigma**2 * (1.0 - rho**2)
    p1 = ax1.conjugate().points()[None, :]
    map1 = [e1 * (x1[:, None] - rho * x2) / s1 for x1 in (ax1.points(), causal._cell_edges(ax1))]
    map2 = [-rho * p1 + e2 * x[:, None] / (2.0 * sigma**2)
            for x in (ax2.points(), causal._cell_edges(ax2))]
    mixed = waves.fourier(psi, axis=0)
    momentum = waves.fourier(mixed, axis=1)
    return causal.ChainedMap2D(psi, mixed, momentum, map1[0], map1[1], map2[0], map2[1])


def _table_errors(chain, exact):
    """Mass-weighted mean |grid - exact| of each stage's node table, in
    momentum cells: stage 1 weighted by the position masses, stage 2 by the
    (p1, x2) masses whose slices its maps transport."""
    p1_axis, p2_axis = chain.momentum.axes
    stage1 = np.sum(chain.source.masses() * np.abs(chain.map1_nodes - exact.map1_nodes))
    mixed = chain.mixed.masses().T  # (x2, p1)
    stage2 = np.sum(mixed * np.abs(chain.map2_nodes - exact.map2_nodes))
    return stage1 / p1_axis.spacing, stage2 / p2_axis.spacing


# pq, pp of verify_marginals_2d on the continuum chain at sigma = 0.7,
# xmax = 20: the verifier's floor, ROADMAP item 1's "exact chain" column
EXACT_CHAIN_SCORES = {
    (0.0, 256): (6.3e-4, 1.7e-3),
    (0.0, 512): (6.6e-4, 9.5e-4),
    (0.5, 256): (1.2e-2, 8.7e-3),
    (0.5, 512): (2.2e-3, 1.4e-3),
    (0.8, 256): (4.7e-2, 4.3e-2),
    (0.8, 512): (9.6e-3, 7.8e-3),
}


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_gaussian_chain_against_closed_form(rho):
    """The grid chain of the rho-Gaussian against its continuum chain, an
    answer computed outside the package, at the transport shape (sigma =
    0.7, xmax = 20).

    Table errors, stage 1 / stage 2 in momentum cells, at n = 256 and 512:
    0.0010 / 0.0010 and 0.0076 / 0.0076 at rho = 0; 0.0164 / 0.0094 and
    0.0051 / 0.0076 at rho = 0.5; 0.0647 / 0.0077 and 0.0130 / 0.0066 at
    rho = 0.8.  Stage 1 converges for rho != 0.  Stage 2, and rho = 0,
    plateau near 0.0077 cells up to n = 1024 at fixed xmax, so no fall is
    asserted for them; at rho = 0, n = 256 the stage-1 slope nearly equals
    dp/dx, which lines the cells up.
    """
    errors = {}
    for n in (256, 512):
        psi = waves.correlated_gaussian_2d(rho=rho, sigma=0.7, n=n, xmax=20.0)
        chain, exact = causal.rs_map_2d(psi), _exact_gaussian_chain(psi, rho, 0.7)
        errors[n] = _table_errors(chain, exact)
        floor = causal.verify_marginals_2d(exact)["distances"]
        want = EXACT_CHAIN_SCORES[rho, n]
        np.testing.assert_allclose((floor["pq"], floor["pp"]), want, rtol=0.05)
        # a map scoring far below the continuum chain would be fitting the check
        got = causal.verify_marginals_2d(chain)["distances"]
        assert got["pq"] >= 0.5 * floor["pq"] and got["pp"] >= 0.5 * floor["pp"], (n, got, floor)
    assert max(errors[512]) <= 0.02, errors
    if rho:
        assert errors[256][0] >= 2.0 * errors[512][0], errors


def test_gaussian_chain_closed_form_epsilons():
    """Each epsilon pair's tables sit as close to its closed form as the
    (+1, +1) tables do: the closed form's signs are the chain's."""
    psi = waves.correlated_gaussian_2d(rho=0.5, sigma=0.7, n=256, xmax=20.0)
    want = _table_errors(causal.rs_map_2d(psi), _exact_gaussian_chain(psi, 0.5, 0.7))
    for e1, e2 in ((1, -1), (-1, 1), (-1, -1)):
        chain, exact = causal.rs_map_2d(psi, e1, e2), _exact_gaussian_chain(psi, 0.5, 0.7, e1, e2)
        np.testing.assert_allclose(_table_errors(chain, exact), want, atol=1e-3)


def _continuum_chain_covariance(v):
    """Covariance of (x1, x2, p1, p2), in that order, under the continuum
    chain (epsilons +1) of a Gaussian state with Wigner covariance v, and
    the chain's composite matrix A.

    Each stage maps a conditional Gaussian monotonically, hence affinely,
    onto another: stage 1 x1 | x2 onto p1 | x2 of the (p1, x2) density,
    stage 2 x2 | p1 onto p2 | p1 of the (p1, p2) density.  The composite is
    p = A x plus a constant.
    """
    def cond_var(a, b):  # variance of coordinate a given coordinate b
        return v[a, a] - v[a, b] ** 2 / v[b, b]

    alpha = np.sqrt(cond_var(2, 1) / cond_var(0, 1))
    beta = (v[2, 1] - alpha * v[0, 1]) / v[1, 1]
    delta = np.sqrt(cond_var(3, 2) / cond_var(1, 2))
    gamma = (v[3, 2] - delta * v[1, 2]) / v[2, 2]
    a = np.array([[alpha, beta], [gamma * alpha, gamma * beta + delta]])
    s = v[:2, :2]
    return np.block([[s, s @ a.T], [a @ s, a @ s @ a.T]]), a


def _gaussian_l1(c1, c2, m=801, width=8.0):
    """L1 distance between two centred 2-D Gaussian densities, by the
    rectangle rule over +-width standard deviations."""
    sd = np.sqrt(np.maximum(np.diag(c1), np.diag(c2)))
    u, v = (np.linspace(-width * s, width * s, m) for s in sd)
    uv = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1)

    def density(c):
        q = np.einsum("...i,ij,...j->...", uv, np.linalg.inv(c), uv)
        return np.exp(-q / 2.0) / (2.0 * np.pi * np.sqrt(np.linalg.det(c)))

    return float(np.sum(np.abs(density(c1) - density(c2))) * (u[1] - u[0]) * (v[1] - v[0]))


# _skewed_state is |psi|^2 ~ exp(-x.P x / 2) with phase 0.8 x1 + x.K x / 2:
# position covariance Sigma = P^-1, momentum p = (0.8, 0) + K x plus a
# spread of covariance P / 4
_SKEW_P = np.array([[1.0, -0.6], [-0.6, 2.0]])
_SKEW_K = np.array([[0.0, -0.3], [-0.3, 0.4]])
_SKEW_SIGMA = np.linalg.inv(_SKEW_P)
_SKEW_WIGNER_COV = np.block([
    [_SKEW_SIGMA, _SKEW_SIGMA @ _SKEW_K],
    [_SKEW_K @ _SKEW_SIGMA, _SKEW_K @ _SKEW_SIGMA @ _SKEW_K + _SKEW_P / 4.0],
])

# coordinate pairs (x1 x2 p1 p2 = 0 1 2 3) of the three densities a chain
# reproduces, (x1, x2), (p1, x2) and (p1, p2), and the off pair (x1, p2)
_CHAIN_PAIRS = ([0, 1], [2, 1], [2, 3])
_OFF_PAIR = [0, 3]


def _pair(c, idx):
    return c[np.ix_(idx, idx)]


def test_skewed_state_has_closed_form_wigner_covariance():
    """The grid masses of _skewed_state and of its two transforms have the
    covariances of the closed form, so it can serve as an oracle."""
    psi = _skewed_state(256, 12.0)
    psi_m = waves.fourier(psi, axis=0)
    for state, idx in zip((psi, psi_m, waves.fourier(psi_m, axis=1)), _CHAIN_PAIRS):
        w = state.masses() / state.masses().sum()
        u, v = (ax.points() for ax in state.axes)
        du, dv = u[:, None] - np.sum(w * u[:, None]), v[None, :] - np.sum(w * v[None, :])
        cov = np.array([[np.sum(w * du * du), np.sum(w * du * dv)],
                        [np.sum(w * du * dv), np.sum(w * dv * dv)]])
        np.testing.assert_allclose(cov, _pair(_SKEW_WIGNER_COV, idx), atol=1e-12)


def test_off_pair_density_not_reproduced():
    """The continuum chain of _skewed_state reproduces its three chain pairs
    but not its (x1, p2) density, and ccs_distance reads that miss.

    The chain gives Cov(x1, p2) = +0.357 against the true -0.220; the L1
    distance between the two (x1, p2) Gaussians is 0.4384, and
    ccs_distance reads 0.4355 at (n, xmax) = (256, 12), 0.4372 at (512, 16).
    """
    chain_cov, _ = _continuum_chain_covariance(_SKEW_WIGNER_COV)
    for idx in _CHAIN_PAIRS:
        np.testing.assert_allclose(_pair(chain_cov, idx), _pair(_SKEW_WIGNER_COV, idx), atol=1e-12)
    assert chain_cov[0, 3] == pytest.approx(0.357, abs=1e-3)
    assert _SKEW_WIGNER_COV[0, 3] == pytest.approx(-0.2195, abs=1e-4)
    l1 = _gaussian_l1(_pair(chain_cov, _OFF_PAIR), _pair(_SKEW_WIGNER_COV, _OFF_PAIR))
    assert l1 == pytest.approx(0.4384, abs=1e-4)
    for n, xmax in ((256, 12.0), (512, 16.0)):
        got = causal.ccs_distance(causal.rs_map_2d(_skewed_state(n, xmax)))
        assert got == pytest.approx(l1, rel=0.02), (n, xmax)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_gaussian_continuum_chain_reproduces_off_pair(rho):
    """The rho-Gaussian's continuum chain is p = Sigma^-1 x / 2 and
    reproduces Cov(x1, p2) = 0 with the three chain pairs, so what
    ccs_distance reads on that state is grid error (ROADMAP item 8)."""
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    zero = np.zeros((2, 2))
    wigner_cov = np.block([[sigma, zero], [zero, np.linalg.inv(sigma) / 4.0]])
    chain_cov, a = _continuum_chain_covariance(wigner_cov)
    np.testing.assert_allclose(a, np.linalg.inv(sigma) / 2.0, atol=1e-12)
    for idx in (*_CHAIN_PAIRS, _OFF_PAIR):
        np.testing.assert_allclose(_pair(chain_cov, idx), _pair(wigner_cov, idx), atol=1e-12)


def test_takabayasi_gap_shrinks_under_spreading():
    gap0, gap4 = (
        causal.takabayasi_gap_detailed(causal.rs_map_1d(waves.gaussian_packet(t=t)))["gap"]
        for t in (0.0, 4.0)
    )
    assert gap0 > 1.5  # field is identically zero, pushforward sits at p = 0
    assert gap4 < gap0
    detail = causal.takabayasi_gap_detailed(causal.rs_map_1d(waves.gaussian_packet()))
    assert detail["excluded_mass"] < 1e-12


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
