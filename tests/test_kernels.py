"""The kernels and the batched CDF inversion against slow, obviously correct
per-interval, per-point and per-slice references kept here."""

import math

import numpy as np
import pytest

import _pins
from bellforge import _kernels, causal, waves
from bellforge.errors import GridResolutionError, ValidationError


# ---------------------------------------------------------------------------
# references


def _ref_deposit_intervals(lo, hi, w, x0, dx, nbins):
    """Interval by interval, bin by bin: each bin gets the overlap share."""
    out = [0.0] * nbins
    for a, b, wi in zip(lo, hi, w):
        a, b = min(a, b), max(a, b)
        if b - a < 1e-300:
            k = math.floor((a - x0) / dx)
            if 0 <= k < nbins:
                out[k] += wi
            continue
        for k in range(nbins):
            e_lo = x0 + k * dx
            e_hi = e_lo + dx
            overlap = min(b, e_hi) - max(a, e_lo)
            if overlap > 0.0:
                out[k] += wi * overlap / (b - a)
    return np.array(out)


def _ref_deposit_points(x, w, x0, dx, nbins):
    out = [0.0] * nbins
    for xi, wi in zip(x, w):
        pos = (xi - x0) / dx - 0.5
        k = math.floor(pos)
        f = pos - k
        if 0 <= k < nbins:
            out[k] += wi * (1.0 - f)
        if 0 <= k + 1 < nbins:
            out[k + 1] += wi * f
    return np.array(out)


def _ref_chsh_scan(c_ab, c_abp, c_apb, c_apbp):
    best = (-math.inf, 0, 0, 0, 0)
    for ia in range(c_ab.shape[0]):
        for iap in range(c_apb.shape[0]):
            for ib in range(c_ab.shape[1]):
                for ibp in range(c_abp.shape[1]):
                    s = abs(c_ab[ia, ib] - c_abp[ia, ibp]) + abs(c_apb[iap, ib] + c_apbp[iap, ibp])
                    if s > best[0]:  # strict: the first maximum in C order wins
                        best = (s, ia, iap, ib, ibp)
    return best


def _ref_cdf_inverse(edges, f, u):
    """One slice through np.searchsorted; exact plateau hits take the midpoint."""
    u = np.clip(u, 0.0, 1.0)
    lo = np.searchsorted(f, u, side="left")
    hi = np.searchsorted(f, u, side="right")
    out = np.empty(u.shape)
    for i in range(u.size):
        if hi[i] > lo[i]:
            left = min(max(lo[i], 0), len(edges) - 1)
            right = min(max(hi[i] - 1, 0), len(edges) - 1)
            out[i] = 0.5 * (edges[left] + edges[right])
        else:
            j = min(max(lo[i] - 1, 0), len(f) - 2)
            df = f[j + 1] - f[j]
            frac = (u[i] - f[j]) / df if df > 0 else 0.5
            out[i] = edges[j] + min(max(frac, 0.0), 1.0) * (edges[j + 1] - edges[j])
    return out


def _random_intervals(rng, m):
    """Intervals of every kind: ordinary, reversed, degenerate, wide,
    off-grid on either side and partly off-grid (grid [-1, 1])."""
    lo = rng.uniform(-1.5, 1.5, m)
    width = rng.choice([0.0, 1e-3, 0.05, 0.3, 2.5], m) * rng.random(m)
    hi = lo + width
    swap = rng.random(m) < 0.3
    lo[swap], hi[swap] = hi[swap], lo[swap].copy()
    lo[:3] = [-3.0, 2.0, -1.2]  # left of the grid, right of it, straddling x0
    hi[:3] = [-2.0, 4.0, -0.9]
    return lo, hi, rng.random(m)


# ---------------------------------------------------------------------------
# deposit_intervals


@pytest.mark.parametrize("seed", range(6))
def test_deposit_intervals_matches_reference(seed):
    rng = np.random.default_rng(seed)
    lo, hi, w = _random_intervals(rng, 60)
    nbins = int(rng.integers(1, 40))
    dx = 2.0 / nbins
    got = _kernels.deposit_intervals(lo, hi, w, -1.0, dx, nbins)
    want = _ref_deposit_intervals(lo, hi, w, -1.0, dx, nbins)
    assert got.shape == (nbins,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_deposit_intervals_mass_and_geometry():
    # one interval covering exactly two bins splits its weight in proportion
    out = _kernels.deposit_intervals(
        np.array([0.25]), np.array([0.75]), np.array([1.0]), 0.0, 0.5, 2
    )
    assert out == pytest.approx([0.5, 0.5], abs=1e-12)
    # swapped endpoints behave the same
    out2 = _kernels.deposit_intervals(
        np.array([0.75]), np.array([0.25]), np.array([1.0]), 0.0, 0.5, 2
    )
    assert out2 == pytest.approx([0.5, 0.5], abs=1e-12)
    # head, middle and tail bins of one long interval
    out3 = _kernels.deposit_intervals(
        np.array([0.1]), np.array([2.1]), np.array([4.0]), 0.0, 0.5, 6
    )
    assert out3 == pytest.approx([0.8, 1.0, 1.0, 1.0, 0.2, 0.0], abs=1e-12)


def test_deposit_intervals_degenerate_is_point_mass():
    out = _kernels.deposit_intervals(np.array([0.3]), np.array([0.3]), np.array([2.0]), 0.0, 0.25, 4)
    assert out == pytest.approx([0.0, 2.0, 0.0, 0.0], abs=1e-12)


def test_deposit_intervals_sub_ulp_intervals_keep_their_mass():
    # wider than 1e-300 but below the float resolution of the bin coordinate
    # (x - x0)/dx, as the momentum field of a real state is: inside a bin the
    # whole weight lands there, instead of vanishing
    lo = np.array([1e-17, -3e-17, 0.3])
    hi = np.array([2e-17, -1e-17, 0.3])
    w = np.array([1.0, 0.5, 0.25])
    out = _kernels.deposit_intervals(lo, hi, w, -1.125, 0.25, 8)
    assert np.all(np.isfinite(out))
    assert out[4] == pytest.approx(1.5, abs=1e-15)
    assert out[5] == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(out, _ref_deposit_intervals(lo, hi, w, -1.125, 0.25, 8), atol=1e-15)
    # across the edge x = 0, where (x - x0)/dx rounds to 4 for both ends,
    # the edge in x splits the weight
    lo = np.array([-1e-17, -1e-17])
    hi = np.array([1e-17, 3e-16])
    out = _kernels.deposit_intervals(lo, hi, np.ones(2), -1.0, 0.25, 8)
    assert out[3] == pytest.approx(0.5 + 1e-17 / 3.1e-16, rel=1e-12)
    assert out.sum() == pytest.approx(2.0, abs=1e-15)
    np.testing.assert_allclose(out, _ref_deposit_intervals(lo, hi, np.ones(2), -1.0, 0.25, 8), atol=1e-15)


def test_deposit_intervals_survives_huge_coordinates():
    # values far outside the grid must neither crash nor deposit anything
    lo = np.array([-1e18, 1e18, -1e18])
    hi = np.array([-1e18, 1e18, 1e18])
    out = _kernels.deposit_intervals(lo, hi, np.ones(3), 0.0, 0.1, 10)
    assert np.all(np.isfinite(out))
    # the spanning interval deposits only the sliver crossing the grid
    assert out.sum() <= 1e-15


def test_deposit_intervals_batched_equals_column_loop():
    rng = np.random.default_rng(7)
    m, ncols, nbins = 33, 9, 25
    lo, hi, w = (a.reshape(m, ncols) for a in _random_intervals(rng, m * ncols))
    got = _kernels.deposit_intervals(lo, hi, w, -1.0, 2.0 / nbins, nbins)
    assert got.shape == (nbins, ncols)
    for k in range(ncols):
        col = _kernels.deposit_intervals(lo[:, k], hi[:, k], w[:, k], -1.0, 2.0 / nbins, nbins)
        np.testing.assert_array_equal(got[:, k], col)


def _pin_intervals(shape, seed):
    """``_random_intervals`` of the given shape, with NaN endpoints and
    endpoints at +-1e300 mixed in (grid [-1, 1])."""
    rng = np.random.default_rng(seed)
    m = int(np.prod(shape))
    lo, hi, w = _random_intervals(rng, m)
    lo[3:6] = [np.nan, 0.2, -1e300]
    hi[3:6] = [0.4, np.nan, 1e300]
    return tuple(a.reshape(shape) for a in (lo, hi, w))


# deposit_intervals output bytes for (shape, seed, nbins) on the grid
# [-1, 1], recorded before the difference array was summed in place
DEPOSIT_INTERVALS_CASES = [
    ((3000,), 20, 64),
    ((3000,), 21, 1),
    ((40, 75), 22, 37),
    ((257, 16), 23, 1024),
]


@pytest.mark.parametrize("case", DEPOSIT_INTERVALS_CASES)
def test_deposit_intervals_bits_pinned(case):
    shape, seed, nbins = case
    out = _kernels.deposit_intervals(*_pin_intervals(shape, seed), -1.0, 2.0 / nbins, nbins)
    assert out.shape == (nbins,) + shape[1:]
    _pins.check("deposit_intervals", case, _pins.array(out))


# ---------------------------------------------------------------------------
# deposit_points and chsh_scan


def test_deposit_points_matches_reference():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0.0, 2.0, 400), [-1e18, 1e18, -4.0, 4.0]])
    w = rng.random(x.size)
    got = _kernels.deposit_points(x, w, -4.0, 0.05, 160)
    np.testing.assert_allclose(got, _ref_deposit_points(x, w, -4.0, 0.05, 160), rtol=1e-12, atol=1e-15)


# deposit_points output bytes for _pin_points(*case), recorded before the
# kernel dropped its boolean compression
DEPOSIT_POINTS_CASES = [
    (-3.0, 0.0625, 96, 10),
    (-4.0, 0.05, 160, 11),
    (-6.0, 12.0 / 4096, 4096, 12),
]


def _pin_points(x0, dx, nbins, seed):
    """Seeded points around the bins, shuffled with NaN, +-1e300, the first
    and last bin edges and centres, and the floats just either side of the
    outer edges."""
    rng = np.random.default_rng(seed)
    first, last = x0, x0 + nbins * dx
    special = [np.nan, 1e300, -1e300,
               first, last, np.nextafter(first, -np.inf), np.nextafter(last, np.inf),
               np.nextafter(first, np.inf), np.nextafter(last, -np.inf),
               x0 + dx / 2, last - dx / 2, x0 - dx / 2, last + dx / 2]
    x = np.concatenate([rng.normal(x0 + nbins * dx / 2, nbins * dx / 5, 3000), special])
    rng.shuffle(x)
    return x, rng.uniform(0.5, 1.5, x.size)


@pytest.mark.parametrize("case", DEPOSIT_POINTS_CASES)
def test_deposit_points_bits_pinned(case):
    x0, dx, nbins, _ = case
    out = _kernels.deposit_points(*_pin_points(*case), x0, dx, nbins)
    _pins.check("deposit_points", case, _pins.array(out))


def test_deposit_points_conserves_interior_mass():
    x = np.array([0.1, 0.5, 0.9])
    w = np.array([1.0, 2.0, 3.0])
    out = _kernels.deposit_points(x, w, 0.0, 0.125, 8)
    assert out.sum() == pytest.approx(6.0, abs=1e-12)


def _scan_tables(rng, na, nap, nb, nbp, draw):
    return draw(rng, (na, nb)), draw(rng, (na, nbp)), draw(rng, (nap, nb)), draw(rng, (nap, nbp))


SCAN_SHAPES = [(5, 5, 4, 4), (5, 3, 4, 2), (2, 6, 3, 5), (1, 4, 1, 3), (4, 1, 5, 1), (1, 1, 1, 1)]


def test_chsh_scan_matches_reference():
    rng = np.random.default_rng(0)
    for shape in SCAN_SHAPES:
        mats = _scan_tables(rng, *shape, lambda r, sh: r.uniform(-1.0, 1.0, sh))
        assert _kernels.chsh_scan(*mats) == _ref_chsh_scan(*mats)


def _quantized(rng, shape):
    return rng.integers(-10, 11, shape) / 10.0


def _ulp_perturbed(rng, shape):
    # quantized values moved by up to two ulps: d1 and d2 ties break, but
    # many rounded sums d1 + d2 tie again, and not where d1 alone ties
    out = _quantized(rng, shape)
    for _ in range(2):
        move = rng.integers(-1, 2, shape)
        out = np.where(move == 0, out, np.nextafter(out, 2.0 * move))
    return out


@pytest.mark.parametrize("draw", [_quantized, _ulp_perturbed])
def test_chsh_scan_matches_reference_on_tied_tables(draw):
    rng = np.random.default_rng(1)
    for k in range(60):
        shape = SCAN_SHAPES[k % len(SCAN_SHAPES)] if k < 12 else tuple(rng.integers(1, 7, 4))
        mats = _scan_tables(rng, *shape, draw)
        assert _kernels.chsh_scan(*mats) == _ref_chsh_scan(*mats), shape


def test_chsh_scan_ties_made_by_rounding():
    # d1 = (0.5, 0.5 + ulp) alone prefers a = 1, but 0.5 + ulp + 1.5 rounds to 2.0
    half_up = np.nextafter(0.5, 1.0)
    zero = np.zeros((2, 1))
    assert _kernels.chsh_scan(np.array([[0.5], [half_up]]), zero, np.array([[1.5]]), zero[:1]) == (
        2.0, 0, 0, 0, 0)
    # the same on the a' side: d2 = (1.5, 1.5 + ulp) ties after adding d1 = 0.5
    c_apb = np.array([[1.5], [np.nextafter(1.5, 2.0)]])
    assert _kernels.chsh_scan(np.array([[0.5]]), zero[:1], c_apb, zero) == (2.0, 0, 0, 0, 0)
    # a' = 0 reaches the maximum only next to a = 1, so with a = 0 chosen
    # the answer is a' = 1: a' must be picked for the chosen a
    c_ab = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert _kernels.chsh_scan(c_ab, zero, c_ab[::-1], zero) == (2.0, 0, 1, 0, 0)


def test_chsh_scan_ties_resolve_lexicographically():
    c = np.ones((3, 3))
    val, ia, iap, ib, ibp = _kernels.chsh_scan(c, c, c, c)
    assert (ia, iap, ib, ibp) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# batched CDF inversion and conditional maps


def _plateau_cdfs(rng, n, ncols):
    masses = rng.random((n, ncols)) ** 4
    masses[rng.random((n, ncols)) < 0.3] = 0.0  # interior plateaus
    masses[:3] = masses[-3:] = 0.0  # flat tails at exactly 0 and 1
    return causal._cdf_edges(masses, causal._column_totals(masses))


def _cdf_column(masses):
    """The CDF of one 1-D mass array, as a one-column call."""
    col = masses[:, None]
    return causal._cdf_edges(col, causal._column_totals(col))[:, 0]


def test_cdf_edges_batched_equals_column_loop():
    # slice norms must not depend on batching: a column sums pairwise, as
    # a 1-D array does, not row after row
    masses = np.random.default_rng(5).random((256, 16)) ** 3
    f = causal._cdf_edges(masses, causal._column_totals(masses))
    for k in range(masses.shape[1]):
        np.testing.assert_array_equal(f[:, k], _cdf_column(masses[:, k]))


@pytest.mark.parametrize("order", ["as-drawn", "ascending", "descending"])
def test_cdf_inverse_batched_matches_searchsorted_reference(order):
    # CDFs with interior plateaus, repeated values and flat tails at exactly
    # 0 and 1; queries hit CDF values exactly (plateaus included), repeat,
    # sit at 0 and 1, fall outside [0, 1] and in between, in any order
    rng = np.random.default_rng(3)
    n, ncols = 40, 12
    edges = np.linspace(-2.0, 2.0, n + 1)
    f = _plateau_cdfs(rng, n, ncols)
    u = np.concatenate([
        f[rng.integers(0, n + 1, 15), np.arange(ncols)[:, None]].T,
        np.repeat(rng.random((5, ncols)), 2, axis=0),
        np.zeros((2, ncols)),
        np.ones((2, ncols)),
        rng.uniform(-0.1, 1.1, (20, ncols)),
    ])
    if order != "as-drawn":
        u = np.sort(u, axis=0)[:: 1 if order == "ascending" else -1]
    got = causal._cdf_inverse(edges, f, u)
    assert got.shape == u.shape
    for k in range(ncols):
        np.testing.assert_array_equal(got[:, k], _ref_cdf_inverse(edges, f[:, k], u[:, k]))
    # a single column inverts as it does in the batch
    np.testing.assert_array_equal(causal._cdf_inverse(edges, f[:, :1], u[:, :1]), got[:, :1])


def _pin_cdf_queries(n, ncols, seed):
    """Plateau CDFs on uneven edges, queried at their own values (plateaus
    included), at 0 and 1, outside [0, 1] and in between."""
    rng = np.random.default_rng(seed)
    edges = np.cumsum(rng.uniform(0.5, 1.5, n + 1)) - n / 2.0
    f = _plateau_cdfs(rng, n, ncols)
    u = np.concatenate([f[rng.integers(0, n + 1, n // 2), np.arange(ncols)[:, None]].T,
                        np.zeros((2, ncols)), np.ones((2, ncols)),
                        rng.uniform(-0.1, 1.1, (n, ncols))])
    return edges, f, np.sort(u, axis=0)


# _cdf_inverse output bytes for (n, ncols, seed), recorded before the
# inversion gathered by flat index
CDF_INVERSE_CASES = [(40, 12, 30), (256, 1, 31), (128, 64, 32)]


@pytest.mark.parametrize("case", CDF_INVERSE_CASES)
def test_cdf_inverse_bits_pinned(case):
    _pins.check("cdf_inverse", case, _pins.array(causal._cdf_inverse(*_pin_cdf_queries(*case))))


def _complex_state(shape, reps, seed):
    rng = np.random.default_rng(seed)
    axes = tuple(waves.Axis(n, 0.25, rep) for n, rep in zip(shape, reps))
    return waves.GridWavefunction(axes, rng.normal(size=shape) + 1j * rng.normal(size=shape), {})


# (function, argument builder): each call's array arguments must come back
# unchanged; complex values are the case an in-place pass could alias
UNTOUCHED_CASES = {
    "fourier-x": (waves.fourier, lambda: (_complex_state((64,), "x", 40), 0)),
    "fourier-p-axis1": (waves.fourier, lambda: (_complex_state((16, 32), "pp", 41), 1)),
    "padded_transform-axis0": (waves.padded_transform, lambda: (_complex_state((16, 8), "xx", 42), 0, 4)),
    "padded_transform-axis1": (waves.padded_transform, lambda: (_complex_state((16, 8), "px", 43), 1, 2)),
    "density": (waves.GridWavefunction.density, lambda: (_complex_state((16, 8), "xp", 44),)),
    "masses": (waves.GridWavefunction.masses, lambda: (_complex_state((16, 8), "xp", 45),)),
    "deposit_intervals": (_kernels.deposit_intervals, lambda: _pin_intervals((300,), 46) + (-1.0, 0.1, 20)),
    "deposit_intervals-batched": (_kernels.deposit_intervals,
                                  lambda: _pin_intervals((30, 7), 47) + (-1.0, 0.1, 20)),
    "cdf_inverse": (causal._cdf_inverse, lambda: _pin_cdf_queries(40, 6, 48)),
}


@pytest.mark.parametrize("name", list(UNTOUCHED_CASES))
def test_kernels_leave_their_inputs_unchanged(name):
    fn, build = UNTOUCHED_CASES[name]
    args = build()
    arrays = [a.values if isinstance(a, waves.GridWavefunction) else a
              for a in args if isinstance(a, (waves.GridWavefunction, np.ndarray))]
    before = [a.copy() for a in arrays]
    fn(*args)
    for a, b in zip(arrays, before):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_conditional_maps_invert_each_live_slice():
    rng = np.random.default_rng(4)
    n, ncols = 256, 5
    axis = waves.Axis(n, 0.5, waves.MOMENTUM)
    pos = rng.random((n, ncols))
    mom = rng.random((n, ncols))
    mom *= pos.sum(axis=0) / mom.sum(axis=0)
    pos[:, 2] = mom[:, 2] = 0.0  # an empty slice keeps an all-zero map
    nodes, edges = causal._conditional_maps(pos, mom, axis, -1)
    p_edges = causal._cell_edges(axis)
    for k in range(ncols):
        if k == 2:
            assert not nodes[:, k].any() and not edges[:, k].any()
            continue
        u = 1.0 - _cdf_column(pos[:, k])
        fp = _cdf_column(mom[:, k])
        np.testing.assert_array_equal(edges[:, k], _ref_cdf_inverse(p_edges, fp, u))
        np.testing.assert_array_equal(nodes[:, k], _ref_cdf_inverse(p_edges, fp, 0.5 * (u[:-1] + u[1:])))


def test_conditional_maps_raise_on_mismatched_slice():
    n, ncols = 16, 6
    axis = waves.Axis(n, 0.5, waves.MOMENTUM)
    pos = np.ones((n, ncols))
    mom = np.ones((n, ncols))
    mom[:, 3] *= 1.5  # first bad slice: norms 24 vs 16
    mom[:, 5] *= 3.0
    pos[:, 1] = 0.0  # below the slice floor, so never checked
    with pytest.raises(GridResolutionError, match="disagree by 8 of 24"):
        causal._conditional_maps(pos, mom, axis, +1)


def test_conditional_maps_sum_each_slice_once(monkeypatch):
    """The slice norms the guard checks are the totals the CDFs divide by:
    one column sum per mass array, for the 1-D map and for each 2-D stage."""
    totals = causal._column_totals
    calls = []

    def counted(masses):
        calls.append(masses.shape)
        return totals(masses)

    monkeypatch.setattr(causal, "_column_totals", counted)
    causal.rs_map_1d(waves.gaussian_packet(n=256))
    assert calls == [(256, 1), (1024, 1)]
    calls.clear()
    causal.rs_map_2d(waves.correlated_gaussian_2d(n=32, xmax=8.0))
    assert calls == [(32, 32)] * 4


def test_conditional_maps_refuse_zero_mass():
    axis = waves.Axis(16, 0.5, waves.MOMENTUM)
    with pytest.raises(ValidationError, match="zero total mass"):
        causal._conditional_maps(np.zeros((16, 3)), np.zeros((16, 3)), axis, +1)
    psi = waves.GridWavefunction((waves.position_axis(16, 4.0),), np.zeros(16, complex), {})
    with pytest.raises(ValidationError, match="zero total mass"):
        causal.rs_map_1d(psi)
