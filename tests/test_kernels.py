"""The kernels and the batched CDF inversion against slow, obviously correct
per-interval, per-point and per-slice references kept here."""

import math

import numpy as np
import pytest

from bellforge import _kernels, causal, waves
from bellforge.errors import GridResolutionError


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


# ---------------------------------------------------------------------------
# deposit_points and chsh_scan


def test_deposit_points_matches_reference():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0.0, 2.0, 400), [-1e18, 1e18, -4.0, 4.0]])
    w = rng.random(x.size)
    got = _kernels.deposit_points(x, w, -4.0, 0.05, 160)
    np.testing.assert_allclose(got, _ref_deposit_points(x, w, -4.0, 0.05, 160), rtol=1e-12, atol=1e-15)


def test_deposit_points_conserves_interior_mass():
    x = np.array([0.1, 0.5, 0.9])
    w = np.array([1.0, 2.0, 3.0])
    out = _kernels.deposit_points(x, w, 0.0, 0.125, 8)
    assert out.sum() == pytest.approx(6.0, abs=1e-12)


def test_chsh_scan_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(3):
        mats = [rng.uniform(-1.0, 1.0, (5, 4)) for _ in range(4)]
        assert _kernels.chsh_scan(*mats) == _ref_chsh_scan(*mats)


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
    return causal._cdf_edges(masses)


def test_cdf_edges_batched_equals_column_loop():
    # slice norms must not depend on batching: a column sums pairwise, as
    # a 1-D array does, not row after row
    masses = np.random.default_rng(5).random((256, 16)) ** 3
    f = causal._cdf_edges(masses)
    for k in range(masses.shape[1]):
        np.testing.assert_array_equal(f[:, k], causal._cdf_edges(masses[:, k]))


def test_cdf_inverse_batched_matches_searchsorted_reference():
    rng = np.random.default_rng(3)
    n, ncols = 40, 12
    edges = np.linspace(-2.0, 2.0, n + 1)
    f = _plateau_cdfs(rng, n, ncols)
    # exact hits on CDF values (plateaus included), ordinary values, and
    # queries outside [0, 1]
    u = np.concatenate([f[rng.integers(0, n + 1, 15), np.arange(ncols)[:, None]].T,
                        rng.uniform(-0.1, 1.1, (20, ncols))])
    got = causal._cdf_inverse(edges, f, u)
    assert got.shape == u.shape
    for k in range(ncols):
        np.testing.assert_array_equal(got[:, k], _ref_cdf_inverse(edges, f[:, k], u[:, k]))
    # a 1-D CDF is a single column
    np.testing.assert_array_equal(causal._cdf_inverse(edges, f[:, 0], u[:, 0]), got[:, 0])


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
        u = 1.0 - causal._cdf_edges(pos[:, k])
        fp = causal._cdf_edges(mom[:, k])
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
