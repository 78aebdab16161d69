"""The three inner-loop kernels, one vectorized numpy implementation each.

* ``chsh_scan``         exhaustive scan of the CHSH functional over a settings
  grid, O(na * nap * nb * nbp)
* ``deposit_points``    cloud-in-cell deposit of weighted sample points into
  bins, O(points + bins)
* ``deposit_intervals`` deposit of weighted intervals into bins (uniform within
  the interval), the workhorse behind every transport-map pushforward,
  O(intervals + bins) and batched over columns

Scatters are ``np.bincount`` calls, which add in input order, so a batched
``(m, ncols)`` deposit equals a loop of one-column deposits bit for bit.

benchmarks/bench_kernels.py times each kernel.
"""

import numpy as np

# No compiled path exists; kept so run provenance can name the backend.
USE_NUMBA = False


def chsh_scan(c_ab, c_abp, c_apb, c_apbp):
    """Best CHSH value |C1(a,b)-C2(a,b')| + |C3(a',b)+C4(a',b')| over the grid.

    Returns (value, ia, iap, ib, ibp). First occurrence in C order wins ties,
    i.e. the lexicographically smallest (ia, iap, ib, ibp).
    """
    d1 = np.abs(c_ab[:, :, None] - c_abp[:, None, :])  # (ia, ib, ibp)
    d2 = np.abs(c_apb[:, :, None] + c_apbp[:, None, :])  # (iap, ib, ibp)
    s = d1[:, None, :, :] + d2[None, :, :, :]  # (ia, iap, ib, ibp)
    flat = int(np.argmax(s))
    ia, iap, ib, ibp = np.unravel_index(flat, s.shape)
    return float(s[ia, iap, ib, ibp]), int(ia), int(iap), int(ib), int(ibp)


def deposit_points(x, w, x0, dx, nbins):
    """Cloud-in-cell deposit of weighted points onto bin centers
    x0 + (k + 1/2) dx.  Shares falling outside the ``nbins`` bins are dropped."""
    pos = (np.asarray(x, dtype=float) - x0) / dx - 0.5
    kf = np.floor(pos)
    f = pos - kf
    w = np.asarray(w, dtype=float)
    # compare as float before the int cast: huge coordinates overflow int64
    lo_ok = (kf >= 0.0) & (kf < nbins)
    hi_ok = (kf >= -1.0) & (kf < nbins - 1)
    idx = np.concatenate([kf[lo_ok], kf[hi_ok] + 1.0]).astype(np.int64)
    mass = np.concatenate([(w * (1.0 - f))[lo_ok], (w * f)[hi_ok]])
    return np.bincount(idx, mass, minlength=nbins)


def deposit_intervals(lo, hi, w, x0, dx, nbins):
    """Deposit weighted intervals into bins, uniform within each interval.

    ``lo``, ``hi`` and ``w`` have shape (m,) or (m, ncols); each column
    deposits into its own ``nbins`` bins [x0 + k dx, x0 + (k+1) dx) and the
    result has shape (nbins,) or (nbins, ncols).  Endpoints may come in
    either order.  An interval adds its exact shares to its first and last
    bins directly and the constant full-bin share w dx / (hi - lo) to the
    bins between them through a difference array summed by ``cumsum``:
    O(m + nbins) per column.  Shares are measured against the bin edges in
    x itself, so an interval narrower than the float resolution of
    (x - x0)/dx still deposits all of its mass.  A zero-width interval is a
    point mass in its containing bin.  Mass outside the bins is dropped.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    w = np.asarray(w, dtype=float)
    ncols = 1 if lo.ndim == 1 else lo.shape[1]
    a = np.minimum(lo, hi)
    b = np.maximum(lo, hi)
    point = ~(b > a)  # zero width, or a NaN endpoint
    width = np.where(point, 1.0, b - a)
    edges = x0 + dx * np.arange(nbins + 2)  # edge nbins + 1 closes a spill bin

    def bin_of(x):
        # k with edges[k] <= x < edges[k+1]: -1 left of the grid, nbins right
        # of it or NaN; clipping before the int cast keeps huge values in range.
        # np.searchsorted(edges, x, "right") - 1 gives the same bins, but its
        # O(log nbins) search made the whole deposit about twice as slow.
        k = np.floor(np.clip((x - x0) / dx, 0.0, nbins))
        k = np.where(np.isnan(k), nbins, k).astype(np.int64)
        # (x - x0)/dx rounds, so settle the bin against the edges themselves
        return np.minimum(k - (edges[k] > x) + (edges[k + 1] <= x), nbins)

    def share(k):  # mass of each interval inside bin k
        return w * ((np.clip(edges[k + 1], a, b) - np.clip(edges[k], a, b)) / width)

    ka = bin_of(a)
    ka = np.where(point, np.where(ka < 0, nbins, ka), np.maximum(ka, 0))
    kb = np.where(point, ka, np.maximum(bin_of(b), 0))
    head = np.where(point, w, share(ka))
    tail = np.where(kb > ka, share(kb), 0.0)
    middle = np.where(kb > ka + 1, w * (dx / width), 0.0)

    # flat index k * ncols + column; bin nbins is the spill bin
    col = np.arange(ncols)
    ka = (ka * ncols + col).ravel()
    kb = (kb * ncols + col).ravel()
    size = (nbins + 1) * ncols
    direct = np.bincount(
        np.concatenate([ka, kb]), np.concatenate([head.ravel(), tail.ravel()]), size
    )
    # middle bins ka+1 .. kb-1: +rate at ka+1, -rate at kb, then cumsum
    middle = middle.ravel()
    diff = np.bincount(
        np.concatenate([ka + ncols, kb]), np.concatenate([middle, -middle]), size + ncols
    )
    out = direct.reshape(nbins + 1, ncols) + np.cumsum(diff.reshape(nbins + 2, ncols), axis=0)[:-1]
    out = out[:nbins]  # drop the spill bin
    return out[:, 0] if lo.ndim == 1 else out
