"""The three inner-loop kernels, one vectorized numpy implementation each.

* ``chsh_scan``         exact maximum of the CHSH functional over a settings
  grid, O(n^3) for n points per angle: the a and a' terms decouple
* ``deposit_points``    cloud-in-cell deposit of weighted sample points into
  bins, O(points + bins)
* ``deposit_intervals`` deposit of weighted intervals into bins (uniform within
  the interval), the workhorse behind every transport-map pushforward,
  O(intervals + bins) and batched over columns

Scatters are ``np.bincount`` calls, which add in input order, so a batched
``(m, ncols)`` deposit equals a loop of one-column deposits bit for bit.

``benchmarks/bench_ab.py`` times each kernel as a ``call`` op.
"""

import numpy as np

# No compiled path exists; kept so run provenance can name the backend.
USE_NUMBA = False


def chsh_scan(c_ab, c_abp, c_apb, c_apbp):
    """Best CHSH value |C1(a,b)-C2(a,b')| + |C3(a',b)+C4(a',b')| over the grid.

    Returns (value, ia, iap, ib, ibp). First occurrence in C order wins ties,
    i.e. the lexicographically smallest (ia, iap, ib, ibp).

    Rounded addition is monotone, so d1 + max_a' d2 is exactly the best sum
    at each (a, b, b'); its first maximum gives ia, and the first maximum of
    d1[ia] + d2 gives iap and then (ib, ibp) under the same tie rule.
    """
    d1 = np.abs(c_ab[:, :, None] - c_abp[:, None, :])  # (ia, ib, ibp)
    d2 = np.abs(c_apb[:, :, None] + c_apbp[:, None, :])  # (iap, ib, ibp)
    ia = int(np.argmax(d1 + d2.max(axis=0))) // (d1.shape[1] * d1.shape[2])
    s = d1[ia] + d2  # (iap, ib, ibp)
    flat = int(np.argmax(s))
    iap, ib, ibp = np.unravel_index(flat, s.shape)
    return float(s.flat[flat]), int(ia), int(iap), int(ib), int(ibp)


def deposit_points(x, w, x0, dx, nbins):
    """Cloud-in-cell deposit of weighted points (1-D) onto bin centers
    x0 + (k + 1/2) dx.  Shares falling outside the ``nbins`` bins are dropped.

    Point k's lower share goes to slot k + 2 and its upper share to slot
    k + 3 of one bincount with two spill slots at each end; k is clipped to
    [-2, nbins] (NaN to nbins) so every share off the bins lands in a spill
    slot.  Each bin adds the same shares in the same order as a deposit of
    the in-range shares alone, so dropping the spill slots leaves it exact.
    """
    pos = (np.asarray(x, dtype=float) - x0) / dx - 0.5
    kf = np.floor(pos)
    f = np.subtract(pos, kf, out=pos)
    m = len(f)
    # lower shares, then upper shares, written in place: fresh temporaries
    # of this size cost as much in page faults as the arithmetic itself
    mass = np.empty(2 * m)
    np.multiply(w, np.subtract(1.0, f, out=mass[:m]), out=mass[:m])
    np.multiply(w, f, out=mass[m:])
    # clip as float before the int cast: huge coordinates overflow int64
    slot = np.empty(2 * m, dtype=np.intp)
    slot[:m] = np.fmax(np.fmin(kf, nbins, out=kf), -2.0, out=kf)
    slot[:m] += 2
    np.add(slot[:m], 1, out=slot[m:])
    return np.bincount(slot, mass, nbins + 4)[2 : nbins + 2]


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

    # flat index column * (nbins + 2) + k, so each column's bins are
    # contiguous; bin nbins is the spill bin, and the difference array's
    # -rate at kb = nbins reaches slot nbins + 1
    stride = nbins + 2
    col = np.arange(ncols) * stride
    ka = (ka + col).ravel()
    kb = (kb + col).ravel()
    size = ncols * stride
    out = np.bincount(
        np.concatenate([ka, kb]), np.concatenate([head.ravel(), tail.ravel()]), size
    ).reshape(ncols, stride)
    # middle bins ka+1 .. kb-1: +rate at ka+1, -rate at kb, then cumsum
    middle = middle.ravel()
    diff = np.bincount(np.concatenate([ka + 1, kb]), np.concatenate([middle, -middle]), size)
    diff = diff.reshape(ncols, stride)
    out += np.cumsum(diff, axis=1, out=diff)
    out = out[:, :nbins]  # drop the spill bins
    return out[0] if lo.ndim == 1 else np.ascontiguousarray(out.T)
