"""Momentum fields and CDF-matching transport maps on grid wavefunctions.

Two phase-space constructions over a base density |psi(x)|^2:

* the gradient-of-phase momentum field Im(psi'/psi), whose pushforward of
  the position density generally fails to reproduce |psi_tilde(p)|^2
  (``takabayasi_gap_detailed`` measures the miss in L1), and
* monotone transport maps p_hat(x) defined by matching cumulative
  distribution functions, which reproduce the momentum marginal by
  construction.  In 2-D the maps chain conditionally and reproduce three
  mixed position/momentum densities at once.

The 2-D chain maps its state's axis 0 first.  The other conditioning order
is the chain of the state with its axes swapped, which in general realizes
a different composite map with the same marginals.  A result holds its
source and the momentum states it matched; every check takes the result
alone, reads those states, and works on the chain's own axes.

Epsilon convention: epsilon=+1 matches F_p(p_hat) = F_x(x) (nondecreasing
map); epsilon=-1 matches F_p(p_hat) = 1 - F_x(x) (nonincreasing).  The
latter is the antitone coupling; it preserves the momentum marginal for
asymmetric densities and coincides with reflecting the position CDF when
the density is even.

Pushforwards never sample a delta-on-a-map density pointwise: each source
cell's exact mass is deposited over its image interval, so total mass is
conserved to rounding and L1 comparisons against transform densities are
meaningful at fine bins.  Every deposit takes its bins from ``_fine_bins``,
the factor-times-finer cells of an axis, which on a momentum axis are the
cells of the zero-padded transform's grid.  The refinement factors are
fixed: 8 for 1-D verification (``_FINE_1D``); 4 for the momentum CDF of
the 1-D map, the 2-D verification, the off-chain distance and Takabayasi's
gap (``_FINE``).  The 2-D Monte Carlo check compares histograms on cells
of 4 x 4 grid points (``_MC_GROUP``).  The pass rule lives in
``_THRESHOLDS`` alone: every L1 distance below its method's value.

The Monte Carlo checks draw source cells with ``_sample_cells``, which
returns exactly the draws of ``Generator.choice`` with p = masses / total
from a bucketed count table of the CDF, searching only the draws its
buckets leave open.  The 1-D check places each sample uniformly in its cell
and evaluates the map there with ``_evaluate_in_cells``: np.interp's
arithmetic on the known cell, so the momenta equal ``MonotoneMap.evaluate``
bit for bit without a second search.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels, waves
from .errors import DomainError, GridResolutionError, ValidationError

_NODE_FLOOR = 1e-12  # |psi| below this marks the phase ill-defined
_SLICE_FLOOR = 1e-300  # conditional slices lighter than this carry no map
_FINE_1D = 8  # momentum refinement of the 1-D marginal check
_FINE = 4  # momentum refinement of map tabulation and the other checks
# Fine p0 rows per block of _double_fine_masses, 1 MiB of buffer at n = 256.
# A warm n = 512 call took 49-54 ms with 64 rows, 52-72 with 32, 56-59 with
# 128 and 77-90 on the whole (4n)^2 array (2-vCPU VM); 16 to 128 rows tie
# at n = 256.
_ROWS = 64
_MC_GROUP = 4  # grid points per histogram cell side in the 2-D Monte Carlo check
_THRESHOLDS = {"deterministic": 5e-3, "mc": 5e-2}  # pass below, per verification method


# ---------------------------------------------------------------------------
# CDF utilities


def _cell_edges(axis):
    pts = axis.points()
    return np.concatenate([pts - axis.spacing / 2.0, [pts[-1] + axis.spacing / 2.0]])


def _fine_bins(axis, factor=1):
    """(first edge, width, count) of the factor-times-finer cells of an axis;
    factor 1 gives its own cells.

    Fine cells are point-anchored: every factor-th fine point is an axis
    point.  For a power-of-two factor the bins of a momentum axis are, bit
    for bit, the cells of its zero-padded transform's grid.
    """
    width = axis.spacing / factor
    return axis.points()[0] - width / 2.0, width, factor * axis.n


def _cell_index(values, axis):
    """Index of the axis point nearest to each value, clipped to the grid."""
    return np.clip(np.round(values / axis.spacing + axis.n // 2).astype(int), 0, axis.n - 1)


def _column_totals(masses):
    """Sum along axis 0, per column in the same pairwise order as a 1-D sum.

    A reduction over axis 0 of a 2-D array adds row after row instead, which
    rounds differently; slice norms and CDFs must not depend on batching.
    """
    return np.ascontiguousarray(masses.T).sum(axis=-1)


def _cdf_edges(masses, total):
    """Cumulative mass at cell edges along axis 0, each column divided by its
    positive total (``_column_totals``) and ending at exactly 1."""
    f = np.concatenate([np.zeros((1, masses.shape[1])), np.cumsum(masses, axis=0)]) / total
    np.clip(f, 0.0, 1.0, out=f)  # cumsum rounding can poke past 1 by an ulp
    f[-1] = 1.0
    return f


def _cdf_inverse(edges, f, u):
    """Invert piecewise-linear CDFs on shared edges; exact plateau hits return
    the midpoint.  f holds one CDF per column and u the queries for each
    column, in any order; each column is searched as one contiguous row."""
    u = np.ascontiguousarray(np.clip(u, 0.0, 1.0).T)  # (column, query)
    f = np.ascontiguousarray(f.T)  # (column, CDF value)
    lo, hi = np.empty(u.shape, dtype=np.intp), np.empty(u.shape, dtype=np.intp)
    for k, (row, q) in enumerate(zip(f, u)):
        lo[k] = np.searchsorted(row, q, "left")
        hi[k] = np.searchsorted(row, q, "right")
    j = np.clip(lo - 1, 0, f.shape[1] - 2)
    e_lo = edges[j]
    # the interpolation runs in one buffer
    f_lo = np.take_along_axis(f, j, axis=1)
    t = np.take_along_axis(f, j + 1, axis=1)
    t -= f_lo
    rising = t > 0
    np.divide(np.subtract(u, f_lo, out=f_lo), t, out=t, where=rising)
    t[~rising] = 0.5
    np.clip(t, 0.0, 1.0, out=t)
    t *= edges[j + 1] - e_lo
    t += e_lo
    # on a plateau lo < hi, so lo and hi - 1 are both CDF rows
    plateau = hi > lo
    t[plateau] = 0.5 * (edges[lo[plateau]] + edges[hi[plateau] - 1])
    return t.T


def _invert_edges_and_nodes(p_edges, fp, fx, epsilon):
    """Map values (nodes, edges) at the source cell nodes and edges: the
    inverse of fp at fx, or at 1 - fx for epsilon=-1, where a node's query
    is the midpoint of its cell's edge queries.  Edge and node queries
    interleave, so one inversion serves both."""
    u = fx if epsilon == +1 else 1.0 - fx
    q = np.empty((2 * len(u) - 1, u.shape[1]))
    q[0::2] = u
    q[1::2] = 0.5 * (u[:-1] + u[1:])
    p = _cdf_inverse(p_edges, fp, q)
    return p[1::2], p[0::2]


# ---------------------------------------------------------------------------
# phase-gradient momentum field and its marginal gap


def debb_momentum_field(psi):
    """Gradient of the wave phase, Im(psi'/psi), on the grid (1-D).

    The derivative is spectral, hence exact for band-limited samples.
    Points with |psi| < 1e-12 have no well-defined phase and return NaN.
    """
    if psi.dim != 1 or psi.axes[0].representation != waves.POSITION:
        raise ValidationError("momentum field needs a 1-D position-representation state")
    tilde = waves.fourier(psi)
    p = tilde.axes[0].points()
    dpsi = waves.fourier(
        waves.GridWavefunction(tilde.axes, 1.0j * p * tilde.values, {})
    )
    field = np.full(psi.axes[0].n, np.nan)
    ok = np.abs(psi.values) >= _NODE_FLOOR
    field[ok] = (dpsi.values[ok] / psi.values[ok]).imag
    return field


def _group_fine_axis(fine_masses, factor, axis=0):
    """Sum fine-grid masses into the coarse cells they subdivide.

    Fine point factor*k coincides with coarse point k, so coarse cell k
    spans fine cells factor*k - factor/2 .. factor*k + factor/2 with the
    two boundary cells straddling the coarse edges; those contribute half
    their mass to each side.  Fine cells hanging off the grid ends are
    beyond the covered momentum range and dropped (their mass is zero for
    any state that fits the grid).

    Viewed as blocks of ``factor`` fine cells, block k holds the upper half
    of coarse cell k (its first half cells, and half of its middle cell) and
    the lower half of cell k + 1 (the rest); one weighted sum per block
    gives both parts.
    """
    parts = _block_parts(np.asarray(fine_masses), factor, axis)
    coarse = parts[..., 0]
    lead = (slice(None),) * axis
    coarse[lead + (slice(1, None),)] += parts[lead + (slice(None, -1),)][..., 1]
    return coarse


def _block_parts(arr, factor, axis):
    """Each block of factor fine cells along axis as (..., own, next) parts."""
    if factor % 2:
        raise ValidationError("fine factor must be even")
    half = factor // 2
    weights = np.zeros((factor, 2))
    weights[:half, 0] = 1.0
    weights[half + 1 :, 1] = 1.0
    weights[half] = 0.5
    n_coarse = arr.shape[axis] // factor
    blocks = arr.reshape(arr.shape[:axis] + (n_coarse, factor) + arr.shape[axis + 1 :])
    return np.moveaxis(blocks, axis + 1, -1) @ weights


def _cell_l1(rep, tgt, factor, *axes):
    """L1 distance of two fine-grid mass arrays compared on the coarse cells
    of each of ``axes``."""
    for axis in axes:
        rep, tgt = _group_fine_axis(rep, factor, axis), _group_fine_axis(tgt, factor, axis)
    return float(np.sum(np.abs(rep - tgt)))


def takabayasi_gap_detailed(m):
    """L1 gap between the field-pushforward of |psi|^2 and |psi_tilde|^2 for
    the source of the 1-D map m, against the padded state m matched.

    Each position cell's mass rides the momentum field into the interval
    spanned by the field values at the cell edges (degenerate where the
    field is locally constant).  Cells with undefined field are excluded
    and their mass reported separately.
    """
    field = debb_momentum_field(m.source)
    masses = m.source.masses()
    ok = np.isfinite(field)
    excluded = float(masses[~ok].sum())

    # field at interior cell edges by averaging neighbors, one-sided at ends
    filled = np.where(ok, field, 0.0)
    edge_vals = np.concatenate(
        [[filled[0]], 0.5 * (filled[:-1] + filled[1:]), [filled[-1]]]
    )

    # deposit_intervals orders each cell's two edge values itself
    deposited = _kernels.deposit_intervals(
        edge_vals[:-1][ok], edge_vals[1:][ok], masses[ok], *_fine_bins(m.target.axes[0])
    )
    gap = float(np.sum(np.abs(deposited - m.target.masses())))
    return {"gap": gap, "excluded_mass": excluded}


# ---------------------------------------------------------------------------
# 1-D transport map


@dataclass(frozen=True)
class MonotoneMap:
    source: waves.GridWavefunction  # the 1-D state the map was built from
    target: waves.GridWavefunction  # its _FINE-times padded transform, which the map matches
    p_hat: np.ndarray  # map values at the nodes
    p_hat_edges: np.ndarray  # map values at cell edges, drives pushforwards
    epsilon: int

    @property
    def x(self):  # source nodes
        return self.source.axes[0].points()

    @property
    def x_edges(self):
        return _cell_edges(self.source.axes[0])

    def evaluate(self, x):
        # np.interp needs increasing ordinates; flip for the antitone branch
        if self.epsilon == +1:
            return np.interp(x, self.x_edges, self.p_hat_edges)
        return -np.interp(x, self.x_edges, -self.p_hat_edges)


def rs_map_1d(psi, epsilon=+1):
    """Monotone map with F_p(p_hat(x)) = F_x(x), or 1 - F_x(x) for epsilon=-1.

    The momentum CDF is tabulated on a _FINE-times-finer grid (by zero
    padding the transform); the piecewise-linear inversion error in the
    tails scales with the square of the tabulation cell width, so the
    refinement buys accuracy exactly where the density is thinnest.  The
    map is the one-slice case of the 2-D chain's ``_conditional_maps``.
    """
    if epsilon not in (+1, -1):
        raise DomainError("epsilon must be +1 or -1")
    if psi.dim != 1:
        raise ValidationError("rs_map_1d needs a 1-D state")
    fine = waves.padded_transform(psi, 0, _FINE)
    p_hat, p_hat_edges = _conditional_maps(
        psi.masses()[:, None], fine.masses()[:, None], fine.axes[0], epsilon
    )
    return MonotoneMap(psi, fine, p_hat[:, 0], p_hat_edges[:, 0], epsilon)


def _deposit_edge_intervals(map_edges, masses, bin_edge0, bin_width, nbins):
    """Deposit each cell's mass over the interval between its edge map values;
    2-D map_edges and masses deposit column by column."""
    return _kernels.deposit_intervals(
        map_edges[:-1], map_edges[1:], masses, bin_edge0, bin_width, nbins
    )


def _sample_cells(masses, count, rng):
    """Indices of ``count`` cells drawn with probability proportional to the
    flattened masses: the draws of ``rng.choice(n, count, p=masses /
    masses.sum())``, leaving rng in the same state.

    choice finds each draw u in the normalized CDF by a binary search, in
    random order.  Here a table over a power-of-two grid of k >= n buckets
    counts the CDF values at or below each b/k; a draw in bucket
    b = floor(u k) has its answer between the counts at b and b + 1, and
    only the few draws whose bracket is open are searched.  u k, b/k and the
    CDF values times k are exact, so every index equals choice's.  About
    one bucket per 8 draws keeps both the table and the open share small.
    """
    masses = np.asarray(masses, dtype=float).ravel()
    total = masses.sum()
    if not (np.isfinite(total) and total > 0.0) or np.any(masses < 0.0):
        raise ValidationError("cell masses must be finite, non-negative and not all zero")
    cdf = np.cumsum(masses / total)
    cdf /= cdf[-1]
    u = rng.random(count)
    k = 1 << (max(masses.size, count // 8) - 1).bit_length()
    # below[b] = number of CDF values <= b/k, as ceil(c k) <= b
    below = np.cumsum(np.bincount(np.ceil(cdf * k).astype(np.intp), minlength=k + 1))
    bucket = (u * k).astype(np.intp)
    idx = below[bucket]
    open_ = np.flatnonzero(idx < below[bucket + 1])
    idx[open_] = np.searchsorted(cdf, u[open_], "right")
    return idx


def _evaluate_in_cells(m, x, cells):
    """``m.evaluate(x)`` for points x known to lie in the source cells
    ``cells`` (edges included), bit for bit, without np.interp's search.

    np.interp's arithmetic on the cell j holding x: the node value where x
    is a node (the last edge included), else slope[j] (x - x_j) + f_j.  A
    point that rounded onto its cell's upper edge belongs to the next cell.
    """
    xe = m.x_edges
    fe = m.p_hat_edges if m.epsilon == +1 else -m.p_hat_edges
    slope = np.append((fe[1:] - fe[:-1]) / (xe[1:] - xe[:-1]), 0.0)
    j = cells + (x >= xe[cells + 1])
    xj, fj = xe[j], fe[j]
    out = np.where(x == xj, fj, slope[j] * (x - xj) + fj)
    return out if m.epsilon == +1 else -out


def _report(distances, method):
    """Verification report: passed when every distance is below the method's
    threshold in ``_THRESHOLDS``."""
    passed = all(v < _THRESHOLDS[method] for v in distances.values())
    return {"distances": distances, "method": method, "passed": bool(passed)}


def verify_marginals_1d(m, mc_samples=0, seed=0):
    """L1 distances of the marginals a 1-D map reproduces for its source state.

    The x marginal is the base density itself, so its distance is zero by
    construction and reported as such.  The p marginal is the pushforward
    of the cell masses through the map, deterministic by default or a
    seeded Monte Carlo histogram when mc_samples > 0.
    """
    masses = m.source.masses()
    fine = waves.padded_transform(m.source, 0, _FINE_1D)
    target = fine.masses()
    bins = _fine_bins(fine.axes[0])

    if mc_samples:
        rng = np.random.default_rng(seed)
        cells = _sample_cells(masses, mc_samples, rng)
        lo, hi = m.x_edges[cells], m.x_edges[cells + 1]
        x = lo + rng.random(mc_samples) * (hi - lo)
        p = _evaluate_in_cells(m, x, cells)
        dep = _kernels.deposit_points(p, np.full(x.shape, 1.0 / mc_samples), *bins)
    else:
        dep = _deposit_edge_intervals(m.p_hat_edges, masses, *bins)

    # compare cell masses: MC noise grows with bin count, and a
    # piecewise-uniform pushforward cannot match sub-cell density shape
    # (that residue scales like dp instead of the dp^2 quadrature error
    # that measures actual map quality)
    distances = {"x": 0.0, "p": _cell_l1(dep, target, _FINE_1D, 0)}
    return _report(distances, "mc" if mc_samples else "deterministic")


# ---------------------------------------------------------------------------
# 2-D chained transport


@dataclass(frozen=True)
class ChainedMap2D:
    """Conditional transport chain over a 2-D state, axis 0 mapped first.

    Stage 1 maps axis 0 into its conjugate momentum, one monotone map per
    cell of axis 1.  Stage 2 maps axis 1, one map per momentum cell
    produced by stage 1.  Tables hold map values at source nodes and at
    source cell edges; the edge tables drive mass-preserving pushforwards.
    """

    source: waves.GridWavefunction  # the 2-D state the chain was built from
    mixed: waves.GridWavefunction  # source transformed along axis 0: (p1, x2)
    momentum: waves.GridWavefunction  # mixed transformed along axis 1: (p1, p2)
    map1_nodes: np.ndarray  # (n0, n1)
    map1_edges: np.ndarray  # (n0 + 1, n1)
    map2_nodes: np.ndarray  # (n1, n_p0)
    map2_edges: np.ndarray  # (n1 + 1, n_p0)

    def conditioning_cells(self):
        """Momentum cell index hit by each stage-1 node value."""
        return _cell_index(self.map1_nodes, self.momentum.axes[0])

    def point_maps(self):
        """Composite momenta (p1, p2) of every cell (k1, k2)."""
        idx = self.conditioning_cells()
        n1 = self.map2_nodes.shape[0]
        # p2[k0, k1] = stage-2 node value at (k1 | stage-1 cell)
        return {"p1": self.map1_nodes, "p2": self.map2_nodes[np.arange(n1)[None, :], idx]}


def _conditional_maps(pos_masses, mom_masses, mom_axis, epsilon):
    """CDF matching for all slices at once; slice index is the second array
    axis, and the momentum masses are cells of mom_axis.  Slices lighter
    than _SLICE_FLOOR keep an all-zero map; if every slice is, there is no
    mass to map."""
    n_map, n_sl = pos_masses.shape
    nodes = np.zeros((n_map, n_sl))
    edges = np.zeros((n_map + 1, n_sl))
    tot_x = _column_totals(pos_masses)
    tot_p = _column_totals(mom_masses)
    live = (tot_x >= _SLICE_FLOOR) & (tot_p >= _SLICE_FLOOR)
    if not live.any():
        raise ValidationError("cannot build a CDF from zero total mass")
    gap = np.abs(tot_x - tot_p)
    scale = np.maximum(tot_x, tot_p)
    bad = np.flatnonzero(live & (gap > 1e-5 * scale))
    if bad.size:
        k = bad[0]
        raise GridResolutionError(
            "conditional slice norms disagree by %.3g of %.3g; refine the grid"
            % (gap[k], scale[k])
        )
    nodes[:, live], edges[:, live] = _invert_edges_and_nodes(
        _cell_edges(mom_axis), _cdf_edges(mom_masses[:, live], tot_p[live]),
        _cdf_edges(pos_masses[:, live], tot_x[live]), epsilon,
    )
    return nodes, edges


def rs_map_2d(psi, epsilon1=+1, epsilon2=+1):
    """Chained conditional transport for a 2-D state, axis 0 mapped first.

    Builds p_hat_1(x1 | x2) against the (p1, x2) density and then
    p_hat_2(x2 | p1) against the (p1, p2) density; to map x2 first, chain
    the state with its axes swapped.  Per-slice norms of the position and
    momentum conditionals must agree (a transform along the mapped axis
    preserves them exactly); mismatch beyond 1e-5 raises
    GridResolutionError.
    """
    for e in (epsilon1, epsilon2):
        if e not in (+1, -1):
            raise DomainError("epsilons must be +1 or -1")
    if psi.dim != 2:
        raise ValidationError("rs_map_2d needs a 2-D state")
    psi_m = waves.fourier(psi, axis=0)
    psi_mm = waves.fourier(psi_m, axis=1)
    # density() * cell_volume(), not masses(): the product of the spacings
    # rounds differently, and the chain tables are pinned with this rounding
    mass, mass_m, mass_mm = (w.density() * w.cell_volume() for w in (psi, psi_m, psi_mm))
    map1_nodes, map1_edges = _conditional_maps(mass, mass_m, psi_m.axes[0], epsilon1)
    map2_nodes, map2_edges = _conditional_maps(mass_m.T, mass_mm.T, psi_mm.axes[1], epsilon2)
    return ChainedMap2D(psi, psi_m, psi_mm, map1_nodes, map1_edges, map2_nodes, map2_edges)


def _double_fine_masses(padded0):
    """Cell masses of the full momentum density, _FINE times finer along
    both axes, then cell-integrated back to coarse cells along axis 0, from
    padded0 = ``waves.padded_transform(psi, 0, _FINE)``, bit for bit as from
    the fully padded (4n)^2 transform.

    Axis 0 is padded and transformed before axis 1 is padded, so the first
    transform runs over the n1 state columns only.  Axis 1 follows in
    blocks of _ROWS rows (n0 is a power of two, so they tile it) in one
    reused buffer, each grouped straight into the result; the part of a
    block's last fine rows that falls in the next coarse cell is carried
    into the next block."""
    ax0, ax1 = padded0.axes
    n0, n1 = padded0.values.shape
    rows, start = min(n0, _ROWS), (_FINE - 1) * n1 // 2
    spacings = (ax0.spacing, waves.Axis(_FINE * n1, ax1.spacing).conjugate().spacing)
    values = np.empty((rows, _FINE * n1), dtype=complex)
    masses = np.empty(values.shape)
    out = np.empty((n0 // _FINE, _FINE * n1))  # (p0 cells, p1 fine)
    for r in range(0, n0, rows):
        values[:, :start] = values[:, start + n1 :] = 0.0
        waves._centered_transform(values, padded0.values[r : r + rows], 1, start, ax1)
        np.square(np.abs(values, out=masses), out=masses)
        for spacing in spacings:  # in masses()'s order, so the bits match
            masses *= spacing
        parts = _block_parts(masses, _FINE, 0)
        k = r // _FINE
        out[k : k + len(parts)] = parts[..., 0]
        out[k + 1 : k + len(parts)] += parts[:-1, :, 1]
        if k:
            out[k] += spill
        spill = parts[-1, :, 1]
    return out


def verify_marginals_2d(chain, mc_samples=0, seed=0):
    """L1 distances for the three densities a chain reproduces for its state.

    Deterministic path: source cell masses ride the map stages as exact
    intervals into fine momentum bins; targets are transform densities on
    oversampled grids, cell-integrated along any axis the chain resolves
    only at coarse cells.  Monte Carlo path: seeded position samples pushed
    through the composite point maps onto coarsened grids.
    """
    if mc_samples:
        return _verify_2d_mc(chain, mc_samples, seed)
    base = chain.source.masses()

    # middle density (p0, x1): per-column interval pushforward, compared
    # on cell masses as in the 1-D verifier
    fine = waves.padded_transform(chain.source, 0, _FINE)
    rep_mid = _deposit_edge_intervals(chain.map1_edges, base, *_fine_bins(fine.axes[0]))

    # final density (p0 cells, p1 fine): stage 2 pushes the stage-1 masses on
    # the coarse momentum cells, against a p0-cell-integrated target
    m1 = _deposit_edge_intervals(chain.map1_edges, base, *_fine_bins(chain.momentum.axes[0]))
    rep_pp = _deposit_edge_intervals(
        chain.map2_edges, m1.T, *_fine_bins(chain.momentum.axes[1], _FINE)
    ).T
    distances = {
        "qq": 0.0,
        "pq": _cell_l1(rep_mid, fine.masses(), _FINE, 0),
        "pp": _cell_l1(rep_pp, _double_fine_masses(fine), _FINE, 1),
    }
    return _report(distances, "deterministic")


def _verify_2d_mc(chain, mc_samples, seed):
    """Monte Carlo marginal check on _MC_GROUP-coarsened grids."""
    psi = chain.source
    rng = np.random.default_rng(seed)
    n1, n2 = psi.axes[0].n, psi.axes[1].n

    base = psi.masses()
    idx = _sample_cells(base, mc_samples, rng)
    k1, k2 = idx // n2, idx % n2
    pm = chain.point_maps()
    p1, p2 = pm["p1"][k1, k2], pm["p2"][k1, k2]

    kp1, kp2 = (_cell_index(p, pax) for p, pax in zip((p1, p2), chain.momentum.axes))

    def hist2(a, b):  # a momentum axis has as many points as its position axis
        return (np.bincount(a * n2 + b, minlength=n1 * n2) / mc_samples).reshape(n1, n2)

    distances = {
        "qq": _cell_l1(hist2(k1, k2), base, _MC_GROUP, 0, 1),
        "pq": _cell_l1(hist2(kp1, k2), chain.mixed.masses(), _MC_GROUP, 0, 1),
        "pp": _cell_l1(hist2(kp1, kp2), chain.momentum.masses(), _MC_GROUP, 0, 1),
    }
    return _report(distances, "mc")


def verify_marginals(m, mc_samples=0, seed=0):
    """Marginal verification report for a 1-D map or a 2-D chain."""
    if isinstance(m, MonotoneMap):
        return verify_marginals_1d(m, mc_samples=mc_samples, seed=seed)
    if isinstance(m, ChainedMap2D):
        return verify_marginals_2d(m, mc_samples=mc_samples, seed=seed)
    raise ValidationError("expected a MonotoneMap or a ChainedMap2D")


def ccs_distance(chain):
    """L1 distance between the chain-implied density of the off-chain mixed
    pair (x1, p2) and its transform density.  The pairs the chain reproduces
    by construction are ``verify_marginals_2d``'s; this one it need not
    reproduce.  For the correlated Gaussian, the only state ``rs2d`` offers,
    the continuum chain does reproduce it: at rho = 0.5, sigma = 1, n = 256,
    xmax = 12 the exact composite map p = Sigma^-1 x / 2 scores 1.35e-3
    where this distance reads 0.23.  On that state the distance measures the
    grid's stage-2 conditioning at cell nodes, not the construction (ROADMAP
    item 8)."""
    # off-chain pair (x1, p2): stage-2 intervals selected by each cell's
    # stage-1 conditioning index, one deposit column per x1 row
    base = chain.source.masses()
    idx = chain.conditioning_cells()
    rows = np.arange(base.shape[1])
    rep = _kernels.deposit_intervals(
        chain.map2_edges[rows, idx].T, chain.map2_edges[rows + 1, idx].T, base.T,
        *_fine_bins(chain.momentum.axes[1], _FINE),
    ).T
    return _cell_l1(rep, waves.padded_transform(chain.source, 1, _FINE).masses(), _FINE, 1)

