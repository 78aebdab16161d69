"""Momentum fields and CDF-matching transport maps on grid wavefunctions.

Two phase-space constructions over a base density |psi(x)|^2:

* the gradient-of-phase momentum field Im(psi'/psi), whose pushforward of
  the position density generally fails to reproduce |psi_tilde(p)|^2
  (``takabayasi_gap`` measures the miss in L1), and
* monotone transport maps p_hat(x) defined by matching cumulative
  distribution functions, which reproduce the momentum marginal by
  construction.  In 2-D the maps chain conditionally and reproduce three
  mixed position/momentum densities at once; swapping the chaining order
  yields a genuinely different composite map with the same marginals.

Epsilon convention: epsilon=+1 matches F_p(p_hat) = F_x(x) (nondecreasing
map); epsilon=-1 matches F_p(p_hat) = 1 - F_x(x) (nonincreasing).  The
latter is the antitone coupling; it preserves the momentum marginal for
asymmetric densities and coincides with reflecting the position CDF when
the density is even.

Pushforwards never sample a delta-on-a-map density pointwise: each source
cell's exact mass is deposited over its image interval, so total mass is
conserved to rounding and L1 comparisons against transform densities are
meaningful at fine bins.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels, waves
from .errors import DomainError, GridResolutionError, ValidationError

_NODE_FLOOR = 1e-12  # |psi| below this marks the phase ill-defined
_SLICE_FLOOR = 1e-300  # conditional slices lighter than this carry no map


# ---------------------------------------------------------------------------
# CDF utilities


def _cell_edges(axis):
    pts = axis.points()
    return np.concatenate([pts - axis.spacing / 2.0, [pts[-1] + axis.spacing / 2.0]])


def _column_totals(masses):
    """Sum along axis 0, per column in the same pairwise order as a 1-D sum.

    A reduction over axis 0 of a 2-D array adds row after row instead, which
    rounds differently; slice norms and CDFs must not depend on batching.
    """
    return np.ascontiguousarray(masses.T).sum(axis=-1)


def _cdf_edges(masses):
    """Cumulative mass at cell edges along axis 0, each column normalized to
    end at exactly 1."""
    total = _column_totals(masses)
    if np.any(total <= 0.0):
        raise ValidationError("cannot build a CDF from zero total mass")
    f = np.concatenate([np.zeros((1,) + masses.shape[1:]), np.cumsum(masses, axis=0)]) / total
    np.clip(f, 0.0, 1.0, out=f)  # cumsum rounding can poke past 1 by an ulp
    f[-1] = 1.0
    return f


def _search_columns(f, u):
    """``np.searchsorted(f[:, k], u[:, k])`` for every column k at once, for
    side "left" and side "right".

    The key k + 1j*value orders lexicographically (complex order compares
    real parts first), so the columns of f concatenate into one sorted array
    without rounding a single value.  Queries go column by column, where
    they are monotone, which keeps the search local.
    """
    n, ncols = f.shape
    col = np.arange(ncols)
    keys = (col + 1j * f).T.ravel()
    queries = (col + 1j * u).T.ravel()
    return tuple(
        np.searchsorted(keys, queries, side=side).reshape(ncols, len(u)).T - col * n
        for side in ("left", "right")
    )


def _cdf_inverse(edges, f, u):
    """Invert piecewise-linear CDFs on shared edges; exact plateau hits return
    the midpoint.  f holds one CDF per column and u the queries for each
    column; a 1-D f and u are a single column."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    f2 = f if f.ndim == 2 else f[:, None]
    u2 = u if u.ndim == 2 else u[:, None]
    cols = np.arange(f2.shape[1])
    lo, hi = _search_columns(f2, u2)
    left = np.clip(lo, 0, len(edges) - 1)
    right = np.clip(hi - 1, 0, len(edges) - 1)
    plateau = 0.5 * (edges[left] + edges[right])
    j = np.clip(lo - 1, 0, len(f2) - 2)
    f_lo = f2[j, cols]
    df = f2[j + 1, cols] - f_lo
    frac = np.where(df > 0, (u2 - f_lo) / np.where(df > 0, df, 1.0), 0.5)
    interp = edges[j] + np.clip(frac, 0.0, 1.0) * (edges[j + 1] - edges[j])
    return np.where(hi > lo, plateau, interp).reshape(u.shape)


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


def _oversampled_momentum_density(psi, axis=0, factor=4):
    """|psi_tilde|^2 on a factor-times-finer momentum grid via zero padding."""
    ax = psi.axes[axis]
    if ax.representation != waves.POSITION:
        raise ValidationError("can only oversample a position-representation axis")
    pad_n = factor * ax.n
    shape = list(psi.values.shape)
    shape[axis] = pad_n
    padded = np.zeros(shape, dtype=complex)
    start = (factor - 1) * ax.n // 2
    sl = [slice(None)] * psi.values.ndim
    sl[axis] = slice(start, start + ax.n)
    padded[tuple(sl)] = psi.values
    axes = list(psi.axes)
    axes[axis] = waves.Axis(pad_n, ax.spacing, ax.representation)
    fine = waves.fourier(waves.GridWavefunction(tuple(axes), padded, {}), axis=axis)
    return np.abs(fine.values) ** 2, fine.axes[axis]


def _group_fine_axis(fine_masses, factor, axis=0):
    """Sum fine-grid masses into the coarse cells they subdivide.

    Fine point factor*k coincides with coarse point k, so coarse cell k
    spans fine cells factor*k - factor/2 .. factor*k + factor/2 with the
    two boundary cells straddling the coarse edges; those contribute half
    their mass to each side.  Fine cells hanging off the grid ends are
    beyond the covered momentum range and dropped (their mass is zero for
    any state that fits the grid).
    """
    if factor % 2:
        raise ValidationError("fine factor must be even")
    half = factor // 2
    arr = np.moveaxis(np.asarray(fine_masses), axis, 0)
    n_coarse = arr.shape[0] // factor
    padded = np.concatenate([np.zeros((half,) + arr.shape[1:]), arr], axis=0)
    csum = np.concatenate(
        [np.zeros((1,) + arr.shape[1:]), np.cumsum(padded, axis=0)], axis=0
    )
    starts = factor * np.arange(n_coarse)
    coarse = (
        csum[starts + factor + 1]
        - csum[starts]
        - 0.5 * padded[starts]
        - 0.5 * padded[starts + factor]
    )
    return np.moveaxis(coarse, 0, axis)


def takabayasi_gap_detailed(psi, fine_factor=4):
    """L1 gap between the field-pushforward of |psi|^2 and |psi_tilde|^2.

    Each position cell's mass rides the momentum field into the interval
    spanned by the field values at the cell edges (degenerate where the
    field is locally constant).  Cells with undefined field are excluded
    and their mass reported separately.
    """
    field = debb_momentum_field(psi)
    ax = psi.axes[0]
    masses = psi.density() * ax.spacing
    ok = np.isfinite(field)
    excluded = float(masses[~ok].sum())

    # field at interior cell edges by averaging neighbors, one-sided at ends
    filled = np.where(ok, field, 0.0)
    edge_vals = np.concatenate(
        [[filled[0]], 0.5 * (filled[:-1] + filled[1:]), [filled[-1]]]
    )
    lo = np.minimum(edge_vals[:-1], edge_vals[1:])[ok]
    hi = np.maximum(edge_vals[:-1], edge_vals[1:])[ok]

    fine_dens, fine_ax = _oversampled_momentum_density(psi, factor=fine_factor)
    fine_edges = _cell_edges(fine_ax)
    deposited = _kernels.deposit_intervals(
        lo, hi, masses[ok], fine_edges[0], fine_ax.spacing, fine_ax.n
    )
    gap = float(np.sum(np.abs(deposited - fine_dens * fine_ax.spacing)))
    return {"gap": gap, "excluded_mass": excluded}


def takabayasi_gap(psi, fine_factor=4):
    return takabayasi_gap_detailed(psi, fine_factor)["gap"]


# ---------------------------------------------------------------------------
# 1-D transport map


@dataclass(frozen=True)
class MonotoneMap:
    x: np.ndarray  # source nodes
    p_hat: np.ndarray  # map values at the nodes
    x_edges: np.ndarray
    p_hat_edges: np.ndarray  # map values at cell edges, drives pushforwards
    epsilon: int

    def evaluate(self, x):
        # np.interp needs increasing ordinates; flip for the antitone branch
        if self.epsilon == +1:
            return np.interp(x, self.x_edges, self.p_hat_edges)
        return -np.interp(x, self.x_edges, -self.p_hat_edges)


def rs_map_1d(psi, epsilon=+1, p_refine=4):
    """Monotone map with F_p(p_hat(x)) = F_x(x), or 1 - F_x(x) for epsilon=-1.

    The momentum CDF is tabulated on a p_refine-times-finer grid (by zero
    padding the transform); the piecewise-linear inversion error in the
    tails scales with the square of the tabulation cell width, so the
    refinement buys accuracy exactly where the density is thinnest.
    """
    if epsilon not in (+1, -1):
        raise DomainError("epsilon must be +1 or -1")
    if psi.dim != 1:
        raise ValidationError("rs_map_1d needs a 1-D state")
    ax = psi.axes[0]
    if p_refine > 1:
        fine_dens, pax = _oversampled_momentum_density(psi, factor=int(p_refine))
        p_masses = fine_dens * pax.spacing
    else:
        tilde = waves.fourier(psi)
        pax = tilde.axes[0]
        p_masses = tilde.density() * pax.spacing

    fx = _cdf_edges(psi.density() * ax.spacing)
    fp = _cdf_edges(p_masses)
    u_edges = fx if epsilon == +1 else 1.0 - fx
    u_nodes = 0.5 * (u_edges[:-1] + u_edges[1:])

    p_edges = _cell_edges(pax)
    return MonotoneMap(
        x=ax.points(),
        p_hat=_cdf_inverse(p_edges, fp, u_nodes),
        x_edges=_cell_edges(ax),
        p_hat_edges=_cdf_inverse(p_edges, fp, u_edges),
        epsilon=epsilon,
    )


def _deposit_edge_intervals(map_edges, masses, bin_edge0, bin_width, nbins):
    """Deposit each cell's mass over the interval between its edge map values;
    2-D map_edges and masses deposit column by column."""
    return _kernels.deposit_intervals(
        map_edges[:-1], map_edges[1:], masses, bin_edge0, bin_width, nbins
    )


def _sample_from_cells(masses, edges, count, rng):
    prob = masses / masses.sum()
    idx = rng.choice(masses.shape[0], size=count, p=prob)
    return edges[idx] + rng.random(count) * (edges[idx + 1] - edges[idx])


def verify_marginals_1d(m, psi, fine_factor=8, mc_samples=0, seed=0):
    """L1 distances of the marginals reproduced by a 1-D map.

    The x marginal is the base density itself, so its distance is zero by
    construction and reported as such.  The p marginal is the pushforward
    of the cell masses through the map, deterministic by default or a
    seeded Monte Carlo histogram when mc_samples > 0.
    """
    ax = psi.axes[0]
    masses = psi.density() * ax.spacing
    fine_dens, fine_ax = _oversampled_momentum_density(psi, factor=fine_factor)
    target = fine_dens * fine_ax.spacing
    fine_edges = _cell_edges(fine_ax)

    if mc_samples:
        rng = np.random.default_rng(seed)
        x = _sample_from_cells(masses, _cell_edges(ax), mc_samples, rng)
        dep = _kernels.deposit_points(
            m.evaluate(x),
            np.full(x.shape, 1.0 / mc_samples),
            fine_edges[0],
            fine_ax.spacing,
            fine_ax.n,
        )
        # MC noise grows with bin count; compare on the coarse cells
        dep = _group_fine_axis(dep, fine_factor)
        tgt = _group_fine_axis(target, fine_factor)
        l1_p = float(np.sum(np.abs(dep - tgt)))
        method = "mc"
    else:
        dep = _deposit_edge_intervals(
            m.p_hat_edges, masses, fine_edges[0], fine_ax.spacing, fine_ax.n
        )
        # compare cell masses: a piecewise-uniform pushforward cannot match
        # sub-cell density shape, and that residue scales like dp instead of
        # the dp^2 quadrature error that measures actual map quality
        dep = _group_fine_axis(dep, fine_factor)
        tgt = _group_fine_axis(target, fine_factor)
        l1_p = float(np.sum(np.abs(dep - tgt)))
        method = "deterministic"

    distances = {"x": 0.0, "p": l1_p}
    threshold = 5e-2 if mc_samples else 5e-3
    return {
        "distances": distances,
        "method": method,
        "passed": bool(all(v < threshold for v in distances.values())),
    }


# ---------------------------------------------------------------------------
# 2-D chained transport


def _oriented(values, mapped_axis):
    """View a 2-D array as (mapped axis, conditioning axis)."""
    return values if mapped_axis == 0 else values.T


@dataclass(frozen=True)
class ChainedMap2D:
    """Conditional transport chain over a 2-D state.

    Stage 1 maps the coordinate ``first_axis`` into its conjugate
    momentum, one monotone map per cell of the other coordinate.  Stage 2
    maps the other coordinate, one map per momentum cell produced by
    stage 1.  Tables hold map values at source nodes and at source cell
    edges; the edge tables drive mass-preserving pushforwards.
    """

    ordering: str  # "px" replaces x1 first, "xp" replaces x2 first
    epsilons: tuple
    first_axis: int
    map1_nodes: np.ndarray  # (n_first, n_other)
    map1_edges: np.ndarray  # (n_first + 1, n_other)
    map2_nodes: np.ndarray  # (n_other, n_pfirst)
    map2_edges: np.ndarray  # (n_other + 1, n_pfirst)
    axes: tuple
    momentum_axes: tuple

    def conditioning_cells(self):
        """Momentum cell index hit by each stage-1 node value."""
        pax = self.momentum_axes[self.first_axis]
        return np.clip(
            np.round(self.map1_nodes / pax.spacing + pax.n // 2).astype(int),
            0,
            pax.n - 1,
        )

    def point_maps(self):
        """Composite momenta (p1, p2) assigned to every position cell (k1, k2)."""
        idx = self.conditioning_cells()
        n_other = self.map2_nodes.shape[0]
        # out[k_first, k_other] = stage-2 node value at (k_other | stage-1 cell)
        out = self.map2_nodes[np.arange(n_other)[None, :], idx]
        if self.first_axis == 0:
            return {"p1": self.map1_nodes, "p2": out}
        return {"p1": out.T, "p2": self.map1_nodes.T}


def _conditional_maps(pos_masses, mom_masses, mom_axis, epsilon):
    """CDF matching for all slices at once; slice index is the second array
    axis.  Slices lighter than _SLICE_FLOOR keep an all-zero map."""
    n_map, n_sl = pos_masses.shape
    nodes = np.zeros((n_map, n_sl))
    edges = np.zeros((n_map + 1, n_sl))
    tot_x = _column_totals(pos_masses)
    tot_p = _column_totals(mom_masses)
    live = (tot_x >= _SLICE_FLOOR) & (tot_p >= _SLICE_FLOOR)
    gap = np.abs(tot_x - tot_p)
    scale = np.maximum(tot_x, tot_p)
    bad = np.flatnonzero(live & (gap > 1e-5 * scale))
    if bad.size:
        k = bad[0]
        raise GridResolutionError(
            "conditional slice norms disagree by %.3g of %.3g; refine the grid"
            % (gap[k], scale[k])
        )
    fx = _cdf_edges(pos_masses[:, live])
    fp = _cdf_edges(mom_masses[:, live])
    u = fx if epsilon == +1 else 1.0 - fx
    p_edges = _cell_edges(mom_axis)
    edges[:, live] = _cdf_inverse(p_edges, fp, u)
    nodes[:, live] = _cdf_inverse(p_edges, fp, 0.5 * (u[:-1] + u[1:]))
    return nodes, edges


def rs_map_2d(psi, epsilon1=+1, epsilon2=+1, ordering="px"):
    """Chained conditional transport for a 2-D state.

    ordering "px" builds p_hat_1(x1 | x2) against the (p1, x2) density and
    then p_hat_2(x2 | p1) against the (p1, p2) density; ordering "xp"
    swaps the coordinate roles.  Per-slice norms of the position and
    momentum conditionals must agree (a transform along the mapped axis
    preserves them exactly); mismatch beyond 1e-5 raises
    GridResolutionError.
    """
    if ordering not in ("px", "xp"):
        raise ValidationError("ordering must be 'px' or 'xp'")
    for e in (epsilon1, epsilon2):
        if e not in (+1, -1):
            raise DomainError("epsilons must be +1 or -1")
    if psi.dim != 2:
        raise ValidationError("rs_map_2d needs a 2-D state")
    first = 0 if ordering == "px" else 1
    other = 1 - first

    psi_m = waves.fourier(psi, axis=first)
    psi_mm = waves.fourier(psi_m, axis=other)
    cell = psi.axes[0].spacing * psi.axes[1].spacing
    cell_m = psi_m.axes[0].spacing * psi_m.axes[1].spacing
    cell_mm = psi_mm.axes[0].spacing * psi_mm.axes[1].spacing

    map1_nodes, map1_edges = _conditional_maps(
        _oriented(psi.density(), first) * cell,
        _oriented(psi_m.density(), first) * cell_m,
        psi_m.axes[first],
        epsilon1,
    )
    map2_nodes, map2_edges = _conditional_maps(
        _oriented(psi_m.density(), other) * cell_m,
        _oriented(psi_mm.density(), other) * cell_mm,
        psi_mm.axes[other],
        epsilon2,
    )
    return ChainedMap2D(
        ordering=ordering,
        epsilons=(epsilon1, epsilon2),
        first_axis=first,
        map1_nodes=map1_nodes,
        map1_edges=map1_edges,
        map2_nodes=map2_nodes,
        map2_edges=map2_edges,
        axes=tuple(psi.axes),
        momentum_axes=tuple(psi_mm.axes),
    )


def _chain_labels(chain):
    return ("qq", "pq", "pp") if chain.ordering == "px" else ("qq", "qp", "pp")


def _base_masses(chain, psi):
    return (
        _oriented(psi.density(), chain.first_axis)
        * psi.axes[0].spacing
        * psi.axes[1].spacing
    )


def _stage1_cell_masses(chain, psi):
    """Push base cell masses through stage 1 onto the coarse momentum cells
    that condition stage 2; returns (n_pfirst, n_other)."""
    pax = chain.momentum_axes[chain.first_axis]
    return _deposit_edge_intervals(
        chain.map1_edges, _base_masses(chain, psi), _cell_edges(pax)[0], pax.spacing, pax.n
    )


def _double_fine_masses(psi, first, factor):
    """Cell masses of the full momentum density, fine along both axes,
    then cell-integrated back to coarse cells along the first axis."""
    ax0, ax1 = psi.axes
    padded = np.zeros((factor * ax0.n, factor * ax1.n), dtype=complex)
    s0 = (factor - 1) * ax0.n // 2
    s1 = (factor - 1) * ax1.n // 2
    padded[s0 : s0 + ax0.n, s1 : s1 + ax1.n] = psi.values
    big = waves.GridWavefunction(
        (
            waves.Axis(factor * ax0.n, ax0.spacing, ax0.representation),
            waves.Axis(factor * ax1.n, ax1.spacing, ax1.representation),
        ),
        padded,
        {},
    )
    big_mm = waves.fourier(waves.fourier(big, axis=0), axis=1)
    fine_masses = big_mm.density() * big_mm.axes[0].spacing * big_mm.axes[1].spacing
    oriented = _oriented(fine_masses, first)  # (p_first fine, p_other fine)
    return _group_fine_axis(oriented, factor, axis=0)  # (p_first cells, p_other fine)


def verify_marginals_2d(chain, psi, fine_factor=4, mc_samples=0, seed=0):
    """L1 distances for the three densities a chain reproduces.

    Deterministic path: source cell masses ride the map stages as exact
    intervals into fine momentum bins; targets are transform densities on
    oversampled grids, cell-integrated along any axis the chain resolves
    only at coarse cells.  Monte Carlo path: seeded position samples
    pushed through the composite point maps onto coarsened grids.
    """
    if mc_samples:
        return _verify_2d_mc(chain, psi, mc_samples, seed)
    first = chain.first_axis
    other = 1 - first
    labels = _chain_labels(chain)
    distances = {labels[0]: 0.0}
    base = _base_masses(chain, psi)

    # middle density (p_first, x_other): per-column interval pushforward
    fine_dens, fine_ax = _oversampled_momentum_density(psi, axis=first, factor=fine_factor)
    tgt_mid = _oriented(fine_dens, first) * fine_ax.spacing * psi.axes[other].spacing
    rep_mid = _deposit_edge_intervals(
        chain.map1_edges, base, _cell_edges(fine_ax)[0], fine_ax.spacing, fine_ax.n
    )
    # cell-mass comparison, as in the 1-D verifier
    distances[labels[1]] = float(
        np.sum(
            np.abs(
                _group_fine_axis(rep_mid, fine_factor, axis=0)
                - _group_fine_axis(tgt_mid, fine_factor, axis=0)
            )
        )
    )

    # final density (p_first cells, p_other fine): stage-2 pushforward of
    # the stage-1 masses against a p_first-cell-integrated target
    m1 = _stage1_cell_masses(chain, psi)
    tgt_pp = _double_fine_masses(psi, first, fine_factor)
    pax_other = chain.momentum_axes[other]
    fine2_n = fine_factor * pax_other.n
    fine2_spacing = pax_other.spacing / fine_factor
    # bins must sit on the padded-transform fine grid (point-anchored)
    fine2_edge0 = pax_other.points()[0] - fine2_spacing / 2.0
    rep_pp = _deposit_edge_intervals(
        chain.map2_edges, m1.T, fine2_edge0, fine2_spacing, fine2_n
    ).T
    distances[labels[2]] = float(
        np.sum(
            np.abs(
                _group_fine_axis(rep_pp, fine_factor, axis=1)
                - _group_fine_axis(tgt_pp, fine_factor, axis=1)
            )
        )
    )

    return {
        "distances": distances,
        "method": "deterministic",
        "passed": bool(all(v < 5e-3 for v in distances.values())),
    }


def _verify_2d_mc(chain, psi, mc_samples, seed, group=4):
    """Monte Carlo marginal check on group-coarsened grids."""
    rng = np.random.default_rng(seed)
    first = chain.first_axis
    labels = _chain_labels(chain)
    n1, n2 = psi.axes[0].n, psi.axes[1].n

    base = psi.density() * psi.axes[0].spacing * psi.axes[1].spacing
    flat = base.ravel()
    idx = rng.choice(flat.size, size=mc_samples, p=flat / flat.sum())
    k1, k2 = idx // n2, idx % n2
    pm = chain.point_maps()
    p1, p2 = pm["p1"][k1, k2], pm["p2"][k1, k2]

    pax1, pax2 = chain.momentum_axes
    kp1 = np.clip(np.round(p1 / pax1.spacing + pax1.n // 2).astype(int), 0, pax1.n - 1)
    kp2 = np.clip(np.round(p2 / pax2.spacing + pax2.n // 2).astype(int), 0, pax2.n - 1)

    psi_m = waves.fourier(psi, axis=first)
    psi_mm = waves.fourier(psi_m, axis=first ^ 1)
    tgt_m = psi_m.density() * psi_m.axes[0].spacing * psi_m.axes[1].spacing
    tgt_mm = psi_mm.density() * psi_mm.axes[0].spacing * psi_mm.axes[1].spacing

    def hist2(a, b, na, nb):
        h = np.bincount(a * nb + b, minlength=na * nb) / mc_samples
        return h.reshape(na, nb)

    def coarse(arr):
        g = _group_fine_axis(arr, group, axis=0)
        return _group_fine_axis(g, group, axis=1)

    def l1(rep, tgt):
        return float(np.sum(np.abs(coarse(rep) - coarse(tgt))))

    distances = {labels[0]: l1(hist2(k1, k2, n1, n2), base)}
    if first == 0:
        distances[labels[1]] = l1(hist2(kp1, k2, pax1.n, n2), tgt_m)
    else:
        distances[labels[1]] = l1(hist2(k1, kp2, n1, pax2.n), tgt_m)
    distances[labels[2]] = l1(hist2(kp1, kp2, pax1.n, pax2.n), tgt_mm)
    return {
        "distances": distances,
        "method": "mc",
        "passed": bool(all(v < 5e-2 for v in distances.values())),
    }


def verify_marginals(m, psi, fine_factor=None, mc_samples=0, seed=0):
    """Marginal verification report for a 1-D map or a 2-D chain."""
    if isinstance(m, MonotoneMap):
        return verify_marginals_1d(
            m, psi, fine_factor=fine_factor or 8, mc_samples=mc_samples, seed=seed
        )
    if isinstance(m, ChainedMap2D):
        return verify_marginals_2d(
            m, psi, fine_factor=fine_factor or 4, mc_samples=mc_samples, seed=seed
        )
    raise ValidationError("expected a MonotoneMap or a ChainedMap2D")


def ccs_distance(chain, psi, ccs, fine_factor=4):
    """L1 distance between a chain-implied density and the transform density.

    For the three densities the chain reproduces this returns the
    verification distance; for the complementary mixed pair, which the
    chain does NOT reproduce, the distance is generically large.
    """
    labels = _chain_labels(chain)
    if ccs in labels:
        return verify_marginals_2d(chain, psi, fine_factor=fine_factor)["distances"][ccs]
    off_label = "qp" if chain.ordering == "px" else "pq"
    if ccs != off_label:
        raise DomainError("ccs must be one of qq, pq, qp, pp")

    # off-chain pair (x_first, p_other): stage-2 intervals selected by each
    # cell's stage-1 conditioning index, one deposit column per x_first row
    first = chain.first_axis
    other = 1 - first
    base = _base_masses(chain, psi)
    idx = chain.conditioning_cells()
    pax_other = chain.momentum_axes[other]
    fine_n = fine_factor * pax_other.n
    fine_spacing = pax_other.spacing / fine_factor
    fine_edge0 = pax_other.points()[0] - fine_spacing / 2.0
    rows = np.arange(base.shape[1])
    rep = _kernels.deposit_intervals(
        chain.map2_edges[rows, idx].T, chain.map2_edges[rows + 1, idx].T, base.T,
        fine_edge0, fine_spacing, fine_n,
    ).T
    fine_dens, fine_ax = _oversampled_momentum_density(psi, axis=other, factor=fine_factor)
    tgt = _oriented(fine_dens, first) * psi.axes[first].spacing * fine_ax.spacing
    return float(
        np.sum(
            np.abs(
                _group_fine_axis(rep, fine_factor, axis=1)
                - _group_fine_axis(tgt, fine_factor, axis=1)
            )
        )
    )


# ---------------------------------------------------------------------------
# ballistic transport of the mapped density


def ballistic_transport_check(
    x0=0.0,
    p0=0.0,
    sigma=2.0 ** -0.5,
    t=6.0,
    t_prime=6.5,
    mass=1.0,
    epsilon=+1,
    n=2048,
    xmax=None,
    fine_factor=4,
):
    """Transport the mapped density of a free Gaussian from t to t_prime.

    Each position cell's mass flies at its edge map values for the lag
    (t_prime - t); the landed histogram is compared in L1 against the
    exact evolved density.  Straight-line flight is only an asymptotic
    surrogate for the exact evolution, so the distance shrinks as t grows
    but does not vanish.
    """
    if t_prime < t:
        raise DomainError("t_prime must not precede t")
    if xmax is None:
        spread = waves.gaussian_spread(sigma, t_prime, mass)
        xmax = abs(x0) + abs(p0) * t_prime / mass + 10.0 * spread
    psi_t = waves.gaussian_packet(x0=x0, p0=p0, sigma=sigma, t=t, n=n, xmax=xmax, mass=mass)
    m = rs_map_1d(psi_t, epsilon)
    lag = (t_prime - t) / mass
    landed_edges = m.x_edges + m.p_hat_edges * lag

    ax = psi_t.axes[0]
    fine_n = fine_factor * ax.n
    fine_spacing = ax.spacing / fine_factor
    fine_edge0 = -xmax - fine_spacing / 2.0
    masses = psi_t.density() * ax.spacing
    dep = _deposit_edge_intervals(landed_edges, masses, fine_edge0, fine_spacing, fine_n)

    psi_fine = waves.gaussian_packet(
        x0=x0, p0=p0, sigma=sigma, t=t_prime, n=fine_n, xmax=xmax, mass=mass
    )
    tgt = psi_fine.density() * fine_spacing
    covered = dep.sum()
    return {
        "l1": float(np.sum(np.abs(dep - tgt))),
        "t": float(t),
        "t_prime": float(t_prime),
        "mass_in_range": float(covered),
    }
