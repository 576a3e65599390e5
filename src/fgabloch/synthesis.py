"""Wave-field synthesis from propagated phase-space trajectories.

Each trajectory contributes

    pref * a0 * exp(i S / eps) * G^eps_{Q, P}(x) * u_n(P, x/eps) * w_n(q, p) dq^d dp^d

with pref = 2^{-d/4} (2 pi eps)^{-3d/4}; the seed coefficient w_n already
carries the windowed-transform prefactor, so at t = 0 the sum reproduces the
band operator exactly (same quadrature).

Bloch factors are evaluated at the nearest Brillouin node to the wrapped
momentum with a linear phase alignment.  A trajectory whose momentum has
wound around the zone w times picks up the compensation
exp(i w.theta_hol) exp(-2 pi i (w.Q)/eps): the stored gauge has a seam at
the zone boundary, and this factor is exactly what keeps a0 * u smooth
across it (the basis relabeling moves a plane wave from u into the Gaussian
phase).

The Gaussian factors along each axis: every trajectory gets one truncated
window per axis, on the grid points within r_c sqrt(eps) of Q, folded onto
the axis when it is longer than the domain, and factored as in fast Gaussian
gridding (Greengard & Lee, SIAM Rev. 46 (2004) 443-454; see _axis_window).
The windows' product, a block of grid points from its start, is added onto
the grid as slices (split where it wraps: up to 2^d pieces), one trajectory
after the other, into a buffer per chunk; each Brillouin node's sum is then
multiplied by its Bloch wave.  The sum is pointwise: on a grid refined by an
integer factor the values, subsampled, agree up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .bloch import BandTable, nearest_node
from .dynamics import EnsembleSnapshot, wrap_momentum
from .errors import PlanError
from .transform import SeedSet, _cell_bloch_values, _field_cells
from .wavefield import WaveField

TWO_PI = 2.0 * np.pi
# Trajectories windowed and summed at once (the 1D chunk), fewer when their
# windows would hold more than _SCATTER_ENTRIES grid points together.  Both
# bound a part within a factor 2 only: a node's trajectories go into
# sel.size // chunk near-equal parts, of up to 2 chunk - 1 trajectories.
_TRAJ_CHUNK = 512
_SCATTER_ENTRIES = 2 ** 22
_BLOCK = 64                 # window points per block of exp(k beta)


def initial_snapshot(seeds: SeedSet) -> EnsembleSnapshot:
    """The t = 0 ensemble state: Q = q, P = p, S = 0, F = I, a0 = 2^{d/2}, sigma_min = 2."""
    n, d = seeds.q.shape
    return EnsembleSnapshot(
        t=0.0, Q=seeds.q.astype(float).copy(), P=seeds.p.astype(float).copy(),
        S=np.zeros(n), F=np.broadcast_to(np.eye(2 * d), (n, 2 * d, 2 * d)).copy(),
        a0=np.full(n, 2.0 ** (d / 2.0), dtype=complex), a1=np.zeros(n, dtype=complex),
        sympl_residual=np.zeros(n), sigma_min=np.full(n, 2.0),
        ok=np.ones(n, dtype=bool))


@dataclass(frozen=True)
class SynthesisPlan:
    """One band's contribution: trajectories plus the target spatial grid."""

    table: BandTable
    band: int
    seeds: SeedSet
    snapshot: EnsembleSnapshot
    length: float
    out_n_x: int
    r_c: float = 8.0

    def __post_init__(self):
        if self.seeds.count != self.snapshot.Q.shape[0]:
            raise PlanError("seed set and snapshot sizes differ")
        if not np.all(self.snapshot.ok):
            raise PlanError(
                f"{int((~self.snapshot.ok).sum())} trajectories carry invariant "
                "failures; filter them before synthesis")
        if not np.all(np.isfinite(self.snapshot.a0)):
            raise PlanError("non-finite a0 in snapshot")

    @property
    def eps(self) -> float:
        return self.seeds.eps

    @property
    def span(self) -> int:
        """Grid points per axis within r_c sqrt(eps) of Q, before folding."""
        dx = self.length / self.out_n_x
        return int(np.ceil(2 * self.r_c * np.sqrt(self.eps) / dx)) + 1


def _node_assignments(plan: SynthesisPlan):
    """Momentum representative, effective winding and Brillouin node per trajectory.

    Splits each unwrapped P into P_rep + 2*pi*w_eff with P_rep within half a
    grid spacing of its nearest node position; an edge-wrapped nearest node
    is folded into the winding so that every trajectory references a stored
    node directly.
    """
    p_w, winding = wrap_momentum(plan.snapshot.P)
    flat, edge, node_pos = nearest_node(plan.table.grid, p_w)
    return p_w - TWO_PI * edge, winding + edge, flat, node_pos


def _trajectory_coefficients(plan: SynthesisPlan, p_rep, w_eff, flat, node_pos):
    """Scalar weight per trajectory (everything except Gaussian and Bloch factors)."""
    d = plan.table.grid.dimension
    eps = plan.eps
    snap = plan.snapshot
    nb1 = plan.table.band_index(plan.band)
    pref = 2.0 ** (-d / 4.0) / (TWO_PI * eps) ** (3.0 * d / 4.0)
    coef = (pref * plan.seeds.weight) * snap.a0 * np.exp(1j * snap.S / eps) * plan.seeds.w
    if plan.table.holonomy is not None:
        theta = plan.table.holonomy[nb1]                 # (d,)
        coef = coef * np.exp(1j * (w_eff @ theta))
    coef = coef * np.exp(-TWO_PI * 1j * np.sum(w_eff * snap.Q, axis=1) / eps)
    if plan.table.berry is not None:
        a_node = plan.table.berry[flat, nb1]             # (n, d)
        coef = coef * np.exp(-1j * np.sum(a_node * (p_rep - node_pos), axis=1))
    return coef


def _axis_window(Q, p, coef, span: int, out: WaveField, radius: float, grid_order=False):
    """Each trajectory's truncated window along one axis times coef: (starts, values).

    The window covers the `span` grid points from the first one at or past
    Q - radius (its start, mod n_x), numbered k from its centre point jc.  With
    rho_c = jc dx - Q in [0, 2 dx), exp(-rho^2/2eps + i p rho/eps) at rho =
    rho_c + k dx is exp(z) exp(k beta) gauss[k], with gauss shared by every
    trajectory and exp(k beta) built from blocks of _BLOCK points; expanded about
    the centre, no factor comes near overflow.  A window longer than the axis
    is folded; with grid_order, it is then turned to start at grid point 0.
    """
    n_x, dx, eps = out.n_x, out.dx, out.eps
    k = np.arange(span) - span // 2
    gauss = np.repeat(np.exp(-(k * dx) ** 2 / (2 * eps)), 2)    # for re and im alike
    jc = np.ceil((Q - radius) / dx).astype(int) - k[0]
    rho_c = jc * dx - Q
    beta = (1j * p - rho_c) * (dx / eps)
    starts = k[0] + _BLOCK * np.arange(-(-span // _BLOCK))
    row = coef * np.exp(rho_c * (1j * p - rho_c / 2) / eps)       # coef exp(z)
    outer = row[:, None] * np.exp(starts * beta[:, None])
    inner = np.exp(np.arange(_BLOCK) * beta[:, None])
    g = (outer[:, :, None] * inner[:, None, :]).reshape(Q.size, -1)[:, :span]
    g.view(float)[...] *= gauss
    # every point lies at or past Q - radius; zero those past Q + radius
    last = np.floor((Q + radius) / dx).astype(int) - jc
    cut = np.searchsorted(k, last.min(), side="right")
    g[:, cut:] *= k[cut:] <= last[:, None]
    start = (jc + k[0]) % n_x
    if span > n_x:
        # point k lands on window point k mod n_x, added in the order of k
        g, unfolded = g[:, :n_x].copy(), g
        for r in range(n_x, span, n_x):
            g[:, :span - r] += unfolded[:, r:r + n_x]
        if grid_order:
            g = np.take_along_axis(g, (np.arange(n_x) - start[:, None]) % n_x, 1)
            start = np.zeros_like(start)
    return start, g


def _pieces(start, width: int, n_x: int):
    """(grid slices, window slices) that lay a window of `width` <= n_x points
    per axis from `start` onto the periodic grid, split where it wraps."""
    per_axis = []
    for j in start:
        cut = min(width, n_x - j)                   # points before the axis end
        per_axis.append([(slice(j, j + cut), slice(0, cut))]
                        + [(slice(0, width - cut), slice(cut, width))] * (cut < width))
    return [tuple(zip(*piece)) for piece in product(*per_axis)]


def synthesize(plan: SynthesisPlan) -> WaveField:
    """Evaluate one band's trajectory superposition on the output grid."""
    d = plan.table.grid.dimension
    n_x, span = plan.out_n_x, plan.span
    shape, width = (n_x,) * d, min(span, n_x)
    out = WaveField(dimension=d, eps=plan.eps, length=plan.length,
                    values=np.zeros(shape, dtype=complex), time=plan.snapshot.t)
    if plan.seeds.count == 0:
        return out
    R, s = _field_cells(out)
    radius = plan.r_c * np.sqrt(plan.eps)
    chunk = max(1, min(_TRAJ_CHUNK, _SCATTER_ENTRIES // width ** d))

    p_rep, w_eff, flat, node_pos = _node_assignments(plan)
    coef = _trajectory_coefficients(plan, p_rep, w_eff, flat, node_pos)
    Q = plan.snapshot.Q
    nodes = np.unique(flat)
    cells = _cell_bloch_values(plan.table, plan.band, nodes, s)

    vals = np.zeros(shape, dtype=complex)
    for node, cell in zip(nodes, cells):
        sel = np.nonzero(flat == node)[0]
        acc = np.zeros(shape, dtype=complex)
        for part in np.array_split(sel, max(1, sel.size // chunk)):
            # folded windows after the first axis in grid order: pieces are row blocks
            starts, g = zip(*(_axis_window(Q[part, a], p_rep[part, a],
                                           1.0 if a else coef[part], span, out, radius, a > 0)
                              for a in range(d)))
            block = g[0]
            for ga in g[1:]:
                block = (block[:, :, None] * ga[:, None, :]).reshape(part.size, -1)
            # at most one addition per window and grid point: sums in trajectory order
            buf = np.zeros(shape, dtype=complex)
            for start, gj in zip(np.stack(starts, 1).tolist(),
                                 block.reshape((-1,) + (width,) * d)):
                for on_grid, in_window in _pieces(start, width, n_x):
                    buf[on_grid] += gj[in_window]
            acc += buf
        vals += acc * np.tile(cell, (R,) * d)
    return out.with_values(vals)
