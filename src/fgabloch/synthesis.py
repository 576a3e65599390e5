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
The windows' product is scattered onto the output grid with one bincount per
chunk of trajectories, and each Brillouin node's sum is multiplied by its
Bloch wave.  The sum is pointwise: on a grid refined by an integer factor
the values, subsampled, agree up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bloch import BandTable, nearest_node
from .dynamics import EnsembleSnapshot, wrap_momentum
from .errors import PlanError
from .transform import SeedSet, _cell_bloch_values, _field_cells
from .wavefield import WaveField

TWO_PI = 2.0 * np.pi
# Trajectories scattered at once (the 1D chunk), fewer when their windows
# would hold more than _SCATTER_ENTRIES grid points together.
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
    def time(self) -> float:
        return self.snapshot.t


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


def _scatter(idx: np.ndarray, g: np.ndarray, size: int) -> np.ndarray:
    """Sum the complex values g into `size` bins by index."""
    return (np.bincount(idx.ravel(), weights=g.real.ravel(), minlength=size)
            + 1j * np.bincount(idx.ravel(), weights=g.imag.ravel(), minlength=size))


def _axis_window(Q, p, coef, span: int, out: WaveField, radius: float):
    """Each trajectory's truncated window along one axis times coef: (indices, values).

    The window covers the `span` grid points from the first one at or past
    Q - radius, numbered k from its centre point jc.  With rho_c = jc dx - Q in
    [0, 2 dx), exp(-rho^2/2eps + i p rho/eps) at rho = rho_c + k dx is
    exp(z) exp(k beta) gauss[k], with gauss shared by every trajectory and
    exp(k beta) built from blocks of _BLOCK points; expanded about the centre,
    no factor comes near overflow.  One window longer than the axis is folded.
    """
    n_x, dx, eps = out.n_x, out.dx, out.eps
    k = np.arange(span) - span // 2
    gauss = np.exp(-(k * dx) ** 2 / (2 * eps))
    jc = np.ceil((Q - radius) / dx).astype(int) - k[0]
    rho_c = jc * dx - Q
    beta = (1j * p - rho_c) * (dx / eps)
    starts = k[0] + _BLOCK * np.arange(-(-span // _BLOCK))
    row = coef * np.exp(rho_c * (1j * p - rho_c / 2) / eps)       # coef exp(z)
    outer = row[:, None] * np.exp(starts * beta[:, None])
    inner = np.exp(np.arange(_BLOCK) * beta[:, None])
    g = (outer[:, :, None] * inner[:, None, :]).reshape(Q.size, -1)[:, :span] * gauss
    # every point lies at or past Q - radius; zero those past Q + radius
    last = np.floor((Q + radius) / dx).astype(int) - jc
    cut = np.searchsorted(k, last.min(), side="right")
    g[:, cut:] *= k[cut:] <= last[:, None]
    # row i holds the grid indices jc_i + k, wrapped onto the axis
    idx = sliding_window_view(np.arange(n_x + span) % n_x, span)[(jc + k[0]) % n_x]
    if span > n_x:
        rows = np.arange(Q.size)[:, None] * n_x
        g = _scatter(rows + idx, g, Q.size * n_x).reshape(Q.size, n_x)
        idx = np.broadcast_to(np.arange(n_x), g.shape)
    return idx, g


def synthesize(plan: SynthesisPlan) -> WaveField:
    """Evaluate one band's trajectory superposition on the output grid."""
    d = plan.table.grid.dimension
    n_x = plan.out_n_x
    out = WaveField(dimension=d, eps=plan.eps, length=plan.length,
                    values=np.zeros((n_x,) * d, dtype=complex), time=plan.time)
    if plan.seeds.count == 0:
        return out
    R, s = _field_cells(out)
    radius = plan.r_c * np.sqrt(plan.eps)
    span = int(np.ceil(2 * radius / out.dx)) + 1
    chunk = max(1, min(_TRAJ_CHUNK, _SCATTER_ENTRIES // min(span, n_x) ** d))

    p_rep, w_eff, flat, node_pos = _node_assignments(plan)
    coef = _trajectory_coefficients(plan, p_rep, w_eff, flat, node_pos)
    Q = plan.snapshot.Q
    nodes = np.unique(flat)
    cells = _cell_bloch_values(plan.table, plan.band, nodes, s)

    vals = np.zeros(n_x ** d, dtype=complex)
    for node, cell in zip(nodes, cells):
        sel = np.nonzero(flat == node)[0]
        acc = np.zeros(n_x ** d, dtype=complex)
        for part in np.array_split(sel, max(1, sel.size // chunk)):
            idx, g = _axis_window(Q[part, 0], p_rep[part, 0], coef[part], span, out, radius)
            for a in range(1, d):
                ia, ga = _axis_window(Q[part, a], p_rep[part, a], 1.0, span, out, radius)
                idx = (idx[:, :, None] * n_x + ia[:, None, :]).reshape(part.size, -1)
                g = (g[:, :, None] * ga[:, None, :]).reshape(part.size, -1)
            acc += _scatter(idx, g, n_x ** d)
        vals += acc * np.tile(cell, (R,) * d).ravel()
    return out.with_values(vals.reshape((n_x,) * d))
