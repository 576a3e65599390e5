"""Semiclassical windowed Bloch transform and band operators.

Implements, on discrete periodic fields:

* the Gaussian window with semiclassical scaling,
* the windowed Bloch transform  w_n(q, p) = c_w <u_n(p, ./eps) G^eps_{q,p}, psi>
  with c_w = 2^{d/4} (2 pi eps)^{-3d/4},
* its adjoint (band operator) whose band sum reconstructs the identity,
* a non-windowed Bloch transform on the finite torus whose Parseval identity
  is exact, used as the band-truncation diagnostic; its fibers are solved by
  the band engine's batched cell eigensolver.

Quadrature is the rectangle rule on the uniform periodic x-grid (spectrally
accurate for smooth periodic integrands).  Gaussians are truncated at radius
r_c sqrt(eps) and periodized over torus images, which keeps the discrete
reconstruction identity exact on the torus.  The p-grid coincides with the
Brillouin grid nodes, so Bloch waves are never interpolated in p here.

One path serves every dimension: the window factors along each axis, and
its periodized, truncated blocks are contracted axis by axis with the flat
p-node axis last.  The band operator is the exact transpose of the
transform: it expands axis 0 first, the transform contracts axis 0 last.
Bloch cell values of every p-node come from one plane-wave matrix.  Memory
is bounded by _CHUNK_ENTRIES p-node/grid-point pairs: both kernels take
every p-node at once and walk the grid (the transform's input, the
operator's output) in blocks of whole lattice-cell rows along axis 0, so
each window row of axis 0 is built once per call.  A block's buffers are
freed before the next one is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bloch import BandTable, _cell_eigensolve, _plane_waves
from .errors import (InvalidInputError, QuadratureRiskError, ResolutionError)
from .wavefield import WaveField, mesh_points, write_csv

DEFAULT_CG = 0.5
DEFAULT_RC = 8.0
DEFAULT_SEED_THRESHOLD = 1e-8
# fraction of max|psi| below which phase_grid_for_field treats psi as absent
SUPPORT_THRESHOLD = 1e-8
# p-node x grid-point pairs a block of either kernel holds (4 MB per complex
# buffer); on configs/propagate.ini the transform (2^18 pairs) and the operator
# on psi0's grid run as one block, the operator on the reference grid (2^19)
# as two; on configs/convergence.ini's finest rung the transform (2^19) runs
# as two blocks and the operator on the reference grid (2^20) as four
_CHUNK_ENTRIES = 2 ** 18


def gaussian_eval(q, p, eps: float, x) -> np.ndarray:
    """exp(-|x-q|^2/(2 eps) + i p.(x-q)/eps), the rescaled Gaussian window."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    d = q.shape[0]
    x = np.asarray(x, dtype=float)
    if d == 1 and (x.ndim <= 1 or x.shape[-1] != 1):
        x = x[..., None]
    diff = x - q
    r2 = np.sum(diff ** 2, axis=-1)
    ph = diff @ p
    return np.exp(-r2 / (2 * eps) + 1j * ph / eps)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform (q, p) grid: q over a box (or the whole torus), p over Gamma*.

    dq and dp must not exceed c_g sqrt(eps); p-nodes are exactly the
    Brillouin-grid nodes of the band table in use.
    """

    dimension: int
    eps: float
    q_start: np.ndarray      # (d,)
    dq: float
    n_q: int                 # nodes per axis
    p_nodes_per_axis: int
    c_g: float = DEFAULT_CG

    def __post_init__(self):
        object.__setattr__(self, "q_start",
                           np.broadcast_to(np.asarray(self.q_start, dtype=float),
                                           (self.dimension,)).copy())
        bound = self.c_g * np.sqrt(self.eps) * (1 + 1e-12)
        if self.dq > bound:
            raise QuadratureRiskError(
                f"dq = {self.dq:.4g} exceeds c_g sqrt(eps) = {bound:.4g}")
        if self.dp > bound:
            raise QuadratureRiskError(
                f"dp = {self.dp:.4g} exceeds c_g sqrt(eps) = {bound:.4g} "
                f"(increase the Brillouin grid M)")

    @property
    def dp(self) -> float:
        return 2 * np.pi / self.p_nodes_per_axis

    def q_axes(self) -> list:
        return [self.q_start[a] + self.dq * np.arange(self.n_q)
                for a in range(self.dimension)]

    def p_axis(self) -> np.ndarray:
        return -np.pi + self.dp * np.arange(self.p_nodes_per_axis)

    @property
    def weight(self) -> float:
        """Quadrature weight dq^d dp^d."""
        return (self.dq * self.dp) ** self.dimension

    @property
    def n_points(self) -> int:
        return (self.n_q * self.p_nodes_per_axis) ** self.dimension


@dataclass(frozen=True)
class WindowedCoefficients:
    band: int
    grid: PhaseSpaceGrid
    values: np.ndarray        # shape (n_q,)*d + (M,)*d
    eps: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("windowed coefficients contain non-finite entries")

    def to_seeds(self, threshold: float = DEFAULT_SEED_THRESHOLD) -> "SeedSet":
        """Flatten to (q, p, w) triplets, dropping |w| < threshold * max|w|."""
        d = self.grid.dimension
        qp = mesh_points(self.grid.q_axes() + [self.grid.p_axis()] * d)
        q, p = qp[:, :d], qp[:, d:]
        w = self.values.ravel()
        keep = np.abs(w) >= threshold * np.max(np.abs(w)) if w.size else np.array([], bool)
        return SeedSet(band=self.band, eps=self.eps, q=q[keep], p=p[keep], w=w[keep],
                       weight=self.grid.weight, total_points=w.size)

    def export_csv(self, path):
        d = self.grid.dimension
        seeds = self.to_seeds(threshold=0.0)
        cols = (["n"] + [f"q{a}" for a in range(d)] + [f"p{a}" for a in range(d)]
                + ["re_w", "im_w"])
        write_csv(path, cols, [np.full(seeds.count, self.band), *seeds.q.T, *seeds.p.T,
                               seeds.w.real, seeds.w.imag])


@dataclass(frozen=True)
class SeedSet:
    """Thresholded phase-space seeds feeding the trajectory ensemble."""

    band: int
    eps: float
    q: np.ndarray           # (n, d)
    p: np.ndarray           # (n, d)
    w: np.ndarray           # (n,) complex
    weight: float           # dq^d dp^d
    total_points: int

    @property
    def count(self) -> int:
        return self.q.shape[0]


def _field_cells(field: WaveField) -> tuple[int, int]:
    """(cells per axis R, samples per cell s); validates resolution."""
    R = field.cells
    if field.n_x % R:
        raise ResolutionError(
            f"grid of {field.n_x} points does not tile the {R} lattice periods")
    s = field.n_x // R
    if s < 8:
        raise ResolutionError(
            f"{s} grid points per lattice period < 8: x-grid too coarse")
    return R, s


def _norm_const(dimension: int, eps: float) -> float:
    return 2.0 ** (dimension / 4.0) / (2 * np.pi * eps) ** (3 * dimension / 4.0)


def _cell_bloch_values(table: BandTable, n: int, nodes, s: int) -> np.ndarray:
    """u_n(p_node, y) for the flat Brillouin nodes `nodes` (index array or
    slice), on one lattice cell sampled at s points per axis: (k,) + (s,)*d."""
    d = table.grid.dimension
    phases = _plane_waves(table, mesh_points([np.arange(s) / s] * d))
    coeffs = table.coeffs[nodes, table.band_index(n)]
    return np.stack([phases @ c for c in coeffs]).reshape((len(coeffs),) + (s,) * d)


def _p_nodes(table: BandTable, grid: PhaseSpaceGrid) -> np.ndarray:
    """Positions (P, d) of the p-nodes; p-node j is flat Brillouin node j."""
    if grid.p_nodes_per_axis != table.grid.nodes_per_axis:
        raise InvalidInputError(
            "phase-space p-grid must coincide with the Brillouin grid nodes")
    return table.grid.node_points()


def _cell_blocks(field: WaveField, n_p: int):
    """Blocks of whole lattice-cell rows along axis 0 of the field's grid,
    each holding at most _CHUNK_ENTRIES pairs of n_p p-nodes and grid points,
    and one cell row at least: (axis-0 points, flat grid points) slices."""
    R, s = _field_cells(field)
    row = s * field.n_x ** (field.dimension - 1)    # grid points in one cell row
    step = max(1, _CHUNK_ENTRIES // (row * n_p))
    cells = [(c, min(c + step, R)) for c in range(0, R, step)]
    return [(slice(a * s, b * s), slice(a * row, b * row)) for a, b in cells]


def _image_shifts(length: float, radius: float) -> np.ndarray:
    nmax = int(np.ceil(radius / length)) + 1
    return np.arange(-nmax, nmax + 1) * length


def _truncated_window(rho, eps: float, radius: float, p=None) -> np.ndarray:
    """exp(-rho^2 / 2 eps + i p rho / eps) for |rho| <= radius, 0 beyond.

    Without p the window is real (the momentum phase is applied elsewhere).
    """
    z = -rho ** 2 / (2 * eps)
    if p is not None:
        z = z + 1j * p * rho / eps
    return np.exp(z) * (np.abs(rho) <= radius)


def _apply_windows(t: np.ndarray, on: WaveField, grid: PhaseSpaceGrid, p: np.ndarray,
                   radius: float, adjoint: bool, rows: slice = slice(None)) -> np.ndarray:
    """Contract the leading d axes of t (flat p-node axis last) with the
    periodized window, one axis at a time.

    The window of axis a is a sum of blocks, one per torus image `shift`,
    block[i, j] = truncated window at rho = x_j - q_i + shift (x: the axis of
    `on`, only its points `rows` on axis 0), each with the phase
    exp(-+ i p_a shift / eps).  The transform maps x to q (adjoint False),
    axis 0 last; the band operator maps q to x, axis 0 first.  So no axis but
    the blocked axis 0 is contracted per block of `rows`.  Blocks are built
    one at a time, so at most one is held.
    """
    axis, eps = on.axis_points(), on.eps
    sign = 1j if adjoint else -1j
    axes = list(enumerate(grid.q_axes()))
    for a, q in (axes if adjoint else axes[::-1]):
        x = axis[rows] if a == 0 else axis
        # (axes before a, axis a, the rest) is a view of t in both kernels, so
        # b @ flat runs as a batch over the axes before a and copies no input
        flat = t.reshape(int(np.prod(t.shape[:a])), t.shape[a], -1)
        acc = np.zeros(t.shape[:a] + ((x if adjoint else q).size,) + t.shape[a + 1:],
                       dtype=complex)
        for shift in _image_shifts(on.length, radius):
            block = _truncated_window(x[None, :] - q[:, None] + shift, eps, radius)
            if not block.any():
                continue
            b = block.T if adjoint else block
            term = (b @ flat).reshape(acc.shape)
            term *= np.exp(sign * p[:, a] * shift / eps)
            acc += term
            del term            # not held while the next block is built
        t = acc
    return t


def windowed_bloch_transform(field: WaveField, table: BandTable, n: int,
                             grid: PhaseSpaceGrid,
                             r_c: float = DEFAULT_RC) -> WindowedCoefficients:
    """Windowed Bloch coefficients of one band on the phase-space grid.

    The x-integral is the rectangle rule over the periodic grid with the
    Gaussian window truncated at radius r_c sqrt(eps) and periodized over
    torus images.
    """
    if abs(field.eps - grid.eps) > 1e-15:
        raise InvalidInputError("field and phase-space grid eps differ")
    R, s = _field_cells(field)
    d = field.dimension
    eps = field.eps
    p = _p_nodes(table, grid)
    x = field.grid_points()
    q = mesh_points(grid.q_axes())
    psi = field.values.ravel()
    cells = _cell_bloch_values(table, n, slice(None), s)
    total = np.zeros((q.shape[0], p.shape[0]), dtype=complex)
    for rows, pts in _cell_blocks(field, p.shape[0]):
        n_rows = rows.stop - rows.start
        u = np.tile(cells, (1, n_rows // s) + (R,) * (d - 1)).reshape(cells.shape[0], -1)
        theta = (np.conj(u) * np.exp(-1j * (p @ x[pts].T) / eps)
                 * psi[None, pts]).T * field.dx ** d
        total += _apply_windows(theta.reshape((n_rows,) + (field.n_x,) * (d - 1) + (-1,)),
                                field, grid, p, r_c * np.sqrt(eps), False,
                                rows=rows).reshape(total.shape)
        del u, theta            # not held while the next block is built
    vals = _norm_const(d, eps) * np.exp(1j * (q @ p.T) / eps) * total
    vals = vals.reshape((grid.n_q,) * d + (grid.p_nodes_per_axis,) * d)
    return WindowedCoefficients(band=n, grid=grid, values=vals, eps=eps)


def band_projection(field: WaveField, table: BandTable, n: int, grid: PhaseSpaceGrid,
                    r_c: float = DEFAULT_RC, coefficients: WindowedCoefficients = None,
                    out_n_x: int = None) -> WaveField:
    """Band operator Pi_n^{W,eps}: adjoint of the windowed transform.

    Evaluates (2^{d/4}/(2 pi eps)^{3d/4}) sum_{q,p} u_n(p, y/eps)
    G^eps_{q,p}(y) w_n(q,p) dq^d dp^d on the field's grid (or a finer grid of
    out_n_x points per axis).  Not a projection: the windowed representation
    is redundant.
    """
    if coefficients is None:
        coefficients = windowed_bloch_transform(field, table, n, grid, r_c)
    d = field.dimension
    eps = field.eps
    n_out = out_n_x or field.n_x
    out_field = WaveField(dimension=d, eps=eps, length=field.length,
                          values=np.zeros((n_out,) * d, dtype=complex), time=field.time)
    R, s = _field_cells(out_field)
    p = _p_nodes(table, grid)
    y = out_field.grid_points()
    q = mesh_points(grid.q_axes())
    w = coefficients.values.reshape(q.shape[0], p.shape[0])
    wq = (w * np.exp(-1j * (q @ p.T) / eps)).reshape((grid.n_q,) * d + (-1,))
    cells = np.moveaxis(_cell_bloch_values(table, n, slice(None), s), 0, -1).reshape(
        (1, s) * d + (-1,))
    total = np.zeros(y.shape[0], dtype=complex)
    for rows, pts in _cell_blocks(out_field, p.shape[0]):
        acc = _apply_windows(wq, out_field, grid, p, r_c * np.sqrt(eps), True, rows=rows)
        # phase * cell values * acc, in place; the cell values repeat over the cells
        # the phase exp(i y.p / eps), exponentiated in place in one complex
        # buffer; numpy forms 1j * x / eps as i x (1/eps), so the rounding is
        # that of np.exp(1j * (y @ p.T) / eps)
        prod = np.zeros((pts.stop - pts.start, p.shape[0]), dtype=complex)
        np.multiply(y[pts] @ p.T, 1.0 / eps, out=prod.imag)
        np.exp(prod, out=prod)
        per_cell = prod.reshape((-1, s) + (R, s) * (d - 1) + (p.shape[0],))
        per_cell *= cells
        prod *= acc.reshape(prod.shape)
        total[pts] += np.sum(prod, axis=1)
        del acc, prod, per_cell         # not held while the next block is built
    vals = _norm_const(d, eps) * grid.weight * total
    return out_field.with_values(vals.reshape((n_out,) * d))


def reconstruct(field: WaveField, table: BandTable, bands, grid: PhaseSpaceGrid,
                r_c: float = DEFAULT_RC) -> WaveField:
    """Sum of band projections over `bands` (truncated W* W)."""
    out = np.zeros_like(field.values)
    for n in bands:
        out = out + band_projection(field, table, n, grid, r_c).values
    return field.with_values(out)


def phase_grid_for_field(field: WaveField, table: BandTable, c_g: float = DEFAULT_CG,
                         r_c: float = DEFAULT_RC) -> PhaseSpaceGrid:
    """Phase-space grid adapted to the field's support.

    q-box: support of |psi| thresholded at SUPPORT_THRESHOLD of its max,
    padded by 2 sqrt(eps) r_c per side and clamped to one torus period;
    p: the full Brillouin grid of the table.
    """
    d = field.dimension
    eps = field.eps
    L = field.length
    dq_target = c_g * np.sqrt(eps)
    pad = 2 * np.sqrt(eps) * r_c

    absv = np.abs(field.values)
    mask = absv >= SUPPORT_THRESHOLD * absv.max()
    n_x = field.n_x
    dx = field.dx

    los, widths = [], []
    for a in range(d):
        axis_mask = mask.any(axis=tuple(i for i in range(d) if i != a)) if d > 1 else mask
        idx = np.nonzero(axis_mask)[0]
        if idx.size == n_x or idx.size == 0:
            los.append(0.0)
            widths.append(L)
            continue
        # longest empty circular run -> the support interval is its complement
        present = np.zeros(n_x, bool)
        present[idx] = True
        gaps = []
        run = 0
        for j in range(2 * n_x):
            if not present[j % n_x]:
                run += 1
            else:
                if run:
                    gaps.append((run, j - run))
                run = 0
        best_len, best_start = max(gaps) if gaps else (0, 0)
        start = (best_start + best_len) % n_x
        count = n_x - best_len
        los.append(start * dx - pad)
        widths.append((count - 1) * dx + 2 * pad)
    width = max(widths)
    if width >= L:
        n_q = int(np.ceil(L / dq_target))
        dq = L / n_q
        return PhaseSpaceGrid(dimension=d, eps=eps, q_start=np.zeros(d), dq=dq,
                              n_q=n_q, p_nodes_per_axis=table.grid.nodes_per_axis,
                              c_g=c_g)
    n_q = max(2, int(np.ceil(width / dq_target)) + 1)
    dq = width / (n_q - 1)
    centers = np.array(los) + np.array(widths) / 2
    q_start = centers - width / 2
    return PhaseSpaceGrid(dimension=d, eps=eps, q_start=q_start, dq=dq,
                          n_q=n_q, p_nodes_per_axis=table.grid.nodes_per_axis,
                          c_g=c_g)


def bloch_transform(field: WaveField, table: BandTable, n_bands: int):
    """Non-windowed Bloch transform on the finite torus.

    Returns (coefficients, xis): coefficients has shape (n_bands, R^d) over
    the R^d crystal momenta xi = 2 pi r / R the torus supports, r in
    [-R/2, R/2)^d in C order, scaled so that
    sum_{n,r} |coef|^2 (2 pi / R)^d  equals ||psi||^2 when summed over a
    complete band set.  Fiber r gathers the Fourier modes m = r + k R of psi
    for the plane-wave basis k with one index array; a mode outside the FFT
    bins is absent, so each fiber holds at most s modes per axis (s samples
    per cell) of its (2K+1) slots.  All fibers are solved afresh in one
    batched eigensolve; no gauge dependence enters |coef|.
    """
    R, _ = _field_cells(field)
    d, n_x = field.dimension, field.n_x
    kvecs = table.kvecs()
    if n_bands > kvecs.shape[0]:
        raise InvalidInputError("n_bands exceeds basis size")
    fibers = mesh_points([np.arange(R) - R // 2] * d)            # (R^d, d)
    m = fibers[:, None, :] + R * kvecs[None, :, :]               # (R^d, n_basis, d)
    present = np.all((m >= -(n_x // 2)) & (m < n_x - n_x // 2), axis=-1)
    c = np.fft.fftn(field.values) / n_x ** d
    v = c[tuple(np.moveaxis(m % n_x, -1, 0))] * present
    xis = 2 * np.pi * fibers / R
    _, vecs = _cell_eigensolve(table.potential, kvecs, xis, n_bands, n_bands)
    scale = (field.eps / (2 * np.pi)) ** (d / 2.0) * R ** d
    return scale * np.einsum("fnk,fk->nf", np.conj(vecs), v), xis


def parseval_check(field: WaveField, table: BandTable, n_bands: int,
                   grid: PhaseSpaceGrid, r_c: float = DEFAULT_RC):
    """(||psi||^2, sum_{n<=N} ||w_n||^2 dq^d dp^d) — band-truncation diagnostic.

    The windowed transform is an isometry onto its range in exact arithmetic,
    so the ratio approaches 1 from below as the band set grows; it is
    reported, not asserted.
    """
    return field.norm() ** 2, _windowed_mass(
        windowed_bloch_transform(field, table, n, grid, r_c) for n in range(1, n_bands + 1))


def _windowed_mass(coefficients) -> float:
    """sum ||w_n||^2 dq^d dp^d over the given bands' coefficients, in order."""
    mass = 0.0
    for w in coefficients:
        mass += float(np.sum(np.abs(w.values) ** 2)) * w.grid.weight
    return mass
