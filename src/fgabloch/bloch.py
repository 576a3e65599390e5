"""Bloch band engine.

Solves the cell eigenproblem H_xi u = E u in a plane-wave (Fourier) Galerkin
basis over a uniform Brillouin-zone grid, fixes a parallel-transport gauge,
and exports band energies, group velocities, band curvatures and the Berry
connection as smooth periodic interpolants.

Conventions
-----------
* Unit cell [0, 1)^d, Brillouin zone Gamma* = [-pi, pi)^d treated as a torus.
* Plane-wave basis e_k(x) = exp(2*pi*i k.x), |k|_inf <= K, lexicographic
  ordering with each axis running -K..K.
* Bands are 1-based in every public signature (band 1 = lowest).
* Crossing the zone boundary relabels the basis: the eigenvector at
  xi + 2*pi*e_a equals the one at xi with coefficients shifted by one slot
  along axis a.  All wrap-around bookkeeping below honours that shift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .errors import (BandIsolationError, CutoffError, GaugeFixError,
                     InvalidInputError, NumericError)
from .potentials import PeriodicPotential

TWO_PI = 2.0 * np.pi

# nodal gap below which two bands are treated as touching (exact crossings)
DEGENERACY_TOL = 1e-8
# nodal gap below which the finite-difference consistency check is skipped
FD_GAP_EXCLUDE = 0.05
# minimum admissible parallel-transport overlap
MIN_OVERLAP = 0.1


@dataclass(frozen=True)
class BrillouinGrid:
    """Uniform periodic grid on Gamma* = [-pi, pi)^d, no duplicate endpoint."""

    dimension: int
    nodes_per_axis: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidInputError("dimension must be 1 or 2")
        if self.nodes_per_axis < 4:
            raise InvalidInputError("need at least 4 nodes per axis")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.nodes_per_axis

    @property
    def axis_nodes(self) -> np.ndarray:
        return -np.pi + self.spacing * np.arange(self.nodes_per_axis)

    @property
    def shape(self) -> tuple:
        return (self.nodes_per_axis,) * self.dimension

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis ** self.dimension

    def node_points(self) -> np.ndarray:
        """All nodes, shape (n_nodes, d), C-order over the axis grids."""
        axes = [self.axis_nodes] * self.dimension
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def reciprocal_vectors(cutoff: int, dimension: int) -> np.ndarray:
    """Integer reciprocal vectors |k|_inf <= cutoff, shape (n_basis, d)."""
    r = np.arange(-cutoff, cutoff + 1)
    mesh = np.meshgrid(*([r] * dimension), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _potential_matrix(potential: PeriodicPotential, cutoff: int):
    """Galerkin matrix of V in the plane-wave basis; real dtype when possible."""
    d = potential.dimension
    kvecs = reciprocal_vectors(cutoff, d)
    box = np.zeros((4 * cutoff + 1,) * d, dtype=complex)
    for k, v in potential.coefficients.items():
        box[tuple(c + 2 * cutoff for c in k)] = v
    diff = kvecs[:, None, :] - kvecs[None, :, :] + 2 * cutoff
    vmat = box[tuple(diff[..., a] for a in range(d))]
    if np.all(vmat.imag == 0.0):
        vmat = vmat.real.copy()
    return kvecs, vmat


def assemble_bloch_hamiltonian(xi, potential: PeriodicPotential, cutoff: int) -> np.ndarray:
    """Matrix of (1/2)(-i grad + xi)^2 + V on the cell, plane-wave basis.

    Entry (k, k') is |2*pi*k + xi|^2/2 on the diagonal plus V_{k-k'}.
    """
    potential.validate()
    if cutoff < potential.cutoff:
        raise CutoffError(
            f"cutoff K={cutoff} below potential support K_V={potential.cutoff}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (potential.dimension,):
        raise InvalidInputError(f"xi must have shape ({potential.dimension},)")
    kvecs, vmat = _potential_matrix(potential, cutoff)
    kin = 0.5 * np.sum((TWO_PI * kvecs + xi) ** 2, axis=1)
    h = vmat.astype(complex, copy=True)
    h[np.diag_indices_from(h)] += kin
    return h


@dataclass(frozen=True)
class BandTable:
    """Eigendata of the first n_bands bands on a Brillouin grid.

    Node-indexed arrays use the flattened C-order node index of `grid`.
    Fields filled progressively by fix_gauge / berry_connection /
    grad_energy / hessian_energy are None until computed.
    """

    grid: BrillouinGrid
    cutoff: int
    n_bands: int
    potential: PeriodicPotential
    energies: np.ndarray            # (n_nodes, n_bands)
    coeffs: np.ndarray              # (n_nodes, n_bands, n_basis) complex
    nodal_gap: np.ndarray           # (n_nodes, n_bands) distance to nearest neighbor band
    min_gap: np.ndarray             # (n_bands,)
    min_gap_xi: np.ndarray          # (n_bands, d) location of the minimum
    usable: np.ndarray              # (n_bands,) bool, False when the band touches a neighbor
    gauge_fixed: bool = False
    continuity_tol: float = 0.15
    holonomy: np.ndarray | None = None        # (n_bands, d)
    berry: np.ndarray | None = None           # (n_nodes, n_bands, d)
    berry_im_diag: float | None = None
    grad_e: np.ndarray | None = None          # (n_nodes, n_bands, d)
    grad_fd_discrepancy: float | None = None
    hess_e: np.ndarray | None = None          # (n_nodes, n_bands, d, d)

    @property
    def n_basis(self) -> int:
        return (2 * self.cutoff + 1) ** self.grid.dimension

    def kvecs(self) -> np.ndarray:
        return reciprocal_vectors(self.cutoff, self.grid.dimension)

    def band_index(self, n: int) -> int:
        if not 1 <= n <= self.n_bands:
            raise InvalidInputError(f"band {n} outside 1..{self.n_bands}")
        return n - 1

    def node_coeffs(self, n: int) -> np.ndarray:
        """Coefficients of band n reshaped to grid shape + (n_basis,)."""
        return self.coeffs[:, self.band_index(n), :].reshape(self.grid.shape + (self.n_basis,))


def solve_bands(grid: BrillouinGrid, potential: PeriodicPotential, n_bands: int,
                cutoff: int) -> BandTable:
    """Lowest n_bands eigenpairs of the cell Hamiltonian at every grid node."""
    if potential.dimension != grid.dimension:
        raise InvalidInputError("potential and grid dimensions differ")
    if cutoff < potential.cutoff:
        raise CutoffError(
            f"cutoff K={cutoff} below potential support K_V={potential.cutoff}")
    nb = (2 * cutoff + 1) ** grid.dimension
    if n_bands > nb:
        raise InvalidInputError(f"n_bands={n_bands} exceeds basis size {nb}")

    kvecs, vmat = _potential_matrix(potential, cutoff)
    nodes = grid.node_points()
    n_nodes = nodes.shape[0]
    n_keep = min(n_bands + 1, nb)   # one extra band for the gap above band n_bands

    energies = np.empty((n_nodes, n_keep))
    coeffs = np.empty((n_nodes, n_bands, nb), dtype=complex)

    chunk = max(1, int(2e6 / (nb * nb)))
    for start in range(0, n_nodes, chunk):
        sl = slice(start, min(start + chunk, n_nodes))
        kin = 0.5 * np.sum((TWO_PI * kvecs[None, :, :] + nodes[sl, None, :]) ** 2, axis=2)
        h = np.repeat(vmat[None, :, :], kin.shape[0], axis=0)
        idx = np.arange(nb)
        h[:, idx, idx] += kin
        try:
            evals, evecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"eigensolver failed on nodes {start}..{sl.stop - 1}: {exc}") from exc
        energies[sl] = evals[:, :n_keep]
        coeffs[sl] = np.swapaxes(evecs[:, :, :n_bands], 1, 2)

    band_e = energies[:, :n_bands]
    gap_up = np.full((n_nodes, n_bands), np.inf)
    if n_keep > n_bands:
        gap_up[:, : n_keep - 1] = energies[:, 1:n_keep] - energies[:, : n_keep - 1]
    else:
        gap_up[:, :-1] = energies[:, 1:n_bands] - energies[:, : n_bands - 1]
    gap_down = np.full((n_nodes, n_bands), np.inf)
    gap_down[:, 1:] = band_e[:, 1:] - band_e[:, :-1]
    nodal_gap = np.minimum(gap_up, gap_down)

    argmin = np.argmin(nodal_gap, axis=0)
    min_gap = nodal_gap[argmin, np.arange(n_bands)]
    min_gap_xi = nodes[argmin]
    usable = min_gap > DEGENERACY_TOL

    return BandTable(grid=grid, cutoff=cutoff, n_bands=n_bands, potential=potential,
                     energies=band_e, coeffs=coeffs, nodal_gap=nodal_gap,
                     min_gap=min_gap, min_gap_xi=min_gap_xi, usable=usable)


def shift_coefficients(c: np.ndarray, axis: int, cutoff: int, dimension: int,
                       steps: int = 1) -> np.ndarray:
    """Relabel plane-wave coefficients for xi -> xi + 2*pi*steps*e_axis.

    c has trailing dimension (2K+1)^d; the relation c'(k) = c(k + steps*e_axis)
    drops coefficients pushed past the cutoff (negligible for resolved bands).
    """
    m = 2 * cutoff + 1
    lead = c.shape[:-1]
    box = c.reshape(lead + (m,) * dimension)
    out = np.zeros_like(box)
    src = [slice(None)] * (len(lead) + dimension)
    dst = [slice(None)] * (len(lead) + dimension)
    ax = len(lead) + axis
    if steps >= 0:
        src[ax] = slice(steps, m)
        dst[ax] = slice(0, m - steps)
    else:
        src[ax] = slice(0, m + steps)
        dst[ax] = slice(-steps, m)
    out[tuple(dst)] = box[tuple(src)]
    return out.reshape(c.shape)


def fix_gauge(table: BandTable, strict_bands=None) -> BandTable:
    """Parallel-transport gauge along axis-ordered sweeps; holonomy recorded.

    An overlap magnitude below MIN_OVERLAP raises GaugeFixError for bands in
    `strict_bands` (default: every band).  Bands outside that set, and bands
    flagged unusable (grid-exact crossings), are transported on a best-effort
    basis and marked unusable instead; band projections only need per-node
    eigenvectors, so near-crossing high bands remain available there.  The
    residual holonomy phase around each axis of the Brillouin torus is
    recorded, not removed.
    """
    g = table.grid
    M, d, N = g.nodes_per_axis, g.dimension, table.n_bands
    c = table.coeffs.copy().reshape(g.shape + (N, table.n_basis))
    if strict_bands is None:
        strict = table.usable.copy()
    else:
        strict = np.zeros(N, dtype=bool)
        for n in strict_bands:
            strict[table.band_index(n)] = True
        strict &= table.usable
    smooth = table.usable.copy()

    def sweep(prev, nxt, where):
        ov = np.sum(np.conj(prev) * nxt, axis=-1)
        mag = np.abs(ov)
        small = mag < MIN_OVERLAP
        small_bands = np.any(small.reshape(-1, N), axis=0)
        bad = small_bands & strict
        if np.any(bad):
            band = int(np.argwhere(bad)[0][0]) + 1
            raise GaugeFixError(
                f"parallel transport overlap below {MIN_OVERLAP} for band {band} "
                f"at {where}: grid too coarse or band crossing")
        smooth[small_bands] = False
        phase = np.where(mag > 1e-300, ov / np.where(mag > 1e-300, mag, 1.0), 1.0)
        nxt *= np.conj(phase)[..., None]

    if d == 1:
        for j in range(1, M):
            sweep(c[j - 1], c[j], f"xi index {j}")
    else:
        for j in range(1, M):
            sweep(c[j - 1, 0], c[j, 0], f"xi index ({j},0)")
        for j in range(1, M):
            sweep(c[:, j - 1], c[:, j], f"xi column {j}")

    holonomy = np.zeros((N, d))
    flat = c.reshape((-1, N, table.n_basis))
    for axis in range(d):
        if d == 1:
            last, first = c[M - 1], c[0]
        elif axis == 0:
            last, first = c[M - 1, 0], c[0, 0]
        else:
            last, first = c[0, M - 1], c[0, 0]
        closure = shift_coefficients(first, axis, table.cutoff, d)
        ov = np.sum(np.conj(last) * closure, axis=-1)
        holonomy[:, axis] = -np.angle(ov)

    return replace(table, coeffs=flat.reshape(table.coeffs.shape), gauge_fixed=True,
                   holonomy=holonomy, usable=smooth)


def _derivative_stencil(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """d/dxi along a grid axis: centered in the interior, 3-point one-sided at
    the two ends of the axis (the gauge seam is never crossed)."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * spacing)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * spacing)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * spacing)
    return np.moveaxis(out, 0, axis)


def _periodic_derivative(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Plain centered periodic difference (for gauge-free periodic fields)."""
    v = np.moveaxis(values, axis, 0)
    out = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * spacing)
    return np.moveaxis(out, 0, axis)


def berry_connection(table: BandTable) -> BandTable:
    """Berry connection samples A_n = Re[i <c, Dc>] on the grid.

    D differentiates the gauge-fixed eigenvector field in xi: centered in the
    interior, one-sided at axis ends so the difference never crosses the
    gauge seam.  The imaginary part of the raw inner product <c, Dc> is
    recorded as table.berry_im_diag; parallel transport aligns neighboring
    links, so after gauge fixing it vanishes to rounding and diagnoses the
    gauge quality.
    """
    if not table.gauge_fixed:
        raise InvalidInputError("berry_connection requires a gauge-fixed table")
    g = table.grid
    shape = g.shape + (table.n_bands, table.n_basis)
    c = table.coeffs.reshape(shape)
    berry = np.empty((g.n_nodes, table.n_bands, g.dimension))
    diag = 0.0
    for axis in range(g.dimension):
        dc = _derivative_stencil(c, axis, g.spacing)
        ip = np.sum(np.conj(c) * dc, axis=-1)          # <c, Dc>
        berry[:, :, axis] = (1j * ip).real.reshape(g.n_nodes, table.n_bands)
        usable_ip = ip.reshape(g.n_nodes, table.n_bands)[:, table.usable]
        if usable_ip.size:
            diag = max(diag, float(np.max(np.abs(usable_ip.imag))))
    return replace(table, berry=berry, berry_im_diag=diag)


def _gradient_identity(table: BandTable) -> np.ndarray:
    """grad E = -i<u, grad_x u> + xi = 2*pi sum_k k |c_k|^2 + xi, per node/band."""
    kvecs = table.kvecs().astype(float)
    weights = np.abs(table.coeffs) ** 2               # (n_nodes, N, nb)
    grad = TWO_PI * np.einsum("snk,ka->sna", weights, kvecs)
    return grad + table.grid.node_points()[:, None, :]

def _fd_gradient_samples(table: BandTable, nodes: np.ndarray, h: float = 1e-3):
    """5-point finite difference of freshly solved eigenvalues at given nodes."""
    d = table.grid.dimension
    kvecs, vmat = _potential_matrix(table.potential, table.cutoff)
    nb = kvecs.shape[0]
    out = np.empty((nodes.shape[0], table.n_bands, d))
    idx = np.arange(nb)
    for axis in range(d):
        shifts = np.array([-2, -1, 1, 2]) * h
        pts = nodes[:, None, :] + shifts[None, :, None] * np.eye(d)[axis]
        pts = pts.reshape(-1, d)
        kin = 0.5 * np.sum((TWO_PI * kvecs[None, :, :] + pts[:, None, :]) ** 2, axis=2)
        ham = np.repeat(vmat[None, :, :], pts.shape[0], axis=0).astype(complex)
        ham[:, idx, idx] += kin
        evals = np.linalg.eigvalsh(ham)[:, :table.n_bands]
        e = evals.reshape(nodes.shape[0], 4, table.n_bands)
        out[:, :, axis] = (e[:, 0] - 8 * e[:, 1] + 8 * e[:, 2] - e[:, 3]) / (12 * h)
    return out


def grad_energy(table: BandTable, check_sample: int = 256) -> BandTable:
    """Group velocity samples via the eigenproblem derivative identity.

    The identity values are stored; a refined-step (5-point, delta=1e-3)
    eigenvalue finite difference at up to `check_sample` nodes provides the
    consistency check.  Nodes where a band approaches a neighbor closer than
    FD_GAP_EXCLUDE are excluded from the check (the sorted-eigenvalue branch
    is not differentiable across a crossing).
    """
    if not table.gauge_fixed:
        raise InvalidInputError("grad_energy requires a gauge-fixed table")
    grad = _gradient_identity(table)

    n_nodes = table.grid.n_nodes
    stride = max(1, n_nodes // check_sample)
    sample = np.arange(0, n_nodes, stride)
    fd = _fd_gradient_samples(table, table.grid.node_points()[sample])
    ok = table.nodal_gap[sample] > FD_GAP_EXCLUDE               # (s, N)
    diff = np.where(ok[:, :, None], np.abs(grad[sample] - fd), 0.0)
    discrepancy = float(diff.max()) if diff.size else 0.0
    scale = 1.0 + float(np.max(np.abs(grad)))
    if discrepancy > 1e-4 * scale:
        raise NumericError(
            f"grad E identity vs finite difference discrepancy {discrepancy:.3e} "
            f"exceeds {1e-4 * scale:.3e}: gauge or resolution problem")
    return replace(table, grad_e=grad, grad_fd_discrepancy=discrepancy)


def hessian_energy(table: BandTable) -> BandTable:
    """Band curvature: centered periodic difference of stored grad E, symmetrized."""
    if table.grad_e is None:
        raise InvalidInputError("hessian_energy requires grad_energy output")
    g = table.grid
    grad = table.grad_e.reshape(g.shape + (table.n_bands, g.dimension))
    hess = np.empty(g.shape + (table.n_bands, g.dimension, g.dimension))
    for axis in range(g.dimension):
        hess[..., axis, :] = _periodic_derivative(grad, axis, g.spacing)
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    return replace(table, hess_e=hess.reshape(g.n_nodes, table.n_bands,
                                              g.dimension, g.dimension))


def nearest_node(grid: BrillouinGrid, xi: np.ndarray):
    """Nearest grid node to xi in Gamma*, allowing the +pi edge to wrap.

    Returns (multi_index tuple, wrap vector, node position).  wrap[a] = 1
    means the nearest node is node 0 of axis a viewed at +pi (basis shift
    applies there).
    """
    xi = np.asarray(xi, dtype=float)
    M = grid.nodes_per_axis
    pos = (xi + np.pi) / grid.spacing
    m = np.rint(pos).astype(int)
    wrap = (m == M).astype(int)
    idx = np.where(m == M, 0, m)
    node_pos = -np.pi + grid.spacing * m
    return tuple(idx), wrap, node_pos


def band_eigvec_at(table: BandTable, n: int, xi) -> tuple[np.ndarray, np.ndarray]:
    """Gauge-continuous eigenvector of band n near xi in Gamma*.

    Nearest-node eigenvector with the zone-boundary basis shift and the
    recorded holonomy phase applied when the nearest node wraps, then a
    linear phase alignment exp(-i A(node).(xi - node)).  Returns (coeffs,
    node position actually used).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    nb1 = table.band_index(n)
    idx, wrap, node_pos = nearest_node(table.grid, xi)
    flat = int(np.ravel_multi_index(idx, table.grid.shape))
    c = table.coeffs[flat, nb1]
    for axis in range(table.grid.dimension):
        if wrap[axis]:
            c = shift_coefficients(c, axis, table.cutoff, table.grid.dimension)
            if table.holonomy is not None:
                c = c * np.exp(1j * table.holonomy[nb1, axis])
    if table.berry is not None:
        a_node = table.berry[flat, nb1]
        c = c * np.exp(-1j * np.dot(a_node, xi - node_pos))
    return c, node_pos


def evaluate_bloch_wave(table: BandTable, n: int, xi, x) -> np.ndarray:
    """u_n(xi, x) = sum_k c_k(xi) exp(2*pi*i k.x), periodic in x with period 1."""
    c, _ = band_eigvec_at(table, n, xi)
    x = np.asarray(x, dtype=float)
    if table.grid.dimension == 1 and (x.ndim <= 1 or x.shape[-1] != 1):
        x = x[..., None]
    phases = np.exp(2j * np.pi * (x @ table.kvecs().astype(float).T))
    return phases @ c


def band_isolation_check(table: BandTable, n: int, factor: float = 10.0):
    """Refuse bands whose minimal gap violates min_gap >= factor*dxi*max|grad E|.

    factor <= 0 disables the guard.  Bands flagged unusable (grid-exact
    crossings) are always refused while the guard is active.
    """
    if factor <= 0:
        return
    nb1 = table.band_index(n)
    loc = np.array2string(table.min_gap_xi[nb1], precision=4)
    if not table.usable[nb1]:
        raise BandIsolationError(
            f"band {n} touches a neighboring band at xi={loc} (grid-exact crossing)")
    if table.grad_e is not None:
        vmax = float(np.max(np.abs(table.grad_e[:, nb1, :])))
    else:
        vmax = float(np.max(np.abs(_gradient_identity(table)[:, nb1, :])))
    threshold = factor * table.grid.spacing * vmax
    if table.min_gap[nb1] < threshold:
        raise BandIsolationError(
            f"band {n} gap {table.min_gap[nb1]:.4g} at xi={loc} below isolation "
            f"threshold {threshold:.4g} (= {factor} * dxi * max|grad E|)")


class DispersionModel:
    """Periodic interpolant of E_n, grad E_n, hess E_n and A_n over Gamma*.

    The four node fields are stacked into one interpolant, so `query`
    returns all of them from a single evaluation.  Queries accept shape
    (m, d) (or (m,) when d == 1) and wrap into Gamma*.  Interpolation is
    cubic and periodic; order recorded in `interpolation_order`.
    """

    interpolation_order = "cubic-periodic"

    def __init__(self, table: BandTable, n: int):
        if table.grad_e is None or table.hess_e is None or table.berry is None:
            raise InvalidInputError(
                "dispersion model needs berry_connection, grad_energy and "
                "hessian_energy applied to the table")
        self.table = table
        self.band = n
        nb1 = table.band_index(n)
        g = table.grid
        d = self.dimension = g.dimension
        self._raw_hess = table.hess_e[:, nb1]
        # columns: E | grad E (d) | hess E (d*d, row-major) | A (d)
        stacked = np.concatenate(
            [table.energies[:, nb1, None], table.grad_e[:, nb1],
             table.hess_e[:, nb1].reshape(-1, d * d), table.berry[:, nb1]],
            axis=1).reshape(g.shape + (-1,))
        if d == 1:
            ax = np.append(g.axis_nodes, np.pi)
            spline = CubicSpline(ax, np.concatenate([stacked, stacked[:1]], axis=0),
                                 axis=0, bc_type="periodic")
            self._interp = lambda q: spline(q[:, 0])
        else:
            pad = 4
            ext = np.arange(-pad, g.nodes_per_axis + pad)
            ax = -np.pi + g.spacing * ext
            take = ext % g.nodes_per_axis
            self._interp = RegularGridInterpolator(
                (ax, ax), stacked[np.ix_(take, take)], method="cubic", bounds_error=True)

    def query(self, p):
        """(E, grad E, symmetrized hess E, A) at p from one interpolant call;
        shapes (m,), (m, d), (m, d, d), (m, d)."""
        p = np.asarray(p, dtype=float)
        if self.dimension == 1 and (p.ndim == 1 or p.shape[-1] != 1):
            p = p.reshape(-1, 1)
        d = self.dimension
        v = self._interp((p + np.pi) % TWO_PI - np.pi)
        h = v[:, 1 + d:1 + d + d * d].reshape(-1, d, d)
        return v[:, 0], v[:, 1:1 + d], 0.5 * (h + np.swapaxes(h, -1, -2)), v[:, 1 + d + d * d:]

    def energy(self, p):
        return self.query(p)[0]

    def grad(self, p):
        return self.query(p)[1]

    def hess(self, p):
        return self.query(p)[2]

    def berry(self, p):
        return self.query(p)[3]

    def hess_bound(self, p_lo=None, p_hi=None, pad: float = 0.5) -> float:
        """max |hess E| over nodes within [p_lo - pad, p_hi + pad] per axis.

        Restricting to the populated momentum range keeps kink artifacts at
        grid-exact crossings (free-band zone edges) out of step-size bounds.
        """
        nodes = self.table.grid.node_points()
        mask = np.ones(nodes.shape[0], dtype=bool)
        if p_lo is not None and p_hi is not None:
            lo = np.asarray(p_lo, dtype=float) - pad
            hi = np.asarray(p_hi, dtype=float) + pad
            mask = np.all((nodes >= lo) & (nodes <= hi), axis=1)
            if not mask.any():
                mask[:] = True
        return float(np.max(np.abs(self._raw_hess[mask])))


def dispersion_model(table: BandTable, n: int) -> DispersionModel:
    return DispersionModel(table, n)


def prepare_band_table(grid: BrillouinGrid, potential: PeriodicPotential,
                       n_bands: int, cutoff: int, strict_bands=None) -> BandTable:
    """solve_bands -> fix_gauge -> berry_connection -> grad/hessian, in order.

    `strict_bands` is passed to fix_gauge (default: every band is strict).
    """
    table = solve_bands(grid, potential, n_bands, cutoff)
    table = fix_gauge(table, strict_bands)
    table = berry_connection(table)
    table = grad_energy(table)
    table = hessian_energy(table)
    return table
