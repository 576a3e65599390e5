"""Bloch band engine.

Solves the cell eigenproblem H_xi u = E u in a plane-wave (Fourier) Galerkin
basis over a uniform Brillouin-zone grid, fixes a parallel-transport gauge,
and exports band energies, group velocities, band curvatures and the Berry
connection as smooth periodic interpolants.

Every cell Hamiltonian is assembled by `_cell_hamiltonians` and solved by
`_cell_eigensolve`, batched over an array of momenta and over any set of
plane-wave basis vectors: the band table, the finite-difference gradient
check and the torus Bloch transform (transform.bloch_transform) use the
symmetric set |k|_inf <= K, the reference solver's fibers
(reference.reference_propagate) the FFT bins of one lattice cell.

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

from .errors import (BandIsolationError, CutoffError, GaugeFixError,
                     InvalidInputError, NumericError)
from .potentials import PeriodicPotential
from .wavefield import mesh_points

TWO_PI = 2.0 * np.pi

# nodal gap below which two bands are treated as touching (exact crossings)
DEGENERACY_TOL = 1e-8
# nodal gap below which the finite-difference consistency check is skipped
FD_GAP_EXCLUDE = 0.05
# minimum admissible parallel-transport overlap
MIN_OVERLAP = 0.1
# matrix entries (momenta x n_basis^2) one batched eigensolve holds at once
_EIG_CHUNK_ENTRIES = 2_000_000


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
        return mesh_points([self.axis_nodes] * self.dimension)


def reciprocal_vectors(cutoff: int, dimension: int) -> np.ndarray:
    """Integer reciprocal vectors |k|_inf <= cutoff, shape (n_basis, d)."""
    return mesh_points([np.arange(-cutoff, cutoff + 1)] * dimension)


def _potential_matrix(potential: PeriodicPotential, kvecs: np.ndarray) -> np.ndarray:
    """Galerkin matrix V_{k-k'} over the integer basis vectors kvecs (n_basis, d);
    real dtype when possible."""
    cutoff = int(np.max(np.abs(kvecs)))
    if cutoff < potential.cutoff:
        raise CutoffError(
            f"cutoff K={cutoff} below potential support K_V={potential.cutoff}")
    d = potential.dimension
    box = np.zeros((4 * cutoff + 1,) * d, dtype=complex)
    for k, v in potential.coefficients.items():
        box[tuple(c + 2 * cutoff for c in k)] = v
    diff = kvecs[:, None, :] - kvecs[None, :, :] + 2 * cutoff
    vmat = box[tuple(diff[..., a] for a in range(d))]
    if np.all(vmat.imag == 0.0):
        vmat = vmat.real.copy()
    return vmat


def assemble_bloch_hamiltonian(xi, potential: PeriodicPotential, cutoff: int) -> np.ndarray:
    """Matrix of (1/2)(-i grad + xi)^2 + V on the cell, plane-wave basis.

    Entry (k, k') is |2*pi*k + xi|^2/2 on the diagonal plus V_{k-k'}.
    """
    potential.validate()
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (potential.dimension,):
        raise InvalidInputError(f"xi must have shape ({potential.dimension},)")
    kvecs = reciprocal_vectors(cutoff, potential.dimension)
    h = _cell_hamiltonians(kvecs, _potential_matrix(potential, kvecs), xi[None])
    return h[0].astype(complex)


def _cell_hamiltonians(kvecs: np.ndarray, vmat: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """H(xi) for each momentum xi (m, d): (m, n_basis, n_basis), dtype of vmat."""
    kin = 0.5 * np.sum((TWO_PI * kvecs[None, :, :] + xi[:, None, :]) ** 2, axis=2)
    h = np.repeat(vmat[None, :, :], xi.shape[0], axis=0)
    idx = np.arange(kvecs.shape[0])
    h[:, idx, idx] += kin
    return h


def _cell_eigensolve(potential: PeriodicPotential, kvecs: np.ndarray, xi: np.ndarray,
                     n_values: int, n_vectors: int = 0):
    """Lowest eigenpairs of the cell Hamiltonian at each momentum xi (m, d),
    over the plane-wave basis kvecs (n_basis, d).

    Returns (values (m, n_values), vectors (m, n_vectors, n_basis) complex,
    or None when n_vectors is 0).  The matrix is real when V is, and the
    momenta go in chunks of about _EIG_CHUNK_ENTRIES matrix entries.
    """
    vmat = _potential_matrix(potential, kvecs)
    nb, m = kvecs.shape[0], xi.shape[0]
    values = np.empty((m, n_values))
    vectors = np.empty((m, n_vectors, nb), dtype=complex) if n_vectors else None
    solver = np.linalg.eigh if n_vectors else np.linalg.eigvalsh
    chunk = max(1, _EIG_CHUNK_ENTRIES // (nb * nb))
    for start in range(0, m, chunk):
        sl = slice(start, min(start + chunk, m))
        try:
            res = solver(_cell_hamiltonians(kvecs, vmat, xi[sl]))
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"eigensolver failed on momenta {start}..{sl.stop - 1}: {exc}") from exc
        if n_vectors:
            res, evecs = res
            vectors[sl] = np.swapaxes(evecs[:, :, :n_vectors], 1, 2)
        values[sl] = res[:, :n_values]
    return values, vectors


@dataclass(frozen=True)
class BandTable:
    """Eigendata of the first n_bands bands on a Brillouin grid.

    Node-indexed arrays use the flattened C-order node index of `grid`.
    Fields filled progressively by fix_gauge / berry_connection /
    grad_energy are None until computed.  Band curvature is not stored:
    DispersionModel derives it from its grad E spline.
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
    holonomy: np.ndarray | None = None        # (n_bands, d)
    berry: np.ndarray | None = None           # (n_nodes, n_bands, d)
    berry_im_diag: float | None = None
    grad_e: np.ndarray | None = None          # (n_nodes, n_bands, d)
    grad_fd_discrepancy: float | None = None

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
    kvecs = reciprocal_vectors(cutoff, grid.dimension)
    nb = kvecs.shape[0]
    if n_bands > nb:
        raise InvalidInputError(f"n_bands={n_bands} exceeds basis size {nb}")

    nodes = grid.node_points()
    n_nodes = nodes.shape[0]
    n_keep = min(n_bands + 1, nb)   # one extra band for the gap above band n_bands
    energies, coeffs = _cell_eigensolve(potential, kvecs, nodes, n_keep, n_bands)

    band_e = energies[:, :n_bands]
    gap_up = np.full((n_nodes, n_bands), np.inf)
    gap_up[:, : n_keep - 1] = np.diff(energies, axis=1)
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

    def line(axis, j, lead):
        """Axis `axis` at index j, index 0 on later axes, `lead` on earlier ones."""
        return (lead,) * axis + (j,) + (0,) * (d - axis - 1)

    # axis a sweeps along index 0 of every later axis, across all earlier axes
    for axis in range(d):
        for j in range(1, M):
            sweep(c[line(axis, j - 1, slice(None))], c[line(axis, j, slice(None))],
                  f"xi index {j} of axis {axis}")

    holonomy = np.zeros((N, d))
    first = c[(0,) * d]
    for axis in range(d):
        closure = shift_coefficients(first, axis, table.cutoff, d)
        ov = np.sum(np.conj(c[line(axis, M - 1, 0)]) * closure, axis=-1)
        holonomy[:, axis] = -np.angle(ov)

    return replace(table, coeffs=c.reshape(table.coeffs.shape), gauge_fixed=True,
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


def berry_connection(table: BandTable) -> BandTable:
    """Berry connection samples A_n = Re[i <c, Dc>] = -Im <c, Dc> on the grid.

    D differentiates the gauge-fixed eigenvector field in xi: centered in the
    interior, one-sided at axis ends so the difference never crosses the
    gauge seam.  table.berry_im_diag records max |Im <c, Dc>| over usable
    nodes, which is max |A_n|: it vanishes where A does (inversion-symmetric
    lattices) and is O(1) on 2D lattices with A != 0.  It is not a measure of
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
    s, d, N = nodes.shape[0], table.grid.dimension, table.n_bands
    steps = np.array([-2, -1, 1, 2])[:, None, None] * h * np.eye(d)     # (4, axis, d)
    pts = (nodes[:, None, None, :] + steps).reshape(-1, d)
    e, _ = _cell_eigensolve(table.potential, table.kvecs(), pts, N)
    e = e.reshape(s, 4, d, N)
    return np.swapaxes((e[:, 0] - 8 * e[:, 1] + 8 * e[:, 2] - e[:, 3]) / (12 * h), 1, 2)


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


def nearest_node(grid: BrillouinGrid, xi: np.ndarray):
    """Nearest grid node to each momentum xi in Gamma*, allowing the +pi edge to wrap.

    xi has shape (d,) or (n, d).  Returns (flat node index, wrap, node
    position), the last two shaped like xi.  wrap[a] = 1 means the nearest
    node is node 0 of axis a viewed at +pi (basis shift applies there): the
    node position is then -pi, and xi - 2 pi wrap lies within half a grid
    spacing of it.
    """
    xi = np.asarray(xi, dtype=float)
    M = grid.nodes_per_axis
    m = np.rint((xi + np.pi) / grid.spacing).astype(int)
    wrap = (m == M).astype(int)
    idx = np.where(m == M, 0, m)
    flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), grid.shape)
    return flat, wrap, -np.pi + grid.spacing * idx


def band_eigvec_at(table: BandTable, n: int, xi) -> tuple[np.ndarray, np.ndarray]:
    """Gauge-continuous eigenvector of band n near xi in Gamma*.

    Nearest-node eigenvector with the zone-boundary basis shift and the
    recorded holonomy phase applied when the nearest node wraps, then a
    linear phase alignment exp(-i A(node).(xi - node)).  Returns (coeffs,
    node position actually used).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    nb1 = table.band_index(n)
    flat, wrap, node_pos = nearest_node(table.grid, xi)
    node_pos = node_pos + TWO_PI * wrap
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
    return _plane_waves(table, x) @ c


def _plane_waves(table: BandTable, x: np.ndarray) -> np.ndarray:
    """exp(2 pi i k.x) for each point x (..., d) and basis vector k: (..., n_basis)."""
    return np.exp(2j * np.pi * (x @ table.kvecs().astype(float).T))


def band_isolation_check(table: BandTable, n: int, factor: float = 10.0):
    """Refuse bands whose minimal gap violates min_gap >= factor*dxi*max|grad E|.

    factor <= 0 disables the guard.  Bands flagged unusable (grid-exact
    crossings) are always refused while the guard is active.  The table
    needs grad_energy applied.
    """
    if table.grad_e is None:
        raise InvalidInputError("band isolation check needs grad_energy applied to the table")
    if factor <= 0:
        return
    nb1 = table.band_index(n)
    loc = np.array2string(table.min_gap_xi[nb1], precision=4)
    if not table.usable[nb1]:
        raise BandIsolationError(
            f"band {n} touches a neighboring band at xi={loc} (grid-exact crossing)")
    vmax = float(np.max(np.abs(table.grad_e[:, nb1, :])))
    threshold = factor * table.grid.spacing * vmax
    if table.min_gap[nb1] < threshold:
        raise BandIsolationError(
            f"band {n} gap {table.min_gap[nb1]:.4g} at xi={loc} below isolation "
            f"threshold {threshold:.4g} (= {factor} * dxi * max|grad E|)")


# cubic B-spline pieces on one cell as power series in u: row r holds the u^r
# coefficients of the four B-splines centred on nodes j-1, j, j+1, j+2
_BSPLINE_POWERS = np.array([[1.0, 4.0, 1.0, 0.0], [-3.0, 0.0, 3.0, 0.0],
                            [3.0, -6.0, 3.0, 0.0], [-1.0, 3.0, -3.0, 1.0]]) / 6.0


def _zone_offset(p):
    """(p + pi) mod 2 pi: bit for bit `(p + pi) % TWO_PI`, about four times faster.

    The two agree while k 2 pi is exact in floating point, with
    k = floor((p + pi) / 2 pi) (|k| <= 10, so for |p| < 19 pi): the floor of
    the rounded quotient is then exact, and the one subtraction rounds the
    same real number as the correction inside `%`.  Beyond that they can
    differ by one rounding.
    """
    y = p + np.pi
    return y - np.floor(y / TWO_PI) * TWO_PI


class DispersionModel:
    """Periodic cubic spline of E_n, grad E_n and A_n over Gamma*, and
    hess E_n as the symmetrized derivative of the grad E spline.

    E, grad E and A are columns of one tensor-product periodic cubic spline,
    with one code path for every d.  On the uniform periodic grid the spline
    system is circulant: dividing the FFT of the node values along each axis
    by (2 + cos(2 pi k/M))/3 gives the B-spline coefficients (Unser,
    Aldroubi & Eden, IEEE TPAMI 13 (1991) 277).  They are stored as per-cell
    power-basis coefficients, with the grad E ones differentiated once into
    d*d hess E columns, so F is the Jacobian of the (Q, P) flow the spline
    drives.  `query` evaluates all four by Horner's rule one axis at a time.
    Queries accept shape (m, d) (or (m,) when d == 1) and wrap into Gamma*.
    A query keeps its gathered cells for the next one, so a model is not
    shared between threads.
    """

    def __init__(self, table: BandTable, n: int):
        if table.grad_e is None or table.berry is None:
            raise InvalidInputError(
                "dispersion model needs berry_connection and grad_energy "
                "applied to the table")
        self.table = table
        self.band = n
        nb1 = table.band_index(n)
        g = table.grid
        d = self.dimension = g.dimension
        M = g.nodes_per_axis
        # columns: E | grad E (d) | A (d)
        coef = np.concatenate(
            [table.energies[:, nb1, None], table.grad_e[:, nb1], table.berry[:, nb1]],
            axis=1).reshape(g.shape + (-1,))
        lam = (2.0 + np.cos(TWO_PI * np.arange(M) / M)) / 3.0
        for a in range(d):
            lam_a = lam.reshape((M,) + (1,) * (coef.ndim - a - 1))
            coef = np.fft.ifft(np.fft.fft(coef, axis=a) / lam_a, axis=a).real
            taps = [np.roll(coef, 1 - m, axis=a) for m in range(4)]
            coef = np.stack([sum(w * t for w, t in zip(row, taps))
                             for row in _BSPLINE_POWERS], axis=d + a)
        # hess[..., a, b] = d_a grad_b E: along axis a's power axis, the cell
        # term c_r u^r becomes r c_r u^(r-1) / dxi
        deriv = np.diag(np.arange(1.0, 4.0), 1) / g.spacing
        hess = np.stack([np.moveaxis(np.tensordot(deriv, coef[..., 1:1 + d], axes=(1, d + a)),
                                     0, d + a) for a in range(d)], axis=-2)
        hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
        # columns: E | grad E (d) | hess E (d*d, row-major) | A (d)
        coef = np.concatenate([coef[..., :1 + d], hess.reshape(coef.shape[:-1] + (d * d,)),
                               coef[..., 1 + d:]], axis=-1)
        # (4^d, columns, M^d): one gather along the last axis gives Horner's
        # rule whole rows of length m
        self._cells = np.ascontiguousarray(
            coef.reshape(g.n_nodes, 4 ** d, -1).transpose(1, 2, 0))
        # the last query's node per point and its gathered cells
        self._last_node = np.empty(0, dtype=np.intp)
        self._last_cells = self._cells[..., :0]

    def query(self, p):
        """(E, grad E, hess E, A) at p from one spline evaluation; shapes
        (m,), (m, d), (m, d, d), (m, d), as views of rows of length m.  A NaN
        momentum yields NaN values."""
        d, g = self.dimension, self.table.grid
        M = g.nodes_per_axis
        p = np.asarray(p, dtype=float).reshape(-1, d).T
        t = _zone_offset(p) / g.spacing
        # fmin also sends NaN to the last cell; u then stays NaN
        cell = np.fmin(t, M - 1).astype(np.intp)
        u = t - cell
        node = cell[0]
        for a in range(1, d):
            node = node * M + cell[a]
        # re-gather only the cells that changed since the last query (all of
        # them at a new batch size); every node index lies in [0, M^d) by
        # construction, so "clip" skips the check
        m = node.shape[0]
        if self._last_node.shape[0] != m:
            self._last_node = np.full(m, -1, dtype=np.intp)
            self._last_cells = np.empty(self._cells.shape[:2] + (m,))
        moved = np.flatnonzero(node != self._last_node)
        if moved.size:
            fresh = node[moved]
            self._last_cells[..., moved] = np.take(self._cells, fresh, axis=-1, mode="clip")
            self._last_node[moved] = fresh
        v = self._last_cells
        columns = v.shape[1]
        for a in range(d):
            # sized, not -1, so that an empty batch works too
            v = v.reshape(4, 4 ** (d - 1 - a) * columns, m)
            acc = v[3] * u[a]
            for r in (2, 1):
                acc += v[r]
                acc *= u[a]
            acc += v[0]
            v = acc
        return (v[0], v[1:1 + d].T, v[1 + d:1 + d + d * d].T.reshape(-1, d, d),
                v[1 + d + d * d:].T)

    def hess_bound(self, p_lo=None, p_hi=None, pad: float = 0.5) -> float:
        """max |hess E| of the spline at the nodes within [p_lo - pad, p_hi + pad]
        per axis.

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
        # a cell's (0, ..., 0) power coefficient is its node value
        d = self.dimension
        return float(np.max(np.abs(self._cells[0, 1 + d:1 + d + d * d, mask])))


def dispersion_model(table: BandTable, n: int) -> DispersionModel:
    return DispersionModel(table, n)


def prepare_band_table(grid: BrillouinGrid, potential: PeriodicPotential,
                       n_bands: int, cutoff: int, strict_bands=None) -> BandTable:
    """solve_bands -> fix_gauge -> berry_connection -> grad_energy, in order.

    The table holds E, A and grad E at the nodes; DispersionModel derives
    hess E from its grad E spline.

    `strict_bands` is passed to fix_gauge (default: every band is strict).
    """
    table = solve_bands(grid, potential, n_bands, cutoff)
    table = fix_gauge(table, strict_bands)
    table = berry_connection(table)
    return grad_energy(table)
