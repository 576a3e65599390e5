import tracemalloc

import numpy as np
import pytest

from fgabloch.bloch import (BrillouinGrid, _zone_offset, assemble_bloch_hamiltonian,
                            band_isolation_check, berry_connection, dispersion_model,
                            evaluate_bloch_wave, fix_gauge, grad_energy, nearest_node,
                            prepare_band_table, shift_coefficients, solve_bands)
from fgabloch.errors import BandIsolationError, CutoffError, GaugeFixError, InvalidInputError
from fgabloch.potentials import PeriodicPotential

TWO_PI = 2 * np.pi


# --- assembly -------------------------------------------------------------

def test_free_hamiltonian_diagonal():
    h = assemble_bloch_hamiltonian([0.0], PeriodicPotential.zero(1), 1)
    assert np.allclose(sorted(np.diag(h).real), [0.0, TWO_PI ** 2 / 2, TWO_PI ** 2 / 2])
    assert np.allclose(h - np.diag(np.diag(h)), 0)


def test_free_lowest_eigenvalue_half_xi_squared():
    h = assemble_bloch_hamiltonian([0.5], PeriodicPotential.zero(1), 2)
    assert abs(np.linalg.eigvalsh(h)[0] - 0.125) < 1e-14


def test_cosine_offdiagonals(cos_potential):
    h = assemble_bloch_hamiltonian([0.3], cos_potential, 3)
    nb = h.shape[0]
    for i in range(nb):
        for j in range(nb):
            if i == j:
                continue
            expect = 0.5 if abs(i - j) == 1 else 0.0
            assert abs(h[i, j] - expect) < 1e-15


def test_hermiticity(cos_potential):
    h = assemble_bloch_hamiltonian([1.1], cos_potential, 8)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-13 * np.max(np.abs(h))


def test_cutoff_error(cos_potential):
    with pytest.raises(CutoffError):
        assemble_bloch_hamiltonian([0.0], cos_potential, 0)


# --- solve_bands ----------------------------------------------------------

def test_free_folded_dispersion(free_table128):
    t = free_table128
    nodes = t.grid.axis_nodes
    interior = np.abs(np.abs(nodes) - np.pi) > 0.3
    e1 = t.energies[:, 0]
    e2 = t.energies[:, 1]
    assert np.max(np.abs(e1[interior] - nodes[interior] ** 2 / 2)) < 1e-12
    nz = interior & (np.abs(nodes) > 0.3)
    assert np.max(np.abs(e2[nz] - (np.abs(nodes[nz]) - TWO_PI) ** 2 / 2)) < 1e-12


def test_free_degeneracy_at_zero(free_table128):
    t = free_table128
    j0 = t.grid.nodes_per_axis // 2          # xi = 0
    assert abs(t.energies[j0, 1] - TWO_PI ** 2 / 2) < 1e-12
    assert abs(t.energies[j0, 2] - TWO_PI ** 2 / 2) < 1e-12
    assert t.min_gap[1] < 1e-12
    assert np.allclose(t.min_gap_xi[1], 0.0) or np.allclose(np.abs(t.min_gap_xi[1]), np.pi)
    assert not t.usable[1]


def test_band1_crossing_at_edge(free_table128):
    assert free_table128.min_gap[0] < 1e-12
    assert not free_table128.usable[0]


def test_normalization_and_ordering(cos_table64):
    t = cos_table64
    norms = np.sum(np.abs(t.coeffs) ** 2, axis=2)
    assert np.max(np.abs(norms - 1)) < 1e-12
    assert np.all(np.diff(t.energies, axis=1) >= -1e-12)


def test_refinement_stability(cos_potential):
    """Doubling K and M changes E_1 by <= 1e-10 (oracle: the refined solve)."""
    coarse = solve_bands(BrillouinGrid(1, 32), cos_potential, 2, 16)
    fine = solve_bands(BrillouinGrid(1, 64), cos_potential, 2, 32)
    # the coarse nodes are every other fine node
    assert np.max(np.abs(coarse.energies[:, 0] - fine.energies[::2, 0])) <= 1e-10
    gap_c = coarse.energies[0, 1] - coarse.energies[0, 0]
    gap_f = fine.energies[0, 1] - fine.energies[0, 0]
    assert abs(gap_c - gap_f) <= 1e-10


def test_parseval_completeness_at_node(cos_potential, rng):
    h = assemble_bloch_hamiltonian([0.7], cos_potential, 8)
    _, vecs = np.linalg.eigh(h)
    v = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    mass = np.sum(np.abs(vecs.conj().T @ v) ** 2)
    assert abs(mass - np.linalg.norm(v) ** 2) < 1e-10 * np.linalg.norm(v) ** 2


# --- gauge fixing ---------------------------------------------------------

def _link_overlaps(table, band):
    c = table.node_coeffs(band)
    return np.sum(np.conj(c[:-1]) * c[1:], axis=-1)


def test_fix_gauge_fixed_point(cos_table64):
    again = fix_gauge(cos_table64)
    # already gauge-continuous: unchanged up to unit phases with zero rotation
    assert np.max(np.abs(again.coeffs - cos_table64.coeffs)) < 1e-12


def test_fix_gauge_random_phases(cos_potential, rng):
    t = solve_bands(BrillouinGrid(1, 64), cos_potential, 3, 16)
    phases = np.exp(1j * rng.uniform(0, TWO_PI, size=t.coeffs.shape[:2]))
    t_scrambled = type(t)(**{**t.__dict__, "coeffs": t.coeffs * phases[:, :, None]})
    fixed = fix_gauge(t_scrambled)
    for n in (1, 2, 3):
        ov = _link_overlaps(fixed, n)
        assert np.all(ov.real >= 0)
        assert np.max(np.abs(ov.imag)) < 1e-12


def test_holonomy_matches_wilson_loop(cos_potential, cos_table64, rng):
    """Oracle: the gauge-invariant product of link phases around the loop,
    computed on an independently scrambled table."""
    t = solve_bands(BrillouinGrid(1, 64), cos_potential, 2, 16)
    phases = np.exp(1j * rng.uniform(0, TWO_PI, size=t.coeffs.shape[:2]))
    scr = type(t)(**{**t.__dict__, "coeffs": t.coeffs * phases[:, :, None]})
    c = scr.node_coeffs(1)
    prod = 1.0 + 0j
    for j in range(c.shape[0] - 1):
        prod *= np.sum(np.conj(c[j]) * c[j + 1])
    closure = shift_coefficients(c[0], 0, scr.cutoff, 1)
    prod *= np.sum(np.conj(c[-1]) * closure)
    wilson = -np.angle(prod)
    fixed = fix_gauge(scr)
    assert abs(np.angle(np.exp(1j * (fixed.holonomy[0, 0] - wilson)))) < 1e-9
    # inversion-symmetric potential: band-1 holonomy is the quantized pi
    assert abs(abs(fixed.holonomy[0, 0]) - np.pi) < 1e-8


def test_gauge_failure_for_coarse_crossing():
    # two bands crossing sharply: free bands on a coarse grid trip the overlap
    # threshold only through the degenerate path, which is flagged not raised;
    # force strictness on an unusable band to see the error surface
    t = solve_bands(BrillouinGrid(1, 8), PeriodicPotential.zero(1), 2, 4)
    fixed = fix_gauge(t)      # degenerate bands: best effort, no raise
    assert not fixed.usable[0]
    with pytest.raises(GaugeFixError):
        # strictness overrides the degeneracy dispensation only for usable bands,
        # so emulate a usable band with a broken line
        tt = solve_bands(BrillouinGrid(1, 64), PeriodicPotential.cosine(1), 1, 8)
        bad = tt.coeffs.copy()
        bad[10, 0] = np.roll(bad[10, 0], 7)   # destroy continuity at one node
        fix_gauge(type(tt)(**{**tt.__dict__, "coeffs": bad}))


# --- berry connection -----------------------------------------------------

def test_berry_zero_for_free_interior(free_table128):
    t = berry_connection(free_table128)
    nodes = t.grid.axis_nodes
    interior = np.abs(np.abs(nodes) - np.pi) > 0.3
    assert np.max(np.abs(t.berry[interior, 0, :])) < 1e-10


def test_berry_imag_diagnostic(cos_table64):
    assert cos_table64.berry_im_diag <= 1e-8


def test_berry_norm_derivative_identity(cos_table64):
    # D applied to the constant field <c, c> = 1 vanishes identically
    c = cos_table64.node_coeffs(1)
    norms = np.sum(np.abs(c) ** 2, axis=-1)
    d = np.roll(norms, -1) - np.roll(norms, 1)
    assert np.max(np.abs(d)) < 1e-12


def test_berry_small_for_inversion_symmetric(cos_table64):
    """Inversion-symmetric V: A vanishes in the transport gauge; the reflected
    grid carries the mirror values (oracle)."""
    a = cos_table64.berry[:, 0, 0]
    assert np.max(np.abs(a)) <= 1e-6
    mirrored = -a[::-1]
    # A(xi) = -A(-xi) for the symmetric potential; node 0 has no mirror partner
    assert np.max(np.abs(a[1:] - np.roll(mirrored, 1)[1:])) <= 2e-6


def test_berry_nonzero_for_complex_potential():
    v = PeriodicPotential(dimension=1, coefficients={(1,): 0.3 + 0.2j, (-1,): 0.3 - 0.2j,
                                                     (2,): 0.15j, (-2,): -0.15j})
    t = prepare_band_table(BrillouinGrid(1, 64), v, 1, 12)
    # interior links are exactly flattened; the one-sided end stencils keep a
    # tiny triple-product phase for genuinely complex gauges
    assert t.berry_im_diag <= 1e-5
    # the physical Zak phase is no longer quantized
    assert min(abs(t.holonomy[0, 0]), abs(abs(t.holonomy[0, 0]) - np.pi)) > 1e-3


# --- dispersion derivatives -----------------------------------------------

def test_grad_free_values(free_table128):
    t = grad_energy(free_table128)
    nodes = t.grid.axis_nodes
    j = int(np.argmin(np.abs(nodes - 0.5)))
    assert abs(t.grad_e[j, 0, 0] - nodes[j]) < 1e-10
    j0 = t.grid.nodes_per_axis // 2
    assert abs(t.grad_e[j0, 0, 0]) < 1e-12


def test_grad_identity_vs_refined_fd(cos_table64):
    """Identity value at xi = pi/2 vs the 5-point eigenvalue stencil oracle."""
    t = cos_table64
    j = int(np.argmin(np.abs(t.grid.axis_nodes - np.pi / 2)))
    xi = t.grid.axis_nodes[j]
    h = 1e-3
    evals = [np.linalg.eigvalsh(assemble_bloch_hamiltonian([xi + s * h], t.potential, 16))[0]
             for s in (-2, -1, 1, 2)]
    oracle = (evals[0] - 8 * evals[1] + 8 * evals[2] - evals[3]) / (12 * h)
    assert abs(t.grad_e[j, 0, 0] - oracle) < 1e-8
    # module invariant: identity-vs-FD agreement at 1e-6 relative (M=64, K=16)
    scale = 1 + np.max(np.abs(t.grad_e))
    assert t.grad_fd_discrepancy <= 1e-6 * scale


def test_grad_energy_peak_memory_2d():
    """The finite-difference check of a 2D cosine table (M = 32, K = 3, the
    separable-2d table) solves its shifted Hamiltonians in bounded chunks:
    grad_energy's traced peak stays at or below 40 MB."""
    t = fix_gauge(solve_bands(BrillouinGrid(2, 32), PeriodicPotential.cosine(2), 1, 3))
    tracemalloc.start()
    try:
        grad_energy(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def _nodes_and_midpoints(grid):
    """Every node and every cell midpoint of a Brillouin grid, shape (n, d)."""
    axis = np.sort(np.append(grid.axis_nodes, grid.axis_nodes + grid.spacing / 2))
    return np.stack(np.meshgrid(*[axis] * grid.dimension, indexing="ij"),
                    axis=-1).reshape(-1, grid.dimension)


def test_hessian_free_interior_identity(free_table128):
    """The free band's hess E is 1 away from the zone-edge kink, whose
    spline ringing decays by 2 - sqrt(3) per node: nodes and cell midpoints
    with pi - |xi| > 1.0."""
    p = _nodes_and_midpoints(free_table128.grid)
    p = p[np.pi - np.abs(p[:, 0]) > 1.0]
    hess = dispersion_model(free_table128, 1).query(p)[2]
    assert np.max(np.abs(hess[:, 0, 0] - 1.0)) < 1e-8


def test_hessian_2d_free_identity():
    """As in 1D, on a grid fine enough (M = 64) to leave room for the kink's
    ringing: pi - |xi_a| > 1.8 on each axis, at nodes and cell midpoints."""
    t = prepare_band_table(BrillouinGrid(2, 64), PeriodicPotential.zero(2), 1, 3)
    p = _nodes_and_midpoints(t.grid)
    p = p[np.all(np.pi - np.abs(p) > 1.8, axis=1)]
    hess = dispersion_model(t, 1).query(p)[2]
    assert np.max(np.abs(hess - np.eye(2))) < 1e-8


def test_hessian_vs_second_difference_oracle(cos_table64):
    t = cos_table64
    j = int(np.argmin(np.abs(t.grid.axis_nodes - np.pi / 2)))
    xi = t.grid.axis_nodes[j]
    h = 1e-3
    e = [np.linalg.eigvalsh(assemble_bloch_hamiltonian([xi + s * h], t.potential, 16))[0]
         for s in (-1, 0, 1)]
    oracle = (e[0] - 2 * e[1] + e[2]) / h ** 2
    # hess E is the derivative of the cubic grad E spline: O(dxi^3) at a node
    hess = dispersion_model(t, 1).query([xi])[2][0, 0, 0]
    assert abs(hess - oracle) < 5e-3 * (1 + abs(oracle))


@pytest.mark.parametrize("d", [1, 2])
def test_hess_is_derivative_of_queried_grad(cos_table64, rng, d):
    """query's hess E is the symmetrized derivative of query's grad E, so F
    linearizes the very flow that moves Q and P."""
    if d == 1:
        table = cos_table64
    else:
        table = prepare_band_table(BrillouinGrid(2, 16), PeriodicPotential.cosine(2, 0.5), 1, 3)
    model = dispersion_model(table, 1)
    p = rng.uniform(-np.pi, np.pi, size=(200, d))
    hess = model.query(p)[2].copy()
    step = 1e-5
    fd = np.empty_like(hess)
    for a in range(d):
        shift = step * np.eye(d)[a]
        fd[:, a] = (model.query(p + shift)[1] - model.query(p - shift)[1]) / (2 * step)
    fd = 0.5 * (fd + np.swapaxes(fd, -1, -2))
    assert np.max(np.abs(hess - fd)) <= 1e-6 * (1 + np.max(np.abs(hess)))


# --- bloch wave evaluation ------------------------------------------------

def test_nearest_node_batched_and_edge_wrap():
    """(n, d) momenta snap row by row to flat C-order node indices; the +pi
    edge wraps to node 0 at -pi."""
    grid = BrillouinGrid(2, 8)
    h = grid.spacing
    xi = np.array([[-np.pi, -np.pi], [0.4 * h - np.pi, 2.6 * h - np.pi],
                   [np.pi - 0.2 * h, 0.1], [1.0, np.pi - 0.4 * h]])
    flat, wrap, pos = nearest_node(grid, xi)
    assert flat.tolist() == [0, 3, 0 * 8 + 4, 5 * 8 + 0]
    assert wrap.tolist() == [[0, 0], [0, 0], [1, 0], [0, 1]]
    assert np.array_equal(pos, grid.node_points()[flat])
    assert np.all(np.abs(xi - TWO_PI * wrap - pos) <= h / 2)
    for row, f in zip(xi, flat):
        assert nearest_node(grid, row)[0] == f


def test_evaluate_free_modulus_one(free_table128):
    x = np.linspace(0, 1, 13)
    u = evaluate_bloch_wave(free_table128, 1, [0.5], x)
    assert np.max(np.abs(np.abs(u) - 1)) < 1e-12


def test_evaluate_periodic_in_x(cos_table64):
    x = np.array([0.13, 0.61])
    u1 = evaluate_bloch_wave(cos_table64, 1, [0.3], x)
    u2 = evaluate_bloch_wave(cos_table64, 1, [0.3], x + 1.0)
    assert np.max(np.abs(u1 - u2)) < 1e-12


def test_evaluate_against_dense_fourier_oracle(cos_potential, cos_table64):
    """u at xi = 0: direct summation with K = 64 as the oracle."""
    h = assemble_bloch_hamiltonian([0.0], cos_potential, 64)
    _, vecs = np.linalg.eigh(h)
    kv = np.arange(-64, 65)
    x = np.array([0.0, 0.5])
    dense = np.exp(2j * np.pi * np.outer(x, kv)) @ vecs[:, 0]
    got = evaluate_bloch_wave(cos_table64, 1, [0.0], x)
    phase = np.vdot(dense, got)
    phase /= abs(phase)
    assert np.max(np.abs(got - phase * dense)) < 1e-10


def test_shift_relabeling_identity(cos_potential):
    """c(xi + 2 pi) equals the shifted coefficients of c(xi)."""
    K = 12
    xi = 0.3
    _, v1 = np.linalg.eigh(assemble_bloch_hamiltonian([xi], cos_potential, K))
    kv = np.arange(-K, K + 1)
    kin = 0.5 * (TWO_PI * kv + xi + TWO_PI) ** 2
    h2 = np.zeros((2 * K + 1,) * 2, dtype=complex)
    for i in range(2 * K + 1):
        for j in range(2 * K + 1):
            if abs(kv[i] - kv[j]) == 1:
                h2[i, j] = 0.5
    h2[np.diag_indices_from(h2)] += kin
    _, v2 = np.linalg.eigh(h2)
    shifted = shift_coefficients(v1[:, 0], 0, K, 1)
    ov = np.vdot(shifted, v2[:, 0])
    assert np.linalg.norm(shifted * (ov / abs(ov)) - v2[:, 0]) < 1e-12


# --- isolation guard and interpolants ---------------------------------------

def test_isolation_guard_free_band2(free_table128):
    with pytest.raises(BandIsolationError) as err:
        band_isolation_check(free_table128, 2, factor=10.0)
    assert "xi" in str(err.value)


def test_isolation_guard_cos_band1(cos_table128):
    band_isolation_check(cos_table128, 1, factor=2.0)   # passes
    band_isolation_check(cos_table128, 1, factor=0.0)   # disabled
    with pytest.raises(BandIsolationError):
        band_isolation_check(cos_table128, 1, factor=50.0)


def test_isolation_guard_needs_grad_e(cos_potential):
    """The guard reads max|grad E| from the table, so a table without it is refused."""
    t = fix_gauge(solve_bands(BrillouinGrid(1, 32), cos_potential, 1, 4))
    with pytest.raises(InvalidInputError):
        band_isolation_check(t, 1, factor=1.0)


def test_dispersion_model_periodic_and_symmetric(cos_table64, rng):
    d = dispersion_model(cos_table64, 1)
    p = rng.uniform(-np.pi, np.pi, size=(32, 1))
    e, g, h, _ = d.query(p)
    e_shift, g_shift, _, _ = d.query(p + TWO_PI)
    assert np.allclose(e, e_shift, atol=1e-12)
    assert np.allclose(g, g_shift, atol=1e-12)
    assert np.allclose(h, np.swapaxes(h, -1, -2))
    # interpolant matches a fresh eigensolve off the nodes (mid-zone)
    xi = np.array([0.7123])
    e_true = np.linalg.eigvalsh(assemble_bloch_hamiltonian(xi, cos_table64.potential, 16))[0]
    assert abs(d.query(xi[None, :])[0][0] - e_true) < 1e-7


@pytest.mark.parametrize("band", [1, 2])
def test_dispersion_model_matches_periodic_cubic_spline_1d(cos_table64, rng, band):
    """The periodic cubic interpolant is unique, so scipy's is an exact oracle:
    for E, grad E and A, and, through its derivative, for hess E."""
    interpolate = pytest.importorskip("scipy.interpolate")
    t, nb1 = cos_table64, band - 1
    columns = np.concatenate([t.energies[:, nb1, None], t.grad_e[:, nb1],
                              t.berry[:, nb1]], axis=1)
    nodes = np.append(t.grid.axis_nodes, np.pi)
    oracle = interpolate.CubicSpline(nodes, np.concatenate([columns, columns[:1]]),
                                     axis=0, bc_type="periodic")
    p = rng.uniform(-3 * np.pi, 3 * np.pi, size=1500)
    x = (p + np.pi) % TWO_PI - np.pi
    e, g, h, a = dispersion_model(t, band).query(p)
    got = np.concatenate([e[:, None], g, a], axis=1)
    scale = np.max(np.abs(columns), axis=0)
    assert np.all(np.abs(got - oracle(x)) <= 1e-13 * scale)
    hess_scale = np.max(np.abs(oracle(nodes, 1)[:, 1]))
    assert np.all(np.abs(h[:, 0, 0] - oracle(x, 1)[:, 1]) <= 1e-13 * hess_scale)


def _periodic_tensor_spline(interpolate, nodes, values, x, nu=(0, 0)):
    """scipy's periodic CubicSpline of node values (M, M, columns) along
    axis 0 and then along axis 1, or its derivative of order nu, at x (n, 2)."""
    def spline(v):          # along axis 0; the first node closes the period
        return interpolate.CubicSpline(nodes, np.concatenate([v, v[:1]]), bc_type="periodic")

    rows = spline(values)(x[:, 0], nu[0])                  # (n, M, columns)
    return np.stack([spline(r)(xi, nu[1]) for r, xi in zip(rows, x[:, 1])])


@pytest.mark.parametrize("band", [1, 2])
def test_dispersion_model_matches_periodic_tensor_spline_2d(berry_lattice_table, rng, band):
    """On a 2D lattice without inversion symmetry (A is not zero), the
    tensor-product periodic cubic interpolant is unique, so scipy's 1D
    periodic spline applied along axis 0 and then axis 1 is an exact oracle
    for E, grad E and A, and, through its derivatives, for hess E."""
    interpolate = pytest.importorskip("scipy.interpolate")
    t, nb1 = berry_lattice_table, band - 1
    m = t.grid.nodes_per_axis
    columns = np.concatenate([t.energies[:, nb1, None], t.grad_e[:, nb1],
                              t.berry[:, nb1]], axis=1)
    scale = np.max(np.abs(columns), axis=0)
    assert scale[3:].max() > 0.3                       # the A columns are not zero
    nodes = np.append(t.grid.axis_nodes, np.pi)
    values = columns.reshape(m, m, -1)                 # flat node index is C order
    p = rng.uniform(-3 * np.pi, 3 * np.pi, size=(300, 2))
    x = (p + np.pi) % TWO_PI - np.pi
    e, g, h, a = dispersion_model(t, band).query(p)
    got = np.concatenate([e[:, None], g, a], axis=1)
    assert np.all(np.abs(got - _periodic_tensor_spline(interpolate, nodes, values, x))
                  <= 1e-13 * scale)
    # hess E is the symmetrized derivative of the grad E spline
    grad = values[:, :, 1:3]
    d0, d1 = (_periodic_tensor_spline(interpolate, nodes, grad, x, nu)
              for nu in ((1, 0), (0, 1)))
    jac = np.stack([d0, d1], axis=2)                   # [:, a, b] = d(grad_a)/d(p_b)
    hess = 0.5 * (jac + jac.transpose(0, 2, 1))
    assert np.all(np.abs(h - hess) <= 1e-13 * np.abs(hess).max())


@pytest.mark.parametrize("d", [1, 2])
def test_dispersion_model_empty_batch(cos_table64, d):
    """A query of no momenta returns empty arrays of the usual trailing shapes."""
    if d == 1:
        table = cos_table64
    else:
        table = prepare_band_table(BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 1, 2)
    e, g, h, a = dispersion_model(table, 1).query(np.zeros((0, d)))
    assert (e.shape, g.shape, h.shape, a.shape) == ((0,), (0, d), (0, d, d), (0, d))


def test_dispersion_model_nan_momentum_gives_nan(cos_table64):
    values = dispersion_model(cos_table64, 1).query(np.array([[np.nan], [0.3]]))
    for v in values:
        assert np.all(np.isnan(v[0])) and np.all(np.isfinite(v[1]))


@pytest.mark.parametrize("d", [1, 2])
def test_dispersion_model_regather_matches_fresh_model(cos_table64, rng, d):
    """query re-gathers only the cells whose node moved since its last call:
    after random moves (within and across cells, and across the zone edge), a
    batch-size change and a NaN, every output equals a fresh model's query
    at the same momenta bit for bit."""
    if d == 1:
        table = cos_table64
    else:
        table = prepare_band_table(BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 1, 2)
    model = dispersion_model(table, 1)
    p = rng.uniform(-np.pi, np.pi, size=(40, d))
    batches = [p]
    for scale in (1e-3, 0.2, 2.0):                  # few, some and most cells move
        moved = p.copy()
        rows = rng.random(40) < 0.5
        moved[rows] += scale * rng.standard_normal((rows.sum(), d))
        batches.append(moved)
    batches.append(batches[-1][:25])                # a new batch size
    with_nan = batches[-1].copy()
    with_nan[3, 0] = np.nan
    batches += [with_nan, batches[-1]]
    for q in batches:
        got, want = model.query(q), dispersion_model(table, 1).query(q)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)


def test_dispersion_model_2d_smoke():
    t = prepare_band_table(BrillouinGrid(2, 16), PeriodicPotential.cosine(2, 0.5), 1, 3)
    d = dispersion_model(t, 1)
    p = np.array([[0.3, -0.4], [2.0, 1.0]])
    assert np.allclose(d.query(p)[0], d.query(p + TWO_PI)[0], atol=1e-10)
    assert d.query(p)[2].shape == (2, 2, 2)
    # the spline reproduces every node field, and hess E is exactly symmetric
    e, g, h, a = d.query(t.grid.node_points())
    assert np.max(np.abs(e - t.energies[:, 0])) <= 1e-12
    assert np.max(np.abs(g - t.grad_e[:, 0])) <= 1e-12
    assert np.max(np.abs(a - t.berry[:, 0])) <= 1e-12
    assert np.array_equal(h, np.swapaxes(h, -1, -2))
    # off the nodes the energy matches a fresh eigensolve on a finer grid
    pot = PeriodicPotential.cosine(2)
    fine = dispersion_model(prepare_band_table(BrillouinGrid(2, 32), pot, 1, 3), 1)
    xi = np.array([0.7123, -1.31])
    e_true = np.linalg.eigvalsh(assemble_bloch_hamiltonian(xi, pot, 3))[0]
    assert abs(fine.query(xi[None, :])[0][0] - e_true) < 1e-6


def test_zone_offset_matches_remainder_bit_for_bit(rng):
    """The spline's zone wrap y - floor(y / 2 pi) 2 pi equals (p + pi) % 2 pi
    exactly over the range its docstring states: random momenta in +-19 pi and
    nextafter walks across the zone edges +-pi, +-3 pi, ..., +-17 pi."""
    walks = []
    for edge in np.pi * np.arange(1, 19, 2):
        for centre in (edge, -edge):
            up, down = [centre], [centre]
            for _ in range(40):
                up.append(np.nextafter(up[-1], np.inf))
                down.append(np.nextafter(down[-1], -np.inf))
            walks += up + down
    p = np.concatenate([rng.uniform(-19 * np.pi, 19 * np.pi, 200_000), walks,
                        [0.0, -0.0, 2 * np.pi, -2 * np.pi]])
    expect = (p + np.pi) % TWO_PI
    got = _zone_offset(p)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert np.all((got >= 0) & (got <= TWO_PI))
