import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fgabloch import pipeline, transform
from fgabloch.bloch import (BrillouinGrid, assemble_bloch_hamiltonian,
                            evaluate_bloch_wave, prepare_band_table, solve_bands)
from fgabloch.config import RunConfig
from fgabloch.errors import QuadratureRiskError, ResolutionError
from fgabloch.potentials import PeriodicPotential
from fgabloch.transform import (PhaseSpaceGrid, WindowedCoefficients, _cell_bloch_values,
                                _truncated_window, band_projection, bloch_transform,
                                gaussian_eval, parseval_check, phase_grid_for_field,
                                reconstruct, windowed_bloch_transform)
from fgabloch.wavefield import WaveField, gaussian_packet, l2_distance, mesh_points


def _packet(table, eps=1 / 32, L=1.0, q0=0.5, p0=0.8, s=16, band=1, width=1.0):
    n_x = int(L / eps) * s
    f, p_used = gaussian_packet(1, eps, L, n_x, q0=q0, p0=p0, width=width,
                                table=table, band=band)
    return f, p_used


# --- gaussian window --------------------------------------------------------

def test_gaussian_eval_center():
    assert gaussian_eval([0.3], [1.0], 0.1, np.array([0.3])) == pytest.approx(1.0)


def test_gaussian_eval_one_sigma():
    eps = 0.02
    x = np.array([np.sqrt(2 * eps)])
    val = gaussian_eval([0.0], [0.0], eps, x)
    assert val == pytest.approx(np.exp(-1.0))


def test_gaussian_eval_explicit_point():
    val = gaussian_eval([0.0], [1.0], 0.01, np.array([0.1]))[0]
    assert val == pytest.approx(np.exp(-0.5) * np.exp(10j), abs=1e-12)


def test_truncated_window_is_gaussian_eval_inside_radius():
    eps, q, p = 1 / 32, 0.3, 1.7
    radius = 8 * np.sqrt(eps)
    x = np.linspace(q - 1.5 * radius, q + 1.5 * radius, 601)
    inside = np.abs(x - q) <= radius
    assert inside.any() and not inside.all()
    for mom in (p, None):
        got = _truncated_window(x - q, eps, radius, mom)
        ref = gaussian_eval([q], [mom or 0.0], eps, x)
        assert np.abs(got[inside] - ref[inside]).max() <= 1e-12
        assert np.all(got[~inside] == 0)


# --- windowed transform -----------------------------------------------------

def test_zero_field_zero_coefficients(cos_table128):
    eps, L = 1 / 32, 1.0
    f = WaveField(1, eps, L, np.zeros(int(L / eps) * 16, complex), 0.0)
    grid = PhaseSpaceGrid(dimension=1, eps=eps, q_start=[0.0], dq=0.05, n_q=10,
                          p_nodes_per_axis=128)
    w = windowed_bloch_transform(f, cos_table128, 1, grid)
    assert np.all(w.values == 0)


def test_free_transform_matches_gaussian_overlap_oracle(free_table128):
    """V = 0, band 1: the transform is the windowed Fourier transform, and for
    a Gaussian packet the coefficients follow from the closed-form complex
    Gaussian integral (oracle, image-summed over the torus)."""
    eps, L = 1 / 32, 1.0
    q0, p0 = 0.5, 0.7853981633974483   # p0 on the p-grid
    n_x = int(L / eps) * 16
    f, p_used = gaussian_packet(1, eps, L, n_x, q0=q0, p0=p0, normalize=False)
    psg = phase_grid_for_field(f, free_table128)
    w = windowed_bloch_transform(f, free_table128, 1, psg)

    const = 2.0 ** 0.25 / (2 * np.pi * eps) ** 0.75
    q = psg.q_axes()[0]
    p = psg.p_axis()
    interior = np.abs(p) < 2.0    # away from the folded-band crossing at the edge
    expect = np.zeros((q.size, p.size), complex)
    for m in range(-2, 3):
        dq = q[:, None] - (q0 + m * L)
        dp = p[None, :] - p_used[0]
        # int exp(-(x-q)^2/2e - ip(x-q)/e) exp(-(x-q0)^2/2e + ip0(x-q0)/e) dx
        #   = sqrt(pi e) exp(-dq^2/4e - dp^2/4e) exp(i (p+p0) dq / 2e)
        expect += (np.sqrt(np.pi * eps)
                   * np.exp(-dq ** 2 / (4 * eps) - dp ** 2 * (1 / (4 * eps)))
                   * np.exp(1j * (p[None, :] + p_used[0]) * dq / (2 * eps)))
    expect *= const
    # the stored eigenvector carries the transport gauge's global phase
    k0 = free_table128.cutoff
    gauge = np.conj(free_table128.node_coeffs(1)[:, k0])
    expect *= gauge[None, :]
    err = np.abs(w.values[:, interior] - expect[:, interior]).max()
    assert err <= 1e-10 * np.abs(expect).max()


def test_transform_linearity(cos_table128, rng):
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    v1 = rng.normal(size=n_x) + 1j * rng.normal(size=n_x)
    v2 = rng.normal(size=n_x) + 1j * rng.normal(size=n_x)
    f1 = WaveField(1, eps, L, v1, 0.0)
    f2 = WaveField(1, eps, L, v2, 0.0)
    grid = phase_grid_for_field(f1, cos_table128)
    a, b = 1.3 - 0.2j, -0.4 + 2.1j
    combo = WaveField(1, eps, L, a * v1 + b * v2, 0.0)
    w = windowed_bloch_transform(combo, cos_table128, 1, grid)
    w1 = windowed_bloch_transform(f1, cos_table128, 1, grid)
    w2 = windowed_bloch_transform(f2, cos_table128, 1, grid)
    scale = np.abs(w.values).max()
    assert np.abs(w.values - a * w1.values - b * w2.values).max() <= 1e-12 * scale


def test_resolution_error(cos_table128):
    eps, L = 1 / 32, 1.0
    f = WaveField(1, eps, L, np.zeros(int(L / eps) * 4, complex), 0.0)   # 4 pts/cell
    grid = PhaseSpaceGrid(dimension=1, eps=eps, q_start=[0.0], dq=0.05, n_q=4,
                          p_nodes_per_axis=128)
    with pytest.raises(ResolutionError):
        windowed_bloch_transform(f, cos_table128, 1, grid)


def test_quadrature_risk_error():
    with pytest.raises(QuadratureRiskError):
        PhaseSpaceGrid(dimension=1, eps=1 / 64, q_start=[0.0], dq=0.2, n_q=4,
                       p_nodes_per_axis=64)
    with pytest.raises(QuadratureRiskError):
        PhaseSpaceGrid(dimension=1, eps=1 / 64, q_start=[0.0], dq=0.05, n_q=4,
                       p_nodes_per_axis=32)   # dp too big


# --- band projection ---------------------------------------------------------

def test_projection_of_zero(cos_table128):
    eps, L = 1 / 32, 1.0
    f = WaveField(1, eps, L, np.zeros(int(L / eps) * 16, complex), 0.0)
    grid = PhaseSpaceGrid(dimension=1, eps=eps, q_start=[0.0], dq=0.05, n_q=10,
                          p_nodes_per_axis=128)
    out = band_projection(f, cos_table128, 1, grid)
    assert np.all(out.values == 0)


def test_projection_not_projection_but_close(cos_table128):
    """Pi applied twice vs once differs by at most twice the single-band
    residual (oracle: direct evaluation)."""
    psi0, _ = _packet(cos_table128)
    psg = phase_grid_for_field(psi0, cos_table128)
    phi = band_projection(psi0, cos_table128, 1, psg)
    r1 = l2_distance(phi, psi0)[0]
    phi2 = band_projection(phi, cos_table128, 1, psg)
    d = l2_distance(phi2, phi)[0]
    assert d <= 2 * r1
    assert d > 1e-12      # genuinely not a projection


def test_reconstruction_eight_bands(cos_table128):
    psi0, _ = _packet(cos_table128)
    psg = phase_grid_for_field(psi0, cos_table128)
    rec = reconstruct(psi0, cos_table128, range(1, 9), psg)
    assert l2_distance(rec, psi0)[1] <= 1e-4


def test_adjoint_duality(cos_table128, rng):
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    dx = L / n_x
    f = WaveField(1, eps, L, rng.normal(size=n_x) + 1j * rng.normal(size=n_x), 0.0)
    g = WaveField(1, eps, L, rng.normal(size=n_x) + 1j * rng.normal(size=n_x), 0.0)
    grid = phase_grid_for_field(f, cos_table128)
    pf = band_projection(f, cos_table128, 1, grid)
    pg = band_projection(g, cos_table128, 1, grid)
    lhs = np.vdot(pf.values, g.values) * dx
    rhs = np.vdot(f.values, pg.values) * dx
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_truncation_robustness(cos_table128):
    psi0, _ = _packet(cos_table128, eps=1 / 16, L=1.0)
    psg = phase_grid_for_field(psi0, cos_table128, r_c=6.0)
    w6 = windowed_bloch_transform(psi0, cos_table128, 1, psg, r_c=6.0)
    w12 = windowed_bloch_transform(psi0, cos_table128, 1, psg, r_c=12.0)
    scale = np.abs(w12.values).max()
    # exp(-6^2/2) ~ 1.5e-8 bounds the dropped tail at r_c = 6
    assert np.abs(w6.values - w12.values).max() <= 1e-7 * scale
    # at the default r_c = 8 the tail is below exp(-32) ~ 1e-14
    w8 = windowed_bloch_transform(psi0, cos_table128, 1, psg, r_c=8.0)
    w16 = windowed_bloch_transform(psi0, cos_table128, 1, psg, r_c=16.0)
    assert np.abs(w8.values - w16.values).max() <= 1e-10 * scale


def test_shift_covariance_free_case(free_table128):
    """Translating psi moves |w| in q by the same amount (V = 0 only)."""
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    f, p_used = gaussian_packet(1, eps, L, n_x, q0=0.4, p0=0.5, normalize=False)
    n_q = 16
    assert n_x % n_q == 0
    grid = PhaseSpaceGrid(dimension=1, eps=eps, q_start=[0.0], dq=L / n_q, n_q=n_q,
                          p_nodes_per_axis=128)
    w0 = windowed_bloch_transform(f, free_table128, 1, grid)
    shift_cells = n_x // n_q           # one q spacing
    f2 = f.with_values(np.roll(f.values, shift_cells))
    w1 = windowed_bloch_transform(f2, free_table128, 1, grid)
    a0 = np.abs(w0.values)
    a1 = np.abs(w1.values)
    assert np.max(np.abs(a1 - np.roll(a0, 1, axis=0))) <= 1e-8 * a0.max()


# --- parseval ----------------------------------------------------------------

def test_parseval_zero_field(cos_table128):
    eps, L = 1 / 32, 1.0
    f = WaveField(1, eps, L, np.zeros(int(L / eps) * 16, complex), 0.0)
    grid = PhaseSpaceGrid(dimension=1, eps=eps, q_start=[0.0], dq=0.05, n_q=8,
                          p_nodes_per_axis=128)
    n2, mass = parseval_check(f, cos_table128, 2, grid)
    assert n2 == 0.0 and mass == 0.0


@pytest.mark.parametrize("dimension", [1, 2])
def test_bloch_transform_parseval(dimension, cos_table128, rng):
    """Non-windowed Bloch Parseval identity on the finite torus: <= 1e-6 for a
    1D packet over 8 bands; to rounding for a random 2D field over the
    complete basis (K >= s/2 covers every FFT bin, every band kept)."""
    if dimension == 1:
        psi0, _ = _packet(cos_table128)
        table, n_bands, tol = cos_table128, 8, 1e-6
    else:
        eps, L, s, K = 1 / 4, 1.0, 8, 4
        table = solve_bands(BrillouinGrid(2, 4), PeriodicPotential.cosine(2), 1, K)
        n_x = int(L / eps) * s
        psi0 = WaveField(2, eps, L, rng.normal(size=(n_x, n_x))
                         + 1j * rng.normal(size=(n_x, n_x)))
        n_bands, tol = (2 * K + 1) ** 2, 1e-10
    coef, xis = bloch_transform(psi0, table, n_bands)
    r = psi0.cells
    assert coef.shape == (n_bands, r ** dimension) and xis.shape == (r ** dimension, dimension)
    total = np.sum(np.abs(coef) ** 2) * (2 * np.pi / r) ** dimension
    n2 = psi0.norm() ** 2
    assert abs(total - n2) <= tol * n2


def test_bloch_transform_matches_per_fiber_loop(cos_potential, rng):
    """Reference: one eigensolve per fiber and a per-mode lookup of the FFT
    bins, on a random field.  Bands 1-3 of the cosine lattice are simple at
    every fiber, so |coef| agrees whatever phase each solver picks."""
    eps, L, K, n_bands = 1 / 8, 1.0, 8, 3
    table = solve_bands(BrillouinGrid(1, 8), cos_potential, 1, K)
    n_x = int(L / eps) * 16
    psi = WaveField(1, eps, L, rng.normal(size=n_x) + 1j * rng.normal(size=n_x))
    coef, xis = bloch_transform(psi, table, n_bands)
    R = psi.cells
    c = np.fft.fft(psi.values) / n_x
    pos = {int(m): i for i, m in enumerate(np.fft.fftfreq(n_x, d=1.0 / n_x))}
    for f, xi in enumerate(xis[:, 0]):
        r = int(round(xi * R / (2 * np.pi)))
        _, vecs = np.linalg.eigh(assemble_bloch_hamiltonian([xi], cos_potential, K))
        v = np.array([c[pos[r + k * R]] if r + k * R in pos else 0.0
                      for k in range(-K, K + 1)])
        ref = (eps / (2 * np.pi)) ** 0.5 * R * (np.conj(vecs[:, :n_bands]).T @ v)
        assert np.allclose(np.abs(coef[:, f]), np.abs(ref), rtol=0, atol=1e-12)


def test_bloch_transform_single_bloch_wave(cos_table128):
    """exp(i xi x / eps) u_2(xi, x / eps) at the zone edge xi = -pi (the fiber
    r = -R/2) puts all but 1e-10 of its mass in band 2 and that fiber."""
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    x = np.arange(n_x) * L / n_x
    u2 = evaluate_bloch_wave(cos_table128, 2, [-np.pi], x / eps)
    psi = WaveField(1, eps, L, np.exp(-1j * np.pi * x / eps) * u2)
    coef, xis = bloch_transform(psi, cos_table128, 4)
    f = int(np.argmin(np.abs(xis[:, 0] + np.pi)))
    assert xis[f, 0] == -np.pi
    mass = np.abs(coef[1, f]) ** 2 * (2 * np.pi / psi.cells)
    assert 1 - mass / psi.norm() ** 2 <= 1e-10


def test_windowed_mass_ratio_vs_dense_oracle(cos_potential):
    """Windowed coefficient mass over norm^2: reported ratio agrees with a
    brute-force dense quadrature at double resolution (oracle)."""
    eps, L = 1 / 16, 1.0
    coarse = prepare_band_table(BrillouinGrid(1, 64), cos_potential, 8, 16)
    dense = prepare_band_table(BrillouinGrid(1, 128), cos_potential, 8, 16)
    n_x = int(L / eps) * 16
    psi0, _ = gaussian_packet(1, eps, L, n_x, q0=0.5, p0=0.8, table=coarse, band=1)
    g1 = phase_grid_for_field(psi0, coarse)
    n2, m1 = parseval_check(psi0, coarse, 8, g1)
    g2 = PhaseSpaceGrid(dimension=1, eps=eps, q_start=[0.0], dq=g1.dq / 2,
                        n_q=2 * g1.n_q, p_nodes_per_axis=128)
    _, m2 = parseval_check(psi0, dense, 8, g2)
    assert abs(m1 / n2 - m2 / n2) <= 1e-8
    # the transform is an isometry up to band truncation: ratio just below 1
    assert 0.999 <= m1 / n2 <= 1.0 + 1e-9


# --- cell blocks -------------------------------------------------------

def _counting_windows(monkeypatch):
    """Patch transform._apply_windows to count its calls (one per block)."""
    calls, real = [], transform._apply_windows

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(transform, "_apply_windows", counting)
    return calls


def _traced_peak(fn):
    """(fn(), peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _split_case(d, table128):
    """(table, field, phase-space grid, r_c, p-node/grid-point pairs of one
    cell row) of the cell-block tests: 32 cells of 16 points in 1D, 8 rows
    of 8 x 64 points in 2D; either kernel runs one block at the default
    _CHUNK_ENTRIES."""
    if d == 1:
        psi0, _ = _packet(table128, eps=1 / 32, L=1.0)
        table, grid, r_c = table128, phase_grid_for_field(psi0, table128), transform.DEFAULT_RC
    else:
        table = prepare_band_table(BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 2, 2)
        psi0, _ = gaussian_packet(2, 1 / 4, 2.0, 64, q0=[1.0, 1.0], p0=[0.3, -0.2])
        grid = PhaseSpaceGrid(dimension=2, eps=1 / 4, q_start=[0.0, 0.0], dq=0.25, n_q=8,
                              p_nodes_per_axis=8, c_g=1.6)
        r_c = 6.0
    return table, psi0, grid, r_c, table.grid.n_nodes * psi0.n_x ** d // psi0.cells


@pytest.mark.parametrize("d", [1, 2])
def test_band_operator_cell_blocks_match_single_block(d, cos_table128, monkeypatch):
    """The band operator split into blocks of whole cells (3 cells per block,
    the last one shorter) gives the single-block result: exactly in 1D, to
    1e-13 relative in 2D."""
    table, psi0, grid, r_c, _ = _split_case(d, cos_table128)
    out_n_x = 1024 if d == 1 else psi0.n_x
    blocks = 11 if d == 1 else 3                    # 32 cells of 32 points; 8 rows
    wc = windowed_bloch_transform(psi0, table, 1, grid, r_c=r_c)
    cell_pairs = table.grid.n_nodes * out_n_x ** d // psi0.cells
    calls = _counting_windows(monkeypatch)
    whole = band_projection(psi0, table, 1, grid, r_c=r_c, coefficients=wc, out_n_x=out_n_x)
    assert len(calls) == 1
    monkeypatch.setattr(transform, "_CHUNK_ENTRIES", 3 * cell_pairs + 1)
    split = band_projection(psi0, table, 1, grid, r_c=r_c, coefficients=wc, out_n_x=out_n_x)
    assert len(calls) == 1 + blocks
    if d == 1:
        assert np.array_equal(split.values, whole.values)
    else:
        scale = np.abs(whole.values).max()
        assert np.abs(split.values - whole.values).max() <= 1e-13 * scale


@pytest.mark.parametrize("d", [1, 2])
def test_transform_cell_blocks_match_single_block(d, cos_table128, monkeypatch):
    """The transform split into blocks of whole cell rows (3 per block, the
    last one shorter) gives the single-block coefficients to 1e-14 relative
    in 1D and 1e-13 in 2D, and builds each window entry of axis 0 once per
    call: only axis 1's windows are built once per block."""
    table, psi0, grid, r_c, cell_pairs = _split_case(d, cos_table128)
    n_images = transform._image_shifts(psi0.length, r_c * np.sqrt(psi0.eps)).size
    calls, entries, real = _counting_windows(monkeypatch), [], transform._truncated_window

    def counting(rho, *args):
        entries.append(rho.size)
        return real(rho, *args)

    monkeypatch.setattr(transform, "_truncated_window", counting)
    results, split_blocks = [], 11 if d == 1 else 3
    for budget, blocks in ((transform._CHUNK_ENTRIES, 1), (3 * cell_pairs + 1, split_blocks)):
        monkeypatch.setattr(transform, "_CHUNK_ENTRIES", budget)
        calls.clear()
        entries.clear()
        results.append(windowed_bloch_transform(psi0, table, 1, grid, r_c=r_c).values)
        assert len(calls) == blocks
        assert sum(entries) == n_images * grid.n_q * psi0.n_x * (1 + (d - 1) * blocks)
    whole, split = results
    tol = 1e-14 if d == 1 else 1e-13
    assert np.abs(split - whole).max() <= tol * np.abs(whole).max()


@pytest.mark.parametrize("d", [1, 2])
def test_adjoint_duality_with_both_kernels_split(d, cos_table128, rng, monkeypatch):
    """<Pi f, g> = <f, Pi g> when the transform and the band operator each
    run in several cell blocks."""
    table, psi0, grid, r_c, cell_pairs = _split_case(d, cos_table128)
    shape = psi0.values.shape
    f, g = (psi0.with_values(rng.normal(size=shape) + 1j * rng.normal(size=shape))
            for _ in range(2))
    calls = _counting_windows(monkeypatch)
    monkeypatch.setattr(transform, "_CHUNK_ENTRIES", 3 * cell_pairs + 1)
    pf = band_projection(f, table, 1, grid, r_c=r_c)
    assert len(calls) == (22 if d == 1 else 6)      # both kernels, 11 or 3 blocks each
    pg = band_projection(g, table, 1, grid, r_c=r_c)
    lhs = np.vdot(pf.values, g.values)
    rhs = np.vdot(f.values, pg.values)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_band_operator_peak_memory_finest_convergence_grid(cos_table128):
    """configs/convergence.ini's finest rung (eps = 1/64, L = 4, M = 128) onto
    its 8,192-point reference grid: the operator's traced peak stays at or
    below 16 MB (four blocks of 2^18 pairs, 4 MB per buffer)."""
    eps, L = 1 / 64, 4.0
    psi0, _ = gaussian_packet(1, eps, L, int(L / eps) * 16, q0=2.0, p0=0.5,
                              table=cos_table128, band=1)
    grid = phase_grid_for_field(psi0, cos_table128)
    wc = windowed_bloch_transform(psi0, cos_table128, 1, grid)
    proj, peak = _traced_peak(lambda: band_projection(
        psi0, cos_table128, 1, grid, coefficients=wc, out_n_x=8192))
    assert proj.n_x == 8192
    assert peak <= 16e6


def test_transform_peak_memory_finest_convergence_grid(cos_table128):
    """configs/convergence.ini's finest rung (eps = 1/64, L = 4, M = 128,
    4,096 points): the transform's traced peak stays at or below 20 MB (two
    blocks of 2^18 pairs)."""
    eps, L = 1 / 64, 4.0
    psi0, _ = gaussian_packet(1, eps, L, int(L / eps) * 16, q0=2.0, p0=0.5,
                              table=cos_table128, band=1)
    grid = phase_grid_for_field(psi0, cos_table128)
    wc, peak = _traced_peak(lambda: windowed_bloch_transform(psi0, cos_table128, 1, grid))
    assert np.all(np.isfinite(wc.values))
    assert peak <= 20e6


def test_transform_peak_memory_separable_2d():
    """The 2D separable problem (eps = 1/8, 64 x 64 points, M = 32): the
    transform's cell-row blocks are freed one by one, so its traced peak
    stays at or below 40 MB."""
    table = solve_bands(BrillouinGrid(2, 32), PeriodicPotential.cosine(2), 1, 3)
    psi0, _ = gaussian_packet(2, 1 / 8, 1.0, 64, q0=[0.5, 0.5], p0=[0.4, -0.3])
    grid = phase_grid_for_field(psi0, table, c_g=0.8, r_c=6.0)
    wc, peak = _traced_peak(lambda: windowed_bloch_transform(psi0, table, 1, grid, r_c=6.0))
    assert np.all(np.isfinite(wc.values))
    assert peak <= 40e6


def test_propagate_config_runs_transform_and_operator_as_one_block(monkeypatch):
    """At configs/propagate.ini's sizes (2,048 field points, 4,096 reference
    points, M = 128) the transform and the band operator on psi0's grid each
    run as a single block, with the operations of a whole-grid call, and the
    operator on the reference grid as two."""
    cfg = RunConfig.from_text(
        (Path(__file__).resolve().parent.parent / "configs" / "propagate.ini").read_text())
    table = pipeline.build_table(cfg, cfg.eps)
    psi0, _ = pipeline.build_initial(cfg, table, cfg.eps)
    grid = phase_grid_for_field(psi0, table, c_g=cfg.c_g, r_c=cfg.r_c)
    n_ref = pipeline._reference_config(cfg, cfg.eps).n_x
    assert (psi0.n_x, n_ref, table.grid.nodes_per_axis) == (2048, 4096, 128)
    calls = _counting_windows(monkeypatch)
    wc = windowed_bloch_transform(psi0, table, 1, grid, r_c=cfg.r_c)
    assert len(calls) == 1
    band_projection(psi0, table, 1, grid, r_c=cfg.r_c, coefficients=wc)
    assert len(calls) == 2
    band_projection(psi0, table, 1, grid, r_c=cfg.r_c, coefficients=wc, out_n_x=n_ref)
    assert len(calls) == 4


# --- 2d smoke ----------------------------------------------------------------

def test_2d_transform_projection_consistency(rng):
    eps, L = 1 / 4, 2.0
    table = prepare_band_table(BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 2, 2)
    n_x = int(L / eps) * 8
    psi0, _ = gaussian_packet(2, eps, L, n_x, q0=[1.0, 1.0], p0=[0.3, -0.2])
    grid = PhaseSpaceGrid(dimension=2, eps=eps, q_start=[0.0, 0.0], dq=0.25, n_q=8,
                          p_nodes_per_axis=8, c_g=1.6)
    w = windowed_bloch_transform(psi0, table, 1, grid, r_c=6.0)
    assert np.all(np.isfinite(w.values))
    # adjoint duality in 2d: <Pi f, g> = <f, Pi g>
    g = psi0.with_values(rng.normal(size=(n_x, n_x)) + 1j * rng.normal(size=(n_x, n_x)))
    pf = band_projection(psi0, table, 1, grid, r_c=6.0, coefficients=w)
    pg = band_projection(g, table, 1, grid, r_c=6.0)
    assert pf.values.shape == psi0.values.shape
    lhs = np.vdot(pf.values, g.values)
    rhs = np.vdot(psi0.values, pg.values)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@pytest.mark.parametrize("dimension", [1, 2])
def test_cell_bloch_values_match_evaluate_bloch_wave(dimension):
    """The transform's Bloch cell values at Brillouin nodes are the Bloch waves."""
    table = prepare_band_table(BrillouinGrid(dimension, 8),
                               PeriodicPotential.cosine(dimension, 0.5), 2, 3)
    s = 8
    nodes = np.array([0, 3, table.grid.n_nodes - 1])
    cells = _cell_bloch_values(table, 2, nodes, s)
    assert cells.shape == (3,) + (s,) * dimension
    y = mesh_points([np.arange(s) / s] * dimension)
    for node, cell in zip(nodes, cells):
        ref = evaluate_bloch_wave(table, 2, table.grid.node_points()[node], y)
        assert np.abs(cell.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()


def test_reconstruction_worst_case_momentum():
    """Spec envelope: |p0| <= 0.8 pi at eps = 1/16 reconstructs below 1e-4."""
    eps, L = 1 / 16, 1.0
    table = prepare_band_table(BrillouinGrid(1, 64), PeriodicPotential.cosine(1), 8, 16)
    n_x = int(L / eps) * 16
    psi0, _ = gaussian_packet(1, eps, L, n_x, q0=0.5, p0=0.8 * np.pi)
    psg = phase_grid_for_field(psi0, table)
    rec = reconstruct(psi0, table, range(1, 9), psg)
    assert l2_distance(rec, psi0)[1] <= 1e-4


@pytest.mark.parametrize("dimension", [1, 2])
def test_coefficients_csv_parses_as_floats_and_round_trips(tmp_path, rng, dimension):
    """Every cell of the coefficient CSV is a plain float; w comes back exactly."""
    grid = PhaseSpaceGrid(dimension=dimension, eps=1 / 4, q_start=[0.1] * dimension,
                          dq=0.25, n_q=3, p_nodes_per_axis=8, c_g=1.6)
    shape = (3,) * dimension + (8,) * dimension
    scale = 10.0 ** rng.uniform(-18, 1, shape)       # tiny values print with exponents
    values = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs = WindowedCoefficients(band=2, grid=grid, values=values, eps=1 / 4)
    path = tmp_path / "coeffs.csv"
    coeffs.export_csv(path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (values.size, 3 + 2 * dimension)
    seeds = coeffs.to_seeds(threshold=0.0)
    assert np.all(table[:, 0] == 2)
    assert np.array_equal(table[:, 1:1 + dimension], seeds.q)
    assert np.array_equal(table[:, 1 + dimension:1 + 2 * dimension], seeds.p)
    assert np.array_equal(table[:, -2] + 1j * table[:, -1], values.ravel())
