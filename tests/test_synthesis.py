import numpy as np
import pytest
from dataclasses import fields, replace

from fgabloch.bloch import (BrillouinGrid, berry_connection, dispersion_model,
                            grad_energy, prepare_band_table, shift_coefficients)
from fgabloch.dynamics import HamiltonianModel, integrate_ensemble, wrap_momentum
from fgabloch.errors import PlanError
from fgabloch.exact import gaussian_evolution
from fgabloch.potentials import (PeriodicPotential, harmonic_potential,
                                 linear_potential, zero_potential)
from fgabloch.reference import ReferenceConfig, reference_propagate
from fgabloch.synthesis import (_TRAJ_CHUNK, SynthesisPlan, _axis_window, _node_assignments,
                                _trajectory_coefficients, initial_snapshot, synthesize)
from fgabloch.transform import (PhaseSpaceGrid, SeedSet, _cell_bloch_values, _truncated_window,
                                band_projection, phase_grid_for_field, reconstruct,
                                windowed_bloch_transform)
from fgabloch.wavefield import WaveField, gaussian_packet, l2_distance


def _normalized_packet(table, eps, L, n_x, q0, p0, width=1.0, band=1):
    raw, p_used = gaussian_packet(1, eps, L, n_x, q0=q0, p0=p0, width=width,
                                  table=table, band=band, normalize=False)
    nrm = raw.norm()
    return raw.with_values(raw.values / nrm), p_used, nrm


@pytest.mark.parametrize("case", ["wide-1d", "narrow-1d", "2d"])
def test_t0_synthesis_equals_band_operator(case, free_table128):
    """Unthresholded seeds at t = 0 synthesize the band operator: with a
    window wider than the domain (folded), narrower than it, and in 2d."""
    r_c = 8.0
    if case == "2d":
        eps, L, r_c = 1 / 4, 2.0, 6.0
        table = prepare_band_table(BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 2, 2)
        n_x = int(L / eps) * 8
        psi0, _ = gaussian_packet(2, eps, L, n_x, q0=[1.0, 0.7], p0=[0.3, -0.2],
                                  table=table, band=1)
        psg = PhaseSpaceGrid(dimension=2, eps=eps, q_start=[0.0, 0.0], dq=0.25, n_q=8,
                             p_nodes_per_axis=8, c_g=1.6)
    else:
        table = free_table128
        eps, L = (1 / 64, 2.0) if case == "wide-1d" else (1 / 32, 4.0)
        n_x = int(L / eps) * 16
        psi0, _, _ = _normalized_packet(table, eps, L, n_x, L / 2, 0.5)
        psg = phase_grid_for_field(psi0, table)
    assert (2 * r_c * np.sqrt(eps) >= L) == (case != "narrow-1d")
    wc = windowed_bloch_transform(psi0, table, 1, psg, r_c=r_c)
    proj = band_projection(psi0, table, 1, psg, r_c=r_c, coefficients=wc)
    seeds = wc.to_seeds(0.0)
    plan = SynthesisPlan(table=table, band=1, seeds=seeds, snapshot=initial_snapshot(seeds),
                         length=L, out_n_x=n_x, r_c=r_c)
    f0 = synthesize(plan)
    assert l2_distance(f0, proj)[0] <= 1e-10


@pytest.mark.parametrize("r_c, length, x_per_cell, span", [
    (8.0, 4.0, 16, 1450), (8.0, 4.0, 32, 2898), (30.0, 16.0, 16, 5432)])
def test_axis_window_matches_truncated_window(r_c, length, x_per_cell, span, rng):
    """The factored window against the direct formula at random Q, p and
    coefficients: the shipped field- and reference-grid windows (eps = 1/32),
    and r_c = 30, where expanding about the window's edge instead of its
    centre overflows exp(k beta) and turns the window into NaN.  Each window
    starts at the first grid point at or past Q - radius, taken mod n_x."""
    eps = 1 / 32
    n_x = int(round(length / eps)) * x_per_cell
    out = WaveField(1, eps, length, np.zeros(n_x, complex), 0.0)
    radius = r_c * np.sqrt(eps)
    assert int(np.ceil(2 * radius / out.dx)) + 1 == span < n_x
    Q = rng.uniform(0.0, length, 300)
    p = rng.uniform(-np.pi, np.pi, 300)
    coef = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    start, g = _axis_window(Q, p, coef, span, out, radius)
    first = np.ceil((Q - radius) / out.dx).astype(int)
    j = first[:, None] + np.arange(span)
    ref = coef[:, None] * _truncated_window(j * out.dx - Q[:, None], eps, radius, p[:, None])
    assert np.isfinite(g).all()
    assert np.array_equal(start, first % n_x)
    assert np.array_equal(g == 0, ref == 0)        # the same truncation
    assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()


def _direct_window_sum(plan):
    """The band's field as a dense sum over trajectories of coefficient x
    truncated window (every torus image, on every grid point) x Bloch cell,
    and the same sum of magnitudes."""
    d, n_x, eps, L = plan.table.grid.dimension, plan.out_n_x, plan.eps, plan.length
    radius = plan.r_c * np.sqrt(eps)
    p_rep, w_eff, flat, node_pos = _node_assignments(plan)
    coef = _trajectory_coefficients(plan, p_rep, w_eff, flat, node_pos)
    Q = plan.snapshot.Q
    x = np.arange(n_x) * (L / n_x)
    shifts = L * np.arange(np.floor((Q.min() - radius) / L) - 1,
                           np.ceil((Q.max() + radius) / L) + 2)
    nodes, cells_per_axis = np.unique(flat), int(round(L / eps))
    cells = _cell_bloch_values(plan.table, plan.band, nodes, n_x // cells_per_axis)
    total, magnitude = np.zeros((n_x,) * d, complex), np.zeros((n_x,) * d)
    for node, cell in zip(nodes, cells):
        sel = flat == node
        w = [sum(_truncated_window(x + shift - Q[sel, a, None], eps, radius,
                                   p_rep[sel, a, None]) for shift in shifts)
             for a in range(d)]                                     # (m, n_x) per axis
        field, mag = coef[sel] @ w[0], np.abs(coef[sel]) @ np.abs(w[0])
        if d == 2:
            field = (coef[sel, None] * w[0]).T @ w[1]
            mag = (np.abs(coef[sel, None] * w[0])).T @ np.abs(w[1])
        bloch = np.tile(cell, (cells_per_axis,) * d)
        total += field * bloch
        magnitude += mag * np.abs(bloch)
    return total, magnitude


@pytest.mark.parametrize("d, case", [(d, c) for d in (1, 2)
                                     for c in ("wrap", "fold", "chunks")])
def test_synthesis_matches_direct_window_sum(d, case, cos_table128, rng):
    """synthesize against a dense per-trajectory sum of the direct window
    formula, to 1e-13 of the largest sum of magnitudes: windows that wrap
    past the axis ends (Q up to half a period outside the domain), windows
    longer than the axis (folded), and one Brillouin node holding more than
    _TRAJ_CHUNK trajectories, so that its sum spans several chunks."""
    if d == 1:
        table, eps, r_c, length = cos_table128, 1 / 32, 8.0, 4.0
    else:
        table, eps, r_c, length = prepare_band_table(
            BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 1, 2), 1 / 16, 3.0, 2.0
    length = 1.0 if case == "fold" else length
    n_x = int(round(length / eps)) * 8
    n = 2 * _TRAJ_CHUNK + 40 if case == "chunks" else 60
    if case == "chunks":                     # one node: momenta within its cell
        q = rng.uniform(0.0, length, (n, d))
        p = table.grid.axis_nodes[3] + rng.uniform(-0.01, 0.01, (n, d))
    else:
        q = rng.uniform(-0.5 * length, 1.5 * length, (n, d))
        p = rng.uniform(-3 * np.pi, 3 * np.pi, (n, d))
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    seeds = SeedSet(band=1, eps=eps, q=q, p=p, w=w, weight=1.0, total_points=n)
    plan = SynthesisPlan(table=table, band=1, seeds=seeds, snapshot=initial_snapshot(seeds),
                         length=length, out_n_x=n_x, r_c=r_c)
    assert (plan.span > n_x) == (case == "fold")
    if case == "chunks":
        assert np.unique(_node_assignments(plan)[2]).size == 1
    got = synthesize(plan).values
    want, magnitude = _direct_window_sum(plan)
    assert np.abs(got - want).max() <= 1e-13 * magnitude.max()


@pytest.mark.parametrize("d", [1, 2])
def test_initial_snapshot_is_integrator_state_at_t0(d, cos_table128, rng):
    """initial_snapshot equals integrate_ensemble's t = 0 snapshot field by
    field, including sigma_min(Z(0)) = sigma_min(2 I) = 2."""
    table = cos_table128 if d == 1 else prepare_band_table(
        BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 2, 2)
    seeds = SeedSet(band=1, eps=1 / 32, q=rng.uniform(0.0, 1.0, (6, d)),
                    p=rng.uniform(-3.0, 3.0, (6, d)), w=rng.standard_normal(6) + 0j,
                    weight=1.0, total_points=6)
    model = HamiltonianModel(dispersion_model(table, 1), harmonic_potential(d, k=1.0))
    at0 = integrate_ensemble(seeds, model, T=0.0, dt=1e-3, checkpoint_times=[0.0]).at(0.0)
    snap = initial_snapshot(seeds)
    assert np.all(snap.sigma_min == 2.0)
    for f in fields(snap):
        assert np.array_equal(getattr(snap, f.name), getattr(at0, f.name)), f.name


def test_zero_seed_synthesis():
    table = prepare_band_table(BrillouinGrid(1, 64), PeriodicPotential.cosine(1), 1, 8)
    seeds = SeedSet(band=1, eps=1 / 16, q=np.zeros((0, 1)), p=np.zeros((0, 1)),
                    w=np.zeros(0, complex), weight=1.0, total_points=0)
    plan = SynthesisPlan(table=table, band=1, seeds=seeds,
                         snapshot=initial_snapshot(seeds), length=1.0, out_n_x=256)
    out = synthesize(plan)
    assert np.all(out.values == 0)


def test_free_band_quadratic_exactness(free_table128):
    """V = 0, U in {0, harmonic}: leading FGA is exact for quadratic h; the
    numerical error against the closed form sits at the quadrature floor."""
    eps, L, T = 1 / 64, 2.0, 0.5
    n_x = int(L / eps) * 16
    psi0, p_used, nrm = _normalized_packet(free_table128, eps, L, n_x, 1.0, 0.5)
    psg = phase_grid_for_field(psi0, free_table128)
    wc = windowed_bloch_transform(psi0, free_table128, 1, psg)
    seeds = wc.to_seeds(1e-8)
    assert seeds.count < seeds.total_points       # thresholding active
    for pot in (zero_potential(1), harmonic_potential(1, k=1.0, center=1.0)):
        model = HamiltonianModel(dispersion_model(free_table128, 1), pot)
        res = integrate_ensemble(seeds, model, T=T, dt=1e-3)
        plan = SynthesisPlan(table=free_table128, band=1, seeds=seeds,
                             snapshot=res.at(T), length=L, out_n_x=n_x)
        fga = synthesize(plan)
        exact = gaussian_evolution(psi0, pot, 1.0, float(p_used[0]), T, amplitude=1 / nrm)
        assert l2_distance(fga, exact)[1] <= 1e-5


def test_linearity_in_initial_data(cos_table128):
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    psi0, _, _ = _normalized_packet(cos_table128, eps, L, n_x, 0.5, 0.8)
    psg = phase_grid_for_field(psi0, cos_table128)
    alpha = 0.7 - 1.1j
    model = HamiltonianModel(dispersion_model(cos_table128, 1), zero_potential(1))

    def run(field):
        wc = windowed_bloch_transform(field, cos_table128, 1, psg)
        seeds = wc.to_seeds(1e-8)
        res = integrate_ensemble(seeds, model, T=0.2, dt=1e-3)
        plan = SynthesisPlan(table=cos_table128, band=1, seeds=seeds,
                             snapshot=res.at(0.2), length=L, out_n_x=n_x)
        return synthesize(plan)

    f1 = run(psi0)
    f2 = run(psi0.with_values(alpha * psi0.values))
    assert np.max(np.abs(f2.values - alpha * f1.values)) <= 1e-12 * np.abs(f1.values).max()


def test_truncation_radius_robustness(cos_table128):
    eps, L = 1 / 16, 1.0
    n_x = int(L / eps) * 16
    psi0, _, _ = _normalized_packet(cos_table128, eps, L, n_x, 0.5, 0.8)
    psg = phase_grid_for_field(psi0, cos_table128)
    wc = windowed_bloch_transform(psi0, cos_table128, 1, psg)
    seeds = wc.to_seeds(1e-8)
    model = HamiltonianModel(dispersion_model(cos_table128, 1), zero_potential(1))
    res = integrate_ensemble(seeds, model, T=0.3, dt=1e-3)
    fields = {}
    for r_c in (6.0, 10.0):
        plan = SynthesisPlan(table=cos_table128, band=1, seeds=seeds,
                             snapshot=res.at(0.3), length=L, out_n_x=n_x, r_c=r_c)
        fields[r_c] = synthesize(plan)
    # dropped tail exp(-18) ~ 1.5e-8 relative bounds the change
    assert l2_distance(fields[6.0], fields[10.0])[0] <= 1e-7


def test_plan_validation(cos_table128):
    seeds = SeedSet(band=1, eps=1 / 16, q=np.zeros((2, 1)), p=np.zeros((2, 1)) + 0.3,
                    w=np.ones(2, complex), weight=1.0, total_points=2)
    snap = initial_snapshot(seeds)
    bad = replace(snap, ok=np.array([True, False]))
    with pytest.raises(PlanError):
        SynthesisPlan(table=cos_table128, band=1, seeds=seeds, snapshot=bad,
                      length=1.0, out_n_x=256)


def test_edge_packet_residual_decreases_with_bands(cos_table128):
    """Packet split across bands 1-2 near |p| = pi: the truncated
    reconstruction residual falls as bands are added (oracle: projection sums)."""
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    raw, _ = gaussian_packet(1, eps, L, n_x, q0=0.5, p0=0.9 * np.pi, normalize=False)
    psi0 = raw.with_values(raw.values / raw.norm())
    psg = phase_grid_for_field(psi0, cos_table128)
    residuals = [l2_distance(reconstruct(psi0, cos_table128, range(1, n + 1), psg),
                             psi0)[0] for n in (1, 2, 4)]
    assert residuals[0] > 5 * residuals[1] > 0
    assert residuals[1] >= residuals[2]
    assert residuals[2] <= 1e-3


def test_gauge_robustness_random_phases(cos_potential, rng):
    """Random per-node phases injected before gauge fixing leave the
    synthesized field unchanged (the observable is gauge-independent)."""
    from fgabloch.bloch import fix_gauge, solve_bands
    eps, L, T = 1 / 32, 1.0, 0.3
    n_x = int(L / eps) * 16
    base = solve_bands(BrillouinGrid(1, 128), cos_potential, 2, 16)
    scrambled = replace(base, coeffs=base.coeffs
                        * np.exp(1j * rng.uniform(0, 2 * np.pi,
                                                  base.coeffs.shape[:2]))[:, :, None])

    def pipeline(tab_raw, psi0=None):
        t = fix_gauge(tab_raw)
        t = grad_energy(berry_connection(t))
        if psi0 is None:
            raw, _ = gaussian_packet(1, eps, L, n_x, q0=0.5, p0=0.8, table=t,
                                     band=1, normalize=False)
            psi0 = raw.with_values(raw.values / raw.norm())
        psg = phase_grid_for_field(psi0, t)
        wc = windowed_bloch_transform(psi0, t, 1, psg)
        seeds = wc.to_seeds(1e-8)
        model = HamiltonianModel(dispersion_model(t, 1),
                                 harmonic_potential(1, k=1.0, center=0.5))
        res = integrate_ensemble(seeds, model, T=T, dt=1e-3)
        plan = SynthesisPlan(table=t, band=1, seeds=seeds, snapshot=res.at(T),
                             length=L, out_n_x=n_x)
        return psi0, synthesize(plan)

    psi0, fa = pipeline(base)
    _, fb = pipeline(scrambled, psi0=psi0)
    assert l2_distance(fa, fb)[1] <= 1e-10


def test_gauge_robustness_smooth_twist(cos_table128):
    """A smooth periodic gauge twist (nonzero Berry connection) leaves the
    synthesized field unchanged up to discretization of the connection."""
    eps, L, T = 1 / 32, 1.0, 0.3
    n_x = int(L / eps) * 16
    xi = cos_table128.grid.axis_nodes
    twist = np.exp(1j * 0.2 * np.sin(xi))
    coeffs = cos_table128.coeffs.copy()
    coeffs[:, 0, :] *= twist[:, None]
    t2 = replace(cos_table128, coeffs=coeffs, berry=None, grad_e=None)
    t2 = grad_energy(berry_connection(t2))
    assert np.max(np.abs(t2.berry[:, 0, :])) > 0.1      # twist visible in A

    raw, _ = gaussian_packet(1, eps, L, n_x, q0=0.5, p0=0.8, table=cos_table128,
                             band=1, normalize=False)
    psi0 = raw.with_values(raw.values / raw.norm())
    psg = phase_grid_for_field(psi0, cos_table128)

    def run(tab):
        wc = windowed_bloch_transform(psi0, tab, 1, psg)
        seeds = wc.to_seeds(1e-8)
        model = HamiltonianModel(dispersion_model(tab, 1),
                                 harmonic_potential(1, k=1.0, center=0.5))
        res = integrate_ensemble(seeds, model, T=T, dt=1e-3)
        plan = SynthesisPlan(table=tab, band=1, seeds=seeds, snapshot=res.at(T),
                             length=L, out_n_x=n_x)
        return synthesize(plan)

    fa, fb = run(cos_table128), run(t2)
    assert l2_distance(fa, fb)[1] <= 1e-4


def test_winding_compensation_matches_extended_gauge(cos_table128):
    """A trajectory driven through the zone edge synthesizes identically to a
    manual evaluation in the glued (shift + holonomy) extended gauge."""
    eps, L, T = 1 / 32, 4.0, 0.5
    K = cos_table128.cutoff
    model = HamiltonianModel(dispersion_model(cos_table128, 1),
                             harmonic_potential(1, k=1.0, center=2.0))
    seed = SeedSet(band=1, eps=eps, q=np.array([[1.2]]), p=np.array([[3.0]]),
                   w=np.array([1.0 + 0j]), weight=1.0, total_points=1)
    res = integrate_ensemble(seed, model, T=T, dt=1e-3)
    snap = res.at(T)
    assert wrap_momentum(snap.P)[1][0, 0] == 1          # crossed once
    n_x = int(L / eps) * 16
    plan = SynthesisPlan(table=cos_table128, band=1, seeds=seed, snapshot=snap,
                         length=L, out_n_x=n_x)
    f_code = synthesize(plan).values

    p_true, big_q = snap.P[0, 0], snap.Q[0, 0]
    theta = cos_table128.holonomy[0, 0]
    kv = np.arange(-K, K + 1)
    x = np.arange(n_x) * L / n_x
    dxi = cos_table128.grid.spacing
    j_ext = int(np.round((p_true + np.pi) / dxi))
    c_ext = np.exp(1j * theta) * shift_coefficients(
        cos_table128.coeffs[j_ext - cos_table128.grid.nodes_per_axis, 0], 0, K, 1)
    u_ext = np.exp(2j * np.pi * np.outer(x / eps, kv)) @ c_ext
    radius = 8 * np.sqrt(eps)
    g = np.zeros(n_x, complex)
    for nu in range(-3, 4):
        rho = x - big_q + nu * L
        m = np.abs(rho) <= radius
        g[m] += np.exp(-rho[m] ** 2 / (2 * eps) + 1j * p_true * rho[m] / eps)
    pref = 2.0 ** -0.25 / (2 * np.pi * eps) ** 0.75
    f_manual = pref * snap.a0[0] * np.exp(1j * snap.S[0] / eps) * g * u_ext
    assert np.linalg.norm(f_code - f_manual) <= 1e-12 * np.linalg.norm(f_manual)


def test_short_time_linear_drive_vs_reference(cos_table128):
    """Linear external drive before any zone-edge or domain-seam contact:
    FGA against the fine reference."""
    eps, L, T = 1 / 32, 2.0, 0.1
    n_x = int(L / eps) * 16
    psi0, _, _ = _normalized_packet(cos_table128, eps, L, n_x, 1.0, 0.5)
    psg = phase_grid_for_field(psi0, cos_table128)
    wc = windowed_bloch_transform(psi0, cos_table128, 1, psg)
    seeds = wc.to_seeds(1e-8)
    pot = linear_potential(1, slope=-3.0)
    model = HamiltonianModel(dispersion_model(cos_table128, 1), pot)
    res = integrate_ensemble(seeds, model, T=T, dt=1e-3)
    n_ref = int(L / eps) * 32
    proj = band_projection(psi0, cos_table128, 1, psg, coefficients=wc, out_n_x=n_ref)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_ref, dt=eps / 1280,
                          lattice=cos_table128.potential, external=pot, t_final=T)
    ref = reference_propagate(proj, cfg)
    plan = SynthesisPlan(table=cos_table128, band=1, seeds=seeds, snapshot=res.at(T),
                         length=L, out_n_x=n_ref)
    fga = synthesize(plan)
    assert l2_distance(fga, ref)[1] <= 1e-3


def test_zone_edge_crossing_regime(cos_table128):
    """Packet straddling the zone edge, driven across it: at desk-scale eps the
    window width sqrt(eps) is comparable to the gap feature g/s, so the error
    plateaus near 0.17; any winding-phase defect would push it past 1."""
    eps, L, T = 1 / 32, 4.0, 0.4
    n_x = int(L / eps) * 16
    psi0, _, _ = _normalized_packet(cos_table128, eps, L, n_x, 1.2, 3.05, width=2.0)
    psg = phase_grid_for_field(psi0, cos_table128)
    wc = windowed_bloch_transform(psi0, cos_table128, 1, psg)
    seeds = wc.to_seeds(1e-5)
    pot = harmonic_potential(1, k=1.0, center=2.0)
    model = HamiltonianModel(dispersion_model(cos_table128, 1), pot)
    res = integrate_ensemble(seeds, model, T=T, dt=1e-3)
    _, wind = wrap_momentum(res.at(T).P)
    assert np.any(wind != 0) and np.any(wind == 0)      # mixed windings
    n_ref = int(L / eps) * 32
    proj = band_projection(psi0, cos_table128, 1, psg, coefficients=wc, out_n_x=n_ref)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_ref, dt=eps / 1280,
                          lattice=cos_table128.potential, external=pot, t_final=T)
    ref = reference_propagate(proj, cfg)
    plan = SynthesisPlan(table=cos_table128, band=1, seeds=seeds, snapshot=res.at(T),
                         length=L, out_n_x=n_ref)
    fga = synthesize(plan)
    assert l2_distance(fga, ref)[1] <= 0.25


def test_2d_separable_fga_vs_product_reference():
    """Separable 2D cosine lattice: the exact solution factorizes into two 1D
    problems solved by the reference; full 2D FGA chain against that oracle."""
    eps, L, T = 1 / 8, 1.0, 0.4
    V2 = PeriodicPotential.cosine(2)
    V1 = PeriodicPotential.cosine(1)
    t2 = prepare_band_table(BrillouinGrid(2, 32), V2, 1, 3)
    t1 = prepare_band_table(BrillouinGrid(1, 32), V1, 1, 8)
    q0, p0 = [0.5, 0.5], [0.4, -0.3]
    n_x = int(L / eps) * 8
    psi2, p_used2 = gaussian_packet(2, eps, L, n_x, q0=q0, p0=p0, table=t2, band=1)
    psg = phase_grid_for_field(psi2, t2, c_g=0.8, r_c=6.0)
    wc = windowed_bloch_transform(psi2, t2, 1, psg, r_c=6.0)
    seeds = wc.to_seeds(1e-4)
    model = HamiltonianModel(dispersion_model(t2, 1), zero_potential(2))
    res = integrate_ensemble(seeds, model, T=T, dt=2e-3)
    plan = SynthesisPlan(table=t2, band=1, seeds=seeds, snapshot=res.at(T),
                         length=L, out_n_x=n_x, r_c=6.0)
    fga = synthesize(plan)

    n1 = int(L / eps) * 32
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n1, dt=eps / 1280, lattice=V1,
                          external=zero_potential(1), t_final=T)
    factors = []
    for a in range(2):
        f1, _ = gaussian_packet(1, eps, L, n1, q0=q0[a], p0=p0[a], table=t1, band=1)
        factors.append(reference_propagate(f1, cfg))
    step = n1 // n_x
    prod = np.outer(factors[0].values[::step], factors[1].values[::step])
    oracle = WaveField(2, eps, L, prod, T)
    oracle = oracle.with_values(oracle.values / oracle.norm())
    assert l2_distance(fga, oracle)[1] <= 0.03
