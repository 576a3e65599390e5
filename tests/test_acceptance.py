"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Numbered to match the
project acceptance list; every tolerance is pinned here, nothing deferred.
"""

import numpy as np
import pytest

from fgabloch.bloch import BrillouinGrid, evaluate_bloch_wave, prepare_band_table
from fgabloch.config import RunConfig
from fgabloch.dynamics import HamiltonianModel, integrate_ensemble
from fgabloch.exact import gaussian_evolution
from fgabloch.pipeline import cmd_convergence
from fgabloch.potentials import (PeriodicPotential, harmonic_potential,
                                 zero_potential)
from fgabloch.reference import ReferenceConfig, reference_propagate
from fgabloch.synthesis import SynthesisPlan, initial_snapshot, synthesize
from fgabloch.transform import (band_projection, phase_grid_for_field, reconstruct,
                                windowed_bloch_transform)
from fgabloch.bloch import dispersion_model
from fgabloch.wavefield import WaveField, gaussian_packet, l2_distance

SQRT2 = np.sqrt(2.0)


def _report(name, detail):
    print(f"[{name}] PASS: {detail}")


@pytest.fixture(scope="module")
def cos_potential():
    return PeriodicPotential.cosine(1)


@pytest.fixture(scope="module")
def table_m64(cos_potential):
    return prepare_band_table(BrillouinGrid(1, 64), cos_potential, 8, 16)


@pytest.fixture(scope="module")
def table_m128(cos_potential):
    return prepare_band_table(BrillouinGrid(1, 128), cos_potential, 8, 16)


def _convergence_config(external_spec):
    cfg = RunConfig()
    cfg.apply_overrides([
        "potential.lattice_spec=cosine",
        f"potential.external_spec={external_spec}",
        "numerics.eps_list=0.0625,0.03125,0.015625",
        "numerics.M=64", "numerics.K=16", "numerics.n_bands=2",
        "numerics.dt=1e-3", "numerics.ref_dt_divisor=40",
        "initial.q0=2.0", "initial.p0=0.5",
        "run.L=4.0", "run.T=0.5", "run.bands=1", "run.recon_bands=2",
        "tolerances.gap_guard_factor=2.0",
    ])
    return cfg


@pytest.fixture(scope="module")
def convergence_reports(tmp_path_factory):
    """The convergence experiment for U = 0 and U = (q-2)^2/2 (shared by 3, 6)."""
    reports = {}
    for label, spec in (("U=0", "zero"), ("U=q2/2", "harmonic(k=1.0, center=2.0)")):
        out = tmp_path_factory.mktemp(f"conv_{label.replace('/', '_').replace('=', '')}")
        cfg = _convergence_config(spec)
        cfg.out_dir = str(out)
        reports[label] = cmd_convergence(cfg)
    return reports


def test_c01_reconstruction_identity(table_m128):
    """Criterion 1: eight-band reconstruction of a band-1 packet, eps = 1/32."""
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    psi0, _ = gaussian_packet(1, eps, L, n_x, q0=0.5, p0=0.8, table=table_m128, band=1)
    psg = phase_grid_for_field(psi0, table_m128)
    rec = reconstruct(psi0, table_m128, range(1, 9), psg)
    rel = l2_distance(rec, psi0)[1]
    assert rel <= 1e-4
    _report("criterion 1", f"reconstruction residual {rel:.3e} <= 1e-4")


def test_c02_t0_consistency(table_m128):
    """Criterion 2: t = 0 synthesis equals the band operator to 1e-10."""
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 16
    psi0, _ = gaussian_packet(1, eps, L, n_x, q0=0.5, p0=0.8, table=table_m128, band=1)
    psg = phase_grid_for_field(psi0, table_m128)
    wc = windowed_bloch_transform(psi0, table_m128, 1, psg)
    proj = band_projection(psi0, table_m128, 1, psg, coefficients=wc)
    seeds = wc.to_seeds(0.0)
    plan = SynthesisPlan(table=table_m128, band=1, seeds=seeds,
                         snapshot=initial_snapshot(seeds), length=L, out_n_x=n_x)
    err = l2_distance(synthesize(plan), proj)[0]
    assert err <= 1e-10
    _report("criterion 2", f"t=0 consistency {err:.3e} <= 1e-10")


def test_c03_first_order_rate(convergence_reports):
    """Criterion 3: observed order >= 0.8 for V = cos(2 pi x), U = 0 and harmonic."""
    for label, report in convergence_reports.items():
        assert report.get("errors", "status") == "PASS"
        mean_order = report.get_float("errors", "mean_order")
        assert mean_order >= 0.8
        errs = [report.get_float("errors", f"E_eps_{e!r}")
                for e in (0.0625, 0.03125, 0.015625)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 0.8 for o in orders)
        _report("criterion 3",
                f"{label}: errors {['%.2e' % e for e in errs]}, "
                f"orders {['%.2f' % o for o in orders]} (mean {mean_order:.2f})")


def test_c04_quadratic_exactness_floor():
    """Criterion 4: V = 0, U in {0, q^2/2}: FGA vs analytic <= 1e-5 at eps = 1/64."""
    eps, L, T = 1 / 64, 2.0, 0.5
    table = prepare_band_table(BrillouinGrid(1, 128), PeriodicPotential.zero(1), 1, 8)
    n_x = int(L / eps) * 16
    raw, p_used = gaussian_packet(1, eps, L, n_x, q0=1.0, p0=0.5, normalize=False)
    nrm = raw.norm()
    psi0 = raw.with_values(raw.values / nrm)
    psg = phase_grid_for_field(psi0, table)
    wc = windowed_bloch_transform(psi0, table, 1, psg)
    seeds = wc.to_seeds(1e-8)
    for pot, label in ((zero_potential(1), "U=0"),
                       (harmonic_potential(1, k=1.0, center=1.0), "U=q2/2")):
        model = HamiltonianModel(dispersion_model(table, 1), pot)
        res = integrate_ensemble(seeds, model, T=T, dt=1e-3)
        plan = SynthesisPlan(table=table, band=1, seeds=seeds, snapshot=res.at(T),
                             length=L, out_n_x=n_x)
        fga = synthesize(plan)
        exact = gaussian_evolution(psi0, pot, 1.0, float(p_used[0]), T, amplitude=1 / nrm)
        err = l2_distance(fga, exact)[1]
        assert err <= 1e-5
        _report("criterion 4", f"{label}: FGA vs analytic {err:.3e} <= 1e-5")


@pytest.fixture(scope="module")
def long_run(table_m128):
    """T = 5 ensemble at dt = 1e-3 shared by criteria 5 and 6."""
    eps, L = 1 / 32, 2.0
    n_x = int(L / eps) * 16
    psi0, _ = gaussian_packet(1, eps, L, n_x, q0=1.0, p0=0.5, table=table_m128, band=1)
    psg = phase_grid_for_field(psi0, table_m128)
    wc = windowed_bloch_transform(psi0, table_m128, 1, psg)
    seeds = wc.to_seeds(1e-4)
    model = HamiltonianModel(dispersion_model(table_m128, 1),
                             harmonic_potential(1, k=1.0, center=1.0))
    return integrate_ensemble(seeds, model, T=5.0, dt=1e-3), seeds


def test_c05_symplecticity(long_run):
    """Criterion 5: max ||F^T J F - J|| over all trajectories, t <= 5, dt = 1e-3."""
    res, seeds = long_run
    assert res.max_sympl_residual <= 1e-8
    _report("criterion 5",
            f"max symplectic residual {res.max_sympl_residual:.3e} over "
            f"{seeds.count} trajectories, T=5")


def test_c06_z_lower_bound(long_run, convergence_reports):
    """Criterion 6: sigma_min(Z) >= sqrt(2) - 1e-6 over all runs."""
    res, _ = long_run
    lows = [res.min_sigma_z]
    for report in convergence_reports.values():
        for eps in (0.0625, 0.03125, 0.015625):
            lows.append(report.get_float("monitors", f"sigma_min_eps_{eps!r}"))
    assert min(lows) >= SQRT2 - 1e-6
    _report("criterion 6", f"min sigma_min(Z) = {min(lows):.9f} >= sqrt(2) - 1e-6")


def test_c07_dispersion_identity(table_m64):
    """Criterion 7: grad E identity vs refined eigenvalue differences, 1e-6 rel."""
    rel = table_m64.grad_fd_discrepancy / (1 + float(np.max(np.abs(table_m64.grad_e))))
    assert rel <= 1e-6
    _report("criterion 7", f"identity-vs-FD discrepancy {rel:.3e} relative <= 1e-6")


def test_c08_berry_realness(table_m64):
    """Criterion 8: imaginary diagnostic of <c, Dc> after gauge fixing."""
    assert table_m64.berry_im_diag <= 1e-8
    _report("criterion 8", f"berry imaginary diagnostic {table_m64.berry_im_diag:.3e}")


def test_c09_reference_unitarity_and_stationarity(cos_potential, table_m64):
    """Criterion 9: norm drift <= 1e-10 over T = 1; Bloch mode pointwise 1e-6."""
    eps, L = 1 / 16, 1.0
    n_x = int(L / eps) * 32
    R = int(L / eps)
    xi = 2 * np.pi * 2 / R
    j = int(round((xi + np.pi) / table_m64.grid.spacing))
    energy = table_m64.energies[j, 0]
    x = np.arange(n_x) * L / n_x
    u = evaluate_bloch_wave(table_m64, 1, [xi], x[:, None] / eps)
    vals = np.exp(1j * xi * x / eps) * u
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * L / n_x)
    psi0 = WaveField(1, eps, L, vals, 0.0)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 5120,
                          lattice=cos_potential, external=zero_potential(1),
                          t_final=1.0)
    ref = reference_propagate(psi0, cfg)
    drift = abs(ref.norm() - 1.0)
    pointwise = float(np.max(np.abs(ref.values - psi0.values * np.exp(-1j * energy / eps))))
    assert drift <= 1e-10
    assert pointwise <= 1e-6
    _report("criterion 9", f"norm drift {drift:.3e}; Bloch mode error {pointwise:.3e}")


def test_c10_a0_closed_form():
    """Criterion 10: free-case a0(1) = sqrt(2 - i) to 1e-9."""
    from fgabloch.transform import SeedSet
    table = prepare_band_table(BrillouinGrid(1, 128), PeriodicPotential.zero(1), 1, 8)
    model = HamiltonianModel(dispersion_model(table, 1), zero_potential(1))
    seeds = SeedSet(band=1, eps=1 / 64, q=np.array([[0.2]]), p=np.array([[0.5]]),
                    w=np.ones(1, complex), weight=1.0, total_points=1)
    res = integrate_ensemble(seeds, model, T=1.0, dt=1e-3)
    err = abs(res.at(1.0).a0[0] - np.sqrt(2 - 1j))
    assert err <= 1e-9
    _report("criterion 10", f"|a0(1) - sqrt(2-i)| = {err:.3e} <= 1e-9")
