import numpy as np
import pytest

from fgabloch.bloch import dispersion_model
from fgabloch.dynamics import (N_STENCIL, HamiltonianModel, _rhs, integrate_ensemble,
                               wrap_momentum, z_matrix)
from fgabloch.errors import InvalidInputError, InvariantViolationError, NumericError
from fgabloch.potentials import (cubic_potential, harmonic_potential,
                                 linear_potential, zero_potential)
from fgabloch.transform import SeedSet

SQRT2 = np.sqrt(2.0)


class FlatDispersion:
    """Dispersion stub with E' = const and E'' = 0 (flat-curvature segment)."""

    dimension = 1

    def __init__(self, slope=0.0):
        self.slope = slope

    def query(self, p):
        m = p.shape[0]
        return (self.slope * p[:, 0], np.full((m, 1), self.slope),
                np.zeros((m, 1, 1)), np.zeros((m, 1)))

    def hess_bound(self, p_lo=None, p_hi=None, pad=0.5):
        return 0.0


class FreeDispersion:
    """E = p^2/2 without zone folding (for closed-form comparisons)."""

    dimension = 1

    def query(self, p):
        m = p.shape[0]
        return 0.5 * p[:, 0] ** 2, p.copy(), np.ones((m, 1, 1)), np.zeros((m, 1))

    def hess_bound(self, p_lo=None, p_hi=None, pad=0.5):
        return 1.0


class CountingDispersion(FreeDispersion):
    """FreeDispersion that counts its queries; it has no other band accessor."""

    def __init__(self):
        self.queries = 0

    def query(self, p):
        self.queries += 1
        return super().query(p)


def _rhs_at(model, q, p, F=None, a0=np.sqrt(2)):
    """(dQ, dP, dF, dS, da0) of the ensemble right-hand side for one trajectory."""
    F = np.eye(2) if F is None else F
    dQ, dP, dF, dS, dA0, _ = _rhs(model, np.full((1, 1, 1), float(q)),
                                  np.full((1, 1, 1), float(p)), F[None, None],
                                  np.array([a0], complex), np.zeros(1, complex))
    return dQ[0, 0], dP[0, 0], dF[0, 0], dS[0], dA0[0]


def _seed(qp_list, eps=1 / 64):
    q = np.array([[qq] for qq, _ in qp_list], float)
    p = np.array([[pp] for _, pp in qp_list], float)
    return SeedSet(band=1, eps=eps, q=q, p=p, w=np.ones(len(qp_list), complex),
                   weight=1.0, total_points=len(qp_list))


# --- right-hand sides -------------------------------------------------------

def test_flow_rhs_free():
    model = HamiltonianModel(FreeDispersion(), zero_potential(1))
    dq, dp = _rhs_at(model, 0.0, 0.5)[:2]
    assert dq[0] == pytest.approx(0.5) and dp[0] == 0.0


def test_flow_rhs_harmonic():
    model = HamiltonianModel(FreeDispersion(), harmonic_potential(1, k=1.0))
    dq, dp = _rhs_at(model, 1.0, 0.0)[:2]
    assert dq[0] == 0.0 and dp[0] == pytest.approx(-1.0)


def test_flow_rhs_cos_band(cos_table128):
    model = HamiltonianModel(dispersion_model(cos_table128, 1), zero_potential(1))
    j = int(np.argmin(np.abs(cos_table128.grid.axis_nodes - np.pi / 2)))
    xi = cos_table128.grid.axis_nodes[j]
    dq, dp = _rhs_at(model, 0.0, xi)[:2]
    assert abs(dq[0] - cos_table128.grad_e[j, 0, 0]) < 1e-9
    assert dp[0] == 0.0


def test_action_rhs_cases():
    free = HamiltonianModel(FreeDispersion(), zero_potential(1))
    assert _rhs_at(free, 0.0, 1.2)[3] == pytest.approx(1.2 ** 2 / 2)
    harm = HamiltonianModel(FreeDispersion(), harmonic_potential(1, k=1.0))
    # grad_P h = 0 at p = 0: dS/dt = -h
    assert _rhs_at(harm, 0.7, 0.0)[3] == pytest.approx(-0.5 * 0.49)
    # harmonic at (1, 1): p^2 - h = 1 - 1 = 0
    assert _rhs_at(harm, 1.0, 1.0)[3] == pytest.approx(0.0)


def test_jacobian_rhs_structure():
    harm = HamiltonianModel(FreeDispersion(), harmonic_potential(1, k=1.0))
    dF = _rhs_at(harm, 0.3, 0.4)[2]
    assert np.allclose(dF, np.array([[0.0, 1.0], [-1.0, 0.0]]) @ np.eye(2))


def test_z_matrix_values():
    assert z_matrix(np.eye(2))[0, 0] == pytest.approx(2.0)
    F_free = np.array([[1.0, 0.7], [0.0, 1.0]])
    assert z_matrix(F_free)[0, 0] == pytest.approx(2 - 0.7j)
    t = 0.9
    F_harm = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    z = z_matrix(F_harm)[0, 0]
    assert z == pytest.approx(2 * np.cos(t) - 2j * np.sin(t))
    assert abs(abs(z) - 2.0) < 1e-12
    with pytest.raises(InvariantViolationError):
        z_matrix(0.1 * np.eye(2))


def test_z_matrix_2d_identity():
    z = z_matrix(np.eye(4))
    assert np.allclose(z, 2 * np.eye(2))
    assert abs(np.linalg.det(z) - 4.0) < 1e-14


def test_a0_rhs_free_matches_closed_form():
    model = HamiltonianModel(FreeDispersion(), zero_potential(1))
    t = 0.4
    F = np.array([[1.0, t], [0.0, 1.0]])
    a0 = np.sqrt(2 - 1j * t)
    got = _rhs_at(model, 0.0, 0.5, F=F, a0=a0)[4]
    expect = -1j * a0 / (2 * (2 - 1j * t))
    assert got == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("enable_a1", [False, True])
def test_rhs_makes_one_dispersion_query(enable_a1):
    disp = CountingDispersion()
    model = HamiltonianModel(disp, cubic_potential(a=1.0))
    integrate_ensemble(_seed([(0.1, 0.5), (0.2, -0.3)]), model, T=0.01, dt=1e-3,
                       enable_a1=enable_a1)
    assert disp.queries == 4 * 10                   # RK4: four evaluations per step
    disp.queries = 0
    cores = N_STENCIL if enable_a1 else 1
    _rhs(model, np.zeros((2, cores, 1)), np.zeros((2, cores, 1)),
         np.broadcast_to(np.eye(2), (2, cores, 2, 2)), np.ones(2, complex),
         np.zeros(2, complex), 0.01 if enable_a1 else None)
    assert disp.queries == 1


# --- ensembles ---------------------------------------------------------------

def test_t_zero_checkpoint_is_exact():
    model = HamiltonianModel(FreeDispersion(), zero_potential(1))
    seeds = _seed([(0.1, 0.5), (0.2, -0.3)])
    res = integrate_ensemble(seeds, model, T=0.0, dt=1e-3, checkpoint_times=[0.0])
    snap = res.at(0.0)
    assert np.array_equal(snap.Q, seeds.q) and np.array_equal(snap.P, seeds.p)
    assert np.all(snap.S == 0) and np.all(snap.a0 == np.sqrt(2)) and np.all(snap.a1 == 0)
    assert np.all(snap.F == np.eye(2))
    assert res.max_sympl_residual == 0.0


def test_free_closed_forms_at_t1():
    model = HamiltonianModel(FreeDispersion(), zero_potential(1))
    seeds = _seed([(0.1, 0.5), (-0.4, 1.2)])
    res = integrate_ensemble(seeds, model, T=1.0, dt=1e-3)
    snap = res.at(1.0)
    assert np.max(np.abs(snap.Q - (seeds.q + seeds.p))) < 1e-10
    assert np.max(np.abs(snap.P - seeds.p)) < 1e-12
    assert np.max(np.abs(snap.S - 0.5 * seeds.p[:, 0] ** 2)) < 1e-10
    assert np.max(np.abs(snap.F - np.array([[1, 1], [0, 1]]))) < 1e-12
    # acceptance criterion: a0(1) = sqrt(2 - i) branch-continuous, <= 1e-9
    assert np.max(np.abs(snap.a0 - np.sqrt(2 - 1j))) <= 1e-9


def test_harmonic_period_return():
    model = HamiltonianModel(FreeDispersion(), harmonic_potential(1, k=1.0))
    seeds = _seed([(0.3, 0.2), (-0.1, 0.4)])
    res = integrate_ensemble(seeds, model, T=2 * np.pi, dt=1e-3)
    snap = res.at(2 * np.pi)
    assert np.max(np.abs(snap.Q - seeds.q)) < 1e-8
    assert np.max(np.abs(snap.P - seeds.p)) < 1e-8
    # energy conservation along the way
    h0 = 0.5 * seeds.p[:, 0] ** 2 + 0.5 * seeds.q[:, 0] ** 2
    hT = 0.5 * snap.P[:, 0] ** 2 + 0.5 * snap.Q[:, 0] ** 2
    assert np.max(np.abs(hT - h0)) < 1e-8


def test_rk4_order():
    from fgabloch.potentials import cosine_potential
    model = HamiltonianModel(FreeDispersion(),
                             cosine_potential(1, amplitude=1.0, wavevector=2.0))
    seeds = _seed([(0.4, 0.8)])
    T = 2.0

    def endpoint(dt):
        snap = integrate_ensemble(seeds, model, T=T, dt=dt).at(T)
        return np.concatenate([snap.Q[0], snap.P[0], [snap.S[0]],
                               snap.F[0].ravel(), [snap.a0[0].real, snap.a0[0].imag]])

    y1 = endpoint(2e-2)
    y2 = endpoint(1e-2)
    oracle = endpoint(2.5e-3)             # the dt/8 reference
    e1 = np.max(np.abs(y1 - oracle))
    e2 = np.max(np.abs(y2 - oracle))
    assert e1 > 1e-10                      # errors above rounding
    assert 16 * 0.8 <= e1 / e2 <= 16 * 1.25


def test_symplecticity_and_z_bound_long_run(cos_table128):
    model = HamiltonianModel(dispersion_model(cos_table128, 1),
                             harmonic_potential(1, k=1.0, center=0.0))
    seeds = _seed([(0.5, 0.3), (0.0, 1.1), (-0.4, -0.7), (0.3, 2.0)])
    res = integrate_ensemble(seeds, model, T=5.0, dt=1e-3)
    assert res.max_sympl_residual <= 1e-8
    assert res.min_sigma_z >= SQRT2 - 1e-6
    assert res.n_failed == 0


def test_energy_conservation_band_model(cos_table128):
    model = HamiltonianModel(dispersion_model(cos_table128, 1),
                             harmonic_potential(1, k=1.0, center=0.0))
    seeds = _seed([(0.5, 0.3), (0.1, 1.4)])
    res = integrate_ensemble(seeds, model, T=2.0, dt=1e-3)
    snap = res.at(2.0)
    disp = model.dispersion
    h0 = disp.energy(seeds.p) + model.potential.value(seeds.q)
    hT = disp.energy(snap.P) + model.potential.value(snap.Q)
    assert np.max(np.abs(hT - h0)) <= 1e-8


def test_momentum_wrapping_consistency(cos_table128):
    """Linear drive: unwrapped P is continuous and monotone, wrapped stays in
    Gamma*, winding counts the crossings."""
    model = HamiltonianModel(dispersion_model(cos_table128, 1),
                             linear_potential(1, slope=-2.0))
    seeds = _seed([(0.0, 0.5)])
    times = [0.5 * k for k in range(1, 9)]
    res = integrate_ensemble(seeds, model, T=4.0, dt=1e-3, checkpoint_times=times)
    p_hist = np.array([res.at(t).P[0, 0] for t in times])
    assert np.all(np.diff(p_hist) > 0)            # continuous, increasing
    wrapped, winding = wrap_momentum(res.at(4.0).P)
    assert -np.pi <= wrapped[0, 0] < np.pi
    assert winding[0, 0] == int(round((res.at(4.0).P[0, 0] - wrapped[0, 0]) / (2 * np.pi)))
    assert winding[0, 0] >= 1


def test_stability_bound_enforced(cos_table128):
    model = HamiltonianModel(dispersion_model(cos_table128, 1),
                             harmonic_potential(1, k=50.0, center=0.0))
    with pytest.raises(InvalidInputError):
        integrate_ensemble(_seed([(0.1, 0.5)]), model, T=0.1, dt=1e-2)


# --- a0/a1 transport ---------------------------------------------------------

def test_a0_constant_on_flat_band():
    model = HamiltonianModel(FlatDispersion(slope=0.7), zero_potential(1))
    seeds = _seed([(0.2, 0.4)])
    res = integrate_ensemble(seeds, model, T=1.0, dt=1e-3)
    assert abs(res.at(1.0).a0[0] - np.sqrt(2)) < 1e-13


def test_a1_zero_for_quadratic_potential():
    model = HamiltonianModel(FreeDispersion(), harmonic_potential(1, k=1.3, center=0.2))
    seeds = _seed([(0.4, 0.6), (0.0, -0.8)])
    res = integrate_ensemble(seeds, model, T=0.8, dt=1e-3, enable_a1=True)
    assert np.max(np.abs(res.at(0.8).a1)) <= 1e-8
    assert np.max(np.abs(res.at(0.8).a0 - np.sqrt(2 - 0.8j) * 0)) >= 0  # a0 evolved


def test_a1_initial_value_zero():
    model = HamiltonianModel(FreeDispersion(), cubic_potential(a=1.0))
    seeds = _seed([(0.3, 0.5)])
    res = integrate_ensemble(seeds, model, T=0.0, dt=1e-3, checkpoint_times=[0.0],
                             enable_a1=True)
    assert res.at(0.0).a1[0] == 0.0


def test_a1_cubic_vs_richardson_oracle():
    """U = q^3/6, free band: the delta-stencil value at the default spacing
    against the Richardson extrapolation of halved spacings (oracle), plus the
    frozen oracle value computed from the same extrapolation."""
    eps = 1 / 64
    model = HamiltonianModel(FreeDispersion(), cubic_potential(a=1.0, center=0.0))
    seeds = _seed([(0.3, 0.5)], eps=eps)
    T = 0.3
    delta0 = np.sqrt(eps) / 8

    def a1_at(delta):
        res = integrate_ensemble(seeds, model, T=T, dt=5e-4, enable_a1=True,
                                 a1_delta=delta)
        return res.at(T).a1[0]

    impl = a1_at(delta0)
    r = (4 * a1_at(delta0 / 2) - a1_at(delta0)) / 3
    r2 = (4 * a1_at(delta0 / 4) - a1_at(delta0 / 2)) / 3
    assert abs(r - r2) < 1e-9                      # oracle is converged
    assert abs(impl - r2) < 5e-7
    frozen = 0.0052424385 - 0.0014851958j          # oracle value, frozen
    assert abs(r2 - frozen) < 5e-9
    assert abs(impl - frozen) < 5e-7


def test_a1_requires_one_dimension():
    from fgabloch.bloch import BrillouinGrid, prepare_band_table
    from fgabloch.potentials import PeriodicPotential
    t = prepare_band_table(BrillouinGrid(2, 8), PeriodicPotential.cosine(2, 0.5), 1, 2)
    model = HamiltonianModel(dispersion_model(t, 1), zero_potential(2))
    seeds = SeedSet(band=1, eps=0.25, q=np.zeros((1, 2)), p=np.zeros((1, 2)) + 0.3,
                    w=np.ones(1, complex), weight=1.0, total_points=1)
    with pytest.raises(NumericError):
        integrate_ensemble(seeds, model, T=0.1, dt=1e-3, enable_a1=True)


def test_trajectory_state_and_csv(tmp_path, cos_table128):
    model = HamiltonianModel(dispersion_model(cos_table128, 1),
                             harmonic_potential(1, k=1.0, center=0.0))
    seeds = _seed([(0.5, 0.3), (0.1, 1.4)])
    res = integrate_ensemble(seeds, model, T=0.2, dt=1e-3)
    st = res.trajectory_state(0.2, 1)
    assert st.ok and st.sigma_min_z >= SQRT2 - 1e-9
    path = tmp_path / "traj.csv"
    res.export_csv(0.2, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("seed_q0,seed_p0,t,Q0,P0,S,re_a0")
    assert len(lines) == 3


def test_jacobian_band_flow_self_refinement(cos_table128):
    """V = cos band 1, U = 0, short time: F against a dt/100 oracle run."""
    model = HamiltonianModel(dispersion_model(cos_table128, 1), zero_potential(1))
    seeds = _seed([(0.2, 1.1)])
    T = 0.1
    coarse = integrate_ensemble(seeds, model, T=T, dt=1e-2).at(T).F[0]
    oracle = integrate_ensemble(seeds, model, T=T, dt=1e-4).at(T).F[0]
    assert np.max(np.abs(coarse - oracle)) <= 1e-10
