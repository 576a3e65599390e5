import numpy as np
import pytest

from fgabloch.bloch import dispersion_model
from fgabloch.dynamics import (_STENCIL, N_STENCIL, HamiltonianModel, _det, _rhs, _sigma_min,
                               _z, integrate_ensemble, sigma_min_z, symplectic_residual,
                               wrap_momentum, z_matrix)
from fgabloch.errors import InvalidInputError, InvariantViolationError, NumericError
from fgabloch.potentials import (cubic_potential, harmonic_potential, linear_potential,
                                 zero_potential)
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


def _rhs_at(model, q, p, F=None):
    """(dQ, dP, dF, dS) of the ensemble right-hand side for one trajectory."""
    F = np.eye(2) if F is None else F
    dQ, dP, dF, dS = _rhs(model, np.full((1, 1, 1), float(q)),
                          np.full((1, 1, 1), float(p)), F[:, :, None, None])[:4]
    return dQ[:, 0, 0], dP[:, 0, 0], dF[:, :, 0, 0], dS[0]


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
    """Free band: Z = 2 - it, so a0(t) = sqrt(2 - it)."""
    model = HamiltonianModel(FreeDispersion(), zero_potential(1))
    t = 0.4
    a0 = integrate_ensemble(_seed([(0.0, 0.5)]), model, T=t, dt=1e-3).at(t).a0[0]
    assert a0 == pytest.approx(np.sqrt(2 - 1j * t), abs=1e-14)


def test_sigma_min_closed_form_matches_svd(rng):
    Z = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
    Z = np.concatenate([Z, [2 * np.eye(2)]])        # equal singular values
    expect = np.linalg.svd(Z, compute_uv=False)[:, -1]
    assert np.max(np.abs(sigma_min_z(Z) / expect - 1)) <= 1e-12
    assert sigma_min_z(2 * np.eye(2)) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_symplectic_residual_closed_form_matches_direct(rng, d):
    """G - G^T - J from row products against F^T J F - J by matmul, on random
    batched F laid out (2d, 2d, ...) and symplectic-looking F near I."""
    J = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    for F in (rng.standard_normal((300, 2 * d, 2 * d)),
              np.eye(2 * d) + 1e-3 * rng.standard_normal((300, 2 * d, 2 * d))):
        direct = np.max(np.abs(np.swapaxes(F, -1, -2) @ J @ F - J), axis=(-2, -1))
        closed = symplectic_residual(np.moveaxis(F, 0, -1))
        assert closed.shape == (300,)
        # relative to the size of the terms that cancel in the residual
        scale = np.max(np.abs(np.swapaxes(F, -1, -2)) @ np.abs(J) @ np.abs(F) + np.abs(J),
                       axis=(-2, -1))
        assert np.max(np.abs(closed - direct) / scale) <= 1e-14
    # leading batch axes beyond one (the cores axis of the ensemble state)
    F = rng.standard_normal((2 * d, 2 * d, 3, 5))
    direct = np.max(np.abs(np.einsum("ji...,jk,kl...->il...", F, J, F)
                           - J[:, :, None, None]), axis=(0, 1))
    assert np.allclose(symplectic_residual(F), direct, rtol=1e-14, atol=0)


def test_integration_leaves_seeds_untouched():
    """The state is laid out (d, cores, n) from the seeds' transposes; for d = 1
    such a transpose can be a view, so check the seeds survive integration."""
    model = HamiltonianModel(FreeDispersion(), cubic_potential(a=1.0))
    seeds = _seed([(0.3, 0.5), (-0.2, 1.1), (0.7, -0.4)])
    q0, p0 = seeds.q.copy(), seeds.p.copy()
    for enable_a1 in (False, True):
        integrate_ensemble(seeds, model, T=0.05, dt=1e-3, enable_a1=enable_a1)
        assert np.array_equal(seeds.q, q0) and np.array_equal(seeds.p, p0)


@pytest.mark.parametrize("enable_a1", [False, True])
def test_rhs_makes_one_dispersion_query(enable_a1):
    disp = CountingDispersion()
    model = HamiltonianModel(disp, cubic_potential(a=1.0))
    integrate_ensemble(_seed([(0.1, 0.5), (0.2, -0.3)]), model, T=0.01, dt=1e-3,
                       enable_a1=enable_a1)
    assert disp.queries == 4 * 10                   # RK4: four evaluations per step
    disp.queries = 0
    cores = N_STENCIL if enable_a1 else 1
    _rhs(model, np.zeros((1, cores, 2)), np.zeros((1, cores, 2)),
         np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, cores, 2)),
         0.01 if enable_a1 else None)
    assert disp.queries == 1


def _per_component_rk4(seeds, model, T, dt, checkpoint_times, enable_a1=False):
    """Snapshot fields {t: {name: array}} at t = 0 and every checkpoint, from
    RK4 with one array per state component (Q, P, F, S, phi, b) and each
    stage and update formed per component (oracle for the packed state of
    integrate_ensemble)."""
    d, n = model.dimension, seeds.count
    delta = np.sqrt(seeds.eps) / 8.0 if enable_a1 else None
    cores = N_STENCIL if enable_a1 else 1
    Q = np.repeat(seeds.q.T[:, None, :], cores, axis=1).astype(float)
    P = np.repeat(seeds.p.T[:, None, :], cores, axis=1).astype(float)
    if enable_a1:
        Q += delta * _STENCIL[:, 0, None]
        P += delta * _STENCIL[:, 1, None]
    F = np.broadcast_to(np.eye(2 * d)[:, :, None, None], (2 * d, 2 * d, cores, n)).copy()
    state = (Q, P, F, np.zeros(n), np.zeros(n), np.zeros(n, dtype=complex))
    det_z, theta = np.full(n, 2.0 ** d, dtype=complex), np.zeros(n)
    ok, snaps = np.ones(n, dtype=bool), {}

    def monitor():
        nonlocal det_z, theta
        Z = _z(F[:, :, 0])
        det = _det(Z)
        theta = theta + np.angle(det * np.conj(det_z))
        det_z = det
        smin = _sigma_min(Z, det)
        finite = (np.isfinite(Q).all(axis=(0, 1)) & np.isfinite(P).all(axis=(0, 1))
                  & np.isfinite(det) & np.isfinite(state[4]) & np.isfinite(state[5]))
        ok[:] = ok & finite & (smin >= 1.0)
        return symplectic_residual(F[:, :, 0]), smin

    def stage(k, c):
        return _rhs(model, *(y + c * dy for y, dy in zip(state[:3], k)), delta)

    def snap(t, resid, smin):
        a0 = np.sqrt(np.abs(det_z)) * np.exp(1j * (0.5 * theta + state[4]))
        snaps[t] = dict(Q=Q[:, 0].T.copy(), P=P[:, 0].T.copy(), S=state[3].copy(),
                        F=np.moveaxis(F[:, :, 0], -1, 0).copy(), a0=a0, a1=a0 * state[5],
                        sympl_residual=resid, sigma_min=smin, ok=ok.copy())

    t_now = 0.0
    snap(0.0, *monitor())
    for target in sorted({float(T)} | set(checkpoint_times) - {0.0}):
        seg = target - t_now
        n_steps = max(1, int(round(seg / dt)))
        h = seg / n_steps
        for _ in range(n_steps):
            k1 = _rhs(model, Q, P, F, delta)
            k2 = stage(k1, 0.5 * h)
            k3 = stage(k2, 0.5 * h)
            k4 = stage(k3, h)
            for y, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4):
                y += (h / 6) * (d1 + 2 * d2 + 2 * d3 + d4)
            resid, smin = monitor()
        t_now = target
        snap(target, resid, smin)
    return snaps


@pytest.fixture(scope="module")
def berry_lattice_model(berry_lattice_table):
    """Band 1 of the 2D lattice without inversion symmetry, harmonic U."""
    return HamiltonianModel(dispersion_model(berry_lattice_table, 1),
                            harmonic_potential(2, k=1.0))


@pytest.mark.parametrize("case", ["cos-1d", "berry-2d", "a1"])
def test_packed_rk4_matches_per_component_oracle(case, cos_table128, berry_lattice_model):
    """The packed state and whole-buffer RK4 update of integrate_ensemble make
    the same operations per element as the per-component loop: every
    snapshot field is equal.  With a1 on, b is updated through its real and
    imaginary floats, not as complex numbers, so an exact zero of b may
    differ in sign; np.array_equal compares -0.0 and 0.0 as equal."""
    if case == "berry-2d":
        model = berry_lattice_model
        seeds = SeedSet(band=1, eps=1 / 64, q=np.array([[0.5, -0.3], [-0.4, 0.6], [0.8, 0.2]]),
                        p=np.array([[0.4, 1.1], [-1.3, 0.2], [2.0, -0.9]]),
                        w=np.ones(3, complex), weight=1.0, total_points=3)
    else:
        # U drives P across many cells (dp = 0.049); with harmonic U the
        # seeds at q = -2 and q = 1.5 cross the zone edge at +pi and -pi
        pot = cubic_potential(a=1.0) if case == "a1" else harmonic_potential(1, k=1.0)
        model = HamiltonianModel(dispersion_model(cos_table128, 1), pot)
        seeds = _seed([(-2.0, 2.9), (1.5, -2.9), (0.5, 0.3), (0.0, 1.1), (-0.4, -0.7)])
    T, checkpoints = 0.5, [0.0, 0.25]
    res = integrate_ensemble(seeds, model, T=T, dt=1e-3, checkpoint_times=checkpoints,
                             enable_a1=case == "a1")
    oracle = _per_component_rk4(seeds, model, T, 1e-3, checkpoints, enable_a1=case == "a1")
    if case == "cos-1d":
        assert np.any(res.at(T).P > np.pi) and np.any(res.at(T).P < -np.pi)
    if case == "a1":
        assert np.all(res.at(T).a1 != 0)
    for t, fields in oracle.items():
        snap = res.at(t)
        for name, want in fields.items():
            assert np.array_equal(getattr(snap, name), want), (t, name)


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
    h0 = disp.query(seeds.p)[0] + model.potential.value(seeds.q)
    hT = disp.query(snap.P)[0] + model.potential.value(snap.Q)
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
    # F is a rotation in (q, omega p), so Z = 2 cos wt - i (w + 1/w) sin wt
    w, t = np.sqrt(1.3), 0.8
    a0 = np.sqrt(2 * np.cos(w * t) - 1j * (w + 1 / w) * np.sin(w * t))
    assert np.max(np.abs(res.at(0.8).a0 - a0)) <= 1e-9


def test_a0_branch_continuity():
    """Harmonic U, free band: Z = 2 exp(-it), so a0 = sqrt(2) exp(-it/2) follows
    the root continuously; the principal root has the wrong sign at both times."""
    model = HamiltonianModel(FreeDispersion(), harmonic_potential(1, k=1.0))
    res = integrate_ensemble(_seed([(0.3, 0.2)]), model, T=3 * np.pi, dt=2e-3,
                             checkpoint_times=[2 * np.pi])
    assert abs(res.at(2 * np.pi).a0[0] - (-SQRT2)) <= 1e-9
    assert abs(res.at(3 * np.pi).a0[0] - 1j * SQRT2) <= 1e-9


def _a0_log_derivative_oracle(model, seeds, T, dt):
    """a0(T) from RK4 on (Q, P, F, a0) with the transport equation in
    log-derivative form (oracle):

        da0/dt = a0 [tr(dzP hessE Z^-1)/2 - i A.grad U - i tr(dzQ hessU Z^-1)/2]

    with dzQ = F_qq - i F_qp, dzP = F_pq - i F_pp and Z = dzQ + i dzP.
    """
    d, n = model.dimension, seeds.count

    def deriv(Q, P, F, a0):
        _, grad_e, hess_e, berry = model.dispersion.query(P)
        grad_u, hess_u = model.potential.grad(Q), model.potential.hess(Q)
        K = np.zeros((n, 2 * d, 2 * d))
        K[:, :d, d:] = hess_e
        K[:, d:, :d] = -hess_u
        dzQ = F[:, :d, :d] - 1j * F[:, :d, d:]
        dzP = F[:, d:, :d] - 1j * F[:, d:, d:]
        Zinv = np.linalg.inv(dzQ + 1j * dzP)
        lam = (0.5 * np.einsum("nij,njk,nki->n", dzP, hess_e, Zinv)
               - 1j * np.sum(berry * grad_u, axis=-1)
               - 0.5j * np.einsum("nij,njk,nki->n", dzQ, hess_u, Zinv))
        return grad_e, -grad_u, K @ F, a0 * lam

    y = (seeds.q.astype(float), seeds.p.astype(float),
         np.broadcast_to(np.eye(2 * d), (n, 2 * d, 2 * d)), np.full(n, 2.0 ** (d / 2), complex))
    steps = int(round(T / dt))
    h = T / steps
    for _ in range(steps):
        k1 = deriv(*y)
        k2 = deriv(*(v + 0.5 * h * k for v, k in zip(y, k1)))
        k3 = deriv(*(v + 0.5 * h * k for v, k in zip(y, k2)))
        k4 = deriv(*(v + h * k for v, k in zip(y, k3)))
        y = tuple(v + (h / 6) * (a + 2 * b + 2 * c + e)
                  for v, a, b, c, e in zip(y, k1, k2, k3, k4))
    return y[3]


def test_a0_berry_factor_2d_matches_log_derivative_oracle(berry_lattice_model):
    """2D lattice without inversion symmetry (max |A| about 0.39), harmonic U:
    the closed-form a0 = sqrt(det Z) exp(i phi) against the transport ODE."""
    model = berry_lattice_model
    q = np.array([[0.5, -0.3], [-0.4, 0.6], [0.8, 0.2]])
    p = np.array([[0.4, 1.1], [-1.3, 0.2], [2.0, -0.9]])
    seeds = SeedSet(band=1, eps=1 / 64, q=q, p=p, w=np.ones(3, complex), weight=1.0,
                    total_points=3)
    T, dt = 1.0, 2e-3
    snap = integrate_ensemble(seeds, model, T=T, dt=dt).at(T)
    oracle = _a0_log_derivative_oracle(model, seeds, T, dt)
    assert np.max(np.abs(snap.a0 - oracle)) <= 1e-9
    # the Berry factor is not negligible here: without it the check above fails
    berry_phase = np.angle(snap.a0 ** 2 / np.linalg.det(z_matrix(snap.F)))
    assert np.max(np.abs(berry_phase)) >= 1e-3


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
    snap = res.at(0.2)
    assert snap.ok[1] and snap.sigma_min[1] >= SQRT2 - 1e-9
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
