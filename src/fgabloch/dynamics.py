"""Trajectory ensemble dynamics.

For each phase-space seed the coupled system (Q, P, S, F, a0, a1) is driven
by the band Hamiltonian h(q, p) = E(p) + U(q):

    dQ/dt = grad E(P)            dP/dt = -grad U(Q)
    dS/dt = P.grad E(P) - h(Q, P)
    dF/dt = [[0, hess E(P)], [-hess U(Q), 0]] F     (separable h: mixed blocks vanish)
    da0/dt = a0 [ tr(dzP hessE Zinv)/2 - i A(P).grad U(Q) - i tr(dzQ hessU Zinv)/2 ]

with Z = dzQ + i dzP, dz = d/dq - i d/dp read off the flow Jacobian F.
The first-order amplitude a1 adds source terms with second phase-space
derivatives of the flow; those are obtained from auxiliary trajectories
seeded on a 9-point stencil around each seed (one-dimensional only).

Everything is integrated with classic fixed-step RK4; symplecticity of F and
the lower bound sigma_min(Z) >= sqrt(2) are monitored, not enforced.  P is
kept unwrapped internally (continuous); wrapped representatives and winding
counts are exposed on snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import DispersionModel
from .errors import InvalidInputError, InvariantViolationError, NumericError
from .potentials import ExternalPotential
from .transform import SeedSet

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class HamiltonianModel:
    dispersion: DispersionModel
    potential: ExternalPotential

    @property
    def dimension(self) -> int:
        return self.dispersion.dimension


@dataclass
class TrajectoryState:
    """Single-trajectory view (wrapped momentum plus winding count)."""

    t: float
    Q: np.ndarray
    P: np.ndarray              # wrapped into Gamma*
    winding: np.ndarray        # integer vector, P_true = P + 2*pi*winding
    S: float
    F: np.ndarray              # (2d, 2d)
    a0: complex
    a1: complex
    seed_q: np.ndarray
    seed_p: np.ndarray
    seed_w: complex
    sympl_residual: float
    sigma_min_z: float
    ok: bool = True


def wrap_momentum(p):
    """Wrapped representative in [-pi, pi) and the winding count."""
    wrapped = (p + np.pi) % TWO_PI - np.pi
    winding = np.rint((p - wrapped) / TWO_PI).astype(int)
    return wrapped, winding


def _blocks(F, d):
    return F[..., :d, :d], F[..., :d, d:], F[..., d:, :d], F[..., d:, d:]


def z_matrix(F: np.ndarray) -> np.ndarray:
    """Z = dz(Q + iP) = A + D + i(C - B) from flow Jacobian blocks.

    Raises InvariantViolationError when sigma_min(Z) < 1 (theory guarantees
    sqrt(2) for symplectic F).
    """
    F = np.asarray(F, dtype=float)
    d = F.shape[-1] // 2
    A, B, C, D = _blocks(F, d)
    Z = A + D + 1j * (C - B)
    if np.min(sigma_min_z(Z)) < 1.0:
        raise InvariantViolationError(
            f"sigma_min(Z) = {np.min(sigma_min_z(Z)):.6f} < 1")
    return Z


def sigma_min_z(Z: np.ndarray) -> np.ndarray:
    """Smallest singular value of (batched) d x d complex Z."""
    d = Z.shape[-1]
    if d == 1:
        return np.abs(Z[..., 0, 0])
    return np.linalg.svd(Z, compute_uv=False)[..., -1]


def symplectic_residual(F: np.ndarray) -> np.ndarray:
    """max |F^T J F - J| per trajectory."""
    d = F.shape[-1] // 2
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    resid = np.swapaxes(F, -1, -2) @ J @ F - J
    return np.max(np.abs(resid), axis=(-2, -1))


def _a0_lambda(F, hess_e, hess_u, berry, grad_u):
    """Logarithmic derivative of a0 along the flow (vectorized)."""
    d = grad_u.shape[-1]
    A, B, C, D = _blocks(F, d)
    dzQ = A - 1j * B
    dzP = C - 1j * D
    Z = dzQ + 1j * dzP
    if d == 1:
        Zinv = 1.0 / Z
        tr1 = (0.5 * (dzP * hess_e * Zinv))[..., 0, 0]
        tr3 = (0.5 * (dzQ * hess_u * Zinv))[..., 0, 0]
    else:
        Zinv = np.linalg.inv(Z)
        tr1 = 0.5 * np.einsum("nij,njk,nki->n", dzP, hess_e.astype(complex), Zinv)
        tr3 = 0.5 * np.einsum("nij,njk,nki->n", dzQ, hess_u.astype(complex), Zinv)
    adotg = np.sum(berry * grad_u, axis=-1)
    return tr1 - 1j * adotg - 1j * tr3


# stencil layout for the a1 source terms (d == 1):
# 0 main, 1 q+d, 2 q-d, 3 p+d, 4 p-d, 5 (q+,p+), 6 (q+,p-), 7 (q-,p+), 8 (q-,p-)
_STENCIL = np.array([
    [0.0, 0.0], [1, 0], [-1, 0], [0, 1], [0, -1],
    [1, 1], [1, -1], [-1, 1], [-1, -1]])
N_STENCIL = 9


def _dz(vals, delta):
    """First dz = d/dq - i d/dp derivative from stencil values (..., 9)."""
    return ((vals[..., 1] - vals[..., 2]) - 1j * (vals[..., 3] - vals[..., 4])) / (2 * delta)


def _dz2(vals, delta):
    """Second dz derivative: dqq - dpp - 2i dqp."""
    dqq = (vals[..., 1] - 2 * vals[..., 0] + vals[..., 2]) / delta ** 2
    dpp = (vals[..., 3] - 2 * vals[..., 0] + vals[..., 4]) / delta ** 2
    dqp = (vals[..., 5] - vals[..., 6] - vals[..., 7] + vals[..., 8]) / (4 * delta ** 2)
    return dqq - dpp - 2j * dqp


def _a1_sources(potential: ExternalPotential, Q, F, upp, delta):
    """Source terms of the first-order amplitude from stencil cores.

    Q, F carry a stencil axis: Q (n, 9, 1), F (n, 9, 2, 2); upp (n, 9) is
    U'' at Q.  Returns the complex combination  tr-terms  multiplying i*a0
    in da1/dt.
    """
    A, B, C, D = _blocks(F, 1)
    dzQ = (A - 1j * B)[..., 0, 0]                       # (n, 9)
    Z = (A + D + 1j * (C - B))[..., 0, 0]
    Zinv = 1.0 / Z
    q_flat = Q.reshape(-1, 1)
    uppp = potential.third(q_flat)[:, 0, 0, 0].reshape(Q.shape[:2])
    upppp = potential.fourth(q_flat)[:, 0, 0, 0, 0].reshape(Q.shape[:2])

    Y = (1.0 - upp) * Zinv
    term1 = _dz2(Y, delta) * Zinv[:, 0] + _dz(Y, delta) * _dz(Zinv, delta)
    W2 = dzQ * uppp * Zinv ** 2
    term2 = _dz(W2, delta)
    G3 = uppp * Zinv
    term3 = dzQ[:, 0] * _dz(G3, delta) * Zinv[:, 0]
    term4 = dzQ[:, 0] ** 2 * upppp[:, 0] * Zinv[:, 0] ** 2
    return 0.5 * term1 + term2 / 3.0 + term3 / 6.0 - term4 / 8.0


def _rhs(model: HamiltonianModel, Q, P, F, a0, a1, delta=None):
    """Time derivatives (dQ, dP, dF, dS, da0, da1) of the ensemble state.

    Q, P (n, cores, d) with P unwrapped, F (n, cores, 2d, 2d), a0, a1 (n,).
    Core 0 is the trajectory itself; with `delta` (the stencil spacing) the
    N_STENCIL cores carry the a1 stencil and da1 is transported, otherwise
    da1 = 0.  E, grad E, hess E and A come from one dispersion query.
    """
    d = Q.shape[-1]
    lead = Q.shape[:2]
    qf = Q.reshape(-1, d)
    e, grad_e, hess_e, berry = model.dispersion.query(P.reshape(-1, d))
    grad_u = model.potential.grad(qf).reshape(Q.shape)
    hess_u = model.potential.hess(qf).reshape(lead + (d, d))
    hess_e = hess_e.reshape(lead + (d, d))
    dQ = grad_e.reshape(Q.shape)
    dP = -grad_u
    K = np.zeros(lead + (2 * d, 2 * d))
    K[..., :d, d:] = hess_e
    K[..., d:, :d] = -hess_u
    dF = K @ F
    pm, qm = P[:, 0, :], Q[:, 0, :]
    h = e.reshape(lead)[:, 0] + model.potential.value(qm)
    dS = np.sum(pm * dQ[:, 0, :], axis=1) - h
    lam = _a0_lambda(F[:, 0], hess_e[:, 0], hess_u[:, 0],
                     berry.reshape(Q.shape)[:, 0], grad_u[:, 0])
    dA0 = a0 * lam
    if delta is None:
        dA1 = np.zeros_like(a1)
    else:
        dA1 = a1 * lam + 1j * a0 * _a1_sources(model.potential, Q, F,
                                               hess_u[..., 0, 0], delta)
    return dQ, dP, dF, dS, dA0, dA1


@dataclass
class EnsembleSnapshot:
    t: float
    Q: np.ndarray              # (n, d), unwrapped
    P: np.ndarray              # (n, d), unwrapped
    S: np.ndarray              # (n,)
    F: np.ndarray              # (n, 2d, 2d)
    a0: np.ndarray             # (n,) complex
    a1: np.ndarray             # (n,) complex
    sympl_residual: np.ndarray
    sigma_min: np.ndarray
    ok: np.ndarray

    def wrapped(self):
        return wrap_momentum(self.P)


@dataclass
class EnsembleResult:
    seeds: SeedSet
    snapshots: dict            # time -> EnsembleSnapshot
    max_sympl_residual: float
    min_sigma_z: float
    n_failed: int
    dt: float

    def at(self, t: float) -> EnsembleSnapshot:
        for key in self.snapshots:
            if abs(key - t) <= 1e-9 * max(1.0, abs(t)):
                return self.snapshots[key]
        raise InvalidInputError(f"no snapshot at t={t}; have {sorted(self.snapshots)}")

    def trajectory_state(self, t: float, i: int) -> TrajectoryState:
        snap = self.at(t)
        pw, wind = wrap_momentum(snap.P[i])
        return TrajectoryState(
            t=snap.t, Q=snap.Q[i], P=pw, winding=wind, S=float(snap.S[i]),
            F=snap.F[i], a0=complex(snap.a0[i]), a1=complex(snap.a1[i]),
            seed_q=self.seeds.q[i], seed_p=self.seeds.p[i],
            seed_w=complex(self.seeds.w[i]),
            sympl_residual=float(snap.sympl_residual[i]),
            sigma_min_z=float(snap.sigma_min[i]), ok=bool(snap.ok[i]))

    def export_csv(self, t: float, path):
        snap = self.at(t)
        d = self.seeds.q.shape[1]
        pw, _ = wrap_momentum(snap.P)
        cols = ([f"seed_q{a}" for a in range(d)] + [f"seed_p{a}" for a in range(d)]
                + ["t"] + [f"Q{a}" for a in range(d)] + [f"P{a}" for a in range(d)]
                + ["S", "re_a0", "im_a0", "re_a1", "im_a1",
                   "sympl_residual", "sigma_min_Z"])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(self.seeds.count):
                row = (list(self.seeds.q[i]) + list(self.seeds.p[i]) + [snap.t]
                       + list(snap.Q[i]) + list(pw[i])
                       + [snap.S[i], snap.a0[i].real, snap.a0[i].imag,
                          snap.a1[i].real, snap.a1[i].imag,
                          snap.sympl_residual[i], snap.sigma_min[i]])
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def stability_dt_max(model: HamiltonianModel, seeds: SeedSet, safety: float = 0.1) -> float:
    """dt bound from dt * max(|hess E|, |hess U|) <= safety over the seeded region."""
    he = model.dispersion.hess_bound(seeds.p.min(axis=0), seeds.p.max(axis=0))
    if model.potential.sup_hess is not None:
        hu = model.potential.sup_hess
    else:
        span = np.linspace(seeds.q.min() - 2.0, seeds.q.max() + 2.0, 257)
        pts = np.stack([span] * model.dimension, axis=-1)
        hu = float(np.max(np.abs(model.potential.hess(pts))))
    scale = max(he, hu, 1e-12)
    return safety / scale


def integrate_ensemble(seeds: SeedSet, model: HamiltonianModel, T: float, dt: float,
                       checkpoint_times=None, enable_a1: bool = False,
                       a1_delta: float = None) -> EnsembleResult:
    """RK4 integration of the coupled (Q, P, S, F, a0, a1) system for all seeds.

    Checkpoints are snapped to step multiples.  Invariant monitors
    (symplecticity residual, sigma_min(Z), finiteness) run every step; a
    breach marks the trajectory failed without aborting the ensemble.
    """
    d = model.dimension
    n = seeds.count
    if n == 0:
        raise InvalidInputError("empty seed set")
    dt_bound = stability_dt_max(model, seeds)
    if dt > dt_bound * (1 + 1e-9):
        raise InvalidInputError(
            f"dt = {dt:.3g} exceeds stability bound {dt_bound:.3g}")
    if enable_a1:
        if d != 1:
            raise NumericError("a1 transport is implemented for d = 1 only")
        delta = a1_delta if a1_delta is not None else np.sqrt(seeds.eps) / 8.0
        n_cores = N_STENCIL
    else:
        delta = None
        n_cores = 1

    checkpoints = sorted({float(T)} | {float(t) for t in (checkpoint_times or [])})
    for t in checkpoints:
        if t < 0 or t > T + 1e-12:
            raise InvalidInputError(f"checkpoint {t} outside [0, {T}]")

    # state arrays; cores axis holds the main trajectory plus the a1 stencil
    Q = np.repeat(seeds.q[:, None, :], n_cores, axis=1).astype(float)
    P = np.repeat(seeds.p[:, None, :], n_cores, axis=1).astype(float)
    if enable_a1:
        Q += delta * _STENCIL[None, :, 0:1]
        P += delta * _STENCIL[None, :, 1:2]
    F = np.broadcast_to(np.eye(2 * d), (n, n_cores, 2 * d, 2 * d)).copy()
    S = np.zeros(n)
    a0 = np.full(n, 2.0 ** (d / 2.0), dtype=complex)
    a1 = np.zeros(n, dtype=complex)

    sympl_run = np.zeros(n)
    sigma_run = np.full(n, np.inf)
    ok = np.ones(n, dtype=bool)
    snapshots = {}

    def monitor():
        fm = F[:, 0]
        resid = symplectic_residual(fm)
        A, B, C, D = _blocks(fm, d)
        Z = A + D + 1j * (C - B)
        smin = sigma_min_z(Z)
        np.maximum(sympl_run, resid, out=sympl_run)
        np.minimum(sigma_run, smin, out=sigma_run)
        finite = (np.isfinite(Q).all(axis=(1, 2)) & np.isfinite(P).all(axis=(1, 2))
                  & np.isfinite(a0) & np.isfinite(a1))
        ok[:] = ok & finite & (smin >= 1.0)
        return resid, smin

    def snap(t):
        resid, smin = monitor()
        snapshots[float(t)] = EnsembleSnapshot(
            t=float(t), Q=Q[:, 0].copy(), P=P[:, 0].copy(), S=S.copy(),
            F=F[:, 0].copy(), a0=a0.copy(), a1=a1.copy(),
            sympl_residual=resid.copy(), sigma_min=smin.copy(), ok=ok.copy())

    t_now = 0.0
    if any(abs(c) < 1e-12 for c in checkpoints):
        snap(0.0)
    for target in checkpoints:
        if target < 1e-12:
            continue
        seg = target - t_now
        n_steps = max(1, int(round(seg / dt)))
        h = seg / n_steps
        for _ in range(n_steps):
            k1 = _rhs(model, Q, P, F, a0, a1, delta)
            k2 = _rhs(model, Q + 0.5 * h * k1[0], P + 0.5 * h * k1[1], F + 0.5 * h * k1[2],
                      a0 + 0.5 * h * k1[4], a1 + 0.5 * h * k1[5], delta)
            k3 = _rhs(model, Q + 0.5 * h * k2[0], P + 0.5 * h * k2[1], F + 0.5 * h * k2[2],
                      a0 + 0.5 * h * k2[4], a1 + 0.5 * h * k2[5], delta)
            k4 = _rhs(model, Q + h * k3[0], P + h * k3[1], F + h * k3[2],
                      a0 + h * k3[4], a1 + h * k3[5], delta)
            Q += (h / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            P += (h / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            F += (h / 6) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            S += (h / 6) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
            a0 += (h / 6) * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])
            a1 += (h / 6) * (k1[5] + 2 * k2[5] + 2 * k3[5] + k4[5])
            monitor()
        t_now = target
        snap(t_now)

    return EnsembleResult(seeds=seeds, snapshots=snapshots,
                          max_sympl_residual=float(sympl_run.max()),
                          min_sigma_z=float(sigma_run.min()),
                          n_failed=int((~ok).sum()), dt=dt)
