"""Trajectory ensemble dynamics.

For each phase-space seed the state (Q, P, F, S, phi, b) is driven by the
band Hamiltonian h(q, p) = E(p) + U(q), with A(P) the Berry connection:

    dQ/dt = grad E(P)            dP/dt = -grad U(Q)
    dF/dt = [[0, hess E(P)], [-hess U(Q), 0]] F     (separable h: mixed blocks vanish)
    dS/dt = P.grad E(P) - h(Q, P)        dphi/dt = -A(P).grad U(Q)

The leading amplitude's transport equation is solved in closed form (the
Herman-Kluk prefactor times a Berry factor): a0 = sqrt(det Z) exp(i phi), with
Z = dz(Q + iP) = F_qq + F_pp + i(F_pq - F_qp) for F = [[F_qq, F_qp], [F_pq, F_pp]]
and dz = d/dq - i d/dp.  The root follows det Z continuously from det Z(0) = 2^d:
each step's monitor adds arg(det Z_new conj(det Z_old)) to theta = arg det Z,
and a0 = sqrt|det Z| exp(i(theta/2 + phi)).  The first-order amplitude is
a1 = a0 b with db/dt = i src, where src holds second phase-space derivatives
of the flow from auxiliary trajectories seeded on a 9-point stencil around
each seed (one-dimensional only).

Everything is integrated with classic fixed-step RK4; symplecticity of F and
the lower bound sigma_min(Z) >= sqrt(2) are monitored, not enforced.  P is
kept unwrapped internally (continuous); wrapped representatives and winding
counts are exposed on snapshots.

The ensemble is stored structure-of-arrays with the trajectory axis last:
Q and P as (d, cores, n), F as (2d, 2d, cores, n) and S, phi, b as (n,), all
views of one flat float buffer (b over 2n floats).  The state, the four RK4
slopes and one stage buffer are allocated once per integration; `_rhs`
writes into a slope's views, each stage is one scale-and-add over the
Q, P, F prefix and the update one pass of whole-buffer operations, in the
order y += (h/6)(((k1 + 2 k2) + 2 k3) + k4).  Snapshots carry the usual
(n, ...) arrays; the transposes happen at checkpoints only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .bloch import DispersionModel
from .errors import InvalidInputError, InvariantViolationError, NumericError
from .potentials import ExternalPotential
from .transform import SeedSet
from .wavefield import write_csv

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class HamiltonianModel:
    dispersion: DispersionModel
    potential: ExternalPotential

    @property
    def dimension(self) -> int:
        return self.dispersion.dimension


def wrap_momentum(p):
    """Wrapped representative in [-pi, pi) and the winding count."""
    wrapped = (p + np.pi) % TWO_PI - np.pi
    winding = np.rint((p - wrapped) / TWO_PI).astype(int)
    return wrapped, winding


def _z(F):
    """Z = dz(Q + iP) from the blocks of F laid out (2d, 2d, ...) (see the
    module docstring)."""
    d = F.shape[0] // 2
    return F[:d, :d] + F[d:, d:] + 1j * (F[d:, :d] - F[:d, d:])


def _det(Z):
    """det Z in closed form for Z laid out (d, d, ...), d <= 2."""
    if Z.shape[0] == 1:
        return Z[0, 0]
    return Z[0, 0] * Z[1, 1] - Z[0, 1] * Z[1, 0]


def _sigma_min(Z, det):
    """sigma_min(Z) = |det Z| / sigma_max, with
    sigma_max^2 = (|Z|_F^2 + sqrt(|Z|_F^4 - 4 |det Z|^2)) / 2 for d = 2."""
    mod = np.abs(det)
    if Z.shape[0] == 1:
        return mod
    fro2 = np.sum(Z.real ** 2 + Z.imag ** 2, axis=(0, 1))
    smax2 = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 ** 2 - 4.0 * mod ** 2, 0.0)))
    return mod / np.sqrt(smax2)


def z_matrix(F: np.ndarray) -> np.ndarray:
    """Z = dz(Q + iP) from the flow Jacobian blocks of (batched) F (..., 2d, 2d).

    Raises InvariantViolationError when sigma_min(Z) < 1 (theory guarantees
    sqrt(2) for symplectic F).
    """
    Z = _z(np.moveaxis(np.asarray(F, dtype=float), (-2, -1), (0, 1)))
    smin = np.min(_sigma_min(Z, _det(Z)))
    if smin < 1.0:
        raise InvariantViolationError(f"sigma_min(Z) = {smin:.6f} < 1")
    return np.moveaxis(Z, (0, 1), (-2, -1))


def sigma_min_z(Z: np.ndarray) -> np.ndarray:
    """Smallest singular value of (batched) d x d complex Z (..., d, d), d <= 2."""
    Z = np.moveaxis(Z, (-2, -1), (0, 1))
    return _sigma_min(Z, _det(Z))


@lru_cache(maxsize=None)
def _upper_pairs(d):
    """Row indices (i, j), i < j, of the entries above the diagonal of a
    2d x 2d matrix, and where J has its 1 among them (j = i + d); built once
    per d, not at every monitored step."""
    i, j = np.array(list(combinations(range(2 * d), 2))).T
    return i, j, j - i == d


def symplectic_residual(F: np.ndarray) -> np.ndarray:
    """max |F^T J F - J| per trajectory for F laid out (2d, 2d, ...).

    With F_q, F_p the first and last d rows of F and G = F_q^T F_p,
    F^T J F = G - G^T: antisymmetric, so only the entries above the diagonal
    are formed, from row products; there J is 1 at j = i + d and 0 elsewhere.
    """
    d = F.shape[0] // 2
    i, j, on_j = _upper_pairs(d)
    Fq, Fp = F[:d], F[d:]
    resid = ((Fq.take(i, 1) * Fp.take(j, 1)).sum(axis=0)
             - (Fq.take(j, 1) * Fp.take(i, 1)).sum(axis=0)
             - on_j.reshape((-1,) + (1,) * (F.ndim - 2)))
    return np.abs(resid).max(axis=0)


# stencil layout for the a1 source terms (d == 1):
# 0 main, 1 q+d, 2 q-d, 3 p+d, 4 p-d, 5 (q+,p+), 6 (q+,p-), 7 (q-,p+), 8 (q-,p-)
_STENCIL = np.array([
    [0.0, 0.0], [1, 0], [-1, 0], [0, 1], [0, -1],
    [1, 1], [1, -1], [-1, 1], [-1, -1]])
N_STENCIL = 9


def _dz(vals, delta):
    """First dz = d/dq - i d/dp derivative from stencil values (9, ...)."""
    return ((vals[1] - vals[2]) - 1j * (vals[3] - vals[4])) / (2 * delta)


def _dz2(vals, delta):
    """Second dz derivative: dqq - dpp - 2i dqp."""
    dqq = (vals[1] - 2 * vals[0] + vals[2]) / delta ** 2
    dpp = (vals[3] - 2 * vals[0] + vals[4]) / delta ** 2
    dqp = (vals[5] - vals[6] - vals[7] + vals[8]) / (4 * delta ** 2)
    return dqq - dpp - 2j * dqp


def _a1_sources(potential: ExternalPotential, Q, F, upp, delta):
    """Source term src of the first-order amplitude from stencil cores.

    Q, F carry the stencil as their cores axis: Q (1, 9, n), F (2, 2, 9, n);
    upp (9, n) is U'' at Q.  Returns src with d(a1/a0)/dt = i src.
    """
    dzQ = F[0, 0] - 1j * F[0, 1]                        # (9, n)
    Zinv = 1.0 / _z(F)[0, 0]
    q_flat = Q.reshape(-1, 1)
    uppp = potential.third(q_flat)[:, 0, 0, 0].reshape(Q.shape[1:])
    upppp = potential.fourth(q_flat)[:, 0, 0, 0, 0].reshape(Q.shape[1:])

    Y = (1.0 - upp) * Zinv
    term1 = _dz2(Y, delta) * Zinv[0] + _dz(Y, delta) * _dz(Zinv, delta)
    W2 = dzQ * uppp * Zinv ** 2
    term2 = _dz(W2, delta)
    G3 = uppp * Zinv
    term3 = dzQ[0] * _dz(G3, delta) * Zinv[0]
    term4 = dzQ[0] ** 2 * upppp[0] * Zinv[0] ** 2
    return 0.5 * term1 + term2 / 3.0 + term3 / 6.0 - term4 / 8.0


def _block_product(M, X, out):
    """out = M X as row products for M (d, d, ...) and X (d, 2d, ...)."""
    np.multiply(M[:, 0, None], X[0], out=out)
    for k in range(1, M.shape[1]):
        out += M[:, k, None] * X[k]
    return out


def _state(d, cores, n):
    """One zeroed flat buffer and its views (Q, P, F, S, phi, b): Q, P
    (d, cores, n), F (2d, 2d, cores, n), S, phi (n,) and b (n,) complex over
    the last 2n floats.  Q, P and F, which every derivative reads, come first."""
    ends = np.cumsum([0, d * cores * n, d * cores * n, 4 * d * d * cores * n, n, n, 2 * n])
    buf = np.zeros(ends[-1])
    Q, P, F, S, phi, b = (buf[lo:hi] for lo, hi in zip(ends, ends[1:]))
    return buf, (Q.reshape(d, cores, n), P.reshape(d, cores, n),
                 F.reshape(2 * d, 2 * d, cores, n), S, phi, b.view(complex))


def _rhs(model: HamiltonianModel, Q, P, F, delta=None, out=None):
    """Time derivatives (dQ, dP, dF, dS, dphi, db) of the ensemble state,
    written into `out` (the views of a `_state` buffer; a new one if None).

    Q, P (d, cores, n) with P unwrapped, F (2d, 2d, cores, n); no derivative
    depends on S, phi or b.  Core 0 is the trajectory itself; with `delta`
    (the stencil spacing) the N_STENCIL cores carry the a1 stencil and
    db = i src, otherwise db is left as it is (zero in a new buffer).  E,
    grad E, hess E and A come from one dispersion query;
    dF = [[0, hess E], [-hess U, 0]] F is formed from its blocks.
    """
    d, cores, n = Q.shape
    if out is None:
        out = _state(d, cores, n)[1]
    dQ, dP, dF, dS, dphi, db = out
    e, grad_e, hess_e, berry = model.dispersion.query(P.reshape(d, -1).T)
    qf = Q.reshape(d, -1).T
    grad_u = model.potential.grad(qf).T.reshape(Q.shape)
    hess_u = model.potential.hess(qf).transpose(1, 2, 0).reshape(d, d, cores, n)
    dQ[...] = grad_e.T.reshape(Q.shape)
    np.negative(grad_u, out=dP)
    _block_product(hess_e.transpose(1, 2, 0).reshape(d, d, cores, n), F[d:], dF[:d])
    np.negative(_block_product(hess_u, F[:d], dF[d:]), out=dF[d:])
    h = e.reshape(cores, n)[0] + model.potential.value(Q[:, 0].T)
    np.subtract((P[:, 0] * dQ[:, 0]).sum(axis=0), h, out=dS)
    np.negative((berry.T.reshape(Q.shape)[:, 0] * grad_u[:, 0]).sum(axis=0), out=dphi)
    if delta is not None:
        np.multiply(1j, _a1_sources(model.potential, Q, F, hess_u[0, 0], delta), out=db)
    return out


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


@dataclass
class EnsembleResult:
    seeds: SeedSet
    snapshots: dict            # time -> EnsembleSnapshot
    max_sympl_residual: float
    min_sigma_z: float
    n_failed: int
    dt: float
    steps: int                 # RK4 steps taken to reach the last checkpoint

    def at(self, t: float) -> EnsembleSnapshot:
        for key in self.snapshots:
            if abs(key - t) <= 1e-9 * max(1.0, abs(t)):
                return self.snapshots[key]
        raise InvalidInputError(f"no snapshot at t={t}; have {sorted(self.snapshots)}")

    def export_csv(self, t: float, path):
        snap = self.at(t)
        d = self.seeds.q.shape[1]
        pw, _ = wrap_momentum(snap.P)
        cols = ([f"seed_q{a}" for a in range(d)] + [f"seed_p{a}" for a in range(d)]
                + ["t"] + [f"Q{a}" for a in range(d)] + [f"P{a}" for a in range(d)]
                + ["S", "re_a0", "im_a0", "re_a1", "im_a1",
                   "sympl_residual", "sigma_min_Z"])
        write_csv(path, cols, [*self.seeds.q.T, *self.seeds.p.T,
                               np.full(self.seeds.count, snap.t), *snap.Q.T, *pw.T, snap.S,
                               snap.a0.real, snap.a0.imag, snap.a1.real, snap.a1.imag,
                               snap.sympl_residual, snap.sigma_min])


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
    """RK4 integration of the (Q, P, F, S, phi, b) system for all seeds.

    Checkpoints are snapped to step multiples; snapshots carry a0 and a1
    formed from det Z (see the module docstring).  Invariant monitors
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

    # the state y, the slopes k1..k4 and the stage ys are one flat buffer
    # each (see _state); the cores axis holds the main trajectory plus the a1
    # stencil
    y, (Q, P, F, S, phi, b) = _state(d, n_cores, n)
    Q[...] = seeds.q.T[:, None, :]
    P[...] = seeds.p.T[:, None, :]
    if enable_a1:
        Q += delta * _STENCIL[:, 0, None]
        P += delta * _STENCIL[:, 1, None]
    F[...] = np.eye(2 * d)[:, :, None, None]
    flow = Q.size + P.size + F.size
    (k1, k1_views), (k2, k2_views), (k3, k3_views), (k4, k4_views), (ys, ys_views) = (
        _state(d, n_cores, n) for _ in range(5))

    det_z = np.full(n, 2.0 ** d, dtype=complex)
    theta = np.zeros(n)                 # arg det Z, continuous from det Z(0) = 2^d
    sympl_run = np.zeros(n)
    sigma_run = np.full(n, np.inf)
    ok = np.ones(n, dtype=bool)
    snapshots = {}

    def monitor():
        nonlocal det_z, theta
        fm = F[:, :, 0]
        Z = _z(fm)
        det = _det(Z)
        theta = theta + np.angle(det * np.conj(det_z))
        det_z = det
        resid = symplectic_residual(fm)
        smin = _sigma_min(Z, det)
        np.maximum(sympl_run, resid, out=sympl_run)
        np.minimum(sigma_run, smin, out=sigma_run)
        finite = (np.isfinite(Q).all(axis=(0, 1)) & np.isfinite(P).all(axis=(0, 1))
                  & np.isfinite(det) & np.isfinite(phi) & np.isfinite(b))
        ok[:] = ok & finite & (smin >= 1.0)
        return resid, smin

    def snap(t, resid, smin):
        a0 = np.sqrt(np.abs(det_z)) * np.exp(1j * (0.5 * theta + phi))
        snapshots[float(t)] = EnsembleSnapshot(
            t=float(t), Q=Q[:, 0].T.copy(), P=P[:, 0].T.copy(), S=S.copy(),
            F=np.moveaxis(F[:, :, 0], -1, 0).copy(), a0=a0, a1=a0 * b,
            sympl_residual=resid, sigma_min=smin, ok=ok.copy())

    def stage(k, c, out):
        # the derivatives read (Q, P, F) only: stage just those
        np.multiply(k[:flow], c, out=ys[:flow])
        ys[:flow] += y[:flow]
        _rhs(model, *ys_views[:3], delta, out)

    t_now, steps = 0.0, 0
    if any(abs(c) < 1e-12 for c in checkpoints):
        snap(0.0, *monitor())
    for target in checkpoints:
        if target < 1e-12:
            continue
        seg = target - t_now
        n_steps = max(1, int(round(seg / dt)))
        h = seg / n_steps
        steps += n_steps
        for _ in range(n_steps):
            _rhs(model, Q, P, F, delta, k1_views)
            stage(k1, 0.5 * h, k2_views)
            stage(k2, 0.5 * h, k3_views)
            stage(k3, h, k4_views)
            # y += (h/6) (((k1 + 2 k2) + 2 k3) + k4), in that order, on every row at once
            np.multiply(k2, 2, out=ys)
            k1 += ys
            np.multiply(k3, 2, out=ys)
            k1 += ys
            k1 += k4
            k1 *= h / 6
            y += k1
            watched = monitor()
        t_now = target
        snap(t_now, *watched)

    return EnsembleResult(seeds=seeds, snapshots=snapshots,
                          max_sympl_residual=float(sympl_run.max()),
                          min_sigma_z=float(sigma_run.min()),
                          n_failed=int((~ok).sum()), dt=dt, steps=steps)
