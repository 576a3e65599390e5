"""Fine-grid reference solver: Bloch-decomposition split-step for

    i eps dpsi/dt = -(eps^2/2) Laplacian psi + V(x/eps) psi + U(x) psi

on the periodic domain, one-dimensional (Huang, Jin, Markowich & Sparber,
SIAM J. Sci. Comput. 29 (2007) 515-538).

The lattice part H = -(eps^2/2) Laplacian + V(x/eps) is applied exactly in
the Bloch basis.  With R = L/eps cells and s = n_x/R points per cell, every
FFT bin is m = r + kR exactly once, r in [0, R), k in [-s/2, s/2): fiber r
holds the s modes of crystal momentum xi = 2 pi r / R, and exp(-i H dt/eps)
acts on it as the s x s matrix W_r exp(-i E_r dt/eps) W_r^H, from one
batched cell eigensolve over the R fibers.  Only the smooth U is split
(Strang): half a step of U in x, the exact lattice step, half a step of U.
When U vanishes on the grid the steps compose exactly, and each checkpoint
segment takes one step.  The stepping is unitary up to rounding.

Used as ground truth at desk scale; its mesh burden (dx <= eps/32,
dt <= eps/20) is enforced, not negotiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _cell_eigensolve
from .errors import GridMismatchError, InvalidInputError, ResolutionError
from .potentials import ExternalPotential, PeriodicPotential
from .wavefield import WaveField


@dataclass(frozen=True)
class ReferenceConfig:
    eps: float
    length: float
    n_x: int
    dt: float
    lattice: PeriodicPotential
    external: ExternalPotential
    t_final: float

    def __post_init__(self):
        if self.lattice.dimension != 1 or self.external.dimension != 1:
            raise InvalidInputError("reference solver is one-dimensional only")
        ratio = self.length / self.eps
        if abs(ratio - round(ratio)) > 1e-9:
            raise InvalidInputError("L/eps must be an integer")
        dx = self.length / self.n_x
        if dx > self.eps / 32 * (1 + 1e-12):
            raise ResolutionError(
                f"dx = {dx:.3e} exceeds eps/32 = {self.eps / 32:.3e}")
        if abs(self.dt) > self.eps / 20 * (1 + 1e-12):
            raise ResolutionError(
                f"dt = {self.dt:.3e} exceeds eps/20 = {self.eps / 20:.3e}")
        if self.n_x % self.n_cells:
            raise InvalidInputError(
                f"n_x = {self.n_x} is not a multiple of the {self.n_cells} lattice cells")

    @property
    def dx(self) -> float:
        return self.length / self.n_x

    @property
    def n_cells(self) -> int:
        return int(round(self.length / self.eps))


def reference_bytes(cfg: ReferenceConfig) -> int:
    """Bytes reference_propagate holds at its peak: the field terms (field,
    FFT work, phase tables: 8 complex arrays of n_x points) and five complex
    (R, s, s) arrays, which are the eigenvectors, their phase-scaled and
    conjugate copies and the fiber propagators of two checkpoint segments
    (the last segment's are held while the next segment's are built)."""
    return cfg.n_x * 16 * 8 + 5 * cfg.n_x * (cfg.n_x // cfg.n_cells) * 16


def _segments(cfg: ReferenceConfig, checkpoint_times, u_zero: bool):
    """Checkpoint targets |t| in increasing order, each with its step count:
    the segment length over |dt|, rounded, at least 1; 1 when U is zero."""
    total = abs(cfg.t_final)
    targets = sorted({abs(float(t)) for t in (checkpoint_times or [])} | {total})
    for t in targets:
        if t > total + 1e-12:
            raise InvalidInputError(f"checkpoint {t} beyond t_final")
    plan, t_now = [], 0.0
    for target in targets:
        steps = 0
        if target >= 1e-14:
            steps = 1 if u_zero else max(1, int(round((target - t_now) / abs(cfg.dt))))
            t_now = target
        plan.append((target, steps))
    return plan


def _external_on_grid(cfg: ReferenceConfig) -> np.ndarray:
    return cfg.external.value((cfg.dx * np.arange(cfg.n_x))[:, None])


def reference_steps(cfg: ReferenceConfig, checkpoint_times=None) -> int:
    """Time steps reference_propagate takes for cfg and these checkpoints."""
    u_zero = not np.any(_external_on_grid(cfg))
    return sum(steps for _, steps in _segments(cfg, checkpoint_times, u_zero))


def reference_propagate(psi0: WaveField, cfg: ReferenceConfig,
                        checkpoint_times=None):
    """Bloch-decomposition split-step to cfg.t_final; returns the final WaveField.

    With `checkpoint_times`, returns a dict time -> WaveField instead (the
    final time is always included).  Negative t_final propagates backwards.
    """
    if psi0.dimension != 1:
        raise InvalidInputError("reference solver is one-dimensional only")
    if psi0.n_x != cfg.n_x or abs(psi0.length - cfg.length) > 1e-12 \
            or abs(psi0.eps - cfg.eps) > 1e-15:
        raise GridMismatchError("initial field does not match the reference config")

    eps, n_x, R = cfg.eps, cfg.n_x, cfg.n_cells
    s = n_x // R
    upot = _external_on_grid(cfg)
    sign = 1.0 if cfg.t_final >= 0 else -1.0
    plan = _segments(cfg, checkpoint_times, u_zero=not np.any(upot))

    # fiber r, basis slot j: FFT bin r + j R, i.e. k = j for j < s/2, j - s above
    basis = np.rint(np.fft.fftfreq(s, 1.0 / s)).astype(int)[:, None]
    xi = (2 * np.pi / R * np.arange(R))[:, None]
    energies, vecs = _cell_eigensolve(cfg.lattice, basis, xi, s, s)   # vecs[r, n, j]
    vecs_t = np.swapaxes(vecs, 1, 2)

    psi = psi0.values.copy()
    out = {}
    t_now = 0.0
    for target, n_steps in plan:
        if n_steps == 0:
            out[0.0] = psi0.with_values(psi.copy(), time=0.0)
            continue
        dt = sign * (target - t_now) / n_steps
        prop = np.matmul(vecs_t * np.exp(-1j * energies * (dt / eps))[:, None, :],
                         vecs.conj())                                 # (R, s, s)
        half = np.exp(-1j * upot * dt / (2 * eps))
        for _ in range(n_steps):
            fibers = np.fft.fft(half * psi).reshape(s, R).T[:, :, None]   # (R, s, 1)
            psi = half * np.fft.ifft(np.matmul(prop, fibers)[:, :, 0].T.reshape(n_x))
        t_now = target
        out[sign * t_now] = psi0.with_values(psi.copy(), time=sign * t_now)
    if checkpoint_times is None:
        return out[sign * abs(cfg.t_final)]
    return out
