import tracemalloc

import numpy as np
import pytest

from fgabloch.bloch import BrillouinGrid, evaluate_bloch_wave, prepare_band_table
from fgabloch.errors import GridMismatchError, InvalidInputError, ResolutionError
from fgabloch.exact import gaussian_evolution
from fgabloch.potentials import PeriodicPotential, harmonic_potential, zero_potential
from fgabloch.reference import (ReferenceConfig, reference_bytes, reference_propagate,
                                reference_steps)
from fgabloch.wavefield import WaveField, gaussian_packet, l2_distance


def _packet(eps, L, n_x, q0=1.0, p0=0.5):
    raw, _ = gaussian_packet(1, eps, L, n_x, q0=q0, p0=p0, normalize=False)
    nrm = raw.norm()
    return raw.with_values(raw.values / nrm), nrm


def strang_propagate(psi0: WaveField, cfg: ReferenceConfig) -> WaveField:
    """Independent oracle: Strang-split spectral stepping to cfg.t_final.

    Half a step of V(x/eps) + U(x) in x, the exact kinetic step in Fourier
    space, half a step of the potentials.  It splits the stiff V(x/eps)/eps
    term too, so it needs a far smaller dt than the package's
    Bloch-decomposition reference_propagate.
    """
    eps = cfg.eps
    x = psi0.axis_points()
    vpot = cfg.lattice(x / eps) + cfg.external.value(x[:, None])
    k = 2 * np.pi * np.fft.fftfreq(cfg.n_x, d=cfg.dx)
    n_steps = max(1, int(round(abs(cfg.t_final) / abs(cfg.dt))))
    dt = cfg.t_final / n_steps
    half = np.exp(-1j * vpot * dt / (2 * eps))
    kin = np.exp(-1j * eps * k ** 2 * dt / 2)
    psi = psi0.values.copy()
    for _ in range(n_steps):
        psi = half * np.fft.ifft(kin * np.fft.fft(half * psi))
    return psi0.with_values(psi, time=cfg.t_final)


def test_resolution_guards():
    with pytest.raises(ResolutionError):
        ReferenceConfig(eps=1 / 16, length=1.0, n_x=256, dt=1e-3,
                        lattice=PeriodicPotential.zero(1),
                        external=zero_potential(1), t_final=0.1)   # dx = eps/16
    with pytest.raises(ResolutionError):
        ReferenceConfig(eps=1 / 16, length=1.0, n_x=512, dt=1 / 16 / 10,
                        lattice=PeriodicPotential.zero(1),
                        external=zero_potential(1), t_final=0.1)   # dt = eps/10


def test_grid_mismatch():
    eps, L = 1 / 16, 1.0
    cfg = ReferenceConfig(eps=eps, length=L, n_x=512, dt=eps / 20,
                          lattice=PeriodicPotential.zero(1),
                          external=zero_potential(1), t_final=0.1)
    bad = WaveField(1, eps, L, np.zeros(256, complex), 0.0)
    with pytest.raises(GridMismatchError):
        reference_propagate(bad, cfg)
    with pytest.raises(InvalidInputError):      # 520 points do not split into 16 cells
        ReferenceConfig(eps=eps, length=L, n_x=520, dt=eps / 20,
                        lattice=PeriodicPotential.zero(1),
                        external=zero_potential(1), t_final=0.1)


def test_free_gaussian_matches_closed_form():
    """V = 0, U = 0: dispersed Gaussian against the analytic evolution, at the
    spec's cap resolution (dx = eps/32, dt = eps/20)."""
    eps, L = 1 / 32, 2.0
    n_x = int(L / eps) * 32
    psi0, nrm = _packet(eps, L, n_x)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 20,
                          lattice=PeriodicPotential.zero(1),
                          external=zero_potential(1), t_final=0.5)
    ref = reference_propagate(psi0, cfg)
    exact = gaussian_evolution(psi0, zero_potential(1), 1.0, 0.5, 0.5, amplitude=1 / nrm)
    assert l2_distance(ref, exact)[1] <= 1e-6


def test_harmonic_matches_closed_form():
    # L = 4 keeps the packet tails clear of the harmonic potential's torus kink
    eps, L = 1 / 32, 4.0
    n_x = int(L / eps) * 32
    psi0, nrm = _packet(eps, L, n_x, q0=2.0)
    pot = harmonic_potential(1, k=1.0, center=2.0)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 320,
                          lattice=PeriodicPotential.zero(1), external=pot, t_final=0.5)
    ref = reference_propagate(psi0, cfg)
    exact = gaussian_evolution(psi0, pot, 2.0, 0.5, 0.5, amplitude=1 / nrm)
    assert l2_distance(ref, exact)[1] <= 1e-7


def test_strang_second_order(cos_potential):
    eps, L = 1 / 32, 2.0
    n_x = int(L / eps) * 32
    psi0, _ = _packet(eps, L, n_x)
    pot = harmonic_potential(1, k=1.0, center=1.0)

    def run(div):
        cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / div,
                              lattice=cos_potential, external=pot, t_final=0.25)
        return strang_propagate(psi0, cfg)

    oracle = run(160)
    e1 = l2_distance(run(20), oracle)[0]
    e2 = l2_distance(run(40), oracle)[0]
    assert 4 * 0.75 <= e1 / e2 <= 4 * 1.25


def test_bloch_reference_matches_strang(cos_potential):
    """The Bloch-decomposition reference at eps/640 against the independent
    Strang oracle at eps/2560, harmonic U: for cosine V, and for
    V = sin(2 pi x), the same lattice shifted by a quarter cell, whose
    imaginary Fourier coefficients give complex fiber eigenvectors."""
    eps, L = 1 / 16, 1.0
    n_x = 512
    psi0, _ = _packet(eps, L, n_x, q0=0.5)
    pot = harmonic_potential(1, k=1.0, center=0.5)
    shifted = PeriodicPotential(1, {1: -0.5j, -1: 0.5j})
    for lattice in (cos_potential, shifted):
        def cfg(div):
            return ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / div,
                                   lattice=lattice, external=pot, t_final=0.25)

        err = l2_distance(reference_propagate(psi0, cfg(640)),
                          strang_propagate(psi0, cfg(2560)))[0]
        assert err <= 1e-6


def test_bloch_reference_step_resolves_u(cos_potential):
    """The convergence ladder's reference step, eps/40, resolves U: at its
    finest rung it moves by at most 1/10 of the harmonic rung's FGA error
    (5.4e-5) when the step is divided by 4."""
    eps, L = 1 / 64, 4.0
    n_x = 8192
    psi0, _ = _packet(eps, L, n_x, q0=2.0)
    pot = harmonic_potential(1, k=1.0, center=2.0)

    def run(div):
        cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / div,
                              lattice=cos_potential, external=pot, t_final=0.5)
        return reference_propagate(psi0, cfg)

    assert l2_distance(run(40), run(160))[0] <= 5.4e-6


def test_zero_u_one_step_per_segment(cos_potential):
    """With U = 0 the lattice steps compose exactly: one step per checkpoint
    segment, and ten segments give the one-step result up to rounding."""
    eps, L = 1 / 16, 1.0
    n_x = int(L / eps) * 32
    psi0, _ = _packet(eps, L, n_x, q0=0.5)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 40,
                          lattice=cos_potential, external=zero_potential(1), t_final=0.5)
    marks = [0.05 * i for i in range(1, 11)]
    assert reference_steps(cfg) == 1
    assert reference_steps(cfg, [0.0] + marks) == 10
    one = reference_propagate(psi0, cfg)
    many = reference_propagate(psi0, cfg, checkpoint_times=marks)
    assert np.max(np.abs(many[0.5].values - one.values)) <= 1e-12
    harmonic = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 40,
                               lattice=cos_potential,
                               external=harmonic_potential(1, k=1.0, center=0.5),
                               t_final=0.5)
    assert reference_steps(harmonic) == 320


def test_norm_conservation_and_time_reversal(cos_potential):
    eps, L = 1 / 32, 1.0
    n_x = int(L / eps) * 32
    psi0, _ = _packet(eps, L, n_x, q0=0.5)
    pot = harmonic_potential(1, k=1.0, center=0.5)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 20,
                          lattice=cos_potential, external=pot, t_final=1.0)
    ref = reference_propagate(psi0, cfg)
    assert abs(ref.norm() - 1.0) <= 1e-10
    back_cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 20,
                               lattice=cos_potential, external=pot, t_final=-1.0)
    back = reference_propagate(ref.with_values(ref.values, time=0.0), back_cfg)
    assert l2_distance(back.with_values(back.values, time=0.0), psi0)[0] <= 1e-8


def test_bloch_mode_stationarity(cos_potential):
    """Exact Bloch mode is stationary up to the phase exp(-i E t / eps);
    oracle: the band-engine eigenvalue."""
    eps, L = 1 / 16, 1.0
    table = prepare_band_table(BrillouinGrid(1, 64), cos_potential, 2, 16)
    n_x = int(L / eps) * 32
    R = int(L / eps)
    xi = 2 * np.pi * 2 / R                     # = pi/4, also a Brillouin node
    j = int(round((xi + np.pi) / table.grid.spacing))
    energy = table.energies[j, 0]
    x = np.arange(n_x) * L / n_x
    u = evaluate_bloch_wave(table, 1, [xi], x[:, None] / eps)
    vals = np.exp(1j * xi * x / eps) * u
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * L / n_x)
    psi0 = WaveField(1, eps, L, vals, 0.0)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 5120,
                          lattice=cos_potential, external=zero_potential(1), t_final=1.0)
    ref = reference_propagate(psi0, cfg)
    exact = psi0.values * np.exp(-1j * energy * 1.0 / eps)
    assert np.max(np.abs(ref.values - exact)) <= 1e-6
    assert abs(ref.norm() - 1.0) <= 1e-10


def test_checkpoints_dict():
    eps, L = 1 / 16, 1.0
    n_x = int(L / eps) * 32
    psi0, _ = _packet(eps, L, n_x, q0=0.5)
    cfg = ReferenceConfig(eps=eps, length=L, n_x=n_x, dt=eps / 20,
                          lattice=PeriodicPotential.zero(1),
                          external=zero_potential(1), t_final=0.2)
    out = reference_propagate(psi0, cfg, checkpoint_times=[0.0, 0.1, 0.2])
    assert sorted(out) == [0.0, 0.1, 0.2]
    assert out[0.0].time == 0.0 and out[0.2].time == 0.2


def test_exact_evolution_rejects_unsupported_potential():
    from fgabloch.potentials import cubic_potential
    f = WaveField(1, 1 / 16, 1.0, np.zeros(512, complex), 0.0)
    with pytest.raises(InvalidInputError):
        gaussian_evolution(f, cubic_potential(), 0.5, 0.0, 0.1)


@pytest.mark.parametrize("eps, length, s", [(1 / 64, 4.0, 32), (1 / 8, 1.0, 256)])
def test_reference_bytes_bounds_traced_peak(cos_potential, eps, length, s):
    """reference_bytes, which the memory-limit check uses, bounds the traced
    peak of a two-segment run with U != 0: at configs/convergence.ini's
    finest reference grid, where the field terms count, and with 256 points
    per cell, where the fiber arrays dominate.  It is not loose either."""
    n_x = int(round(length / eps)) * s
    cfg = ReferenceConfig(eps=eps, length=length, n_x=n_x, dt=eps / 40, lattice=cos_potential,
                          external=harmonic_potential(1, 1.0, length / 2), t_final=0.1)
    psi0, _ = _packet(eps, length, n_x, q0=length / 2)
    tracemalloc.start()
    try:
        reference_propagate(psi0, cfg, checkpoint_times=[0.05, 0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 * reference_bytes(cfg) <= peak <= reference_bytes(cfg)
