"""Frozen Gaussian propagation of semiclassical wave packets on Bloch bands.

The package splits into:

* bloch       — plane-wave band solver, gauge fixing, dispersion interpolants
* transform   — windowed Bloch transform, band operators, Parseval checks
* dynamics    — phase-space trajectory ensembles (Q, P, F, S, phi, b; a0 from det Z)
* synthesis   — wave-field assembly from propagated trajectories
* reference   — split-step spectral reference solver (1D)
* exact       — closed-form Gaussian evolution for quadratic Hamiltonians
* config/pipeline/cli — configuration-driven experiment harness
"""

from .bloch import (BandTable, BrillouinGrid, DispersionModel,
                    assemble_bloch_hamiltonian, band_isolation_check,
                    berry_connection, dispersion_model, evaluate_bloch_wave,
                    fix_gauge, grad_energy, prepare_band_table,
                    solve_bands)
from .config import RunConfig, RunReport
from .dynamics import EnsembleResult, HamiltonianModel, integrate_ensemble, z_matrix
from .exact import gaussian_evolution
from .potentials import (ExternalPotential, PeriodicPotential, cosine_potential,
                         cubic_potential, harmonic_potential, linear_potential,
                         parse_external, quartic_potential, zero_potential)
from .reference import ReferenceConfig, reference_propagate
from .synthesis import SynthesisPlan, initial_snapshot, synthesize
from .transform import (PhaseSpaceGrid, SeedSet, WindowedCoefficients,
                        band_projection, bloch_transform, gaussian_eval,
                        parseval_check, phase_grid_for_field, reconstruct,
                        windowed_bloch_transform)
from .wavefield import WaveField, gaussian_packet, l2_distance

__version__ = "0.1.0"
