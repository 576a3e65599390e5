import numpy as np
import pytest

from fgabloch.bloch import BrillouinGrid, prepare_band_table
from fgabloch.potentials import PeriodicPotential


@pytest.fixture(scope="session")
def cos_potential():
    return PeriodicPotential.cosine(1)


@pytest.fixture(scope="session")
def cos_table64(cos_potential):
    """V = cos(2 pi x), M = 64, K = 16, 8 bands (the module default sizing)."""
    return prepare_band_table(BrillouinGrid(1, 64), cos_potential, 8, 16)


@pytest.fixture(scope="session")
def cos_table128(cos_potential):
    """Finer Brillouin grid used by transform/dynamics tests (dp <= c_g sqrt(eps))."""
    return prepare_band_table(BrillouinGrid(1, 128), cos_potential, 8, 16)


@pytest.fixture(scope="session")
def free_table128():
    """V = 0: folded free bands; band crossings flagged unusable."""
    return prepare_band_table(BrillouinGrid(1, 128), PeriodicPotential.zero(1), 3, 8)


@pytest.fixture(scope="session")
def berry_lattice_table():
    """2D lattice without inversion symmetry (max |A| about 0.39): M = 32, K = 4, 2 bands."""
    v = PeriodicPotential(dimension=2, coefficients={
        (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5,
        (1, 1): -0.3j, (-1, -1): 0.3j, (2, -1): -0.2j, (-2, 1): 0.2j})
    return prepare_band_table(BrillouinGrid(2, 32), v, 2, 4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
