import pytest

from hgmorse.molecules import find_molecule, to_potential_params

ALPHA = 0.025


@pytest.fixture(scope="session")
def ch_free():
    """CH with the Hellmann strengths switched off (pure Morse well)."""
    return to_potential_params(find_molecule("CH"), 0.0, 0.0, ALPHA)


@pytest.fixture(scope="session")
def ch_unit():
    """CH with a = b = 1 eV*A."""
    return to_potential_params(find_molecule("CH"), 1.0, 1.0, ALPHA)


@pytest.fixture(scope="session")
def hcl_free():
    return to_potential_params(find_molecule("HCl"), 0.0, 0.0, ALPHA)

