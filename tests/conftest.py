import random

import pytest

from dendrimag.instances import (
    SummationTridendriform,
    assoc_matrix_dendriform,
    grid_rb,
    matrix_poly_rb,
    poly_rb,
    triangular_rb,
)


@pytest.fixture
def rng():
    return random.Random(20240501)


@pytest.fixture(scope="session")
def tri_rb():
    return triangular_rb()


@pytest.fixture(scope="session")
def grid_strict():
    return grid_rb(strict=True)


@pytest.fixture(scope="session")
def grid_incl():
    return grid_rb(strict=False)


@pytest.fixture(scope="session")
def poly_scalar():
    return poly_rb()


@pytest.fixture(scope="session")
def poly_matrix():
    return matrix_poly_rb()


@pytest.fixture(scope="session")
def assoc_dend():
    return assoc_matrix_dendriform()


@pytest.fixture(scope="session")
def summation_tri():
    return SummationTridendriform()
