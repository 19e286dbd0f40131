import pytest

from rep2ldc.fixtures import dihedral_rep, signed_shift_group


@pytest.fixture(scope="session")
def signed_shift_4_3():
    return signed_shift_group(4, 3)


@pytest.fixture(scope="session")
def signed_shift_4_q():
    return signed_shift_group(4, 0)


@pytest.fixture(scope="session")
def dihedral_5_11():
    return dihedral_rep(5, 11)


@pytest.fixture(scope="session")
def signed_shift_3_3():
    return signed_shift_group(3, 3)
