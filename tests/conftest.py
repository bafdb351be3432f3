import warnings

import pytest

from visilat import ideals as il
from visilat import numfield as nf


@pytest.fixture(scope="session")
def rational():
    return nf.make_field("rational")


@pytest.fixture(scope="session")
def gaussian():
    return nf.make_field("quadratic", d=-1)


@pytest.fixture(scope="session")
def eisenstein():
    return nf.make_field("quadratic", d=-3)


@pytest.fixture(scope="session")
def sqrt_m7():
    return nf.make_field("quadratic", d=-7)


@pytest.fixture(scope="session")
def root2():
    return nf.make_field("quadratic", d=2)


@pytest.fixture(scope="session")
def golden():
    return nf.make_field("quadratic", d=5)


@pytest.fixture(scope="session")
def cubic():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nf.make_field("monogenic", minpoly=[-1, -1, 0, 1])


def origin(field, m):
    return il.point(field, [[0] * field.degree for _ in range(m)])
