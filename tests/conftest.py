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


def prime_hnf(P):
    """(p, g(theta)) built by the reference HNF, apart from the splitting."""
    p, n = P.under_p, P.field.degree
    return il.ideal_from_generators([P.field.element([p] + [0] * (n - 1)),
                                     nf.element_from_poly(P.field, P.gpoly)])
