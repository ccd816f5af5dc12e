import random
from fractions import Fraction

import pytest

from wickalg import PairingMatrix, Scalar, Scheme
from wickalg.checks import (  # noqa: F401  (re-exported to the tests)
    monomials_upto,
    rand_element,
    rand_monomial,
    rand_pairing,
    rand_scalar,
)


def rational(p, q=1):
    return Scalar(Fraction(p, q))


def rand_scheme(rng, dim, max_grade=4):
    values = {}
    for _ in range(rng.randint(3, 7)):
        m = rand_monomial(rng, dim, max_grade, min_grade=2)
        values[m] = rand_scalar(rng)
    return Scheme(values)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def hilbert4():
    """The shipped symmetric pairing: entries 1/(i+j), d=4."""
    rows = [
        [Scalar(Fraction(1, i + j)) for j in range(1, 5)] for i in range(1, 5)
    ]
    return PairingMatrix(rows, symmetric=True)
