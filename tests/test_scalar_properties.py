"""Property tests of the scalar field laws and the literal round trip.

Needs hypothesis; the module is skipped without it.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from wickalg import Scalar  # noqa: E402
from wickalg.scalars import common_denominator  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)

ints = st.sampled_from([0, 1, -1, 2**100, -(2**100)]) | st.integers(-(2**90), 2**90)
rationals = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70))
scalars = st.builds(Scalar, rationals, rationals | st.just(Fraction(0)))
nonzero = scalars.filter(bool)


@SETTINGS
@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a * 0 == 0
    assert a + (-a) == 0
    assert a - b == a + (-b)


@SETTINGS
@given(scalars, nonzero)
def test_division_inverts_multiplication(a, b):
    assert (a * b) / b == a
    assert (a / b) * b == a
    assert b / b == 1
    assert 1 / (1 / b) == b


@SETTINGS
@given(scalars, scalars)
def test_conjugation_is_a_field_automorphism(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * a.conjugate()).im == 0


@SETTINGS
@given(scalars, st.integers(min_value=0, max_value=6))
def test_power_is_repeated_product(a, k):
    out = Scalar(1)
    for _ in range(k):
        out = out * a
    assert a**k == out


@SETTINGS
@given(rationals)
def test_real_scalars_compare_and_hash_as_their_fraction(q):
    s = Scalar(q)
    assert s == q and hash(s) == hash(q)
    assert (s.re, s.im) == (q, 0)


@SETTINGS
@given(scalars)
def test_parse_print_fixed_point(a):
    text = str(a)
    assert Scalar.parse(text) == a
    assert str(Scalar.parse(text)) == text


@SETTINGS
@given(scalars, ints)
def test_int_operands_multiply_as_scalars(s, k):
    for product in (s * k, k * s):
        assert product == s * Scalar(k) == s * Fraction(k)
        den, [[(re, im)]] = common_denominator([[product]])
        assert product == Scalar.from_integers(re, im, den)  # reduced triple
    assert s * True == s and s * False == 0
