from fractions import Fraction

import pytest

from wickalg import Scalar
from wickalg.scalars import display_negative


def test_construction_and_equality():
    assert Scalar(1) == 1
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar(1, 2) != Scalar(1)
    assert Scalar(0) == 0
    assert not Scalar(0)
    assert Scalar(0, 1)


def test_field_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(Fraction(-2, 5), Fraction(1, 7))
    assert a + b - b == a
    assert (a * b) / b == a
    assert a * (b + 1) == a * b + a
    assert -(-a) == a
    assert 2 * a == a + a
    assert a / a == 1


def test_complex_multiplication():
    i = Scalar(0, 1)
    assert i * i == -1
    assert (Scalar(1) + i) * (Scalar(1) - i) == 2
    assert i.conjugate() == -i


def test_power():
    a = Scalar(Fraction(2, 3), Fraction(1, 5))
    assert a**0 == 1
    assert a**3 == a * a * a
    with pytest.raises(ValueError):
        a ** (-1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", Scalar(3)),
        ("-3", Scalar(-3)),
        ("1/2", Scalar(Fraction(1, 2))),
        ("-1/2", Scalar(Fraction(-1, 2))),
        ("1/2+3/4i", Scalar(Fraction(1, 2), Fraction(3, 4))),
        ("1/2-3/4i", Scalar(Fraction(1, 2), Fraction(-3, 4))),
        ("0+1i", Scalar(0, 1)),
        (" 2 + 1/3 i ", Scalar(2, Fraction(1, 3))),
    ],
)
def test_parse(text, value):
    assert Scalar.parse(text) == value


@pytest.mark.parametrize("text", ["", "i", "1/2i", "1+2", "1+-2i", "x"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        Scalar.parse(text)


def test_str_roundtrip(rng):
    from conftest import rand_scalar

    for _ in range(200):
        s = rand_scalar(rng)
        assert Scalar.parse(str(s)) == s


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0", "1/2+1/0i", "1/0-1/2i"])
def test_parse_rejects_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        Scalar.parse(text)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Scalar(0.1),
        lambda: Scalar(1, 0.5),
        lambda: Scalar("1/2"),
        lambda: Scalar.coerce(0.25),
        lambda: Scalar(1) + 0.5,
        lambda: 0.5 * Scalar(1),
        lambda: Scalar(1) / 2.0,
    ],
)
def test_rejects_floats_and_other_types(build):
    with pytest.raises(TypeError):
        build()


# -- oracle: the same arithmetic on pairs of stdlib Fractions ------------------


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def ref_div(x, y):
    (a, b), (c, d) = x, y
    norm = c * c + d * d
    return ((a * c + b * d) / norm, (b * c - a * d) / norm)


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def oracle_values(rng):
    """Gaussian rationals as Fraction pairs: edge values, small, huge."""
    values = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(-7, 3), Fraction(0)),
        (Fraction(0), Fraction(5, -4)),
    ]
    for _ in range(40):
        top = rng.choice([3, 12, 2**70])
        re = Fraction(rng.randint(-top, top), rng.randint(1, top))
        im = Fraction(0)
        if rng.random() < 0.6:
            im = Fraction(rng.randint(-top, top), rng.randint(1, top))
        values.append((re, im))
    return values


def oracle_pairs(rng):
    """Random pairs, plus pairs whose sum or product cancels to 0 or an integer."""
    values = oracle_values(rng)
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(400)]
    for x in values:
        pairs.append((x, (-x[0], -x[1])))
        pairs.append((x, (3 - x[0], -x[1])))
        pairs.append((x, (x[0], -x[1])))
        if x != (0, 0):
            pairs.append((x, ref_div((Fraction(5), Fraction(0)), x)))
    return pairs


def check_against_oracle(s, expected):
    re, im = expected
    assert (s.re, s.im) == (re, im)
    assert s == Scalar(re, im)
    assert hash(s) == hash(Scalar(re, im))
    assert bool(s) == (re != 0 or im != 0)
    assert s.is_real() == (im == 0)
    assert display_negative(s) == (re < 0 or (re == 0 and im < 0))
    if im == 0:
        assert s == re and re == s
        assert hash(s) == hash(re)
        assert s != re + 1
        if re.denominator == 1:
            assert s == int(re)
            assert hash(s) == hash(int(re))
    else:
        assert s != re
    text = str(s)
    assert Scalar.parse(text) == s
    assert str(Scalar.parse(text)) == text


def test_matches_fraction_pair_oracle(rng):
    for x, y in oracle_pairs(rng):
        a, b = Scalar(*x), Scalar(*y)
        check_against_oracle(a, x)
        check_against_oracle(a + b, ref_add(x, y))
        check_against_oracle(a - b, ref_sub(x, y))
        check_against_oracle(a * b, ref_mul(x, y))
        check_against_oracle(-a, (-x[0], -x[1]))
        check_against_oracle(a.conjugate(), (x[0], -x[1]))
        if y == (0, 0):
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            check_against_oracle(a / b, ref_div(x, y))
        k = rng.randint(0, 4)
        check_against_oracle(a**k, ref_pow(x, k))


def test_mixed_operands_match_oracle(rng):
    for x in oracle_values(rng):
        a = Scalar(*x)
        for q in (Fraction(-3, 7), Fraction(2**65, 3), 4, -1, 0):
            y = (Fraction(q), Fraction(0))
            check_against_oracle(a + q, ref_add(x, y))
            check_against_oracle(q + a, ref_add(y, x))
            check_against_oracle(a - q, ref_sub(x, y))
            check_against_oracle(q - a, ref_sub(y, x))
            check_against_oracle(a * q, ref_mul(x, y))
            check_against_oracle(q * a, ref_mul(y, x))
            if q:
                check_against_oracle(a / q, ref_div(x, y))
            if x != (0, 0):
                check_against_oracle(q / a, ref_div(y, x))


def test_constructor_accepts_scalar_parts():
    a = Scalar(Fraction(1, 2), Fraction(-1, 3))
    b = Scalar(Fraction(2, 5), 7)
    assert Scalar(a) == a
    assert Scalar(a, b) == a + b * Scalar(0, 1)


def test_from_integers_reduces():
    assert Scalar.from_integers(6, -4, 8) == Scalar(Fraction(3, 4), Fraction(-1, 2))
    assert Scalar.from_integers(3, 6, -9) == Scalar(Fraction(-1, 3), Fraction(-2, 3))
    assert Scalar.from_integers(0, 0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        Scalar.from_integers(1, 0, 0)
    with pytest.raises(TypeError):
        Scalar.from_integers(1.5, 0, 1)
