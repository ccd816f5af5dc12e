"""Exact Gaussian-rational scalars.

Every coefficient in the engine is a complex number with rational real and
imaginary parts.  A :class:`Scalar` stores it as one reduced integer triple
``(re_num, im_num, den)``, the value ``(re_num + im_num*i) / den``, under
three invariants:

* ``den > 0``;
* ``gcd(re_num, im_num, den) == 1``;
* zero is ``(0, 0, 1)``.

The form is canonical, so two scalars are equal exactly when their triples
are.  Arithmetic runs on Python ints and normalises once per operation with
a three-way gcd.  All of it is exact; floats are refused at the door, so
identity checks can demand structural equality.  No other module reads the
triple: they use ``.re``/``.im`` (as ``Fraction``), the operators,
:meth:`Scalar.from_integers` and :func:`common_denominator`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_SCALAR_RE = re.compile(
    r"""^\s*(?P<re>(-?\d+)(?:/(\d+))?)\s*
         (?:([+-])\s*(?P<im>(\d+)(?:/(\d+))?)\s*i)?\s*$""",
    re.VERBOSE,
)


def _triple(value) -> tuple[int, int, int]:
    """The reduced triple of an int, Fraction or Scalar; else ``TypeError``."""
    if isinstance(value, Scalar):
        return value._re, value._im, value._den
    if isinstance(value, int):
        return int(value), 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    raise TypeError(f"cannot interpret {value!r} as a Scalar")


_new = object.__new__


def _raw(a: int, b: int, d: int) -> "Scalar":
    """A Scalar from a triple that already satisfies the invariants."""
    s = _new(Scalar)
    s._re = a
    s._im = b
    s._den = d
    return s


def _reduced(a: int, b: int, d: int) -> "Scalar":
    """A Scalar from any triple with ``d > 0``."""
    g = gcd(a, b, d)
    s = _new(Scalar)
    if g == 1:
        s._re = a
        s._im = b
        s._den = d
    else:
        s._re = a // g
        s._im = b // g
        s._den = d // g
    return s


class Scalar:
    """A Gaussian rational ``(re_num + im_num*i) / den`` in reduced form.

    Immutable and hashable.  Mixed arithmetic with int and Fraction is
    supported on either side; any other operand (a float included) is a
    ``TypeError``.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        a, b, d = _triple(re)
        c, e, f = _triple(im)
        # (a + b i)/d + i (c + e i)/f over the denominator d*f.
        a, b, d = a * f - e * d, b * f + c * d, d * f
        g = gcd(a, b, d)
        self._re, self._im, self._den = a // g, b // g, d // g

    @classmethod
    def from_integers(cls, re_num: int, im_num: int, den: int) -> "Scalar":
        """The scalar ``(re_num + im_num*i) / den`` for ints with ``den != 0``.

        A non-int argument is a ``TypeError`` (from ``math.gcd``).
        """
        if den == 0:
            raise ZeroDivisionError("Scalar with zero denominator")
        if den < 0:
            re_num, im_num, den = -re_num, -im_num, -den
        return _reduced(re_num, im_num, den)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return _raw(*_triple(value))

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse ``p/q`` or ``p/q+r/s i`` (also ``-``); whitespace is ignored.

        A malformed literal or a zero denominator is a ``ValueError``.
        """
        m = _SCALAR_RE.match(text)
        if m is None:
            raise ValueError(f"malformed scalar literal: {text!r}")
        _, a, ad, sign, _, b, bd = m.groups()
        ad = int(ad) if ad else 1
        bd = int(bd) if bd else 1
        if not (ad and bd):
            raise ValueError(f"zero denominator in scalar literal part {m['im' if ad else 're']!r}")
        if b is None:
            return _reduced(int(a), 0, ad)
        b = -int(b) if sign == "-" else int(b)
        return _reduced(int(a) * bd, b * ad, ad * bd)

    # -- parts --------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        d = self._den
        if d == other._den:
            if d == 1:
                return _raw(self._re + other._re, self._im + other._im, 1)
            return _reduced(self._re + other._re, self._im + other._im, d)
        e = other._den
        return _reduced(self._re * e + other._re * d,
                        self._im * e + other._im * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        d = self._den
        if d == other._den:
            if d == 1:
                return _raw(self._re - other._re, self._im - other._im, 1)
            return _reduced(self._re - other._re, self._im - other._im, d)
        e = other._den
        return _reduced(self._re * e - other._re * d,
                        self._im * e - other._im * d, d * e)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        if type(other) is Scalar:
            c, e, d = other._re, other._im, other._den
        elif type(other) is int:
            if other == 1:
                return self
            d = self._den
            if d == 1:
                return _raw(self._re * other, self._im * other, 1)
            return _reduced(self._re * other, self._im * other, d)
        elif isinstance(other, (int, Fraction)):
            c, e, d = _triple(other)
        else:
            return NotImplemented
        a, b = self._re, self._im
        d *= self._den
        if d == 1:
            return _raw(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        c, e = other._re, other._im
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        a, b, f = self._re, self._im, other._den
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                        self._den * norm)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __neg__(self):
        return _raw(-self._re, -self._im, self._den)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers must be non-negative integers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return _raw(self._re, -self._im, self._den)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (self._re == other._re and self._im == other._im
                    and self._den == other._den)
        if isinstance(other, int):
            return self._im == 0 and self._den == 1 and self._re == other
        if isinstance(other, Fraction):
            return (self._im == 0 and self._den == other.denominator
                    and self._re == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self._im == 0:
            if self._den == 1:
                return hash(self._re)
            return hash(Fraction(self._re, self._den))
        return hash((self._re, self._im, self._den))

    def __bool__(self):
        return self._re != 0 or self._im != 0

    def is_real(self) -> bool:
        return self._im == 0

    def __str__(self):
        if self._im == 0:
            return str(self.re)
        sign = "+" if self._im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def display_negative(c: Scalar) -> bool:
    """True when ``c`` should render as a subtracted term (leading minus)."""
    return c._re < 0 or (c._re == 0 and c._im < 0)


def common_denominator(matrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """Bring a matrix of scalars to one denominator.

    Returns ``(D, rows)`` with ``D > 0`` the least common denominator and
    ``rows[i][j] = (re, im)`` Gaussian integers such that
    ``matrix[i][j] == (re + im*i) / D``.  Entries may be int, Fraction or
    Scalar.
    """
    triples = [[_triple(x) for x in row] for row in matrix]
    D = lcm(*(d for row in triples for _, _, d in row))
    return D, [[(a * (D // d), b * (D // d)) for a, b, d in row]
               for row in triples]

