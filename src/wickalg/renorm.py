"""Renormalisation as a group of functionals acting on the product.

A scheme is a unital linear functional vanishing on the generators; schemes
form a commutative group under convolution through the coproduct, and the
group acts on the product: by the coproduct lemma, twist(., zeta) maps o to
o_zeta for any pairing, so :func:`circle_renorm` is the conjugate
twist(twist(u, zeta^-1) o twist(v, zeta^-1), zeta), an associative
deformation of the symmetric product with one free parameter per monomial of
grading >= 2.  It acts on the pairings too.  Since Delta twist(u, f) =
(twist(., f) (x) id) Delta u and eps o twist(., zeta) = zeta, the pairing
convolutions Z = (zeta^-1 (x) zeta^-1) * (zeta o vee) and Z * Laplace, with
(P * Q)(u, v) = sum P(u_(1), v_(1)) Q(u_(2), v_(2)), are the counits
zeta(twist(u, zeta^-1) v twist(v, zeta^-1)) (:func:`z_pairing`) and
zeta(twist(u, zeta^-1) o twist(v, zeta^-1)) = eps(u ro v)
(:func:`modified_pairing`); the convolutions are an oracle.

A functional owns two memos, its values and its inverse's per monomial;
they live as long as the functional and hold it weakly, and the conjugates
read the inverse's.  An inverse from :meth:`LinearFunctional.inverse` holds
the functional and reads its memo, so there is no reference cycle.

A :class:`Scheme`'s table ``values`` is both its rule and its support: the
scheme vanishes off the unit and the table, so its action on numerator
forms, :func:`twist_numerators`, walks the table instead of a monomial's
splits.  Convolved and inverted functionals have no table and take the
split walk of :func:`twist`.
"""

from __future__ import annotations

from math import comb

from .algebra import FIELD, W, Element, Memo, Monomial, monomial_splits
from .laplace import PairingMatrix, circle
from .scalars import ONE, ZERO, Scalar, common_denominator


class LinearFunctional:
    """A linear functional on the symmetric algebra with zeta(1)=1, zeta(a)=0.

    Values on gradings 0 and 1 are structural; ``rule(m)`` gives the rest.
    ``__init__`` declares its two memos, its values and its inverse's (see
    the module docstring); both are observationally pure.
    """

    def __init__(self, rule):
        self._memo = Memo(rule)
        self._inverse_values = Memo(self._inverse_value)

    def __call__(self, m: Monomial) -> Scalar:
        if m.grading == 0:
            return ONE
        if m.grading == 1:
            return ZERO
        return self._memo[m]

    def inverse(self) -> "LinearFunctional":
        """Convolution inverse; its values are memoised in this functional."""
        return convolution_inverse(self)

    def _inverse_value(self, m: Monomial) -> Scalar:
        """inv(1)=1 and inv(u) = -z(u) - sum' z(u_(1)) inv(u_(2)), where the
        primed sum drops the two trivial splits."""
        if m.grading == 0:
            return ONE
        total = -self(m)
        for left, right, weight in monomial_splits(m):
            if left.grading == 0 or right.grading == 0:
                continue
            a = self(left)
            if not a:
                continue
            b = self._inverse_values[right]
            if b:
                total = total - weight * (a * b)
        return total


class Scheme(LinearFunctional):
    """A finitely presented functional: stored values on monomials of grading >= 2.

    ``values`` is the table its rule reads and, with the unit, the support
    that its twist walks (:func:`twist_numerators`), which reads the table over
    its common denominator Z, taken once here: per entry s, its packed word,
    its fields and Z zeta(s)."""

    def __init__(self, values=None):
        table: dict[Monomial, Scalar] = {}
        if values:
            for mono, coeff in values.items():
                if mono.grading < 2:
                    raise ValueError(
                        f"scheme values start at grading 2; got {mono} "
                        f"(unit and generator values are structural)"
                    )
                coeff = Scalar.coerce(coeff)
                if coeff:
                    table[mono] = coeff
        super().__init__(lambda m: table.get(m, ZERO))
        self.values = table
        self._den, (nums,) = common_denominator([list(table.values())])
        self._numerators = [(s.word, [(W * (i - 1), k) for i, k in s.counts], re, im)
                            for s, (re, im) in zip(table, nums)]

    def __repr__(self):
        return f"Scheme({{{', '.join(f'{m}: {c}' for m, c in self.values.items())}}})"


def twist(u: Element, f) -> Element:
    """The action sum f(u_(1)) u_(2) of ``f``, a scalar function on monomials:
    T(u) = twist(u, t), Tbar(u) = T(twist(u, zeta)), tbar(u) = t(twist(u, zeta)).

    A :class:`Scheme`'s twist is :func:`twist_numerators` on u's numerator
    form, which reads no split list.  Every other ``f`` takes the split walk,
    the oracle for a scheme's."""
    if isinstance(f, Scheme):
        return Element.from_numerators(*twist_numerators(*u.numerators(), f))
    out: dict[Monomial, Scalar] = {}
    for mono, coeff in u.items():
        for u1, u2, weight in monomial_splits(mono):
            x = f(u1)
            if x:
                out[u2] = out.get(u2, ZERO) + coeff * (weight * x)
    return Element(out)


def twist_numerators(terms: dict, den: int, f) -> tuple[dict, int]:
    """The twist of u by ``f``, from u's numerator form (:meth:`Element.numerators`)
    to the twist's.  A :class:`Scheme` vanishes off the unit and its table,
    so its twist walks the table, over den Z: the unit keeps each packed word
    c, times Z, and each entry s <= c (field by field) adds
    Z zeta(s) prod C(c_j, s_j) times c's numerator to c - s; nothing is
    interned or reduced.  Any other ``f`` takes :func:`twist`'s split walk
    on the element."""
    if not isinstance(f, Scheme):
        return twist(Element.from_numerators(terms, den), f).numerators()
    Z, table = f._den, f._numerators
    out = {c: (Z * re, Z * im) for c, (re, im) in terms.items()}
    for c, (re, im) in terms.items():
        for s, fields, zr, zi in table:
            weight = 1
            for shift, k in fields:
                n = c >> shift & FIELD
                if n < k:
                    break
                weight *= comb(n, k)
            else:
                wr, wi = weight * (re * zr - im * zi), weight * (re * zi + im * zr)
                prior = out.get(c - s)
                out[c - s] = (wr, wi) if prior is None else (prior[0] + wr, prior[1] + wi)
    return out, den * Z


def convolve(z1: LinearFunctional, z2: LinearFunctional) -> LinearFunctional:
    """(z1 * z2)(u) = sum z1(u_(1)) z2(u_(2)); associative and commutative."""

    def rule(m: Monomial) -> Scalar:
        total = ZERO
        for left, right, weight in monomial_splits(m):
            a = z1(left)
            if not a:
                continue
            b = z2(right)
            if b:
                total = total + weight * (a * b)
        return total

    return LinearFunctional(rule)


def convolution_inverse(z: LinearFunctional) -> LinearFunctional:
    """The group inverse, by the reduced-coproduct recursion.  It holds ``z``
    and reads the values from ``z``'s memo (``LinearFunctional._inverse_value``)."""
    return LinearFunctional(lambda m: z._inverse_values[m])


def z_pairing(u: Element, v: Element, z: LinearFunctional) -> Scalar:
    """The coupling pairing z(twist(u, z^-1) v twist(v, z^-1)), z^-1 read from
    z's inverse memo; symmetric."""
    inv = z._inverse_values.__getitem__
    a, b = twist(u, inv), twist(v, inv)
    return sum((c1 * c2 * x for m1, c1 in a.items() for m2, c2 in b.items()
                if (x := z(m1.vee(m2)))), ZERO)


def modified_pairing(
    u: Element, v: Element, z: LinearFunctional, L: PairingMatrix
) -> Scalar:
    """The modified pairing z(twist(u, z^-1) o twist(v, z^-1)) = eps(u ro v);
    a letter outside 1..d is a ``ValueError``."""
    inv = z._inverse_values.__getitem__
    w = circle(twist(u, inv), twist(v, inv), L)
    return sum((c * x for m, c in w.items() if (x := z(m))), ZERO)


def circle_renorm(
    u: Element, v: Element, z: LinearFunctional, L: PairingMatrix
) -> Element:
    """The renormalised circle product twist(twist(u, z^-1) o twist(v, z^-1), z);
    a letter outside 1..d is a ``ValueError``."""
    inv = z._inverse_values.__getitem__
    return twist(circle(twist(u, inv), twist(v, inv), L), z)
