"""Renormalisation as a group of functionals acting on the product.

A scheme is a unital linear functional vanishing on the generators; schemes
form a commutative group under convolution through the coproduct.  Out of a
scheme we build the symmetric coupling pairing, the modified Laplace pairing,
and the renormalised circle product -- the circle product's Sweedler loop
over the modified pairing, an associative deformation of the symmetric
product with one free parameter per monomial of grading >= 2.

Each pair of a Laplace pairing and a scheme gives one deformed product, so
the functional owns the memos of the pairings built from it: its values per
monomial, the values of its convolution inverse per monomial, the coupling
pairing per monomial pair, and per pairing matrix (keyed by value) a memo
of the modified pairing per monomial pair.  They live as long as the
functional and hold it weakly.  An inverse returned by
:meth:`LinearFunctional.inverse` holds the functional and reads its memo, so
there is no reference cycle.
"""

from __future__ import annotations

from .algebra import Element, Memo, Monomial, monomial_splits, sweedler
from .laplace import PairingMatrix, _sweedler_product
from .scalars import ONE, ZERO, Scalar


class LinearFunctional:
    """A linear functional on the symmetric algebra with zeta(1)=1, zeta(a)=0.

    Values on gradings 0 and 1 are structural; subclasses provide the rest
    through ``_value``.  ``__init__`` declares every memo the functional
    owns (see the module docstring); all are observationally pure.
    """

    def __init__(self):
        self._memo = Memo(self._value)
        self._inverse_values = Memo(self._inverse_value)
        self._coupling = Memo(self._coupling_value)
        self._modified = Memo(self._modified_memo)

    def _value(self, m: Monomial) -> Scalar:
        raise NotImplementedError

    def __call__(self, m: Monomial) -> Scalar:
        if m.grading == 0:
            return ONE
        if m.grading == 1:
            return ZERO
        return self._memo[m]

    def on_element(self, u: Element) -> Scalar:
        total = ZERO
        for m, c in u.items():
            v = self(m)
            if v:
                total = total + c * v
        return total

    def inverse(self) -> "Functional":
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

    def _coupling_value(self, key) -> Scalar:
        m1, m2 = key
        return z_pairing(Element.from_monomial(m1), Element.from_monomial(m2), self)

    def _modified_memo(self, L: PairingMatrix) -> Memo:
        return Memo(self._modified_value, L)

    def _modified_value(self, L: PairingMatrix, key) -> Scalar:
        m1, m2 = key
        return modified_pairing(Element.from_monomial(m1), Element.from_monomial(m2), self, L)


class Scheme(LinearFunctional):
    """A finitely presented functional: stored values on monomials of grading >= 2."""

    def __init__(self, values=None):
        super().__init__()
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
        self.values = table

    def _value(self, m: Monomial) -> Scalar:
        return self.values.get(m, ZERO)

    def __repr__(self):
        return f"Scheme({{{', '.join(f'{m}: {c}' for m, c in self.values.items())}}})"


class Functional(LinearFunctional):
    """A functional defined by an arbitrary monomial rule (grading >= 2)."""

    def __init__(self, rule):
        super().__init__()
        self._rule = rule

    def _value(self, m: Monomial) -> Scalar:
        return self._rule(m)


def convolve(z1: LinearFunctional, z2: LinearFunctional) -> Functional:
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

    return Functional(rule)


def convolution_inverse(z: LinearFunctional) -> Functional:
    """The group inverse, by the reduced-coproduct recursion.  It holds ``z``
    and reads the values from ``z``'s memo (``LinearFunctional._inverse_value``)."""
    return Functional(lambda m: z._inverse_values[m])


def z_pairing(u: Element, v: Element, z: LinearFunctional) -> Scalar:
    """The coupling pairing built from a scheme and its inverse; symmetric."""
    total = ZERO
    v_splits = list(sweedler(v))
    zinv = z._inverse_values
    for u1, u2, cu in sweedler(u):
        a = zinv[u1]
        if not a:
            continue
        for v1, v2, cv in v_splits:
            b = zinv[v1]
            if not b:
                continue
            c = z(u2.vee(v2))
            if c:
                total = total + cu * cv * (a * b * c)
    return total


def modified_pairing(
    u: Element, v: Element, z: LinearFunctional, L: PairingMatrix
) -> Scalar:
    """Coupling pairing convolved with the Laplace pairing."""
    total = ZERO
    v_splits = list(sweedler(v))
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in v_splits:
            if u2.grading != v2.grading:
                continue
            p = L._laplace[u2, v2]
            if not p:
                continue
            zz = z._coupling[u1, v1]
            if zz:
                total = total + cu * cv * (zz * p)
    return total


def circle_renorm(
    u: Element, v: Element, z: LinearFunctional, L: PairingMatrix
) -> Element:
    """The renormalised circle product: modified pairing in place of the bare one."""
    return _sweedler_product(u, v, z._modified[L], False)
