"""Renormalisation as a group of functionals acting on the product.

A scheme is a unital linear functional vanishing on the generators; schemes
form a commutative group under convolution through the coproduct.  Out of a
scheme, one pairing convolution (P * Q)(u, v) = sum P(u_(1), v_(1))
Q(u_(2), v_(2)) builds the symmetric coupling pairing
Z = (zeta^-1 (x) zeta^-1) * (zeta o vee) and the modified pairing
Z * Laplace.  The renormalised circle product, the circle product's
Sweedler loop over the modified pairing, is an associative deformation of
the symmetric product with one free parameter per monomial of grading >= 2,
and the group acts on it:
Z_{z1*z2} = Z_{z1} * Z_{z2} and (.|.)_{z1*z2} = Z_{z1} * (.|.)_{z2}.

A functional owns the memos of the pairings built from it: its values and
its inverse's per monomial, Z per monomial pair, and per pairing matrix
(keyed by value) a memo of the modified pairing per monomial pair.  They
live as long as the functional and hold it weakly; element-level pairings
and ``circle_renorm`` read them.  An inverse returned by
:meth:`LinearFunctional.inverse` holds the functional and reads its memo, so
there is no reference cycle.

A :class:`Scheme`'s table ``values`` is both its rule and its support: the
scheme vanishes off the unit and the table, so its action on numerator
forms, :func:`twist_numerators`, walks the table instead of a monomial's
splits.  Convolved and inverted functionals have no table and take the
split walk of :func:`twist`.
"""

from __future__ import annotations

from math import comb

from .algebra import FIELD, W, Element, Memo, Monomial, _check_letters, monomial_splits, sweedler
from .laplace import PairingMatrix, _bilinear, _sweedler_product
from .scalars import ONE, ZERO, Scalar, common_denominator


def _convolve(P, Q, left, right) -> Scalar:
    """(P * Q)(m1, m2) = sum P(m1_(1), m2_(1)) Q(m1_(2), m2_(2)) for pairings
    ``P(a, b)``, ``Q(a, b)`` of monomials, over the splits ``left`` of m1 and
    ``right`` of m2.  A caller may leave out splits on which P vanishes.
    P * Q = Q * P (the coproduct is cocommutative); Q is read where P is
    nonzero, so the sparser goes first."""
    total = ZERO
    for a1, a2, wa in left:
        for b1, b2, wb in right:
            p = P(a1, b1)
            if not p:
                continue
            q = Q(a2, b2)
            if q:
                total = total + wa * wb * (p * q)
    return total


class LinearFunctional:
    """A linear functional on the symmetric algebra with zeta(1)=1, zeta(a)=0.

    Values on gradings 0 and 1 are structural; ``rule(m)`` gives the rest.
    ``__init__`` declares every memo the functional owns (see the module
    docstring); all are observationally pure.
    """

    def __init__(self, rule):
        self._memo = Memo(rule)
        self._inverse_values = Memo(self._inverse_value)
        self._coupling = Memo(self._coupling_value)
        self._modified = Memo(self._modified_memo)

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

    def _coupling_value(self, key) -> Scalar:
        """Z = (z^-1 (x) z^-1) * (z o vee), over the splits where z^-1 does
        not vanish on either first factor."""
        inv = self._inverse_values
        m1, m2 = key
        left = [s for s in monomial_splits(m1) if inv[s[0]]]
        right = [s for s in monomial_splits(m2) if inv[s[0]]]
        return _convolve(lambda a, b: inv[a] * inv[b],
                         lambda a, b: self(a.vee(b)), left, right)

    def _modified_memo(self, L: PairingMatrix) -> Memo:
        return Memo(self._modified_value, L)

    def _modified_value(self, L: PairingMatrix, key) -> Scalar:
        """Z * Laplace, read as Laplace * Z: Laplace vanishes across gradings."""
        laplace, coupling = L._laplace, self._coupling
        m1, m2 = key
        return _convolve(lambda a, b: a.grading == b.grading and laplace[a, b],
                         lambda a, b: coupling[a, b],
                         monomial_splits(m1), monomial_splits(m2))


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
    for u1, u2, coeff in sweedler(u):
        x = f(u1)
        if x:
            out[u2] = out.get(u2, ZERO) + coeff * x
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
    """The coupling pairing built from a scheme and its inverse; symmetric."""
    return _bilinear(u, v, z._coupling, False)


def modified_pairing(
    u: Element, v: Element, z: LinearFunctional, L: PairingMatrix
) -> Scalar:
    """Coupling pairing convolved with the Laplace pairing."""
    return _bilinear(u, v, z._modified[L], False)


def circle_renorm(
    u: Element, v: Element, z: LinearFunctional, L: PairingMatrix
) -> Element:
    """The renormalised circle product: modified pairing in place of the bare
    one; a letter outside 1..d is a ``ValueError``."""
    _check_letters(L.dim, u, v)
    return _sweedler_product(u, v, z._modified[L], False)
