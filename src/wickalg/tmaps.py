"""Time-ordering maps: T, its scalar part t, the generator Sigma, and the
renormalised versions.

T sends a word to the circle product of its letters, so it needs a symmetric
pairing; an asymmetric one is a hard error, never a silent choice of factor
order.  One algorithm gives every quantity.  t is the letter loop
t(e_a v rest) = sum_b mult_b(rest) (a|b) t(rest - e_b), run on counts tuples
and on the Gaussian integers D^k t(x), D the pairing's common denominator
and 2k the grading, so it interns no monomial and reduces no value.  T is
the twist of u by t, sum t(u_(1)) u_(2) (:func:`renorm.twist`), and the
renormalised maps are the same maps on the zeta twist of u:
tbar(u) = t(twist(u, zeta)) and Tbar(u) = T(twist(u, zeta)).  A scheme's
twist walks its table, so they cost what the bare maps cost.  exp Sigma
(the command line's ``expSigma``) equals T; the other oracles live in
:mod:`wickalg.oracles`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, Memo, Monomial, _vee_counts, derivation
from .laplace import PairingMatrix
from .renorm import LinearFunctional, twist, twist_numerators
from .scalars import ZERO, Scalar, common_denominator


class TContext:
    """A symmetric pairing plus an optional renormalisation scheme.

    The context takes the pairing over its common denominator D once, as
    the Gaussian integers D (a|b) on which the letter loop runs, and owns
    one memo, t's, keyed by a word's counts tuple: for each even word x of
    grading 2k the letter loop reached, it holds D^k t(x) as an int pair.
    T, Tbar, tbar and green read it and keep no memo of their own.  It lives
    as long as the context, so build one context per pairing and scheme and
    pass it around.
    """

    def __init__(self, pairing: PairingMatrix, scheme: LinearFunctional | None = None):
        if not pairing.symmetric:
            raise ValueError(
                "time-ordering requires a symmetric pairing: the circle product must be "
                "commutative for products of more than two factors to be order independent")
        self.pairing = pairing
        self.scheme = scheme
        self._den, self._table = common_denominator(pairing.rows)
        self._t_numerators = Memo(self._t_numerator)
        self._t_numerators[()] = (1, 0)

    def require_scheme(self) -> LinearFunctional:
        if self.scheme is None:
            raise ValueError("renormalised time-ordering needs a scheme in the context")
        return self.scheme

    def _letter_error(self, letter: int) -> ValueError:
        return ValueError(f"generator index out of range: {letter} with d={self.pairing.dim}")

    def _t_value(self, m: Monomial) -> Scalar:
        """t(m) as a Scalar, the memo's D^k t(m) over D^k, 2k the grading of m,
        for T's twist; a letter outside 1..d is a ``ValueError``, as in :func:`t_sum`."""
        if m.counts and m.counts[-1][0] > self.pairing.dim:
            raise self._letter_error(m.counts[-1][0])
        k, odd = divmod(m.grading, 2)
        if odd:
            return ZERO
        re, im = self._t_numerators[m.counts]
        return Scalar.from_integers(re, im, self._den**k)

    def _t_numerator(self, counts: tuple) -> tuple[int, int]:
        """D^k t(x) for the even word x with counts ``counts``, 2k its grading,
        by the letter loop t(e_a v rest) = sum_b mult_b(rest) (a|b) t(rest - e_b),
        a the smallest letter: D^k t(x) is the sum of mult_b(rest) D (a|b)
        times D^(k-1) t(rest - e_b), so every value is an integer multiply-add
        and none is reduced.

        The words it reaches are collected one grading at a time, from x's
        down, as counts tuples (no monomial is interned), so no Python frame
        nests per letter; then the gradings are filled bottom up.
        """
        memo, table = self._t_numerators, self._table
        levels, level = [], [counts]
        while level:
            steps, below = [], {}
            for x in level:
                a, c = x[0]
                rest = ((a, c - 1),) + x[1:] if c > 1 else x[1:]
                row = table[a - 1]
                # rest - e_b for each letter b of rest with (a|b) != 0, weighted
                # by mult_b(rest) D (a|b); rest is canonical, so these are too.
                x_steps = []
                for j, (b, mult) in enumerate(rest):
                    re, im = row[b - 1]
                    if re or im:
                        kept = ((b, mult - 1),) if mult > 1 else ()
                        r = rest[:j] + kept + rest[j + 1:]
                        x_steps.append((mult * re, mult * im, r))
                        if r not in memo:
                            below[r] = None
                steps.append(x_steps)
            levels.append((level, steps))
            level = list(below)
        for level, steps in reversed(levels):
            for x, x_steps in zip(level, steps):
                re = im = 0
                for wr, wi, r in x_steps:
                    cr, ci = memo[r]
                    re += wr * cr - wi * ci
                    im += wr * ci + wi * cr
                memo[x] = re, im
        return memo[counts]

    def __repr__(self):
        return f"TContext(pairing={self.pairing!r}, scheme={self.scheme!r})"


def t_map(u: Element, ctx: TContext) -> Element:
    """T(u): each monomial becomes the circle product of its generators.

    Computed as the twist of u by the scalar t, T(u) = sum t(u_(1)) u_(2),
    reading t's memo; its oracles are in :mod:`wickalg.oracles`.
    """
    return twist(u, ctx._t_value)


def sigma_apply(u: Element, ctx: TContext) -> Element:
    """The contraction Laplacian: half the pairing-weighted double derivation."""
    L = ctx.pairing
    out = Element.zero()
    for i in range(1, L.dim + 1):
        du = derivation(i, u)
        if not du:
            continue
        for j in range(1, L.dim + 1):
            f = L.entry(i, j)
            if not f:
                continue
            ddu = derivation(j, du)
            if ddu:
                out = out + f * ddu
    return Scalar(Fraction(1, 2)) * out


def exp_sigma(u: Element, ctx: TContext) -> Element:
    """The exponential series of Sigma, which equals T.

    Sigma lowers grading by two, so the series terminates after at most
    floor(n/2)+1 terms on grading n.
    """
    total = u
    term = u
    k = 1
    while term:
        term = sigma_apply(term, ctx) / k
        total = total + term
        k += 1
    return total


def t_scalar(u: Element, ctx: TContext) -> Scalar:
    """The scalar part of time ordering, by the letter loop.

    t(1)=1, t(a)=0 and t(a v rest) contracts a against one letter of rest.
    Vanishes in odd gradings.  The sum of coeff t(m) over the terms m of u
    is :func:`t_sum` on u's numerator form; its oracles are in
    :mod:`wickalg.oracles`.
    """
    return t_sum(*u.numerators(), ctx)


def t_sum(terms: dict, den: int, ctx: TContext, legs: tuple = ()) -> Scalar:
    """sum coeff t(legs v m) over the terms of a numerator form ``(terms, den)``
    (:meth:`Element.numerators`), the counts tuple ``legs`` merged into each
    word.  It runs on integers and reduces once: per grading 2k it sums
    num(m) D^k t(legs v m) from t's memo, then weights grading 2k by
    D^(K-k), K the largest k, and divides by den D^K.  A letter outside
    1..d is a ``ValueError``, odd words included."""
    memo, dim = ctx._t_numerators, ctx.pairing.dim
    sums: dict[int, tuple[int, int]] = {}
    for c, (cr, ci) in terms.items():
        word = _vee_counts(legs, c) if legs else c
        if word and word[-1][0] > dim:
            raise ctx._letter_error(word[-1][0])
        grading = 0
        for _, mult in word:
            grading += mult
        if not grading & 1:
            nr, ni = memo[word]
            sr, si = sums.get(grading, (0, 0))
            sums[grading] = sr + cr * nr - ci * ni, si + cr * ni + ci * nr
    D, G = ctx._den, max(sums, default=0)
    re = im = 0
    for g, (sr, si) in sums.items():
        w = D ** ((G - g) >> 1)
        re, im = re + w * sr, im + w * si
    return Scalar.from_integers(re, im, den * D ** (G >> 1))


def tbar_map(u: Element, ctx: TContext) -> Element:
    """Renormalised T: multiplicative from the symmetric product to the
    renormalised circle product.

    Computed as T of the zeta twist, Tbar(u) = T(sum zeta(u_(1)) u_(2)), so
    it reads t's memo and keeps none of its own; its oracle is in
    :mod:`wickalg.oracles`.
    """
    return t_map(twist(u, ctx.require_scheme()), ctx)


def tbar_scalar(u: Element, ctx: TContext) -> Scalar:
    """Scalar part of the renormalised time ordering: t of the zeta twist,
    tbar(m) = sum w zeta(m_(1)) t(m_(2)); it reads t's memo and keeps none of
    its own.  For a :class:`Scheme` only the table's entries s <= m are
    summed, on numerator forms (:func:`renorm.twist_numerators`), so tbar
    costs what t costs and interns nothing.  Its oracle is in
    :mod:`wickalg.oracles`."""
    return t_sum(*twist_numerators(*u.numerators(), ctx.require_scheme()), ctx)
