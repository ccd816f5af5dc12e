"""Time-ordering maps: T, its scalar part t, the generator Sigma, and the
renormalised versions.

T sends a word to the circle product of its letters, so it needs a symmetric
pairing; an asymmetric one is a hard error, never a silent choice of factor
order.  One algorithm gives every quantity.  t is the letter loop
t(e_a v rest) = sum_b mult_b(rest) (a|b) t(rest - e_b), run on packed words
(one int per multiset, letters checked against d first) and on the Gaussian
integers D^k t(x), 2k the grading, from the pairing's integers D (a|b), so it
interns no monomial and reduces no value.  T is the
twist of u by t, sum t(u_(1)) u_(2) (:func:`renorm.twist`), and the
renormalised maps are the same maps on the zeta twist of u:
tbar(u) = t(twist(u, zeta)) and Tbar(u) = T(twist(u, zeta)).  A scheme's
twist walks its table, so they cost what the bare maps cost.  exp Sigma
(the command line's ``expSigma``) equals T and is its oracle, reading no t
route; the other oracles live in :mod:`wickalg.oracles`.
"""

from __future__ import annotations

from .algebra import FIELD, W, Element, Memo, Monomial, _check_letters
from .laplace import PairingMatrix
from .renorm import LinearFunctional, twist, twist_numerators
from .scalars import ZERO, Scalar


class TContext:
    """A symmetric pairing plus an optional renormalisation scheme.

    The letter loop reads the pairing's own integer form, D (a|b) in
    ``pairing.ints`` over D = ``pairing.den``.  The context owns one memo,
    t's, keyed by a word's packed int (``Monomial.word``): for each even
    word x of grading 2k the letter loop reached, it holds D^k t(x) as an int pair.
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
        # Per letter a: e_a and, per b with (a|b) != 0, b's shift, e_b and D (a|b).
        self._rows = [(1 << W * a, [(W * b, 1 << W * b, re, im)
                                    for b, (re, im) in enumerate(row) if re or im])
                      for a, row in enumerate(pairing.ints)]
        self._t_numerators = Memo(self._t_numerator)
        self._t_numerators[0] = (1, 0)

    def require_scheme(self) -> LinearFunctional:
        if self.scheme is None:
            raise ValueError("renormalised time-ordering needs a scheme in the context")
        return self.scheme

    def _t_value(self, m: Monomial) -> Scalar:
        """t(m) as a Scalar, the memo's D^k t(m) over D^k, 2k the grading of m,
        for T's twist, whose caller checked the letters against d."""
        k, odd = divmod(m.grading, 2)
        if odd:
            return ZERO
        re, im = self._t_numerators[m.word]
        return Scalar.from_integers(re, im, self.pairing.den**k)

    def _t_numerator(self, word: int) -> tuple[int, int]:
        """D^k t(x) for the even packed word x = ``word``, 2k its grading, by
        the letter loop t(e_a v rest) = sum_b mult_b(rest) (a|b) t(rest - e_b),
        a the smallest letter, read from x's lowest set bit: D^k t(x) is the
        sum of mult_b(rest) D (a|b) times D^(k-1) t(rest - e_b), so every
        value is an integer multiply-add and none is reduced.

        The words it reaches are collected one grading at a time, from x's
        down, as packed ints, rest - e_b a subtraction, so no Python frame
        nests per letter; then the gradings are filled bottom up.
        """
        memo, rows = self._t_numerators, self._rows
        levels, level = [], [word]
        while level:
            steps, below = [], {}
            for x in level:
                unit, row = rows[((x & -x).bit_length() - 1) // W]
                rest = x - unit
                x_steps = []
                for shift, step, re, im in row:
                    mult = rest >> shift & FIELD
                    if mult:
                        r = rest - step
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
        return memo[word]

    def __repr__(self):
        return f"TContext(pairing={self.pairing!r}, scheme={self.scheme!r})"


def t_map(u: Element, ctx: TContext) -> Element:
    """T(u): each monomial becomes the circle product of its generators.

    Computed as the twist of u by the scalar t, T(u) = sum t(u_(1)) u_(2),
    reading t's memo; its oracles are in :mod:`wickalg.oracles`.
    """
    _check_letters(ctx.pairing.dim, u)
    return twist(u, ctx._t_value)


def _sigma_numerators(terms: dict, ints) -> dict:
    """2D Sigma(m) = sum_{a,b} D (a|b) c_a (c_b - delta_ab) (m - e_a - e_b) on a
    numerator form, D (a|b) from ``ints`` and c_b - delta_ab the field b of m - e_a."""
    out: dict[int, tuple[int, int]] = {}
    for word, (nr, ni) in terms.items():
        for a, row in enumerate(ints):
            ca, rest = word >> W * a & FIELD, word - (1 << W * a)
            for b, (re, im) in enumerate(row):
                k = ca * (rest >> W * b & FIELD)
                if k and (re or im):
                    x = rest - (1 << W * b)
                    pr, pi = out.get(x, (0, 0))
                    out[x] = pr + k * (re * nr - im * ni), pi + k * (re * ni + im * nr)
    return {x: n for x, n in out.items() if n[0] or n[1]}


def sigma_apply(u: Element, ctx: TContext) -> Element:
    """Sigma(u), on u's numerator form; a letter above d is a ``ValueError``."""
    L = ctx.pairing
    _check_letters(L.dim, u)
    terms, den = u.numerators()
    return Element.from_numerators(_sigma_numerators(terms, L.ints), 2 * L.den * den)


def exp_sigma(u: Element, ctx: TContext) -> Element:
    """sum_k Sigma^k(u) / k!, which equals T; Sigma lowers grading by two, so
    grading n has floor(n/2)+1 levels k, each over den (2D)^k k!, summed on
    integers and reduced once."""
    L = ctx.pairing
    _check_letters(L.dim, u)
    terms, den = u.numerators()
    levels = [(terms, den)]
    for k in range(1, max([m.grading for m in u.terms], default=0) // 2 + 1):
        terms = _sigma_numerators(terms, L.ints)
        den *= 2 * L.den * k
        levels.append((terms, den))
    total: dict[int, tuple[int, int]] = {}
    for terms, d in levels:
        for x, (re, im) in terms.items():
            pr, pi = total.get(x, (0, 0))
            total[x] = pr + den // d * re, pi + den // d * im
    return Element.from_numerators(total, den)


def t_scalar(u: Element, ctx: TContext) -> Scalar:
    """The scalar part of time ordering, by the letter loop.

    t(1)=1, t(a)=0 and t(a v rest) contracts a against one letter of rest.
    Vanishes in odd gradings.  The sum of coeff t(m) over the terms m of u
    is :func:`t_sum` on u's numerator form; its oracles are in
    :mod:`wickalg.oracles`.
    """
    _check_letters(ctx.pairing.dim, u)
    return t_sum(*u.numerators(), ctx)


def t_sum(terms: dict, den: int, ctx: TContext, legs: int = 0) -> Scalar:
    """sum coeff t(legs v m) over the terms of a numerator form ``(terms, den)``
    (:meth:`Element.numerators`), the packed word ``legs`` added to each
    word, whose grading stays within ``FIELD`` (:func:`series.green` checks).
    It runs on integers and reduces once: per grading 2k it sums
    num(m) D^k t(legs v m) from t's memo, then weights grading 2k by
    D^(K-k), K the largest k, and divides by den D^K.  A grading is one
    multiply-shift; a letter above d, a field above d's, is a ``ValueError``."""
    memo, dim = ctx._t_numerators, ctx.pairing.dim
    top, ones = W * dim, ((1 << W * dim) - 1) // FIELD
    sums: dict[int, tuple[int, int]] = {}
    for c, (cr, ci) in terms.items():
        word = legs + c
        if word >> top:
            _check_letters(dim, top=(word.bit_length() - 1) // W + 1)
        grading = word * ones >> top - W & FIELD
        if not grading & 1:
            nr, ni = memo[word]
            sr, si = sums.get(grading, (0, 0))
            sums[grading] = sr + cr * nr - ci * ni, si + cr * ni + ci * nr
    D, G = ctx.pairing.den, max(sums, default=0)
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
    _check_letters(ctx.pairing.dim, u)
    return t_sum(*twist_numerators(*u.numerators(), ctx.require_scheme()), ctx)
