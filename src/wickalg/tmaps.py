"""Time-ordering maps: T, its scalar part, the generator Sigma, and the
renormalised versions.

T sends a basis word to the circle product of its letters, so it is only well
defined when the circle product is commutative, i.e. when the pairing's
entries are symmetric; asymmetric pairings are a hard error here, never a
silent choice of factor order.  Every time-ordering quantity comes from the
scalar t and the twist sum f(u_(1)) u_(2) (:func:`renorm.twist`).  t is the
letter loop t(e_a v rest) = sum_b mult_b(rest) (a|b) t(rest - e_b), run on
counts tuples and on the Gaussian integers D^k t(x), D the pairing's common
denominator and 2k the grading, so it interns no monomial and reduces no
value; :func:`t_sum` sums a numerator form's terms and reduces once.  Its
oracles are the matching sum :func:`t_closed_form` and Kan's moment formula
:func:`t_by_moments`, polynomial in the grading; T is the twist of u by t;
and the renormalised maps are the same maps on the zeta twist of u:
tbar(u) = t(twist(u, zeta)) and Tbar(u) = T(twist(u, zeta)).  A scheme's
twist walks the scheme's table, not the coproduct, and tbar twists and sums
numerator forms (:func:`renorm.twist_numerators`), so the renormalised maps
cost what the bare ones cost.  The circle fold, :func:`exp_sigma` and
:func:`laplace.wick_expand` are oracles for T, the renormalised circle fold
(:func:`tbar_map_by_circle_fold`) for Tbar and the modified-pairing
recursion for tbar.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from .algebra import Element, Memo, Monomial, _vee_counts, derivation, monomial_splits
from .laplace import PairingMatrix, _gaussian_power, circle_fold
from .renorm import LinearFunctional, circle_renorm, twist, twist_numerators
from .scalars import ONE, ZERO, Scalar, common_denominator


class TContext:
    """A symmetric pairing plus an optional renormalisation scheme.

    Time-ordered maps need the circle product to be commutative, which holds
    exactly when the pairing matrix is symmetric.  The context takes the
    pairing over its common denominator D once, as the Gaussian integers
    D (a|b) on which the letter loop runs, and owns one memo, t's, keyed by
    a word's counts tuple: for each even word x of grading 2k the letter
    loop reached, it holds the Gaussian integer D^k t(x) as an int pair.
    T, Tbar, tbar and green keep no memo of their own; they read t's.  It
    lives as long as the context, so build one context per pairing and
    scheme and pass it around.
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

    def _t_value(self, m: Monomial) -> Scalar:
        """t(m) as a Scalar, the memo's D^k t(m) over D^k, 2k the grading of m,
        for T's twist; a letter outside 1..d is a ``ValueError``, as in :func:`t_sum`."""
        if m.counts and m.counts[-1][0] > self.pairing.dim:
            raise ValueError(
                f"generator index out of range: {m.counts[-1][0]} with d={self.pairing.dim}")
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
    reading t's memo.  :func:`t_map_by_circle_fold`, :func:`exp_sigma` and
    :func:`laplace.wick_expand` are its oracles.
    """
    return twist(u, ctx._t_value)


def t_map_by_circle_fold(u: Element, ctx: TContext) -> Element:
    """Oracle for T: left fold of the circle product over the letters."""
    out = Element.zero()
    for mono, coeff in u.items():
        gens = [Element.generator(i) for i in mono.indices()]
        out = out + coeff * circle_fold(gens, ctx.pairing)
    return out


def tbar_map_by_circle_fold(u: Element, ctx: TContext) -> Element:
    """Oracle for Tbar: left fold of the renormalised circle product over the
    letters, Tbar as the map multiplicative into that product."""
    z = ctx.require_scheme()
    out = Element.zero()
    for mono, coeff in u.items():
        prod = Element.one()
        for i in mono.indices():
            prod = circle_renorm(prod, Element.generator(i), z, ctx.pairing)
        out = out + coeff * prod
    return out


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
    """Oracle for T: the exponential series of Sigma.

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
    is :func:`t_sum` on u's numerator form.  :func:`t_closed_form` is its
    oracle.
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
            raise ValueError(f"generator index out of range: {word[-1][0]} with d={dim}")
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


def t_closed_form(generators, ctx: TContext) -> Scalar:
    """Oracle for t: the perfect-matching sum over an ordered generator list
    ((2n-1)!! branches).  Odd lists have no perfect matching and give zero.
    """
    gens = tuple(generators)
    if len(gens) % 2:
        return ZERO

    def match(rest) -> Scalar:
        if not rest:
            return ONE
        first = rest[0]
        total = ZERO
        for pos in range(1, len(rest)):
            f = ctx.pairing.entry(first, rest[pos])
            if not f:
                continue
            total = total + f * match(rest[1:pos] + rest[pos + 1:])
        return total

    return match(gens)


def t_by_moments(generators, ctx: TContext) -> Scalar:
    """Oracle for t: the Gaussian moment E[prod x_a^s_a] with covariance the
    pairing A (Isserlis), s_a the multiplicity of letter a, by Kan's closed
    form (R. Kan, J. Multivariate Anal. 99 (2008) 542):
    sum over 0 <= v <= s of (-1)^|v| prod C(s_a, v_a) (h^T A h / 2)^r / r!,
    h = s/2 - v and r = |s|/2.  It reads only the pairing's entries, as
    Gaussian integers D A over their common denominator D: with g = s - 2v,
    h^T A h / 2 = g^T (D A) g / 8D.  v and s - v give the same term, so v_1
    stops at s_1/2 and the terms below it count twice: about
    prod (s_a + 1) / 2 terms, polynomial in the grading.
    """
    counts = Counter(generators)
    letters = sorted(counts)
    s = [counts[a] for a in letters]
    r, odd = divmod(sum(s), 2)
    if odd or not r:
        return ZERO if odd else ONE
    D, A = common_denominator([[ctx.pairing.entry(a, b) for b in letters] for a in letters])
    total_re = total_im = 0
    for v in product(range(s[0] // 2 + 1), *(range(c + 1) for c in s[1:])):
        g = [c - 2 * x for c, x in zip(s, v)]
        q_re = q_im = 0
        for gi, row in zip(g, A):
            for gj, (re, im) in zip(g, row):
                q_re += gi * gj * re
                q_im += gi * gj * im
        q_re, q_im = _gaussian_power(q_re, q_im, r)
        w = (-1) ** sum(v) * (1 if 2 * v[0] == s[0] else 2) * prod(map(comb, s, v))
        total_re += w * q_re
        total_im += w * q_im
    return Scalar.from_integers(total_re, total_im, factorial(r) * (8 * D) ** r)


def tbar_map(u: Element, ctx: TContext) -> Element:
    """Renormalised T: multiplicative from the symmetric product to the
    renormalised circle product.

    Computed as T of the zeta twist, Tbar(u) = T(sum zeta(u_(1)) u_(2)), so
    it reads t's memo and keeps none of its own.  For a :class:`Scheme` the
    twist walks the scheme's table, so Tbar costs what T costs;
    :func:`tbar_map_by_circle_fold` is its oracle.
    """
    return t_map(twist(u, ctx.require_scheme()), ctx)


def tbar_scalar(u: Element, ctx: TContext) -> Scalar:
    """Scalar part of the renormalised time ordering: t of the zeta twist,
    tbar(m) = sum w zeta(m_(1)) t(m_(2)); it reads t's memo and keeps none of
    its own.  For a :class:`Scheme` only the table's entries s <= m are
    summed, on numerator forms (:func:`renorm.twist_numerators`), so tbar
    costs what t costs and interns nothing.
    :func:`tbar_scalar_by_modified_pairing` is its oracle."""
    return t_sum(*twist_numerators(*u.numerators(), ctx.require_scheme()), ctx)


def tbar_scalar_by_modified_pairing(u: Element, ctx: TContext) -> Scalar:
    """Oracle for tbar: the splitting recursion over the modified pairing,
    x(e_a v rest) = sum over rest = r1 v r2 of w (e_a|r2) x(r1), a the
    smallest letter; unmemoised, for small gradings."""
    pair = ctx.require_scheme()._modified[ctx.pairing]

    def x(m: Monomial) -> Scalar:
        if m.grading == 0:
            return ONE
        a = m.counts[0][0]
        total = ZERO
        for r1, r2, weight in monomial_splits(m.remove_one(a)):
            f = pair[Monomial.generator(a), r2]
            if f:
                total = total + weight * f * x(r1)
        return total

    return sum((coeff * x(mono) for mono, coeff in u.items()), ZERO)

