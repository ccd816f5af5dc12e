"""Oracles: independent routes that tests and ``checks.LAWS`` compare with
the one production algorithm for each quantity, on exact values.  No
production module imports this module, and it calls none of the routes it
checks, ``renorm.twist`` and ``circle_renorm`` among them: :func:`wick_step`
checks ``laplace.circle`` by one generator, :func:`sweedler_product` over a
scheme's modified pairing ``circle_renorm``, the circle folds
``tmaps.t_map`` and ``tbar_map``, :func:`t_closed_form` and
:func:`t_by_moments` ``t_scalar``, and :func:`tbar_scalar_by_modified_pairing`
``tbar_scalar``.  ``tmaps.exp_sigma``, reading no t route, is T's oracle, and ``perfbench``
reads ``laplace.permanent_by_permutations``, ``laplace.wick_expand`` and
``FormalSeries.inverse_sqrt`` where they are.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb, factorial, prod

from .algebra import Element, Monomial, _accumulate, _wrap, monomial_splits, sweedler
from .laplace import PairingMatrix, _gaussian_power, circle_fold
from .scalars import ONE, ZERO, Scalar, common_denominator
from .tmaps import TContext


def wick_step(u: Element, generator: int, L: PairingMatrix) -> Element:
    """Oracle for circle(u, e_b): append b, or contract it against one factor.

    This is the step Wick used to build his theorem; it must agree with
    :func:`laplace.circle`.
    """
    out: dict[Monomial, Scalar] = {}
    b = Monomial.generator(generator)
    for mono, coeff in u.items():
        _accumulate(out, mono.vee(b), coeff)
        for idx, mult in mono.counts:
            f = L.entry(idx, generator)
            if f:
                _accumulate(out, mono.remove_one(idx), coeff * mult * f)
    return _wrap(out)


def sweedler_product(u: Element, v: Element, pair) -> Element:
    """Oracle for a circle product: sum u_(1) v v_(1) pair(u_(2), v_(2)) over the
    splits of the elements, ``pair`` a memo keyed (m1, m2), through no memo of
    products m1 o m2; over a scheme's modified pairing, the ro product."""
    out: dict[Monomial, Scalar] = {}
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in sweedler(v):
            p = pair[u2, v2]
            if p:
                _accumulate(out, u1.vee(v1), cu * cv * p)
    return _wrap(out)


def t_map_by_circle_fold(u: Element, ctx: TContext) -> Element:
    """Oracle for T: left fold of the circle product over the letters."""
    out = Element.zero()
    for mono, coeff in u.items():
        gens = [Element.generator(i) for i in mono.indices()]
        out = out + coeff * circle_fold(gens, ctx.pairing)
    return out


def tbar_map_by_circle_fold(u: Element, ctx: TContext) -> Element:
    """Oracle for Tbar: left fold of :func:`sweedler_product` over the modified
    pairing along the letters, Tbar as the map multiplicative into ro."""
    pair = ctx.require_scheme()._modified[ctx.pairing]
    out = Element.zero()
    for mono, coeff in u.items():
        prod = Element.one()
        for i in mono.indices():
            prod = sweedler_product(prod, Element.generator(i), pair)
        out = out + coeff * prod
    return out


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
