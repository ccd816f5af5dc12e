"""Laplace pairing, permanents and the circle product.

A bilinear form on the generators extends uniquely to the whole symmetric
algebra: it vanishes across gradings and is a permanent within a grading,
whose rows and columns repeat as often as the letters of the monomials.  One
kernel, Glynn's formula summed over multiplicities (:func:`_glynn`), takes
every permanent on the Gaussian integers to which a :class:`PairingMatrix`
converts its entries once.  The circle product u o v = sum u_(1) v v_(1)
(u_(2)|v_(2)) deforms the symmetric product by a pairing: the time-ordered product for a
symmetric form, the operator product for an antisymmetric one.  One Sweedler
loop computes its memoised constants m1 o m2 for the Laplace pairing; the
renormalised product (``renorm.circle_renorm``) conjugates this one.  The
oracles live in :mod:`wickalg.oracles`, but ``perfbench`` reads two here:
:func:`permanent_by_permutations` and :func:`wick_expand`.
"""

from __future__ import annotations

from itertools import permutations
from math import prod

from .algebra import Element, Memo, Monomial, _accumulate, _check_letters, _wrap, monomial_splits
from .scalars import ONE, ZERO, Scalar, common_denominator


class PairingMatrix:
    """d x d matrix of generator pairings, entry[i][j] = (e_i|e_j), 1-based.

    An immutable value, converted once: ``rows`` holds the entries as
    Scalars, ``den`` their least common denominator D and ``ints[i-1][j-1]``
    the Gaussian integer D (e_i|e_j) as an ``(re, im)`` pair, which the
    Laplace kernel and t's letter loop read.  Equality, hash and
    ``symmetric`` (the circle product commutes) read ``(den, ints)``, so a
    memo keyed on a matrix is keyed on its value.  The matrix owns its
    Laplace pairing and circle product m1 o m2 as memos keyed ``(m1, m2)``.
    """

    def __init__(self, entries):
        rows = tuple(tuple(Scalar.coerce(x) for x in row) for row in entries)
        d = len(rows)
        for row in rows:
            if len(row) != d:
                raise ValueError("pairing matrix must be square")
        self.rows = rows
        self.dim = d
        self.den, ints = common_denominator(rows)
        self.ints = tuple(map(tuple, ints))
        self.symmetric = self.ints == tuple(zip(*self.ints))
        self._laplace = Memo(self._laplace_value)
        self._circle = Memo(_sweedler_monomials, self._laplace)

    def _laplace_value(self, key) -> Scalar:
        m1, m2 = key
        return pairing_monomials(m1, m2, self)

    @classmethod
    def from_strings(cls, rows) -> "PairingMatrix":
        return cls([[Scalar.parse(x) for x in row] for row in rows])

    def entry(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"generator index out of range: ({i},{j}) with d={self.dim}")
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, PairingMatrix):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return f"PairingMatrix(dim={self.dim}, symmetric={self.symmetric})"


def permanent(matrix) -> Scalar:
    """Exact permanent of a square matrix: :func:`_glynn` with every row and
    column its own letter, 2^(n-1) * n arithmetic on Gaussian integers."""
    n = len(matrix)
    if n == 0:
        return ONE
    for row in matrix:
        if len(row) != n:
            raise ValueError("permanent needs a square matrix")
    ones = [1] * n
    return _glynn(*common_denominator(matrix), ones, ones)


def _glynn(D: int, rows, row_mults, col_mults) -> Scalar:
    """The permanent of (1/D) A, A the n x n matrix that repeats row r of the
    ``(re, im)`` table ``rows`` ``row_mults[r]`` times, column j ``col_mults[j]``.

    Glynn's formula, perm A = 2^(1-n) sum (prod_k d_k) prod_r (sum_k d_k a_rk)
    over the sign vectors d with one entry fixed at +1, grouped by k_j, the
    number of copies of column j whose sign is flipped: C(c_j, k_j) vectors
    share a term, where c_j counts the copies free to flip.  A reflected
    mixed-radix Gray code walks the k_j, so each step moves one k_j by one,
    the sign flips, the row sums move by -+2 column j and the weight by one
    exact ratio.  The arithmetic runs on the integers of A, and the total is
    divided by 2^(n-1) D^n.  Cost: prod (c_j + 1) steps over the distinct
    rows, 2^(n-1) steps when every column is distinct.
    """
    n = sum(row_mults)
    sums_re = [0] * len(rows)
    sums_im = [0] * len(rows)
    tops, steps = [], []
    for j, column in enumerate(zip(*rows)):
        c = col_mults[j]
        for r, (a, b) in enumerate(column):
            sums_re[r] += c * a
            sums_im[r] += c * b
        top = c - (j == 0)  # one copy of column 0 keeps the sign +1
        if top:
            tops.append(top)
            steps.append(tuple((r, 2 * a, 2 * b) for r, (a, b) in enumerate(column)))
    m = len(tops)
    ks = [0] * m
    up = [True] * m
    singles = [r for r, p in enumerate(row_mults) if p == 1]
    powers = [(r, p) for r, p in enumerate(row_mults) if p > 1]
    weight, positive = 1, True
    total_re = total_im = 0
    while True:
        p_re, p_im = 1, 0
        for r in singles:
            a, b = sums_re[r], sums_im[r]
            p_re, p_im = p_re * a - p_im * b, p_re * b + p_im * a
        for r, p in powers:
            a, b = _gaussian_power(sums_re[r], sums_im[r], p)
            p_re, p_im = p_re * a - p_im * b, p_re * b + p_im * a
        if positive:
            total_re += weight * p_re
            total_im += weight * p_im
        else:
            total_re -= weight * p_re
            total_im -= weight * p_im
        # The lowest k_j that can move on in its direction moves; the ones
        # below it turn round.
        j = 0
        while j < m:
            k, top = ks[j], tops[j]
            if up[j]:
                if k < top:
                    weight = weight * (top - k) // (k + 1)
                    ks[j] = k + 1
                    for r, a, b in steps[j]:
                        sums_re[r] -= a
                        sums_im[r] -= b
                    break
            elif k:
                weight = weight * k // (top - k + 1)
                ks[j] = k - 1
                for r, a, b in steps[j]:
                    sums_re[r] += a
                    sums_im[r] += b
                break
            up[j] = not up[j]
            j += 1
        else:
            return Scalar.from_integers(total_re, total_im, D**n << (n - 1))
        positive = not positive


def _gaussian_power(a: int, b: int, p: int) -> tuple[int, int]:
    """(a + b i)^p for p >= 1, by repeated squaring."""
    if not b:
        return a**p, 0
    r_re, r_im = 1, 0
    while True:
        if p & 1:
            r_re, r_im = r_re * a - r_im * b, r_re * b + r_im * a
        p >>= 1
        if not p:
            return r_re, r_im
        a, b = a * a - b * b, 2 * a * b


def permanent_by_permutations(matrix) -> Scalar:
    """Naive O(n! * n) permutation sum; retained as the independent oracle."""
    n = len(matrix)
    total = ZERO
    for sigma in permutations(range(n)):
        prod = ONE
        for i in range(n):
            prod = prod * matrix[i][sigma[i]]
            if not prod:
                break
        total = total + prod
    return total


def pairing_monomials(m1: Monomial, m2: Monomial, L: PairingMatrix) -> Scalar:
    """(m1|m2): zero across gradings, else the permanent of generator pairings.

    The letters of m1 index the rows and those of m2 the columns, each
    repeated as often as the letter; :func:`_glynn` reads the matrix's
    integer table (``L.ints`` over ``L.den``) on the distinct letters, with
    their counts.  Its Gray walk runs over the columns, so the monomial with
    fewer states prod (c + 1) takes them: perm A = perm A^T.  A letter
    outside 1..d is a ``ValueError``.
    """
    if m1.grading != m2.grading:
        return ZERO
    if m1.grading == 0:
        return ONE
    rows, cols, ints = m1.counts, m2.counts, L.ints
    _check_letters(L.dim, top=max(rows[-1][0], cols[-1][0]))
    if prod(c + 1 for _, c in rows) < prod(c + 1 for _, c in cols):
        rows, cols, ints = cols, rows, tuple(zip(*ints))
    table = [[ints[a - 1][b - 1] for b, _ in cols] for a, _ in rows]
    return _glynn(L.den, table, [c for _, c in rows], [c for _, c in cols])


def pairing(u: Element, v: Element, L: PairingMatrix) -> Scalar:
    """Bilinear extension of the generator pairing to whole elements; a
    letter outside 1..d is a ``ValueError``, across gradings too."""
    _check_letters(L.dim, u, v)
    return _bilinear(u, v, L._laplace, True)


def _bilinear(u: Element, v: Element, pair: Memo, graded: bool) -> Scalar:
    """sum c_u c_v (m_u|m_v) over the terms of u and v for a pairing memo
    keyed (m1, m2); a ``graded`` pairing skips keys across gradings."""
    total = ZERO
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            if graded and m1.grading != m2.grading:
                continue
            p = pair[m1, m2]
            if p:
                total = total + c1 * c2 * p
    return total


def _sweedler_monomials(pair: Memo, key) -> tuple:
    """m1 o m2 = sum m1_(1) v m2_(1) (m1_(2)|m2_(2)) as (monomial, coefficient)
    pairs for a memo of the Laplace pairing, which vanishes across gradings."""
    m1, m2 = key
    out: dict[Monomial, Scalar] = {}
    right = monomial_splits(m2)
    for u1, u2, wu in monomial_splits(m1):
        for v1, v2, wv in right:
            if u2.grading != v2.grading:
                continue
            p = pair[u2, v2]
            if p:
                _accumulate(out, u1.vee(v1), p * (wu * wv))
    return tuple(out.items())


def circle(u: Element, v: Element, L: PairingMatrix) -> Element:
    """The circle product: sum c1 c2 (m1 o m2) over the terms of u and v, m1 o m2
    read from L's memo, shared and never changed; a letter outside 1..d is a
    ``ValueError``."""
    _check_letters(L.dim, u, v)
    out: dict[Monomial, Scalar] = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            c = c1 * c2
            for m, p in L._circle[m1, m2]:
                prior = out.get(m)
                out[m] = c * p if prior is None else prior + c * p
    return _wrap({m: x for m, x in out.items() if x})


def circle_fold(factors, L: PairingMatrix) -> Element:
    """Left fold of the circle product over a list of elements."""
    out = Element.one()
    for f in factors:
        out = circle(out, f, L)
    return out


def _contraction_terms(indices, L: PairingMatrix):
    """Yield (coeff, untouched) over all sets of disjoint pair choices.

    The leftmost position is either left alone or contracted against one later
    position; pair factors are taken in position order (i<j), so the expansion
    is well defined for asymmetric pairings too.
    """
    if not indices:
        yield ONE, ()
        return
    first, rest = indices[0], indices[1:]
    for coeff, left in _contraction_terms(rest, L):
        yield coeff, (first,) + left
    for pos, other in enumerate(rest):
        f = L.entry(first, other)
        if not f:
            continue
        for coeff, left in _contraction_terms(rest[:pos] + rest[pos + 1:], L):
            yield f * coeff, left


def wick_expand(generators, L: PairingMatrix) -> Element:
    """Oracle: the n-fold circle product as a sum over sets of disjoint contractions.

    Each set of k disjoint position pairs contributes prod (a_i|a_j) times the
    symmetric product of the untouched generators.  The enumeration visits
    every partial matching of the positions, so it is exponential in the
    length; :func:`circle_fold` builds the same product one letter at a time.
    """
    out: dict[Monomial, Scalar] = {}
    for coeff, left in _contraction_terms(tuple(generators), L):
        _accumulate(out, Monomial.from_indices(left), coeff)
    return _wrap(out)

