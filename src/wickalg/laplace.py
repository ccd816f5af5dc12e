"""Laplace pairing, permanents, the circle product and Wick expansion.

A bilinear form on the generators extends uniquely to the whole symmetric
algebra: it vanishes across gradings and is a permanent within a grading.
The circle product u o v = sum u_(1) v v_(1) (u_(2)|v_(2)) deforms the
symmetric product by a pairing; with a symmetric form it is the time-ordered
product, with an antisymmetric one the operator product.  One Sweedler loop
serves this Laplace pairing and a scheme's modified pairing
(``renorm.circle_renorm``), and one bilinear extension reads either on whole
elements.  Two oracles stay beside it: Wick's step
(:func:`wick_step`) for the circle product by one generator, and the
contraction enumeration :func:`wick_expand` for the n-fold circle product.
"""

from __future__ import annotations

from itertools import permutations

from .algebra import (
    Element,
    Memo,
    Monomial,
    _accumulate,
    _wrap,
    sweedler,
)
from .scalars import ONE, ZERO, Scalar, common_denominator


class PairingMatrix:
    """d x d matrix of generator pairings, entry[i][j] = (e_i|e_j), 1-based.

    No symmetry is assumed unless declared; a declared symmetric matrix is
    validated at construction.  The matrix is an immutable value: rows are
    tuples, and equal entries and ``symmetric`` flag mean equal matrices
    with equal hashes, so a memo keyed on a matrix is keyed on its value.
    The matrix owns its Laplace pairing as a memo keyed ``(m1, m2)``.
    """

    def __init__(self, entries, symmetric: bool = False):
        rows = tuple(tuple(Scalar.coerce(x) for x in row) for row in entries)
        d = len(rows)
        for row in rows:
            if len(row) != d:
                raise ValueError("pairing matrix must be square")
        if symmetric:
            for i in range(d):
                for j in range(i + 1, d):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(
                            f"matrix declared symmetric but entry ({i+1},{j+1}) "
                            f"differs from ({j+1},{i+1})"
                        )
        self.rows = rows
        self.dim = d
        self.symmetric = symmetric
        self._hash = hash((rows, symmetric))
        self._laplace = Memo(self._laplace_value)

    def _laplace_value(self, key) -> Scalar:
        m1, m2 = key
        return pairing_monomials(m1, m2, self)

    @classmethod
    def from_strings(cls, rows, symmetric: bool = False) -> "PairingMatrix":
        return cls([[Scalar.parse(x) for x in row] for row in rows], symmetric)

    def entry(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"generator index out of range: ({i},{j}) with d={self.dim}")
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, PairingMatrix):
            return NotImplemented
        return self.symmetric == other.symmetric and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PairingMatrix(dim={self.dim}, symmetric={self.symmetric})"


def permanent(matrix) -> Scalar:
    """Exact permanent by Ryser's inclusion-exclusion, O(2^n * n) arithmetic.

    The entries are brought to one denominator D, so the 2^n * n loop runs
    on Gaussian integers (pairs of ints) and the result is total / D^n.
    Column subsets are walked in Gray-code order so each step updates the
    running row sums by a single column.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    for row in matrix:
        if len(row) != n:
            raise ValueError("permanent needs a square matrix")
    D, rows = common_denominator(matrix)
    columns = list(zip(*rows))
    sums_re = [0] * n
    sums_im = [0] * n
    total_re = total_im = 0
    gray = 0
    for k in range(1, 1 << n):
        next_gray = k ^ (k >> 1)
        flipped = next_gray ^ gray
        column = columns[flipped.bit_length() - 1]
        if next_gray & flipped:
            for i, (a, b) in enumerate(column):
                sums_re[i] += a
                sums_im[i] += b
        else:
            for i, (a, b) in enumerate(column):
                sums_re[i] -= a
                sums_im[i] -= b
        gray = next_gray
        p_re, p_im = 1, 0
        for a, b in zip(sums_re, sums_im):
            p_re, p_im = p_re * a - p_im * b, p_re * b + p_im * a
            if not (p_re or p_im):
                break
        if (n - gray.bit_count()) % 2:
            total_re -= p_re
            total_im -= p_im
        else:
            total_re += p_re
            total_im += p_im
    return Scalar.from_integers(total_re, total_im, D**n)


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
    """(m1|m2): zero across gradings, else the permanent of generator pairings."""
    if m1.grading != m2.grading:
        return ZERO
    if m1.grading == 0:
        return ONE
    rows_idx = m1.indices()
    cols_idx = m2.indices()
    matrix = [[L.entry(i, j) for j in cols_idx] for i in rows_idx]
    return permanent(matrix)


def pairing(u: Element, v: Element, L: PairingMatrix) -> Scalar:
    """Bilinear extension of the generator pairing to whole elements."""
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


def _sweedler_product(u: Element, v: Element, pair: Memo, graded: bool) -> Element:
    """sum u_(1) v v_(1) (u_(2)|v_(2)) for a pairing memo keyed (m1, m2); a
    ``graded`` pairing vanishes across gradings, so those keys are skipped."""
    out: dict[Monomial, Scalar] = {}
    v_splits = list(sweedler(v))
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in v_splits:
            if graded and u2.grading != v2.grading:
                continue
            p = pair[u2, v2]
            if not p:
                continue
            _accumulate(out, u1.vee(v1), cu * cv * p)
    return _wrap(out)


def circle(u: Element, v: Element, L: PairingMatrix) -> Element:
    """The circle product: sum of u_(1) v v_(1) weighted by (u_(2)|v_(2))."""
    return _sweedler_product(u, v, L._laplace, True)


def circle_fold(factors, L: PairingMatrix) -> Element:
    """Left fold of the circle product over a list of elements."""
    out = Element.one()
    for f in factors:
        out = circle(out, f, L)
    return out


def wick_step(u: Element, generator: int, L: PairingMatrix) -> Element:
    """Oracle for circle(u, e_b): append b, or contract it against one factor.

    This is the step Wick used to build his theorem; it must agree with
    :func:`circle`.
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

