import os
import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

import wickalg.laplace as laplace_mod
from conftest import (
    assert_laws, e, entries, mono, monomials_upto, rand_element, rand_monomial, rand_pairing,
    rand_scalar, rand_scheme, trials_for,
)
from wickalg import checks
from wickalg import (
    Element,
    PairingMatrix,
    Scalar,
    circle,
    circle_fold,
    circle_renorm,
    counit,
    divided_power,
    modified_pairing,
    pairing,
    permanent,
    permanent_by_permutations,
    vee,
    wick_expand,
)
from wickalg.algebra import Memo, Monomial
from wickalg.config import load_config
from wickalg.renorm import Scheme, twist
from wickalg.laplace import pairing_monomials
from wickalg.oracles import modified_pairing_by_convolution, sweedler_product, wick_step


def naive_permanent(matrix):
    """In-test oracle: direct sum over all permutations."""
    n = len(matrix)
    total = Scalar(0)
    for sigma in permutations(range(n)):
        prod = Scalar(1)
        for i in range(n):
            prod = prod * matrix[i][sigma[i]]
        total = total + prod
    return total


def permanent_cases(rng):
    """Random n x n matrices for n <= 6, then the shapes an integer kernel
    must get right: mixed denominators, purely imaginary entries, a zero
    row, repeated rows and columns, and numerators above 2^64."""

    def draw(n, entry):
        return [[entry() for _ in range(n)] for _ in range(n)]

    def mixed():
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 12)) if rng.random() < 0.5 else 0
        return Scalar(re, im)

    def imaginary():
        return Scalar(0, Fraction(rng.randint(-5, 5), rng.randint(1, 6)))

    def huge():
        sign = rng.choice([-1, 1])
        re = Fraction(sign * rng.randint(2**64, 2**70), rng.randint(1, 2**66))
        im = Fraction(rng.randint(2**64, 2**70), rng.randint(1, 9)) if rng.random() < 0.5 else 0
        return Scalar(re, im)

    for n in range(7):
        for _ in range(4):
            yield draw(n, lambda: rand_scalar(rng))
    for n in range(1, 7):
        yield draw(n, mixed)
        yield draw(n, imaginary)
        yield draw(n, huge)
        m = draw(n, lambda: rand_scalar(rng))
        m[rng.randrange(n)] = [Scalar(0)] * n
        yield m
        m = draw(n, mixed)
        for row in m:
            row[-1] = row[0]
        m[-1] = list(m[0])
        yield m


def extremal_tables(rng):
    """n x n tables for n <= 6 at the edge of the kernel's width: every entry
    B + B i with B >= 2^64, entries of mixed signs in both parts, and purely
    imaginary entries, all of size above 2^64."""

    def big():
        return rng.randint(2**64, 2**66)

    def signed():
        return rng.choice((-1, 1)) * big()

    for n in range(1, 7):
        B = big()
        yield [[Scalar(B, B)] * n for _ in range(n)]
        yield [[Scalar(signed(), signed()) for _ in range(n)] for _ in range(n)]
        yield [[Scalar(0, signed()) for _ in range(n)] for _ in range(n)]


class TestPermanent:
    def test_empty_and_identity(self):
        assert permanent([]) == 1
        ident = [[Scalar(int(i == j)) for j in range(3)] for i in range(3)]
        assert permanent(ident) == 1

    def test_all_ones(self):
        ones = [[Scalar(1)] * 3 for _ in range(3)]
        assert permanent(ones) == factorial(3)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanent([[Scalar(1), Scalar(2)]])

    def test_matches_naive_oracle(self, rng):
        for m in permanent_cases(rng):
            expected = naive_permanent(m)
            assert permanent(m) == expected
            assert permanent_by_permutations(m) == expected

    def test_extremal_tables(self, rng):
        # The same entries on two letters, repeated up to grading 6, take the
        # kernel's powers; the results reach both signs in both parts.
        signs = set()
        for m in extremal_tables(rng):
            want = permanent_by_permutations(m)
            assert permanent(m) == want
            signs.add((want.re < 0, want.im < 0))
            n = len(m)
            L = PairingMatrix([row[:2] for row in m[:2]] if n > 1 else [[m[0][0], 1], [1, 1]])
            m1, m2 = (mono(*rng.choices((1, 2), k=n)) for _ in range(2))
            assert pairing_monomials(m1, m2, L) == permanent_by_permutations(expanded(m1, m2, L))
        assert signs == {(False, False), (False, True), (True, False), (True, True)}

    def test_matches_sympy_per(self, rng):
        sympy = pytest.importorskip("sympy")

        def to_sympy(s):
            return sympy.Rational(s.re) + sympy.I * sympy.Rational(s.im)

        # sympy's per() simplifies symbolic sums, seconds per complex 6x6
        # matrix: every case up to n = 3, then the first of each larger size.
        seen = set()
        for m in permanent_cases(rng):
            n = len(m)
            if n == 0 or (n > 3 and n in seen):
                continue
            seen.add(n)
            per = sympy.expand(sympy.Matrix([[to_sympy(x) for x in row] for row in m]).per())
            re, im = per.as_real_imag()
            got = permanent(m)
            assert got.re == Fraction(int(re.p), int(re.q))
            assert got.im == Fraction(int(im.p), int(im.q))


class TestPairing:
    def test_cross_grading_vanishes(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        assert pairing(e(1), Element.from_monomial(mono(2, 3)), L) == 0

    def test_two_by_two_expansion(self, rng):
        L = rand_pairing(rng, 4, symmetric=False)
        got = pairing(
            Element.from_monomial(mono(1, 2)), Element.from_monomial(mono(3, 4)), L
        )
        expected = L.entry(1, 3) * L.entry(2, 4) + L.entry(1, 4) * L.entry(2, 3)
        assert got == expected

    def test_unit_pairing_is_counit(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(20):
            u = rand_element(rng, 3, 3)
            assert pairing(Element.one(), u, L) == counit(u)
            assert pairing(u, Element.one(), L) == counit(u)

    def test_multiplicities_expand_to_repeated_rows(self, rng):
        L = rand_pairing(rng, 2, symmetric=False)
        got = pairing(
            Element.from_monomial(mono(1, 1)), Element.from_monomial(mono(1, 2)), L
        )
        matrix = [
            [L.entry(1, 1), L.entry(1, 2)],
            [L.entry(1, 1), L.entry(1, 2)],
        ]
        assert got == naive_permanent(matrix)

    def test_divided_power_pairing(self, rng):
        L = rand_pairing(rng, 2, symmetric=False)
        for n in range(5):
            got = pairing(divided_power(1, n), divided_power(2, n), L)
            expected = (L.entry(1, 2) ** n) / Scalar(factorial(n))
            assert got == expected

    # The laws run at d = 3, below the d = 4 of the acceptance criteria.
    def test_laplace_expansion_identities(self, rng):
        for symmetric in (False, True):
            assert_laws([checks.law_laplace_identities], rand_pairing(rng, 3, symmetric),
                        seed=0, max_grade=3, trials=20)

    def test_coupling_identity(self, rng):
        assert_laws([checks.law_laplace_coupling], rand_pairing(rng, 3, symmetric=False),
                    seed=0, max_grade=2, trials=15)


def expanded(m1, m2, L):
    """The n x n matrix of (m1|m2), one row and column per copy of a letter."""
    return [[L.entry(a, b) for b in m2.indices()] for a in m1.indices()]


def row_expansion(m1, m2, L):
    """In-test oracle for (m1|m2): each copy of a letter of m1, in order,
    takes a letter of m2 with copies left, weighted by how many are left,
    memoised on the counts of m2 left."""
    if m1.grading != m2.grading:
        return Scalar(0)
    rows, cols = m1.indices(), [b for b, _ in m2.counts]
    memo = {}

    def expand(left):
        placed = len(rows) - sum(left)
        if placed == len(rows):
            return Scalar(1)
        if left not in memo:
            total = Scalar(0)
            for j, r in enumerate(left):
                if r:
                    rest = left[:j] + (r - 1,) + left[j + 1:]
                    total = total + Scalar(r) * L.entry(rows[placed], cols[j]) * expand(rest)
            memo[left] = total
        return memo[left]

    return expand(tuple(c for _, c in m2.counts))


class TestMultisetKernel:
    """``pairing_monomials`` reads letter counts; the expanded matrix is the oracle."""

    def test_every_pair_to_grading_six_on_three_letters(self):
        L = PairingMatrix([[2, -1, Scalar(1, 1)],
                           [3, Fraction(1, 2), -2],
                           [Scalar(0, 1), 1, Fraction(-1, 3)]])
        monos = monomials_upto(3, 6)
        for m1 in monos:
            for m2 in monos:
                if m1.grading == m2.grading:
                    want = permanent_by_permutations(expanded(m1, m2, L))
                    assert pairing_monomials(m1, m2, L) == want, (m1, m2)
                else:
                    assert pairing_monomials(m1, m2, L) == 0

    def test_grades_twelve_to_sixteen_on_two_letters(self, rng):
        L = rand_pairing(rng, 2, symmetric=False)
        for n in range(12, 17):
            m1, m2 = (mono(*rng.choices((1, 2), k=n)) for _ in range(2))
            assert pairing_monomials(m1, m2, L) == permanent(expanded(m1, m2, L)), (m1, m2)

    def test_row_expansion_to_grading_twenty_four(self, rng):
        # Every entry has both parts nonzero.  m1 spreads over four letters
        # and m2 over three, so m2 has fewer Gray states: the kernel walks it
        # on the table as given for (m1|m2) and transposed for (m2|m1).
        def entry():
            return Scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)),
                          Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)))

        L = PairingMatrix([[entry() for _ in range(4)] for _ in range(4)])
        for n in (12, 16, 20, 24):
            m1 = mono(1, 2, 3, 4, *rng.choices((1, 2, 3, 4), k=n - 4))
            m2 = mono(1, 2, 3, *rng.choices((1, 2, 3), k=n - 3))
            assert pairing_monomials(m1, m2, L) == row_expansion(m1, m2, L), (m1, m2)
            assert pairing_monomials(m2, m1, L) == row_expansion(m2, m1, L), (m2, m1)

    def test_row_expansion_is_the_permutation_sum(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        for m1 in monomials_upto(3, 4):
            for m2 in monomials_upto(3, 4):
                if m1.grading == m2.grading:
                    want = permanent_by_permutations(expanded(m1, m2, L))
                    assert row_expansion(m1, m2, L) == want, (m1, m2)

    def test_rank_one_closed_form(self, rng):
        # L_ab = x_a y_b: every permutation contributes prod x prod y.
        x = [rand_scalar(rng) or Scalar(1) for _ in range(3)]
        y = [rand_scalar(rng) or Scalar(2) for _ in range(3)]
        L = PairingMatrix([[xa * yb for yb in y] for xa in x])
        for n in (20, 29, 40):
            m1, m2 = (mono(*rng.choices((1, 2, 3), k=n)) for _ in range(2))
            want = Scalar(factorial(n))
            for a, b in zip(m1.indices(), m2.indices()):
                want = want * x[a - 1] * y[b - 1]
            assert pairing_monomials(m1, m2, L) == want

    def test_diagonal_closed_form(self, rng):
        # Only permutations inside each letter's block survive.
        diag = [rand_scalar(rng) or Scalar(1, 1) for _ in range(3)]
        L = PairingMatrix([[diag[a] if a == b else 0 for b in range(3)] for a in range(3)])
        for n in (20, 31, 40):
            m1 = mono(*rng.choices((1, 2, 3), k=n))
            want = Scalar(1)
            for a, c in m1.counts:
                want = want * Scalar(factorial(c)) * diag[a - 1] ** c
            assert pairing_monomials(m1, m1, L) == want
            a = m1.counts[0][0]
            m2 = m1.remove_one(a).vee(mono(a % 3 + 1))
            assert pairing_monomials(m1, m2, L) == 0

    def test_letter_outside_the_matrix(self, rng):
        # The kernel reads the integer table unchecked, so the pairing checks
        # the letters once, in either orientation of the table, and both
        # pairings check them before they skip keys across gradings.
        L = rand_pairing(rng, 2, symmetric=False)
        cases = [
            lambda: pairing_monomials(mono(3), mono(1), L),
            lambda: pairing_monomials(mono(1, 1, 1), mono(1, 2, 7), L),
            lambda: pairing_monomials(mono(1, 2, 7), mono(1, 1, 1), L),
            lambda: pairing_monomials(mono(3), mono(1, 1), L),  # across gradings
            lambda: pairing_monomials(mono(), mono(3), L),
            lambda: pairing_monomials(mono(3), mono(), L),
            lambda: pairing(e(1) + e(3), e(1), L),
            lambda: pairing(e(3), e(1).vee(e(1)), L),  # across gradings
            lambda: pairing(e(1).vee(e(1)), e(3), L),
            lambda: circle(e(1), e(3), L),
        ]
        for case in cases:
            with pytest.raises(ValueError, match=r"out of range: \d+ with d=2"):
                case()

    def test_transposed_orientation(self, rng, monkeypatch):
        # e1^4 has 5 Gray states and e1 v e2 v e3 v e4 has 16, so e1^4's one
        # letter is walked: the kernel sees the transposed integer table,
        # row b holding D (e1|e_b) packed at the kernel's width K.
        L = rand_pairing(rng, 4, symmetric=False)
        m1, m2 = mono(1, 1, 1, 1), mono(1, 2, 3, 4)
        seen = []
        real = laplace_mod._glynn

        def spy(D, K, rows, row_mults, col_mults):
            seen.append((D, K, rows, row_mults, col_mults))
            return real(D, K, rows, row_mults, col_mults)

        monkeypatch.setattr(laplace_mod, "_glynn", spy)
        assert pairing_monomials(m1, m2, L) == permanent_by_permutations(expanded(m1, m2, L))
        [(D, K, rows, row_mults, col_mults)] = seen
        column = [L.ints[0][b - 1] for b in (1, 2, 3, 4)]
        assert (D, rows, row_mults, col_mults) == (L.den, [[re + (im << K)] for re, im in column],
                                                   [1, 1, 1, 1], [4])
        assert all(Scalar.from_integers(re, im, L.den) == L.entry(1, b)
                   for (re, im), b in zip(column, (1, 2, 3, 4)))


class TestCircle:
    def test_two_generators(self, rng):
        L = rand_pairing(rng, 2, symmetric=False)
        assert circle(e(1), e(2), L) == Element.from_monomial(mono(1, 2)) + (
            L.entry(1, 2) * Element.one()
        )

    def test_pair_times_generator(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        got = circle(Element.from_monomial(mono(1, 2)), e(3), L)
        expected = (
            Element.from_monomial(mono(1, 2, 3))
            + L.entry(1, 3) * e(2)
            + L.entry(2, 3) * e(1)
        )
        assert got == expected

    def test_unit_and_linearity(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(20):
            u = rand_element(rng, 3, 3)
            v = rand_element(rng, 3, 3)
            w = rand_element(rng, 3, 3)
            assert circle(u, Element.one(), L) == u
            assert circle(Element.one(), u, L) == u
            assert circle(u, v + w, L) == circle(u, v, L) + circle(u, w, L)
            s = rand_scalar(rng)
            assert circle(u, s * v, L) == s * circle(u, v, L)

    def test_associative_for_any_pairing(self, rng):
        # 25 triples on this pairing and on each fresh pairing the law draws
        assert_laws([checks.law_circle_associative], rand_pairing(rng, 3, symmetric=False),
                    seed=0, max_grade=4, trials=trials_for(checks.law_circle_associative, 25))

    def test_commutative_iff_symmetric(self, rng):
        assert_laws([checks.law_commutativity_criterion], rand_pairing(rng, 3, symmetric=True),
                    seed=0, max_grade=3, trials=15)

    def test_commutator_defect(self, rng):
        # asymmetric: e_i o e_j - e_j o e_i = (L_ij - L_ji) 1 for every pair
        assert_laws([checks.law_commutativity_criterion], rand_pairing(rng, 2, symmetric=False),
                    seed=0, max_grade=3, trials=15)


def repeating_elements(rng, d, count):
    """Elements of two terms drawn from a pool of four monomials of grading
    <= 3, so the elements share terms."""
    pool = [rand_monomial(rng, d, 3) for _ in range(4)]
    return [Element({m: rand_scalar(rng) for m in rng.sample(pool, 2)}) for _ in range(count)]


def circle_case(name):
    """(pairing, scheme) of a shipped config, or of a random asymmetric pairing."""
    if name == "random":
        rng = random.Random(4127)
        return rand_pairing(rng, 3, symmetric=False), rand_scheme(rng, 3)
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", name))
    return cfg.pairing, cfg.scheme


class TestCircleMemo:
    """The circle product groups the Sweedler sum of whole elements by second
    factors and reads only the matrix's Laplace memo, which is the one memo
    the matrix owns; the renormalised product conjugates it by the scheme's
    twist.  No product is kept, and memo values are never changed."""

    @pytest.mark.parametrize("name", ["default.json", "asymmetric.json", "random"])
    def test_products_match_fresh_memos_and_wick_folds(self, name):
        L, z = circle_case(name)
        fresh_L, fresh_z = PairingMatrix(entries(L)), Scheme(z.values)
        rng = random.Random(809)
        elements = repeating_elements(rng, L.dim, 8)
        modified = modified_pairing_by_convolution(fresh_z, L)
        for u in elements:
            for v in elements[:4]:
                got = circle(u, v, L)
                assert got == circle(u, v, fresh_L)
                assert got == sweedler_product(u, v, fresh_L._laplace)
                assert circle_renorm(u, v, z, L) == sweedler_product(u, v, modified)
            by_circle = by_wick = u
            for b in [rng.randint(1, L.dim) for _ in range(3)]:
                by_circle = circle(by_circle, e(b), L)
                by_wick = wick_step(by_wick, b, L)
            assert by_circle == by_wick

    @pytest.mark.parametrize("name", ["default.json", "asymmetric.json", "random"])
    def test_twisted_words_match_the_sweedler_oracle(self, name):
        # zeta^-1 twists of words have many terms: distinct terms share a
        # second factor u2, and distinct v2 share a first factor v1
        L, z = circle_case(name)
        fresh_L, fresh_z = PairingMatrix(entries(L)), Scheme(z.values)
        if name == "random":
            assert any(x.im for row in entries(L) for x in row)

        def twisted(grading, start):
            word = Monomial.from_indices([1 + (start + k) % L.dim for k in range(grading)])
            return twist(Element.from_monomial(word), z.inverse())

        modified = modified_pairing_by_convolution(fresh_z, fresh_L)
        for u, v in [(twisted(6, 0), twisted(6, 1)), (twisted(8, 0), twisted(4, 1))]:
            assert circle(u, v, L) == sweedler_product(u, v, fresh_L._laplace)
            assert circle_renorm(u, v, z, L) == sweedler_product(u, v, modified)

    def test_a_repeated_product_adds_no_memo_entry(self):
        L, z = circle_case("random")
        assert [k for k, x in vars(L).items() if isinstance(x, Memo)] == ["_laplace"]
        assert [k for k, x in vars(z).items() if isinstance(x, Memo)] == ["_memo", "_inverse_values"]
        rng = random.Random(11)
        u, v = rand_element(rng, 3, 3), rand_element(rng, 3, 3)
        first, first_renorm = circle(u, v, L), circle_renorm(u, v, z, L)
        sizes = [len(L._laplace), len(z._inverse_values)]
        assert circle(u, v, L) == first and circle_renorm(u, v, z, L) == first_renorm
        assert [len(L._laplace), len(z._inverse_values)] == sizes

    def test_shared_values_are_never_changed(self):
        L, z = circle_case("asymmetric.json")
        rng = random.Random(23)
        u, v = rand_element(rng, 2, 4), rand_element(rng, 2, 4)
        first, first_renorm = circle(u, v, L), circle_renorm(u, v, z, L)
        kept = dict(first.terms), dict(first_renorm.terms)
        pairings = dict(L._laplace)
        two = Scalar(2)
        assert circle(two * u, v, L) == two * first
        assert circle_renorm(u, two * v, z, L) == two * first_renorm
        assert (first.terms, first_renorm.terms) == kept
        assert all(L._laplace[key] is value for key, value in pairings.items())


class TestWick:
    def test_step_examples(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        got = wick_step(Element.from_monomial(mono(1, 2)), 3, L)
        expected = (
            Element.from_monomial(mono(1, 2, 3))
            + L.entry(1, 3) * e(2)
            + L.entry(2, 3) * e(1)
        )
        assert got == expected
        assert wick_step(Element.one(), 1, L) == e(1)

    def test_step_with_multiplicity(self, rng):
        L = rand_pairing(rng, 1, symmetric=False)
        got = wick_step(Element.from_monomial(mono(1, 1)), 1, L)
        expected = Element.from_monomial(mono(1, 1, 1)) + 2 * L.entry(1, 1) * e(1)
        assert got == expected

    def test_step_equals_circle(self, rng):
        # u of grading <= 4 against a generator, and shuffled words of up to
        # five letters against the circle fold
        assert_laws([checks.law_wick], rand_pairing(rng, 3, symmetric=False),
                    seed=0, max_grade=5, trials=25)

    def test_single_factor(self, rng):
        L = rand_pairing(rng, 2, symmetric=False)
        assert wick_expand([1], L) == e(1)
        assert wick_expand([], L) == Element.one()

    def test_three_factor_paper_shape(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        got = wick_expand([1, 2, 3], L)
        expected = (
            Element.from_monomial(mono(1, 2, 3))
            + L.entry(1, 2) * e(3)
            + L.entry(1, 3) * e(2)
            + L.entry(2, 3) * e(1)
        )
        assert got == expected

    def test_four_factor_worked_example(self, rng):
        """The ten-term expansion: one bare product, six single contractions,
        three double contractions."""
        L = rand_pairing(rng, 4, symmetric=False)

        def p(i, j):
            return L.entry(i, j)

        got = wick_expand([1, 2, 3, 4], L)
        expected = (
            Element.from_monomial(mono(1, 2, 3, 4))
            + p(1, 2) * Element.from_monomial(mono(3, 4))
            + p(1, 3) * Element.from_monomial(mono(2, 4))
            + p(2, 3) * Element.from_monomial(mono(1, 4))
            + p(1, 4) * Element.from_monomial(mono(2, 3))
            + p(2, 4) * Element.from_monomial(mono(1, 3))
            + p(3, 4) * Element.from_monomial(mono(1, 2))
            + (p(1, 2) * p(3, 4) + p(1, 3) * p(2, 4) + p(2, 3) * p(1, 4))
            * Element.one()
        )
        assert got == expected

    def test_expand_equals_circle_fold_up_to_six(self, rng):
        L = rand_pairing(rng, 2, symmetric=False)
        for length in range(7):
            for gens in product((1, 2), repeat=length):
                lhs = wick_expand(gens, L)
                rhs = circle_fold([Element.generator(i) for i in gens], L)
                assert lhs == rhs


class TestAntipodeRecovery:
    def test_recover_vee(self, rng):
        assert_laws([checks.law_recover_vee], rand_pairing(rng, 3, symmetric=False),
                    seed=1, max_grade=3, trials=10)

    def test_recover_pairing(self, rng):
        assert_laws([checks.law_recover_pairing], rand_pairing(rng, 4, symmetric=False),
                    seed=2, max_grade=3, trials=10)


class TestDistributivity:
    def test_examples(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        got = circle(e(1), vee(e(2), e(3)), L)
        expected = (
            Element.from_monomial(mono(1, 2, 3))
            + L.entry(1, 3) * e(2)
            + L.entry(1, 2) * e(3)
        )
        assert got == expected

    def test_matches_direct_circle(self, rng):
        assert_laws([checks.law_distributivity], rand_pairing(rng, 3, symmetric=False),
                    seed=0, max_grade=3, trials=15)


def test_symmetry_is_read_from_the_entries(rng):
    # Entries equal across the diagonal as values, not as objects.
    assert PairingMatrix.from_strings([["1", "1/2"], ["1/2", "1"]]).symmetric
    assert PairingMatrix([[Scalar(3)]]).symmetric
    assert not PairingMatrix([[Scalar(0), Scalar(1)], [Scalar(2), Scalar(0)]]).symmetric
    # Hermitian is not symmetric: the imaginary parts must agree too.
    assert not PairingMatrix.from_strings([["0", "1+1/2 i"], ["1-1/2 i", "0"]]).symmetric
    assert rand_pairing(rng, 3, symmetric=True).symmetric
    assert not rand_pairing(rng, 3, symmetric=False).symmetric


def test_value_semantics(rng):
    rows = [[rand_scalar(rng) for _ in range(3)] for _ in range(3)]
    a = PairingMatrix(rows)
    b = PairingMatrix([list(row) for row in rows])
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "hit"}[b] == "hit"
    assert PairingMatrix([[Scalar(2) * x for x in row] for row in rows]) != a
    assert isinstance(a.ints, tuple) and all(isinstance(row, tuple) for row in a.ints)
    assert entries(a) == rows
    # The entries are the whole value: no setting splits equal entries.
    parsed = PairingMatrix.from_strings([["1", "1/2"], ["1/2", "1"]])
    coerced = PairingMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    assert parsed == coerced and hash(parsed) == hash(coerced) and coerced.symmetric
    # One integer form over one denominator, so one memo key, whatever the
    # entries were given as: ints, Fractions, Scalars or parsed strings, 2/4
    # next to 1/2.
    third_i = Scalar(0, Fraction(1, 3))
    same = [
        PairingMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), third_i]]),
        PairingMatrix([[Fraction(2, 2), Scalar(Fraction(1, 2))],
                       [Scalar(Fraction(1, 2)), third_i]]),
        PairingMatrix([[Scalar.parse("1"), Scalar.parse("2/4")],
                       [Fraction(1, 2), Scalar.parse("0+1/3 i")]]),
        PairingMatrix.from_strings([["2/2", "2/4"], ["1/2", "0+2/6 i"]]),
    ]
    laplace_memos = Memo(lambda M: M._laplace)
    for M in same:
        assert M.den == 6 and M.ints == (((6, 0), (3, 0)), ((3, 0), (0, 2)))
        assert M == same[0] and hash(M) == hash(same[0]) and M.symmetric
        assert laplace_memos[M] is same[0]._laplace
    assert len(laplace_memos) == 1
    # One imaginary part apart: same denominator, unequal matrices.
    other = PairingMatrix.from_strings([["1", "1/2"], ["1/2", "0+1/6 i"]])
    assert other.den == 6 and other != same[0] and other not in laplace_memos


def test_equal_matrices_share_one_modified_pairing(rng):
    # Equal matrices give one modified pairing, and the scheme keeps no memo
    # keyed by a matrix: it owns its values and its inverse's values only.
    rows = [[rand_scalar(rng) for _ in range(3)] for _ in range(3)]
    a = PairingMatrix(rows)
    b = PairingMatrix([list(row) for row in rows])
    z = rand_scheme(rng, 3)
    u, v = rand_element(rng, 3, 3), rand_element(rng, 3, 3)
    assert hash(a) == hash(b)
    assert modified_pairing(u, v, z, a) == modified_pairing(u, v, z, b)
    assert [k for k, x in vars(z).items() if isinstance(x, Memo)] == ["_memo", "_inverse_values"]
