import ast
import gc
import inspect
import os
import random
import weakref
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from conftest import (
    assert_laws,
    e,
    mono,
    monomials_upto,
    rand_element,
    rand_monomial,
    rand_pairing,
    trials_for,
    rand_scalar,
    rand_scheme,
)
from wickalg import checks
from wickalg import (
    Element,
    FormalSeries,
    Monomial,
    PairingMatrix,
    Scalar,
    Scheme,
    TContext,
    circle,
    circle_renorm,
    convolve,
    counit,
    exp_sigma,
    green,
    pairing,
    sigma_apply,
    smatrix,
    sweedler,
    t_map,
    t_scalar,
    tbar_map,
    tbar_scalar,
    vee,
    vee_exp,
    wick_expand,
)
from wickalg import algebra, tmaps
from wickalg.algebra import Memo, _pack
from wickalg.config import load_config
from wickalg.oracles import (
    t_by_moments,
    t_closed_form,
    tbar_map_by_circle_fold,
    tbar_scalar_by_modified_pairing,
)
from wickalg.renorm import LinearFunctional, twist


@pytest.fixture
def ctx(rng):
    L = rand_pairing(rng, 3, symmetric=True)
    return TContext(L, rand_scheme(rng, 3))


@pytest.fixture(scope="module")
def default():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "default.json")
    return load_config(path)


def matching_sum_oracle(gens, L):
    """In-test perfect-matching oracle, written as a direct filter over
    permutations per the (2n-1)!! description: sigma(1)<...<sigma(n) and
    sigma(j)<sigma(n+j)."""
    gens = tuple(gens)
    if len(gens) % 2:
        return Scalar(0)
    n = len(gens) // 2
    total = Scalar(0)
    for sigma in permutations(range(len(gens))):
        firsts = sigma[:n]
        if any(firsts[k] >= firsts[k + 1] for k in range(n - 1)):
            continue
        if any(sigma[j] >= sigma[n + j] for j in range(n)):
            continue
        prod = Scalar(1)
        for j in range(n):
            prod = prod * L.entry(gens[sigma[j]], gens[sigma[n + j]])
        total = total + prod
    return total


def loop_equals_moments(gens, ctx):
    """t of the word ``gens`` by the letter loop, checked against Kan's
    moment formula; returns the value."""
    moment = t_by_moments(gens, ctx)
    assert t_scalar(Element.from_monomial(Monomial.from_indices(gens)), ctx) == moment, gens
    return moment


class TestTContext:
    def test_rejects_asymmetric(self, rng):
        L = rand_pairing(rng, 3, symmetric=False)
        with pytest.raises(ValueError):
            TContext(L)

    def test_scheme_optional(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        with pytest.raises(ValueError):
            tbar_map(e(1), ctx)

    def test_freed_without_the_cycle_collector(self, rng):
        # The context's memos hold it weakly, so reference counting frees it.
        ctx = TContext(rand_pairing(rng, 3, symmetric=True), rand_scheme(rng, 3))
        u = rand_element(rng, 3, 4)
        gc.disable()
        try:
            t_map(u, ctx)
            t_scalar(u, ctx)
            tbar_map(u, ctx)
            tbar_scalar(u, ctx)
            ref = weakref.ref(ctx)
            del ctx
            assert ref() is None
        finally:
            gc.enable()


class TestTMap:
    def test_unit_and_generator(self, ctx):
        assert t_map(Element.one(), ctx) == Element.one()
        assert t_map(e(2), ctx) == e(2)

    def test_pair(self, ctx):
        got = t_map(Element.from_monomial(mono(1, 2)), ctx)
        expected = Element.from_monomial(mono(1, 2)) + ctx.pairing.entry(1, 2) * Element.one()
        assert got == expected

    def test_four_letters_equals_wick_expand(self, ctx):
        u = Element.from_monomial(mono(1, 2, 3, 1))
        assert t_map(u, ctx) == wick_expand((1, 1, 2, 3), ctx.pairing)

    def test_three_routes_agree_to_grading_six(self, rng):
        # every monomial on two letters, past the law's cap of 5
        assert_laws([checks.law_t_routes], rand_pairing(rng, 2, symmetric=True), seed=0,
                    max_grade=6, trials=1, cap=6)

    # The laws run on the d = 3 fixture (the acceptance criteria run d = 4).
    def test_multiplicative(self, ctx):
        assert_laws([checks.law_t_multiplicative], ctx.pairing, scheme=ctx.scheme,
                    seed=0, max_grade=3, trials=15)

    def test_coproduct_identity(self, ctx):
        assert_laws([checks.law_t_coproduct], ctx.pairing, scheme=ctx.scheme,
                    seed=0, max_grade=4, trials=15)


class TestWickRecursionOracles:
    """The production T and Tbar (twists of the scalar t) against their
    oracles: Wick's contraction sum, exp(Sigma) and the circle folds."""

    def test_t_matches_wick_expand_and_exp_sigma(self, rng):
        ctx = TContext(rand_pairing(rng, 3, symmetric=True))
        monomials = monomials_upto(3, 6) + [mono(1, 1, 1, 1, 2, 2, 2, 2)]
        for m in monomials:
            u = Element.from_monomial(m)
            got = t_map(u, ctx)
            assert got == wick_expand(m.indices(), ctx.pairing), m
            assert got == exp_sigma(u, ctx), m

    def test_only_memo_holds_every_sub_multiset(self, rng):
        ctx = TContext(rand_pairing(rng, 2, symmetric=True))
        u = Element.from_monomial(mono(*(1,) * 6 + (2,) * 6))
        assert t_map(u, ctx) == exp_sigma(u, ctx)
        memos = [v for v in vars(ctx).values() if isinstance(v, Memo)]
        assert memos == [ctx._t_numerators]
        # T asks t for every sub-multiset; the memo, keyed by packed word,
        # keeps the even ones (odd words are 0 and stored nowhere).
        assert set(ctx._t_numerators) == {
            Monomial({1: i, 2: j}).word
            for i in range(7) for j in range(7) if (i + j) % 2 == 0
        }

    def test_tbar_matches_renormalised_circle_fold_to_grading_five(self, rng):
        ctx = TContext(rand_pairing(rng, 3, symmetric=True), rand_scheme(rng, 3, max_grade=5))
        for m in monomials_upto(3, 5):
            u = Element.from_monomial(m)
            assert tbar_map(u, ctx) == tbar_map_by_circle_fold(u, ctx), m


class TestSplittingRecursionOracles:
    """t (the letter loop) and tbar (the zeta twist of t), each against an
    oracle that shares no code with it."""

    def test_t_scalar_matches_perfect_matchings(self, rng):
        ctx = TContext(rand_pairing(rng, 3, symmetric=True))
        for m in monomials_upto(3, 8):
            assert t_scalar(Element.from_monomial(m), ctx) == t_closed_form(m.indices(), ctx), m

    def test_odd_grading_returns_zero_at_once(self, rng):
        ctx = TContext(rand_pairing(rng, 3, symmetric=True))
        m = mono(1, 1, 2, 3, 3)
        assert t_scalar(Element.from_monomial(m), ctx) == 0
        assert set(ctx._t_numerators) == {Monomial.unit().word}

    def test_tbar_scalar_matches_modified_pairing_recursion(self, rng):
        for d in (1, 2, 3):
            ctx = TContext(rand_pairing(rng, d, symmetric=True), rand_scheme(rng, d, max_grade=5))
            for m in monomials_upto(d, 5):
                u = Element.from_monomial(m)
                assert tbar_scalar(u, ctx) == tbar_scalar_by_modified_pairing(u, ctx), m

    def test_tbar_scalar_matches_circle_fold_to_grading_five(self, rng):
        ctx = TContext(rand_pairing(rng, 3, symmetric=True), rand_scheme(rng, 3, max_grade=5))
        for m in monomials_upto(3, 5):
            u = Element.from_monomial(m)
            assert tbar_scalar(u, ctx) == counit(tbar_map_by_circle_fold(u, ctx)), m


class TestGaussianIntegerLetterLoop:
    """The letter loop stores D^n t(x) as Gaussian integers, D the common
    denominator of the pairing.  Entries of unequal denominators, imaginary
    parts and a zero entry make D = 420 and leave t_scalar's one reduction
    common factors to remove; asked in increasing grading the loop reads
    entries back from earlier calls, asked in decreasing grading it computes
    them cold."""

    PAIRING = PairingMatrix.from_strings([
        ["1/2", "2/3+1/5 i", "0-3/7 i"],
        ["2/3+1/5 i", "0", "5/4-1/6 i"],
        ["0-3/7 i", "5/4-1/6 i", "1/3"],
    ])

    @pytest.mark.parametrize("decreasing", [False, True])
    def test_t_scalar_matches_perfect_matchings_to_grading_eight(self, decreasing):
        ctx = TContext(self.PAIRING)
        for m in sorted(monomials_upto(3, 8), key=lambda m: m.grading, reverse=decreasing):
            got = t_scalar(Element.from_monomial(m), ctx)
            assert got == t_closed_form(m.indices(), ctx), m
            if m.grading % 2:
                assert got == 0

    @pytest.mark.parametrize("decreasing", [False, True])
    def test_t_map_matches_exp_sigma_to_grading_eight(self, decreasing):
        ctx = TContext(self.PAIRING)
        for m in sorted(monomials_upto(3, 8), key=lambda m: m.grading, reverse=decreasing):
            u = Element.from_monomial(m)
            assert t_map(u, ctx) == exp_sigma(u, ctx), m

    @pytest.mark.parametrize("decreasing", [False, True])
    def test_t_scalar_matches_moments_over_a_divisor_of_the_denominator(self, decreasing):
        """e1 and e3 alone have entries 1/2, -3/7 i and 1/3, whose common
        denominator 42 is a proper divisor of D = 420, so each D^n t(x) the
        loop stores for these words carries a factor 10^n that only t's one
        reduction removes; the words e1^2k e3^2k reach grading 16, past the
        matching sums."""
        ctx = TContext(self.PAIRING)
        for k in sorted((1, 2, 3, 4), reverse=decreasing):
            loop_equals_moments((1, 1, 3, 3) * k, ctx)

    @pytest.mark.parametrize("renormalised", [False, True])
    @pytest.mark.parametrize("u", [
        Element.from_monomial(mono(1, 1)) + Element.from_monomial(mono(1, 2, 3)),
        Scalar(Fraction(1, 2)) * Element.from_monomial(mono(2, 3))
        + Scalar(Fraction(-1, 3), Fraction(1, 5)) * Element.from_monomial(mono(1, 1, 3, 3)),
    ], ids=["e1e1+e1e2e3", "grading2+grading4"])
    def test_green_on_mixed_gradings_matches_exp_sigma(self, u, renormalised):
        """Each coefficient c of exp_v(u) mixes gradings, so t_scalar weights
        the numerators D^k t(m) of its words by unequal powers D^(K-k).  The
        oracle pairs the legs with exp(Sigma) of c (of its zeta twist when
        renormalised), which reads no t; smatrix must give the same T(c)."""
        z = Scheme({mono(1, 2): Scalar(Fraction(1, 7)), mono(3, 3): Scalar(0, Fraction(2, 5)),
                    mono(1, 1, 2, 3): Scalar(Fraction(-3, 4), Fraction(1, 6))})
        ctx, order = TContext(self.PAIRING, z), 4
        s = [exp_sigma(twist(c, z) if renormalised else c, ctx)
             for c in vee_exp(u, order).coeffs]
        assert smatrix(u, ctx, order, renormalised).coeffs == s
        den = FormalSeries.from_scalars([c.scalar_part() for c in s])
        for i, j in ((1, 2), (3, 3), (1, 3)):
            legs = circle(e(i), e(j), ctx.pairing)
            num = FormalSeries.from_scalars([pairing(legs, c, ctx.pairing) for c in s])
            assert green(i, j, u, ctx, order, renormalised) == num.divide(den), (i, j)

    def test_letter_outside_the_pairing_is_a_value_error(self):
        """A letter above d = 3 is a ValueError that names d, never an
        IndexError from the packed loop or a silent 0: t and tbar check u's
        letters before packing, and t_sum finds a leg above d as a field
        above d's, whatever the grading of the word it lands in."""
        ctx = TContext(self.PAIRING, Scheme({mono(1, 2): Scalar(Fraction(1, 7))}))
        words = (mono(1, 4), mono(4, 4), mono(1, 1, 1, 5), mono(2, 2, 3, 7),
                 mono(4), mono(1, 1, 4), mono(5, 5, 5))
        names_d = r"out of range: \d+ with d=3"
        for m in words:
            u = Element.from_monomial(m)
            for t in (t_scalar, t_map, tbar_map, tbar_scalar):
                with pytest.raises(ValueError, match=names_d):
                    t(u, ctx)
        for renormalised in (False, True):
            for u in (e(1), e(1) + e(2), Element.from_monomial(mono(1, 2, 3))):
                with pytest.raises(ValueError, match=names_d):
                    green(1, 4, u, ctx, 2, renormalised=renormalised)
                with pytest.raises(ValueError, match=names_d):
                    green(4, 4, u, ctx, 2, renormalised=renormalised)
            with pytest.raises(ValueError, match=names_d):
                green(1, 2, Element.from_monomial(mono(4, 4)), ctx, 1,
                      renormalised=renormalised)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda u, ctx: exp_sigma(u, ctx), id="exp_sigma"),
    pytest.param(lambda u, ctx: sigma_apply(u, ctx), id="sigma_apply"),
    pytest.param(lambda u, ctx: circle(u, Element.one(), ctx.pairing), id="circle"),
    pytest.param(lambda u, ctx: circle(Element.one(), u, ctx.pairing), id="circle_right"),
    pytest.param(lambda u, ctx: circle_renorm(u, Element.one(), ctx.scheme, ctx.pairing),
                 id="circle_renorm"),
])
def test_every_entry_that_reads_the_pairing_checks_letters(default, entry):
    """A letter above d = 4 is refused with t_map's message, even where the
    pairing would never be read (a product with 1, or Sigma of a word whose
    contractions all vanish), so exp Sigma agrees with T."""
    ctx = TContext(default.pairing, default.scheme)
    u = Element.from_monomial(mono(5, 5))
    with pytest.raises(ValueError) as expected:
        t_map(u, ctx)
    with pytest.raises(ValueError) as got:
        entry(u, ctx)
    assert str(got.value) == str(expected.value) == "generator index out of range: 5 with d=4"


class TestSigma:
    def test_kills_low_grading(self, ctx):
        assert sigma_apply(Element.one(), ctx) == Element.zero()
        assert sigma_apply(e(1), ctx) == Element.zero()

    def test_pair_value(self, ctx):
        # symmetric pairing: half of (e_k|e_l)+(e_l|e_k) collapses to one entry
        got = sigma_apply(Element.from_monomial(mono(1, 2)), ctx)
        assert got == ctx.pairing.entry(1, 2) * Element.one()
        got = sigma_apply(Element.from_monomial(mono(2, 2)), ctx)
        assert got == ctx.pairing.entry(2, 2) * Element.one()

    def test_lowers_grading_by_two(self, ctx, rng):
        for _ in range(10):
            u = rand_element(rng, 3, 5)
            su = sigma_apply(u, ctx)
            gradings = {m.grading for m in u.terms}
            for m in su.terms:
                assert m.grading + 2 in gradings

    def test_exp_sigma_examples(self, ctx):
        assert exp_sigma(Element.one(), ctx) == Element.one()
        got = exp_sigma(Element.from_monomial(mono(1, 2)), ctx)
        expected = Element.from_monomial(mono(1, 2)) + ctx.pairing.entry(1, 2) * Element.one()
        assert got == expected

    def test_exp_sigma_equals_t(self, ctx):
        # with the circle fold, on every monomial of grading <= 6 on three letters
        assert_laws([checks.law_t_routes], ctx.pairing, scheme=ctx.scheme, seed=0,
                    max_grade=6, trials=1, cap=6)

    def test_demo_value(self):
        # demos/04: L = [[1/2, 1/3], [1/3, 1/4]], Sigma(a v a v b v b)
        # = 1/2 (2 (a|a) b v b + 2 (b|b) a v a + 8 (a|b) a v b)
        ctx = TContext(PairingMatrix.from_strings([["1/2", "1/3"], ["1/3", "1/4"]]))
        got = sigma_apply(Element.from_monomial(mono(1, 1, 2, 2)), ctx)
        assert str(got) == "1/4 * e1 v e1 + 4/3 * e1 v e2 + 1/2 * e2 v e2"
        assert got == (Scalar(Fraction(1, 4)) * Element.from_monomial(mono(1, 1))
                       + Scalar(Fraction(4, 3)) * Element.from_monomial(mono(1, 2))
                       + Scalar(Fraction(1, 2)) * Element.from_monomial(mono(2, 2)))

    def test_exp_sigma_equals_t_on_sums_of_repeated_letter_words(self):
        """Sums of two words with a repeated letter, gradings 2-8, whose Sigma
        levels land on common words over unequal denominators, on a pairing
        with imaginary parts and a zero entry."""
        ctx = TContext(TestGaussianIntegerLetterLoop.PAIRING)
        words = [m for m in monomials_upto(3, 8)
                 if m.grading >= 2 and any(c > 1 for _, c in m.counts)]
        rng = random.Random(5)
        for _ in range(30):
            a, b = rng.sample(words, 2)
            u = rand_scalar(rng) * Element.from_monomial(a) + Scalar(0, 1) * Element.from_monomial(b)
            assert exp_sigma(u, ctx) == t_map(u, ctx), u

    def test_exp_sigma_reaches_no_t_route(self):
        """exp Sigma is T's oracle in the T-map routes law, so neither it nor
        any tmaps function it calls reads t, its memo, its letter table or
        a twist."""
        routes = {"t_map", "t_scalar", "t_sum", "tbar_map", "tbar_scalar", "twist",
                  "twist_numerators", "_t_value", "_t_numerator", "_t_numerators", "_rows"}
        tree = ast.parse(inspect.getsource(tmaps))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        todo, seen, used = ["exp_sigma"], set(), set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                    if node.id in functions:
                        todo.append(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        assert "_sigma_numerators" in seen
        assert not used & routes, sorted(used & routes)

    def test_extension_formula(self, ctx):
        # Sigma(a v u) = a v Sigma(u) + sum_j (a|e_j) delta_j u, and a o u = a v u + [Sigma, a] u
        assert_laws([checks.law_sigma_commutator], ctx.pairing, scheme=ctx.scheme,
                    seed=0, max_grade=4, trials=15)


class TestScalarT:
    def test_base_cases(self, ctx):
        assert t_scalar(Element.one(), ctx) == 1
        assert t_scalar(e(1), ctx) == 0

    def test_pair(self, ctx):
        assert t_scalar(Element.from_monomial(mono(1, 2)), ctx) == ctx.pairing.entry(1, 2)

    def test_equals_counit_of_t(self, ctx):
        assert_laws([checks.law_t_scalar_laws], ctx.pairing, scheme=ctx.scheme,
                    seed=0, max_grade=4, trials=15)

    def test_four_point_formula(self, ctx):
        def p(i, j):
            return ctx.pairing.entry(i, j)

        got = t_scalar(Element.from_monomial(mono(1, 2, 3, 3)), ctx)
        # t(a v b v c v d) with (a,b,c,d) = (e1,e2,e3,e3)
        expected = p(1, 2) * p(3, 3) + p(1, 3) * p(2, 3) + p(1, 3) * p(2, 3)
        assert got == expected

    def test_odd_grading_vanishes(self, ctx, rng):
        for _ in range(10):
            g = rng.choice([1, 3, 5])
            m = Monomial.from_indices(rng.choices([1, 2, 3], k=g))
            assert t_scalar(Element.from_monomial(m), ctx) == 0

    def test_t_from_scalar(self, ctx, rng):
        for _ in range(15):
            u = rand_element(rng, 3, 4)
            acc = Element.zero()
            for u1, u2, c in sweedler(u):
                f = t_scalar(Element.from_monomial(u1), ctx)
                if f:
                    acc = acc + (c * f) * Element.from_monomial(u2)
            assert acc == t_map(u, ctx)

    def test_splitting_recursion_any_factorization(self, ctx, rng):
        for _ in range(15):
            u = rand_element(rng, 3, 3, terms=2)
            v = rand_element(rng, 3, 3, terms=2)
            lhs = t_scalar(vee(u, v), ctx)
            rhs = Scalar(0)
            for u1, u2, cu in sweedler(u):
                for v1, v2, cv in sweedler(v):
                    rhs = rhs + cu * cv * (
                        t_scalar(Element.from_monomial(u1), ctx)
                        * t_scalar(Element.from_monomial(v1), ctx)
                        * pairing(
                            Element.from_monomial(u2), Element.from_monomial(v2), ctx.pairing
                        )
                    )
            assert lhs == rhs


class TestClosedForms:
    """t's two oracles: the perfect-matching sum and Kan's moment formula."""

    ORACLES = (t_closed_form, t_by_moments)

    def test_single_pair(self, ctx):
        for t in self.ORACLES:
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert t((i, j), ctx) == ctx.pairing.entry(i, j), (t, i, j)
            assert t((), ctx) == 1

    def test_odd_defined_zero(self, ctx):
        for t in self.ORACLES:
            for gens in ((1,), (1, 2, 3), (2, 2, 2), (1, 1, 3, 3, 3)):
                assert t(gens, ctx) == 0, (t, gens)

    def test_three_matchings(self, ctx):
        def p(i, j):
            return ctx.pairing.entry(i, j)

        expected = p(1, 2) * p(3, 1) + p(1, 3) * p(2, 1) + p(1, 1) * p(2, 3)
        for t in self.ORACLES:
            assert t((1, 2, 3, 1), ctx) == expected

    def test_three_matchings_with_complex_entries(self):
        ctx = TContext(TestGaussianIntegerLetterLoop.PAIRING)
        # 2 (2/3 + 1/5 i)(-3/7 i) + (1/2)(5/4 - 1/6 i) = (6/35 - 4/7 i) + (5/8 - 1/12 i)
        expected = Scalar(Fraction(223, 280), Fraction(-55, 84))
        for t in self.ORACLES:
            assert t((1, 2, 3, 1), ctx) == expected

    def test_matches_filtered_permutation_oracle(self, ctx, rng):
        for length in (2, 4, 6):
            gens = tuple(rng.randint(1, 3) for _ in range(length))
            assert t_closed_form(gens, ctx) == matching_sum_oracle(gens, ctx.pairing)

    def test_matches_moments(self, ctx):
        # with the letter loop, on a word of each length <= 6 on three letters
        assert_laws([checks.law_t_closed_forms], ctx.pairing, scheme=ctx.scheme, seed=0,
                    max_grade=6, trials=trials_for(checks.law_t_closed_forms, 1))

    def test_all_routes_at_eight_letters(self, rng):
        # on a word of each length <= 8 on two letters, past the cap of 6
        assert_laws([checks.law_t_closed_forms], rand_pairing(rng, 2, symmetric=True), seed=0,
                    max_grade=8, trials=trials_for(checks.law_t_closed_forms, 1), cap=8)

    def test_matching_count_105_at_eight(self):
        ones = PairingMatrix([[Scalar(1)]])
        ctx = TContext(ones)
        for t in self.ORACLES:
            assert t((1,) * 8, ctx) == 105
            assert t((1,) * 6, ctx) == 15


class TestLetterLoopAgainstMoments:
    """The letter loop against Kan's moment formula at gradings 16-40, where
    the matching sums' (2n-1)!! branches cannot go.  Asked in increasing
    grading on one context the loop reads entries back from earlier calls,
    asked in decreasing grading it computes them cold."""

    @pytest.mark.parametrize("decreasing", [False, True])
    def test_four_letters_to_grading_forty(self, default, decreasing):
        ctx = TContext(default.pairing)
        for k in sorted((4, 6, 8, 10), reverse=decreasing):
            loop_equals_moments((1, 2, 3, 4) * k, ctx)

    def test_quartic_green_to_order_eight(self, default):
        """green(1, 2) of e1 v e2 v e3 v e4 reads t(e1 v e2 v m) and t(m) for
        m = (e1 v e2 v e3 v e4)^n, n <= 8: gradings up to 34."""
        ctx = TContext(default.pairing)
        order, quartic, legs = 8, (1, 2, 3, 4), (1, 2)
        got = green(1, 2, Element.from_monomial(mono(*quartic)), ctx, order)
        num, den = [], []
        for n in range(order + 1):
            num.append(loop_equals_moments(legs + quartic * n, ctx) / factorial(n))
            den.append(loop_equals_moments(quartic * n, ctx) / factorial(n))
        assert got * FormalSeries.from_scalars(den) == FormalSeries.from_scalars(num)


class TestLetterLoopInternsNothing:
    """t's memo is keyed by packed words, and green and tbar run on numerator
    forms, so t interns only the words it is asked for, and green and tbar
    nothing at all."""

    def test_t_of_a_long_word(self, default):
        ctx = TContext(default.pairing)
        word = mono(*(1,) * 40 + (2,) * 40)
        size = len(algebra._MONOMIALS)
        t_scalar(Element.from_monomial(word), ctx)
        assert len(algebra._MONOMIALS) == size
        assert word.word in ctx._t_numerators and len(ctx._t_numerators) > 400

    @pytest.mark.parametrize("renormalised", [False, True])
    def test_quartic_green_to_order_twelve(self, default, renormalised):
        ctx = TContext(default.pairing, default.scheme)
        u = Element.from_monomial(mono(1, 2, 3, 4))
        size = len(algebra._MONOMIALS)
        green(1, 2, u, ctx, 12, renormalised)
        assert len(algebra._MONOMIALS) == size
        # t(legs v m) for m = (e1 v e2 v e3 v e4)^12, which no one interned.
        assert _pack(((1, 13), (2, 13), (3, 12), (4, 12))) in ctx._t_numerators

    def test_tbar_at_grading_sixteen(self, default):
        # LinearFunctional(scheme) holds the scheme's values without its
        # table, so its twist is the split walk on Elements: the oracle.
        u = Element.from_monomial(mono(*(1, 2, 3, 4) * 4)) + Scalar(
            Fraction(1, 3), Fraction(-2, 5)) * Element.from_monomial(mono(1, 1, 2, 3, 3, 3))
        size = len(algebra._MONOMIALS)
        got = tbar_scalar(u, TContext(default.pairing, default.scheme))
        assert len(algebra._MONOMIALS) == size
        assert got == tbar_scalar(u, TContext(default.pairing, LinearFunctional(default.scheme)))
        assert got != t_scalar(u, TContext(default.pairing))


class TestSchemeTwist:
    """A scheme's twist walks the unit and the scheme's table; the split walk,
    reached through any function that is not a Scheme, is its oracle."""

    @staticmethod
    def seeded_schemes():
        """Schemes at d = 4 with support gradings 2..6, each with a repeated
        letter, plus the empty scheme and one supported above grading 6."""
        schemes = [Scheme(), Scheme({mono(1, 1, 2, 2, 3, 3, 4): 2, mono(*(4,) * 8): -1})]
        for seed in range(4):
            rng = random.Random(7000 + seed)
            values = {}
            for g in range(2, 7):
                a = rng.randint(1, 4)
                values[mono(a, a, *rng.choices(range(1, 5), k=g - 2))] = rand_scalar(rng)
                values[rand_monomial(rng, 4, g, min_grade=g)] = rand_scalar(rng)
            schemes.append(Scheme(values))
        return schemes

    def test_matches_the_split_walk_to_grading_six(self):
        monomials = monomials_upto(4, 6)
        rng = random.Random(7100)
        for z in self.seeded_schemes():
            by_splits = lambda m: z(m)  # noqa: E731  (not a Scheme: the split walk)
            for m in monomials:
                u = Element.from_monomial(m, rand_scalar(rng) or Scalar(1))
                assert twist(u, z) == twist(u, by_splits), (z, m)
            u = rand_element(rng, 4, 6, terms=5)
            assert twist(u, z) == twist(u, by_splits), (z, u)

    def test_weight_and_unit_term(self):
        a = Scalar(Fraction(2, 7), Fraction(1, 3))
        got = twist(Element.from_monomial(mono(1, 1, 1)), Scheme({mono(1, 1): a}))
        assert got == Element.from_monomial(mono(1, 1, 1)) + 3 * a * e(1)

    def test_reads_no_split_list(self, monkeypatch):
        def no_splits(m):
            raise AssertionError(f"split list read for {m}")

        monkeypatch.setattr("wickalg.algebra.monomial_splits", no_splits)
        u = Element.from_monomial(mono(*(1, 2, 3, 4) * 6))
        twist(u, self.seeded_schemes()[2])


class TestRenormalisedT:
    def test_base_cases(self, ctx):
        assert tbar_map(Element.one(), ctx) == Element.one()
        assert tbar_map(e(1), ctx) == e(1)

    def test_pair(self, ctx):
        got = tbar_map(Element.from_monomial(mono(1, 2)), ctx)
        expected = (
            Element.from_monomial(mono(1, 2))
            + (ctx.pairing.entry(1, 2) + ctx.scheme(mono(1, 2))) * Element.one()
        )
        assert got == expected

    def test_trivial_scheme_reduces_to_t(self, rng):
        L = rand_pairing(rng, 3, symmetric=True)
        ctx = TContext(L, Scheme())
        for _ in range(10):
            u = rand_element(rng, 3, 4)
            assert tbar_map(u, ctx) == t_map(u, ctx)

    def test_pinter_twist_route_to_grading_six(self, rng):
        # the circle-fold route on every monomial on two letters, past the cap of 4
        assert_laws([checks.law_tbar_circle_fold], rand_pairing(rng, 2, symmetric=True),
                    scheme=rand_scheme(rng, 2, max_grade=5), seed=0, max_grade=6, trials=1,
                    cap=6)

    def test_identities_to_grading_four(self, ctx):
        # the first identity, tbar = eps Tbar, Tbar from tbar and the coproduct
        # of Tbar on 10 draws of u of grading <= 4 (v <= 3), past the cap of 3
        assert_laws([checks.law_tbar_identities], ctx.pairing, scheme=ctx.scheme, seed=3,
                    max_grade=4, trials=trials_for(checks.law_tbar_identities, 10), cap=4)

    def test_first_identity_example(self, ctx):
        # T(e1) ro T(e2) = e1 ro e2 = e1 o e2 + Z(e1, e2)
        z, L = ctx.scheme, ctx.pairing
        expected = (
            Element.from_monomial(mono(1, 2))
            + (L.entry(1, 2) + z(mono(1, 2))) * Element.one()
        )
        assert circle_renorm(t_map(e(1), ctx), t_map(e(2), ctx), z, L) == expected
        assert circle(e(1), e(2), L) + z(mono(1, 2)) * Element.one() == expected

    def test_multiplicative_to_renorm_circle(self, ctx, rng):
        for _ in range(10):
            u = rand_element(rng, 3, 3, terms=2)
            v = rand_element(rng, 3, 3, terms=2)
            assert tbar_map(vee(u, v), ctx) == circle_renorm(
                tbar_map(u, ctx), tbar_map(v, ctx), ctx.scheme, ctx.pairing
            )


class TestRenormalisedScalarT:
    def test_base_cases(self, ctx):
        assert tbar_scalar(Element.one(), ctx) == 1
        assert tbar_scalar(e(3), ctx) == 0

    def test_ten_term_four_point(self, rng):
        # with the pair and triple examples, on e1..e4
        assert_laws([checks.law_tbar_examples], rand_pairing(rng, 4, symmetric=True),
                    scheme=rand_scheme(rng, 4, max_grade=4), seed=0, max_grade=4, trials=1)

    def test_is_convolution_of_scheme_with_t(self, ctx, rng):
        t_fn = LinearFunctional(lambda m: t_scalar(Element.from_monomial(m), ctx))
        conv = convolve(ctx.scheme, t_fn)
        for _ in range(10):
            u = rand_element(rng, 3, 4)
            expected = sum((c * conv(m) for m, c in u.items()), Scalar(0))
            assert tbar_scalar(u, ctx) == expected

