import os
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from conftest import (Draws, assert_laws, e, mono, rand_element, rand_monomial, rand_pairing,
                      rand_scalar, rand_scheme, trials_for)
from wickalg import (
    Element,
    FormalSeries,
    PairingMatrix,
    Scalar,
    Scheme,
    TContext,
    circle,
    counit,
    exp_sigma,
    green,
    pairing,
    smatrix,
    t_map,
    vee_exp,
)
from wickalg import checks
from wickalg.checks import (
    gaussian_closed_form_check,
    series_vee_exp,
    simplest_lagrangian_check,
)
from wickalg.algebra import FIELD, Monomial
from wickalg.config import load_config
from wickalg.renorm import LinearFunctional, twist

DEFAULT = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "default.json")


def scalar_series(*values):
    return FormalSeries.from_scalars([Scalar.coerce(v) for v in values])


class TestSeriesRing:
    def test_add_mul_basics(self):
        a = scalar_series(1, 2, 3)
        b = scalar_series(0, 1, 0)
        assert (a + b) - b == a
        prod = a * b
        assert prod.scalars() == [Scalar(0), Scalar(1), Scalar(2)]

    def test_truncation_to_min_order(self):
        a = scalar_series(1, 1, 1, 1)
        b = scalar_series(1, 1)
        assert (a * b).order == 1

    def test_associativity_and_division_at_order_four(self):
        # 30 draws, all at order 4 where the law draws orders 1 to 4
        assert_laws([checks.law_series_ring], PairingMatrix([[1]]), seed=0, max_grade=1,
                    trials=trials_for(checks.law_series_ring, 30), cases=lambda env: [Draws(4)])

    def test_division_requires_unit(self):
        a = scalar_series(1, 2)
        with pytest.raises(ZeroDivisionError):
            a.divide(scalar_series(0, 1))

    def test_element_coefficients_multiply_with_vee(self):
        a = FormalSeries([Element.one(), e(1)], 1)
        b = FormalSeries([Element.one(), e(2)], 1)
        got = a * b
        assert got.coefficient(1) == e(1) + e(2)

    def test_inverse_sqrt(self, rng):
        for _ in range(20):
            f = FormalSeries.from_scalars(
                [Scalar(1)] + [rand_scalar(rng) for _ in range(5)]
            )
            g = f.inverse_sqrt()
            assert (g * g * f) == FormalSeries.constant(1, 5)

    def test_inverse_sqrt_requires_unit_constant(self):
        with pytest.raises(ValueError):
            scalar_series(2, 1).inverse_sqrt()


class TestVeeExp:
    def test_order_zero(self, rng):
        u = rand_element(rng, 2, 3)
        assert vee_exp(u, 0) == FormalSeries([Element.one()], 0)

    def test_generator_series(self):
        got = vee_exp(e(1), 2)
        assert got.coefficient(0) == Element.one()
        assert got.coefficient(1) == e(1)
        assert got.coefficient(2) == Element.from_monomial(
            mono(1, 1), Scalar(Fraction(1, 2))
        )

    def test_shift_by_scalar_is_exponential_prefactor(self, rng):
        # exp_v(a + s*1) = e^{s lambda} exp_v(a), coefficientwise
        for _ in range(10):
            s = rand_scalar(rng)
            a = rand_element(rng, 2, 2)
            order = 5
            lhs = vee_exp(a + Element.from_scalar(s), order)
            expf = FormalSeries.from_scalars(
                [s**k / Scalar(factorial(k)) for k in range(order + 1)]
            )
            rhs = expf * vee_exp(a, order)
            assert lhs == rhs

    def test_series_vee_exp_for_constant_series(self):
        # a series with only an order-0 coefficient: the exponential collects
        # everything at lambda^0 up to the grading cut, higher orders vanish
        w = FormalSeries([Element.from_monomial(mono(1, 1))], 3)
        got = series_vee_exp(w, 6)
        plain = Element.zero()
        for n in range(0, 4):
            plain = plain + Element.from_monomial(mono(*(1,) * (2 * n))) * Scalar(
                Fraction(1, factorial(n))
            )
        assert got.coefficient(0) == plain
        for k in range(1, 4):
            assert got.coefficient(k) == Element.zero()

    def test_series_vee_exp_rejects_scalar_part(self):
        w = FormalSeries([Element.one()], 2)
        with pytest.raises(ValueError):
            series_vee_exp(w, 4)


class TestPackedBoundary:
    """The power loop and the twist run on packed words, so what a field
    cannot hold is refused before any power, twist or t is computed."""

    def test_an_overflowing_order_is_refused_before_the_power_loop(self):
        # (e1|e1) = 0 makes t vanish at once on e1's powers, so even a
        # missing check costs no work here: it shows as a wrong key instead.
        ctx = TContext(PairingMatrix([[0, 1], [1, 0]]), Scheme())
        half = Element.from_monomial(Monomial({1: 1 << 31}))
        with pytest.raises(ValueError, match="overflows"):
            vee_exp(half, 2)
        # green keeps room for its two legs: order * grading + 2 <= FIELD.
        for order, grading in ((2, (1 << 31) - 1), (1, FIELD - 1)):
            u = Element.from_monomial(Monomial({1: grading}))
            for renormalised in (False, True):
                with pytest.raises(ValueError, match="overflows"):
                    green(1, 1, u, ctx, order, renormalised)

    def test_a_letter_too_large_to_pack_allocates_nothing(self):
        # The monomial refuses the letter, so no power, twist or scheme sees it.
        z = Scheme({Monomial({1: 2}): Scalar(3)})
        cases = (lambda: vee_exp(Element.from_monomial(Monomial({10**9: 2})) + e(1), 3),
                 lambda: twist(Element.from_monomial(Monomial({10**9: 2})) + e(1), z),
                 lambda: Scheme({Monomial({10**9: 2}): Scalar(3)}))
        tracemalloc.start()
        try:
            for case in cases:
                with pytest.raises(ValueError, match="cannot be packed"):
                    case()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSMatrix:
    def test_generator_lagrangian(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        got = smatrix(e(1), ctx, 2)
        assert got.coefficient(0) == Element.one()
        assert got.coefficient(1) == e(1)
        s = L.entry(1, 1)
        expected2 = Scalar(Fraction(1, 2)) * (
            Element.from_monomial(mono(1, 1)) + s * Element.one()
        )
        assert got.coefficient(2) == expected2

    def test_zero_lagrangian(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        got = smatrix(Element.zero(), ctx, 3)
        assert got == FormalSeries.constant(1, 3)

    def test_trivial_scheme_renormalised_equals_bare(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L, Scheme())
        u = rand_element(rng, 2, 2)
        assert smatrix(u, ctx, 3, renormalised=True) == smatrix(u, ctx, 3)

    def test_renormalised_differs_generically(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        z = Scheme({mono(1, 1): Scalar(7)})
        ctx = TContext(L, z)
        u = Element.from_monomial(mono(1, 1))
        bare = smatrix(u, ctx, 1)
        ren = smatrix(u, ctx, 1, renormalised=True)
        assert ren.coefficient(1) - bare.coefficient(1) == Scalar(7) * Element.one()


class TestGreen:
    def test_order_zero_is_pairing(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        u = rand_element(rng, 2, 2)
        got = green(1, 2, u, ctx, 0)
        assert got.scalars() == [L.entry(1, 2)]

    def test_zero_lagrangian_constant(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        got = green(1, 1, Element.zero(), ctx, 3)
        assert got.scalars() == [L.entry(1, 1)] + [Scalar(0)] * 3

    def test_denominator_constant_term_is_one(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        u = rand_element(rng, 2, 2)
        s = smatrix(u, ctx, 3)
        assert s.coefficient(0).scalar_part() == Scalar(1)

    def test_one_dimensional_mass_term_oracle(self):
        # d=1, u = e v e, pairing (e|e)=m: compute the ratio independently.
        m = Scalar(Fraction(1, 3))
        L = PairingMatrix([[m]])
        ctx = TContext(L)
        u = Element.from_monomial(mono(1, 1))
        order = 2
        got = green(1, 1, u, ctx, order)

        num = []
        den = []
        ee = circle(e(1), e(1), L)
        for n in range(order + 1):
            power = Element.one()
            for _ in range(n):
                power = power.vee(u)
            coeff = Scalar(Fraction(1, factorial(n))) * t_map(power, ctx)
            den.append(counit(coeff))
            num.append(counit(circle(ee, coeff, L)))
        # series division done by hand
        expected = []
        for n in range(order + 1):
            acc = num[n]
            for k in range(1, n + 1):
                acc = acc - den[k] * expected[n - k]
            expected.append(acc / den[0])
        assert got.scalars() == expected

    def test_renormalised_with_trivial_scheme_matches_bare(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L, Scheme())
        u = rand_element(rng, 2, 2)
        assert green(1, 2, u, ctx, 2, renormalised=True) == green(1, 2, u, ctx, 2)


class TestRenormalisedGreenBySplitWalk:
    """A Scheme's twist walks its table; LinearFunctional(scheme) holds the
    same values without one, so its twist walks the coproduct splits."""

    @pytest.mark.parametrize("u", [
        Element.from_monomial(mono(1, 2, 3, 4)),
        Element.from_monomial(mono(1, 1, 2))
        + Scalar(Fraction(1, 2)) * Element.from_monomial(mono(3, 4)),
        Scalar(Fraction(1, 2)) * Element.from_monomial(mono(1, 1))
        + Scalar(Fraction(-1, 3)) * Element.from_monomial(mono(1, 1, 1)),
    ], ids=["e1e2e3e4", "e1^2e2+e3e4/2", "mass+cubic"])
    def test_matches_to_order_eight(self, u):
        cfg = load_config(DEFAULT)
        by_table = TContext(cfg.pairing, cfg.scheme)
        by_splits = TContext(cfg.pairing, LinearFunctional(cfg.scheme))
        for order in range(9):
            for i, j in ((1, 2), (1, 1)):
                got = green(i, j, u, by_table, order, renormalised=True)
                assert got == green(i, j, u, by_splits, order, renormalised=True), (order, i, j)


class TestGreenWithComplexScheme:
    """green on numerator forms against the smatrix route paired with the
    legs, built here from pieces green does not use: exp_v(u) by Element.vee
    and 1/n!, the zeta twist by the split walk of LinearFunctional(zeta), and
    T by exp_sigma.  zeta is complex with common denominator Z = 105, so the
    twist's factor Z, the n! of exp_v and the imaginary part of zeta each
    show in the series."""

    ZETA = Scheme({mono(1, 1): Scalar(Fraction(1, 3), Fraction(-1, 5)),
                   mono(1, 2, 3): Scalar(0, Fraction(2, 7))})

    @pytest.mark.parametrize("renormalised", [False, True])
    @pytest.mark.parametrize("u", [
        Scalar(Fraction(1, 2)) * Element.one() + Element.from_monomial(mono(1, 2, 3))
        + Scalar(Fraction(1, 2), Fraction(-1, 3)) * Element.from_monomial(mono(1, 1)),
        Element.from_monomial(mono(1, 1, 2, 3))
        + Scalar(0, Fraction(-1, 4)) * Element.from_monomial(mono(2, 2)),
        Element.zero(),
    ], ids=["grading0+3+2", "grading4+2", "zero"])
    def test_matches_the_smatrix_route_to_order_four(self, u, renormalised):
        L, order = load_config(DEFAULT).pairing, 4
        ctx = TContext(L, self.ZETA)
        by_splits = LinearFunctional(self.ZETA)
        s, power = [], Element.one()
        for n in range(order + 1):
            power = power.vee(u) if n else power
            c = Scalar(Fraction(1, factorial(n))) * power
            s.append(exp_sigma(twist(c, by_splits) if renormalised else c, ctx))
        assert smatrix(u, ctx, order, renormalised).coeffs == s
        den = FormalSeries.from_scalars([c.scalar_part() for c in s])
        for i, j in ((1, 1), (2, 3), (1, 4)):
            legs = circle(e(i), e(j), L)
            num = FormalSeries.from_scalars([pairing(legs, c, L) for c in s])
            expected = num.divide(den).coeffs
            for n in range(order + 1):
                got = green(i, j, u, ctx, n, renormalised)
                assert got == FormalSeries(expected[: n + 1]), (i, j, n)


class TestGreenNumeratorAsPairing:
    """green reads t of legs v c (or of the zeta twist of c) and builds no T
    element.  Oracles: the scalar part of the full circle product, and the
    earlier production route, the legs e_i o e_j paired with each
    coefficient of smatrix."""

    @staticmethod
    def green_by_circle(i, j, u, ctx, order, renormalised):
        L = ctx.pairing
        num, den = [], []
        for c in smatrix(u, ctx, order, renormalised).coeffs:
            num.append(circle(circle(e(i), e(j), L), c, L).scalar_part())
            den.append(c.scalar_part())
        return FormalSeries.from_scalars(num).divide(FormalSeries.from_scalars(den))

    @pytest.mark.parametrize("renormalised", [False, True])
    @pytest.mark.parametrize("u", [
        Element.from_monomial(mono(1, 1, 1, 1)),
        Element.from_monomial(mono(1, 2, 3)),
        Scalar(Fraction(1, 2)) * Element.from_monomial(mono(2, 2))
        + Scalar(Fraction(-1, 3)) * Element.from_monomial(mono(2, 2, 2)),
    ], ids=["e1^4", "e1e2e3", "mass+cubic"])
    def test_matches_scalar_part_of_circle(self, u, renormalised):
        cfg = load_config(DEFAULT)
        ctx = TContext(cfg.pairing, cfg.scheme)
        for order in range(4):
            for i, j in ((1, 2), (3, 3)):
                expected = self.green_by_circle(i, j, u, ctx, order, renormalised)
                assert green(i, j, u, ctx, order, renormalised) == expected, (order, i, j)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_random_lagrangians_match_smatrix_paired_with_the_legs(self, d):
        rng = random.Random(6000 + d)
        L = rand_pairing(rng, d, symmetric=True)
        for _ in range(2):
            ctx = TContext(L, rand_scheme(rng, d))
            u = Element.zero()
            while len(u.terms) < 3 or max(m.grading for m in u.terms) < 3:
                u = u + rand_scalar(rng) * Element.from_monomial(rand_monomial(rng, d, 3))
            for renormalised in (False, True):
                s = smatrix(u, ctx, 4, renormalised).coeffs
                den = FormalSeries.from_scalars([c.scalar_part() for c in s])
                for i in range(1, d + 1):
                    for j in range(1, d + 1):
                        legs = circle(e(i), e(j), L)
                        num = FormalSeries.from_scalars([pairing(legs, c, L) for c in s])
                        expected = num.divide(den).coeffs
                        for order in range(5):
                            got = green(i, j, u, ctx, order, renormalised)
                            assert got == FormalSeries(expected[: order + 1]), (u, i, j, order)


class TestSimplestLagrangian:
    def test_low_orders(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        lhs, rhs = simplest_lagrangian_check(1, ctx, 2)
        assert lhs.coefficient(0) == Element.one() == rhs.coefficient(0)
        assert lhs.coefficient(1) == e(1) == rhs.coefficient(1)
        s = L.entry(1, 1)
        expected = Scalar(Fraction(1, 2)) * (
            Element.from_monomial(mono(1, 1)) + s * Element.one()
        )
        assert lhs.coefficient(2) == expected == rhs.coefficient(2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_through_order_five(self, rng, d):
        assert_laws([checks.law_simplest_lagrangian], rand_pairing(rng, d, symmetric=True),
                    seed=0, max_grade=1, trials=1,
                    cases=lambda env: [(k, 5) for k in range(1, env.d + 1)])


class TestGaussianClosedForm:
    def test_order_zero_is_plain_exponential(self, rng):
        L = rand_pairing(rng, 2, symmetric=True)
        ctx = TContext(L)
        lhs, rhs = gaussian_closed_form_check(ctx, order=0, max_grading=4)
        u = Element.from_monomial(mono(1, 1)) + Element.from_monomial(mono(2, 2))
        expected = Element.zero()
        power = Element.one()
        for n in range(3):  # u^{v n} has grading 2n <= 4, inside the cut
            expected = expected + Scalar(Fraction(1, factorial(n))) * power
            power = power.vee(u)
        assert lhs.coefficient(0) == expected
        assert rhs.coefficient(0) == expected

    def test_one_dimensional_first_order_scalar(self):
        m = Scalar(Fraction(2, 5))
        L = PairingMatrix([[m]])
        ctx = TContext(L)
        lhs, rhs = gaussian_closed_form_check(ctx, order=1, max_grading=2)
        # scalar part at first order comes from -1/2 * (-2m) on the closed side
        assert lhs.coefficient(1).scalar_part() == m
        assert rhs.coefficient(1).scalar_part() == m
        assert lhs == rhs

    @pytest.mark.parametrize("d,order,grading", [(2, 3, 6), (3, 2, 4)])
    def test_identity(self, rng, d, order, grading):
        assert_laws([checks.law_gaussian_closed_form], rand_pairing(rng, d, symmetric=True),
                    seed=0, max_grade=1, trials=1, cases=lambda env: [(d, order, grading)])
