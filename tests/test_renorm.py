import gc
import weakref

import pytest

import wickalg.renorm as renorm_mod
from conftest import (assert_laws, e, mono, monomials_upto, rand_element, rand_pairing, rand_scheme,
                      trials_for)
from wickalg import checks
from wickalg import (
    Element,
    PairingMatrix,
    Scalar,
    Scheme,
    TContext,
    circle,
    circle_renorm,
    convolution_inverse,
    convolve,
    counit,
    modified_pairing,
    pairing,
    tbar_map,
    vee,
    z_pairing,
)


def doubled(L):
    return PairingMatrix([[Scalar(2) * x for x in row] for row in L.rows])


class TestScheme:
    def test_structural_values(self, rng):
        z = rand_scheme(rng, 3)
        assert z(mono()) == 1
        assert z(mono(1)) == 0
        assert z(mono(2)) == 0

    def test_rejects_low_grading_keys(self):
        with pytest.raises(ValueError):
            Scheme({mono(1): Scalar(1)})
        with pytest.raises(ValueError):
            Scheme({mono(): Scalar(2)})

    def test_eval_linear(self, rng):
        z = rand_scheme(rng, 3)
        m1, m2 = mono(1, 2), mono(1, 2, 3)
        u = 2 * Element.from_monomial(m1) + 3 * Element.from_monomial(m2)
        value = sum((c * z(m) for m, c in u.items()), Scalar(0))
        assert value == 2 * z(m1) + 3 * z(m2)

    def test_unstored_default_zero(self):
        z = Scheme({mono(1, 2): Scalar(5)})
        assert z(mono(1, 3)) == 0
        assert z(mono(1, 2)) == 5


class TestConvolution:
    def test_grading_two_formula(self, rng):
        # (z * z')(a v b) = z(ab) + z'(ab): grading-one values vanish
        z1 = rand_scheme(rng, 3)
        z2 = rand_scheme(rng, 3)
        conv = convolve(z1, z2)
        m = mono(1, 2)
        assert conv(m) == z1(m) + z2(m)

    # Each law below runs at d = 3 (the acceptance criteria run d = 4), the
    # convolution laws on random schemes of the law's own.
    def test_associative_commutative(self, rng):
        # unit, associativity, commutativity and inverse on every monomial of
        # grading <= 6, the request and the law's cap
        assert_laws([checks.law_convolution_group], rand_pairing(rng, 3, symmetric=False),
                    seed=0, max_grade=6, trials=1)

    def test_inverse_values(self, rng):
        z = rand_scheme(rng, 4)
        inv = convolution_inverse(z)
        assert inv(mono()) == 1
        assert inv(mono(1)) == 0
        assert inv(mono(1, 2)) == -z(mono(1, 2))
        assert inv(mono(1, 2, 3)) == -z(mono(1, 2, 3))

    def test_inverse_four_point_formula(self, rng):
        assert_laws([checks.law_inverse_four_point], rand_pairing(rng, 4, symmetric=False),
                    seed=0, max_grade=4, trials=1)


class TestZPairing:
    def test_generator_values(self, rng):
        z = rand_scheme(rng, 4)
        assert z_pairing(e(1), e(2), z) == z(mono(1, 2))
        assert z_pairing(e(1), vee(e(2), e(3)), z) == z(mono(1, 2, 3))

    def test_pair_pair_value(self, rng):
        z = rand_scheme(rng, 4)
        got = z_pairing(Element.from_monomial(mono(1, 2)), Element.from_monomial(mono(3, 4)), z)
        expected = z(mono(1, 2, 3, 4)) - z(mono(1, 2)) * z(mono(3, 4))
        assert got == expected

    def test_one_three_value(self, rng):
        z = rand_scheme(rng, 4)
        got = z_pairing(e(1), Element.from_monomial(mono(2, 3, 4)), z)
        expected = (
            z(mono(1, 2, 3, 4))
            - z(mono(1, 2)) * z(mono(3, 4))
            - z(mono(1, 3)) * z(mono(2, 4))
            - z(mono(2, 3)) * z(mono(1, 4))
        )
        assert got == expected

    def test_equals_unfiltered_convolution(self, rng):
        # Z skips the splits where z^-1 vanishes; the oracle sums over all of them.
        z1 = rand_scheme(rng, 3)
        monos = monomials_upto(3, 3)
        for z in (z1, convolve(z1, rand_scheme(rng, 3))):
            inv = convolution_inverse(z)
            for m1 in monos:
                for m2 in monos:
                    want = Scalar(0)
                    for a1, a2, wa in m1.splits():
                        for b1, b2, wb in m2.splits():
                            want = want + wa * wb * inv(a1) * inv(b1) * z(a2.vee(b2))
                    u, v = Element.from_monomial(m1), Element.from_monomial(m2)
                    assert z_pairing(u, v, z) == want, (m1, m2)

    def test_symmetry(self, rng):
        # also the unit: (1|u)_Z = eps(u)
        assert_laws([checks.law_z_pairing_symmetry], rand_pairing(rng, 3, symmetric=False),
                    scheme=rand_scheme(rng, 3), seed=0, max_grade=3, trials=20)

    def test_coupling_identity(self, rng):
        # 12 random triples of grading <= 2, then the worked 2+2 instance
        assert_laws([checks.law_z_coupling_identity], rand_pairing(rng, 3, symmetric=False),
                    scheme=rand_scheme(rng, 3), seed=0, max_grade=2,
                    trials=trials_for(checks.law_z_coupling_identity, 12))


class TestModifiedPairing:
    def test_generator_value(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        got = modified_pairing(e(1), e(2), z, L)
        assert got == z(mono(1, 2)) + L.entry(1, 2)

    def test_one_two_value(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        got = modified_pairing(e(1), vee(e(2), e(3)), z, L)
        assert got == z(mono(1, 2, 3))

    def test_unit_value(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(15):
            u = rand_element(rng, 3, 3)
            assert modified_pairing(u, Element.one(), z, L) == counit(u)
            assert modified_pairing(Element.one(), u, z, L) == counit(u)

    def test_three_one_is_z_pairing(self, rng):
        z = rand_scheme(rng, 4)
        L = rand_pairing(rng, 4, symmetric=False)
        u = Element.from_monomial(mono(1, 2, 3))
        got = modified_pairing(u, e(4), z, L)
        assert got == z_pairing(u, e(4), z)

    def test_two_two_full_formula(self, rng):
        z = rand_scheme(rng, 4)
        L = rand_pairing(rng, 4, symmetric=False)
        ab = Element.from_monomial(mono(1, 2))
        cd = Element.from_monomial(mono(3, 4))

        def Z(x, y):
            return z_pairing(x, y, z)

        got = modified_pairing(ab, cd, z, L)
        expected = (
            Z(ab, cd)
            + pairing(ab, cd, L)
            + Z(e(1), e(3)) * L.entry(2, 4)
            + Z(e(1), e(4)) * L.entry(2, 3)
            + Z(e(2), e(3)) * L.entry(1, 4)
            + Z(e(2), e(4)) * L.entry(1, 3)
        )
        assert got == expected

    def test_coupling_identity(self, rng):
        assert_laws([checks.law_modified_coupling_identity], rand_pairing(rng, 3, symmetric=False),
                    scheme=rand_scheme(rng, 3), seed=0, max_grade=2,
                    trials=trials_for(checks.law_modified_coupling_identity, 10))


class TestRenormalisedCircle:
    def test_two_generators(self, rng):
        z = rand_scheme(rng, 2)
        L = rand_pairing(rng, 2, symmetric=False)
        got = circle_renorm(e(1), e(2), z, L)
        expected = (
            Element.from_monomial(mono(1, 2))
            + (z(mono(1, 2)) + L.entry(1, 2)) * Element.one()
        )
        assert got == expected

    def test_pair_times_generator_worked_example(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        got = circle_renorm(Element.from_monomial(mono(1, 2)), e(3), z, L)
        expected = (
            Element.from_monomial(mono(1, 2, 3))
            + z(mono(1, 2, 3)) * Element.one()
            + L.entry(1, 3) * e(2)
            + L.entry(2, 3) * e(1)
            + z(mono(2, 3)) * e(1)
            + z(mono(1, 3)) * e(2)
        )
        assert got == expected

    def test_unit(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(15):
            u = rand_element(rng, 3, 3)
            assert circle_renorm(Element.one(), u, z, L) == u

    def test_coproduct_lemma(self, rng):
        assert_laws([checks.law_circle_renorm_coproduct], rand_pairing(rng, 3, symmetric=False),
                    scheme=rand_scheme(rng, 3), seed=0, max_grade=3,
                    trials=trials_for(checks.law_circle_renorm_coproduct, 10))

    def test_group_acts_on_the_product(self, rng):
        # schemes to grading 4, u and v to grading 3
        assert_laws([checks.law_group_action], rand_pairing(rng, 3, symmetric=False),
                    seed=0, max_grade=4, trials=10)


class TestMemoKeys:
    """A scheme's pairing memos are keyed on the pairing matrix by value:
    matrices with equal entries are equal and share one memo."""

    def test_shared_scheme_matches_fresh_scheme_per_pairing(self, rng):
        values = rand_scheme(rng, 3).values
        L = rand_pairing(rng, 3, symmetric=True)
        data = [(rand_element(rng, 3, 3), rand_element(rng, 3, 2)) for _ in range(4)]
        shared = Scheme(values)
        for M in (L, doubled(L)):
            fresh = Scheme(values)
            ctx_shared, ctx_fresh = TContext(M, shared), TContext(M, fresh)
            for u, v in data:
                assert circle_renorm(u, v, shared, M) == circle_renorm(u, v, fresh, M)
                assert modified_pairing(u, v, shared, M) == modified_pairing(u, v, fresh, M)
                assert tbar_map(u, ctx_shared) == tbar_map(u, ctx_fresh)

    def test_equal_pairing_hits_the_memo(self, rng, monkeypatch):
        # A memo miss of the coupling or the modified pairing runs the
        # module-level _convolve, so a rebound name sees every computation.
        calls = []
        real = renorm_mod._convolve

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(renorm_mod, "_convolve", counting)
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=True)
        u, v = Element.from_monomial(mono(1, 2, 3)), vee(e(1), e(2))
        first = modified_pairing(u, v, z, L)
        computed = len(calls)
        assert computed > 0
        again = modified_pairing(u, v, z, PairingMatrix(L.rows))
        assert again == first
        assert len(calls) == computed

    def test_one_modified_memo_per_matrix_value(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=True)
        u, v = rand_element(rng, 3, 3), rand_element(rng, 3, 3)
        for M in (L, PairingMatrix(L.rows), doubled(L)):
            circle_renorm(u, v, z, M)
            modified_pairing(u, v, z, M)
            tbar_map(u, TContext(M, z))
        assert len(z._modified) == 2


class TestLifetime:
    """A scheme and its inverse form no reference cycle."""

    def test_matrix_and_scheme_freed_without_the_cycle_collector(self, rng):
        # The matrix's Laplace memo and the scheme's modified-pairing memos
        # hold their owners weakly, so reference counting frees both.
        u, v = rand_element(rng, 3, 3), rand_element(rng, 3, 3)
        L = rand_pairing(rng, 3, symmetric=True)
        z = rand_scheme(rng, 3)
        gc.disable()
        try:
            circle(u, v, L)
            pairing(u, v, L)
            circle_renorm(u, v, z, L)
            tbar_map(u, TContext(L, z))
            refs = weakref.ref(L), weakref.ref(z)
            del L, z
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_scheme_freed_without_the_cycle_collector(self, rng):
        L = rand_pairing(rng, 3, symmetric=True)
        u, v = rand_element(rng, 3, 3), rand_element(rng, 3, 3)
        gc.disable()
        try:
            z = rand_scheme(rng, 3)
            z_pairing(u, v, z)
            circle_renorm(u, v, z, L)
            tbar_map(u, TContext(L, z))
            ref = weakref.ref(z)
            del z
            assert ref() is None
        finally:
            gc.enable()

    def test_held_inverse_outlives_its_scheme(self, rng):
        values = rand_scheme(rng, 3).values
        expected = convolution_inverse(Scheme(values))
        gc.disable()
        try:
            z = Scheme(values)
            z_pairing(e(1) + vee(e(2), e(3)), vee(e(1), e(3)), z)
            inv = z.inverse()
            ref = weakref.ref(z)
            del z
            for m in monomials_upto(3, 5):
                assert inv(m) == expected(m), m
            del inv
            assert ref() is None
        finally:
            gc.enable()
