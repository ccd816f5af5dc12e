import gc
import weakref

import pytest

import wickalg.renorm as renorm_mod
from conftest import monomials_upto, rand_element, rand_pairing, rand_scheme
from wickalg import (
    Element,
    Monomial,
    PairingMatrix,
    Scalar,
    Scheme,
    TContext,
    TensorElement,
    circle,
    circle_renorm,
    convolution_inverse,
    convolve,
    coproduct,
    counit,
    modified_pairing,
    pairing,
    sweedler,
    tbar_map,
    tensor_product,
    vee,
    z_pairing,
)


def e(i):
    return Element.generator(i)


def mono(*indices):
    return Monomial.from_indices(indices)


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
        assert z.on_element(u) == 2 * z(m1) + 3 * z(m2)

    def test_unstored_default_zero(self):
        z = Scheme({mono(1, 2): Scalar(5)})
        assert z(mono(1, 3)) == 0
        assert z(mono(1, 2)) == 5


class TestConvolution:
    def test_counit_is_unit(self, rng):
        z = rand_scheme(rng, 3)
        eps = Scheme()
        conv = convolve(z, eps)
        for m in monomials_upto(3, 4):
            assert conv(m) == z(m)

    def test_grading_two_formula(self, rng):
        # (z * z')(a v b) = z(ab) + z'(ab): grading-one values vanish
        z1 = rand_scheme(rng, 3)
        z2 = rand_scheme(rng, 3)
        conv = convolve(z1, z2)
        m = mono(1, 2)
        assert conv(m) == z1(m) + z2(m)

    def test_associative_commutative(self, rng):
        z1, z2, z3 = (rand_scheme(rng, 3) for _ in range(3))
        left = convolve(convolve(z1, z2), z3)
        right = convolve(z1, convolve(z2, z3))
        swap = convolve(z2, z1)
        forward = convolve(z1, z2)
        for m in monomials_upto(3, 5):
            assert left(m) == right(m)
            assert forward(m) == swap(m)

    def test_inverse_on_all_small_monomials(self, rng):
        for d in (2, 4):
            z = rand_scheme(rng, d, max_grade=4)
            conv = convolve(z, z.inverse())
            for m in monomials_upto(d, 6):
                expected = Scalar(1) if m.grading == 0 else Scalar(0)
                assert conv(m) == expected

    def test_inverse_values(self, rng):
        z = rand_scheme(rng, 4)
        inv = convolution_inverse(z)
        assert inv(mono()) == 1
        assert inv(mono(1)) == 0
        assert inv(mono(1, 2)) == -z(mono(1, 2))
        assert inv(mono(1, 2, 3)) == -z(mono(1, 2, 3))

    def test_inverse_four_point_formula(self, rng):
        z = rand_scheme(rng, 4)
        inv = convolution_inverse(z)

        def zz(*idx):
            return z(mono(*idx))

        got = inv(mono(1, 2, 3, 4))
        expected = (
            -zz(1, 2, 3, 4)
            + 2 * zz(1, 2) * zz(3, 4)
            + 2 * zz(1, 3) * zz(2, 4)
            + 2 * zz(1, 4) * zz(2, 3)
        )
        assert got == expected


class TestZPairing:
    def test_generator_values(self, rng):
        z = rand_scheme(rng, 4)
        assert z_pairing(e(1), e(2), z) == z(mono(1, 2))
        assert z_pairing(e(1), vee(e(2), e(3)), z) == z(mono(1, 2, 3))

    def test_unit(self, rng):
        z = rand_scheme(rng, 3)
        for _ in range(15):
            u = rand_element(rng, 3, 3)
            assert z_pairing(Element.one(), u, z) == counit(u)

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

    def test_symmetry(self, rng):
        z = rand_scheme(rng, 3)
        for _ in range(20):
            u = rand_element(rng, 3, 3)
            v = rand_element(rng, 3, 3)
            assert z_pairing(u, v, z) == z_pairing(v, u, z)

    def test_coupling_identity(self, rng):
        z = rand_scheme(rng, 3)
        for _ in range(12):
            u = rand_element(rng, 3, 2, terms=2)
            v = rand_element(rng, 3, 2, terms=2)
            w = rand_element(rng, 3, 2, terms=2)
            lhs = Scalar(0)
            for u1, u2, cu in sweedler(u):
                for v1, v2, cv in sweedler(v):
                    lhs = lhs + cu * cv * (
                        z_pairing(Element.from_monomial(u1.vee(v1)), w, z)
                        * z_pairing(
                            Element.from_monomial(u2), Element.from_monomial(v2), z
                        )
                    )
            rhs = Scalar(0)
            for v1, v2, cv in sweedler(v):
                for w1, w2, cw in sweedler(w):
                    rhs = rhs + cv * cw * (
                        z_pairing(u, Element.from_monomial(v1.vee(w1)), z)
                        * z_pairing(
                            Element.from_monomial(v2), Element.from_monomial(w2), z
                        )
                    )
            assert lhs == rhs

    def test_worked_coupling_instance(self, rng):
        z = rand_scheme(rng, 4)
        a, b, c, d = e(1), e(2), e(3), e(4)
        lhs = z_pairing(vee(a, b), vee(c, d), z)
        rhs = (
            z_pairing(a, vee(b, vee(c, d)), z)
            + z_pairing(a, c, z) * z_pairing(b, d, z)
            + z_pairing(b, c, z) * z_pairing(a, d, z)
        )
        assert lhs == rhs


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
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(10):
            u = rand_element(rng, 3, 2, terms=2)
            v = rand_element(rng, 3, 2, terms=2)
            w = rand_element(rng, 3, 2, terms=2)

            def mp(a, b):
                return modified_pairing(a, b, z, L)

            lhs = Scalar(0)
            for u1, u2, cu in sweedler(u):
                for v1, v2, cv in sweedler(v):
                    lhs = lhs + cu * cv * (
                        mp(Element.from_monomial(u1.vee(v1)), w)
                        * mp(Element.from_monomial(u2), Element.from_monomial(v2))
                    )
            rhs = Scalar(0)
            for v1, v2, cv in sweedler(v):
                for w1, w2, cw in sweedler(w):
                    rhs = rhs + cv * cw * (
                        mp(u, Element.from_monomial(v1.vee(w1)))
                        * mp(Element.from_monomial(v2), Element.from_monomial(w2))
                    )
            assert lhs == rhs


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
            assert circle_renorm(u, Element.one(), z, L) == u
            assert circle_renorm(Element.one(), u, z, L) == u

    def test_counit_is_modified_pairing(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(15):
            u = rand_element(rng, 3, 3)
            v = rand_element(rng, 3, 3)
            assert counit(circle_renorm(u, v, z, L)) == modified_pairing(u, v, z, L)

    def test_associative(self, rng):
        for symmetric in (False, True):
            z = rand_scheme(rng, 3)
            L = rand_pairing(rng, 3, symmetric)
            for _ in range(10):
                u = rand_element(rng, 3, 3, terms=2)
                v = rand_element(rng, 3, 3, terms=2)
                w = rand_element(rng, 3, 3, terms=2)
                lhs = circle_renorm(circle_renorm(u, v, z, L), w, z, L)
                rhs = circle_renorm(u, circle_renorm(v, w, z, L), z, L)
                assert lhs == rhs

    def test_commutative_when_symmetric(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=True)
        for _ in range(15):
            u = rand_element(rng, 3, 3)
            v = rand_element(rng, 3, 3)
            assert circle_renorm(u, v, z, L) == circle_renorm(v, u, z, L)

    def test_trivial_scheme_reduces_to_circle(self, rng):
        trivial = Scheme()
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(20):
            u = rand_element(rng, 3, 3)
            v = rand_element(rng, 3, 3)
            assert circle_renorm(u, v, trivial, L) == circle(u, v, L)

    def test_coproduct_lemma(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=False)
        for _ in range(10):
            u = rand_element(rng, 3, 3, terms=2)
            v = rand_element(rng, 3, 3, terms=2)
            lhs = coproduct(circle_renorm(u, v, z, L))
            rhs = TensorElement(rank=2)
            for u1, u2, cu in sweedler(u):
                for v1, v2, cv in sweedler(v):
                    rhs = rhs + (cu * cv) * tensor_product(
                        Element.from_monomial(u1.vee(v1)),
                        circle_renorm(
                            Element.from_monomial(u2), Element.from_monomial(v2), z, L
                        ),
                    )
            assert lhs == rhs


class TestMemoKeys:
    """A scheme's pairing memos are keyed on the pairing matrix by value."""

    def test_shared_scheme_matches_fresh_scheme_per_pairing(self, rng):
        values = rand_scheme(rng, 3).values
        L = rand_pairing(rng, 3, symmetric=True)
        data = [(rand_element(rng, 3, 3), rand_element(rng, 3, 2)) for _ in range(4)]
        shared = Scheme(values)
        for M in (L, L.scaled(2)):
            fresh = Scheme(values)
            ctx_shared, ctx_fresh = TContext(M, shared), TContext(M, fresh)
            for u, v in data:
                assert circle_renorm(u, v, shared, M) == circle_renorm(u, v, fresh, M)
                assert modified_pairing(u, v, shared, M) == modified_pairing(u, v, fresh, M)
                assert tbar_map(u, ctx_shared) == tbar_map(u, ctx_fresh)

    def test_equal_pairing_hits_the_memo(self, rng, monkeypatch):
        # The memo calls the module-level modified_pairing when it runs, so a
        # rebound name sees every computation.
        calls = []
        real = renorm_mod.modified_pairing

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(renorm_mod, "modified_pairing", counting)
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=True)
        u, v = Element.from_monomial(mono(1, 2, 3)), vee(e(1), e(2))
        first = circle_renorm(u, v, z, L)
        computed = len(calls)
        assert computed > 0
        again = circle_renorm(u, v, z, PairingMatrix(L.rows, symmetric=True))
        assert again == first
        assert len(calls) == computed

    def test_one_modified_memo_per_matrix_value(self, rng):
        z = rand_scheme(rng, 3)
        L = rand_pairing(rng, 3, symmetric=True)
        u, v = rand_element(rng, 3, 3), rand_element(rng, 3, 3)
        for M in (L, PairingMatrix(L.rows, symmetric=True), L.scaled(2)):
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
