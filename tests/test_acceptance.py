"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality
over Gaussian rationals throughout.  Each test prints a PASS line; run with
``pytest -s tests/test_acceptance.py`` to see them all.
"""

import os
import random
from itertools import product as iterproduct

from conftest import (
    monomials_upto,
    rand_element,
    rand_pairing,
    rand_scalar,
    rand_scheme,
)
from wickalg import (
    Element,
    Monomial,
    PairingMatrix,
    Scalar,
    Scheme,
    TContext,
    TensorElement,
    antipode,
    circle,
    circle_distribute,
    circle_fold,
    circle_renorm,
    convolve,
    coproduct,
    counit,
    exp_sigma,
    first_identity_check,
    gaussian_closed_form_check,
    green,
    involute,
    modified_pairing,
    pairing,
    permanent,
    permanent_by_permutations,
    phi,
    recover_pairing,
    recover_vee,
    simplest_lagrangian_check,
    smatrix,
    sweedler,
    t_closed_form,
    t_map,
    t_map_by_circle_fold,
    t_permutation_form,
    t_scalar,
    tbar_map,
    tbar_map_by_circle_fold,
    tbar_scalar,
    tensor_product,
    vacuum_expectation,
    vee,
    z_pairing,
)
from wickalg.cli import main as cli_main
from wickalg.renorm import Functional

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
DEFAULT_CONFIG = os.path.join(CONFIG_DIR, "default.json")
ASYMMETRIC_CONFIG = os.path.join(CONFIG_DIR, "asymmetric.json")

SEED = 20260810
TRIALS = 100


def e(i):
    return Element.generator(i)


def mono(*indices):
    return Monomial.from_indices(indices)


def test_c01_hopf_laws():
    rng = random.Random(SEED)
    basis = [Element.from_monomial(m) for m in monomials_upto(4, 5)]
    elements = basis + [rand_element(rng, 4, 5) for _ in range(TRIALS)]
    for u in elements:
        t = coproduct(u)
        assert t.expand_slot(0) == t.expand_slot(1)          # coassociativity
        assert t.swap() == t                                  # cocommutativity
        left = Element.zero()
        right = Element.zero()
        for m1, m2, c in sweedler(u):
            if m1.grading == 0:
                left = left + c * Element.from_monomial(m2)
            if m2.grading == 0:
                right = right + c * Element.from_monomial(m1)
        assert left == u and right == u                       # counit law
        acc = Element.zero()
        for m1, m2, c in sweedler(u):
            acc = acc + c * antipode(Element.from_monomial(m1)).vee(
                Element.from_monomial(m2)
            )
        assert acc == counit(u) * Element.one()               # antipode law
    for _ in range(TRIALS):
        u = rand_element(rng, 4, 3)
        v = rand_element(rng, 4, 3)
        assert coproduct(vee(u, v)) == coproduct(u).vee(coproduct(v))
    print("PASS criterion 1: Hopf laws exact on monomials of grading <= 5 and random elements")


def test_c02_laplace_identities_and_permanent_kernels():
    rng = random.Random(SEED + 2)
    for n in range(7):
        for _ in range(6):
            matrix = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            assert permanent(matrix) == permanent_by_permutations(matrix)
    for symmetric in (False, True):
        L = rand_pairing(rng, 4, symmetric)
        for _ in range(TRIALS // 2):
            u = rand_element(rng, 4, 3)
            v = rand_element(rng, 4, 3)
            w = rand_element(rng, 4, 3)
            lhs = pairing(vee(u, v), w, L)
            rhs = Scalar(0)
            for w1, w2, c in sweedler(w):
                rhs = rhs + c * (
                    pairing(u, Element.from_monomial(w1), L)
                    * pairing(v, Element.from_monomial(w2), L)
                )
            assert lhs == rhs
            lhs = pairing(u, vee(v, w), L)
            rhs = Scalar(0)
            for u1, u2, c in sweedler(u):
                rhs = rhs + c * (
                    pairing(Element.from_monomial(u1), v, L)
                    * pairing(Element.from_monomial(u2), w, L)
                )
            assert lhs == rhs
    print("PASS criterion 2: Laplace identities and Ryser = naive permanent for n <= 6")


def test_c03_circle_product_laws():
    rng = random.Random(SEED + 3)
    pairings = [
        rand_pairing(rng, 4, symmetric=True),
        rand_pairing(rng, 4, symmetric=False),
        rand_pairing(rng, 3, symmetric=False),
    ]
    for L in pairings:
        d = L.dim
        for _ in range(TRIALS):
            u = rand_element(rng, d, 4, terms=2)
            v = rand_element(rng, d, 4, terms=2)
            w = rand_element(rng, d, 4, terms=2)
            assert circle(circle(u, v, L), w, L) == circle(u, circle(v, w, L), L)
        for _ in range(TRIALS // 4):
            u = rand_element(rng, d, 3, terms=2)
            v = rand_element(rng, d, 3, terms=2)
            w = rand_element(rng, d, 3, terms=2)
            assert counit(circle(u, v, L)) == pairing(u, v, L)
            lhs = coproduct(circle(u, v, L))
            rhs1 = TensorElement(rank=2)
            rhs2 = TensorElement(rank=2)
            for u1, u2, cu in sweedler(u):
                for v1, v2, cv in sweedler(v):
                    c = cu * cv
                    rhs1 = rhs1 + c * tensor_product(
                        Element.from_monomial(u1.vee(v1)),
                        circle(Element.from_monomial(u2), Element.from_monomial(v2), L),
                    )
                    rhs2 = rhs2 + c * tensor_product(
                        circle(Element.from_monomial(u1), Element.from_monomial(v1), L),
                        Element.from_monomial(u2.vee(v2)),
                    )
            assert lhs == rhs1 and lhs == rhs2
            assert pairing(u, circle(v, w, L), L) == pairing(circle(u, v, L), w, L)
            assert recover_vee(u, v, L) == vee(u, v)
            assert recover_pairing(u, v, L) == pairing(u, v, L) * Element.one()
            assert circle_distribute(u, v, w, L) == circle(u, vee(v, w), L)
    print("PASS criterion 3: circle product laws on >= 100 triples per pairing, asymmetric included")


def test_c04_wick_theorem():
    rng = random.Random(SEED + 4)
    L = rand_pairing(rng, 3, symmetric=False)
    from wickalg import wick_expand

    for length in range(7):
        for gens in iterproduct((1, 2, 3), repeat=length):
            if length >= 5 and rng.random() < 0.7:
                continue  # sample the big layers, cover all of length <= 4
            assert wick_expand(gens, L) == circle_fold(
                [Element.generator(i) for i in gens], L
            )
    # every list of length <= 6 over two generators, exhaustively
    L2 = rand_pairing(rng, 2, symmetric=False)
    for length in range(7):
        for gens in iterproduct((1, 2), repeat=length):
            assert wick_expand(gens, L2) == circle_fold(
                [Element.generator(i) for i in gens], L2
            )

    # the worked four-factor display, verbatim: ten terms
    L4 = rand_pairing(rng, 4, symmetric=False)

    def p(i, j):
        return L4.entry(i, j)

    got = wick_expand([1, 2, 3, 4], L4)
    expected = (
        Element.from_monomial(mono(1, 2, 3, 4))
        + p(1, 2) * Element.from_monomial(mono(3, 4))
        + p(1, 3) * Element.from_monomial(mono(2, 4))
        + p(2, 3) * Element.from_monomial(mono(1, 4))
        + p(1, 4) * Element.from_monomial(mono(2, 3))
        + p(2, 4) * Element.from_monomial(mono(1, 3))
        + p(3, 4) * Element.from_monomial(mono(1, 2))
        + (p(1, 2) * p(3, 4) + p(1, 3) * p(2, 4) + p(2, 3) * p(1, 4)) * Element.one()
    )
    assert got == expected
    print("PASS criterion 4: Wick expansion = circle fold for all lists of length <= 6; 4-factor display verbatim")


def test_c05_renormalisation_group():
    rng = random.Random(SEED + 5)
    z = rand_scheme(rng, 4, max_grade=5)
    inv = z.inverse()
    conv = convolve(z, inv)
    for m in monomials_upto(4, 6):
        assert conv(m) == (Scalar(1) if m.grading == 0 else Scalar(0))

    def zz(*idx):
        return z(mono(*idx))

    got = inv(mono(1, 2, 3, 4))
    assert got == (
        -zz(1, 2, 3, 4)
        + 2 * zz(1, 2) * zz(3, 4)
        + 2 * zz(1, 3) * zz(2, 4)
        + 2 * zz(1, 4) * zz(2, 3)
    )

    L = rand_pairing(rng, 4, symmetric=False)

    def z_pf(a, b):
        return z_pairing(a, b, z)

    def l_pf(a, b):
        return pairing(a, b, L)

    def m_pf(a, b):
        return modified_pairing(a, b, z, L)

    def coupling_holds(pf, u, v, w):
        lhs = Scalar(0)
        for u1, u2, cu in sweedler(u):
            for v1, v2, cv in sweedler(v):
                lhs = lhs + cu * cv * (
                    pf(Element.from_monomial(u1.vee(v1)), w)
                    * pf(Element.from_monomial(u2), Element.from_monomial(v2))
                )
        rhs = Scalar(0)
        for v1, v2, cv in sweedler(v):
            for w1, w2, cw in sweedler(w):
                rhs = rhs + cv * cw * (
                    pf(u, Element.from_monomial(v1.vee(w1)))
                    * pf(Element.from_monomial(v2), Element.from_monomial(w2))
                )
        return lhs == rhs

    for _ in range(TRIALS):
        u = rand_element(rng, 4, 2, terms=2)
        v = rand_element(rng, 4, 2, terms=2)
        assert z_pairing(u, v, z) == z_pairing(v, u, z)
    for _ in range(TRIALS // 3):
        u = rand_element(rng, 4, 2, terms=2)
        v = rand_element(rng, 4, 2, terms=2)
        w = rand_element(rng, 4, 2, terms=2)
        assert coupling_holds(z_pf, u, v, w)
        assert coupling_holds(l_pf, u, v, w)
        assert coupling_holds(m_pf, u, v, w)

    a, b, c, d = e(1), e(2), e(3), e(4)
    lhs = z_pairing(vee(a, b), vee(c, d), z)
    rhs = (
        z_pairing(a, vee(b, vee(c, d)), z)
        + z_pairing(a, c, z) * z_pairing(b, d, z)
        + z_pairing(b, c, z) * z_pairing(a, d, z)
    )
    assert lhs == rhs
    print("PASS criterion 5: convolution group, inverse four-point formula, coupling identities")


def test_c06_renormalised_circle_product():
    rng = random.Random(SEED + 6)
    z = rand_scheme(rng, 3, max_grade=4)
    for symmetric in (True, False):
        L = rand_pairing(rng, 3, symmetric)
        for _ in range(TRIALS // 3):
            u = rand_element(rng, 3, 3, terms=2)
            v = rand_element(rng, 3, 3, terms=2)
            w = rand_element(rng, 3, 3, terms=2)
            lhs = circle_renorm(circle_renorm(u, v, z, L), w, z, L)
            rhs = circle_renorm(u, circle_renorm(v, w, z, L), z, L)
            assert lhs == rhs
            if symmetric:
                assert circle_renorm(u, v, z, L) == circle_renorm(v, u, z, L)
    trivial = Scheme()
    L = rand_pairing(rng, 3, symmetric=False)
    for _ in range(TRIALS):
        u = rand_element(rng, 3, 3)
        v = rand_element(rng, 3, 3)
        assert circle_renorm(u, v, trivial, L) == circle(u, v, L)
    print("PASS criterion 6: renormalised circle associative, commutative when symmetric, trivial scheme reduces")


def test_c07_t_map_routes_and_scalar_forms():
    rng = random.Random(SEED + 7)
    L = rand_pairing(rng, 4, symmetric=True)
    ctx = TContext(L)
    for m in monomials_upto(4, 6):
        u = Element.from_monomial(m)
        a = t_map(u, ctx)
        assert a == t_map_by_circle_fold(u, ctx)
        assert a == exp_sigma(u, ctx)
    for _ in range(TRIALS // 2):
        u = rand_element(rng, 4, 4)
        lhs = coproduct(t_map(u, ctx))
        rhs = TensorElement(rank=2)
        for u1, u2, c in sweedler(u):
            rhs = rhs + c * tensor_product(
                Element.from_monomial(u1), t_map(Element.from_monomial(u2), ctx)
            )
        assert lhs == rhs
        assert t_scalar(u, ctx) == counit(t_map(u, ctx))
    for length in (2, 4, 6, 8):
        gens = tuple(rng.randint(1, 4) for _ in range(length))
        rec = t_scalar(Element.from_monomial(Monomial.from_indices(gens)), ctx)
        closed = t_closed_form(gens, ctx)
        assert rec == closed
        if length <= 8:
            assert closed == t_permutation_form(gens, ctx)
    ones = TContext(PairingMatrix([[Scalar(1)]], symmetric=True))
    assert t_closed_form((1,) * 8, ones) == 105  # (2n-1)!! matchings at 2n = 8
    print("PASS criterion 7: T-map routes agree to grading 6; scalar t closed forms agree to eight letters")


def test_c08_renormalisation_identities():
    rng = random.Random(SEED + 8)
    L = rand_pairing(rng, 3, symmetric=True)
    z = rand_scheme(rng, 3, max_grade=6)
    ctx = TContext(L, z)
    for m in monomials_upto(3, 6):
        u = Element.from_monomial(m)
        assert tbar_map(u, ctx) == tbar_map_by_circle_fold(u, ctx)  # Pinter identity
    for _ in range(TRIALS // 4):
        u = rand_element(rng, 3, 3, terms=2)
        v = rand_element(rng, 3, 3, terms=2)
        lhs, rhs = first_identity_check(u, v, ctx)
        assert lhs == rhs
    t_fn = Functional(lambda m: t_scalar(Element.from_monomial(m), ctx))
    conv = convolve(z, t_fn)
    for m in monomials_upto(3, 6):
        assert tbar_scalar(Element.from_monomial(m), ctx) == conv(m)

    L4 = rand_pairing(rng, 4, symmetric=True)
    z4 = rand_scheme(rng, 4, max_grade=4)
    ctx4 = TContext(L4, z4)

    def zz(*idx):
        return z4(mono(*idx))

    def p(i, j):
        return L4.entry(i, j)

    assert tbar_scalar(Element.from_monomial(mono(1, 2)), ctx4) == p(1, 2) + zz(1, 2)
    assert tbar_scalar(Element.from_monomial(mono(1, 2, 3)), ctx4) == zz(1, 2, 3)
    expected = (
        zz(1, 2, 3, 4)
        + zz(1, 2) * p(3, 4) + zz(1, 3) * p(2, 4) + zz(1, 4) * p(2, 3)
        + zz(2, 3) * p(1, 4) + zz(2, 4) * p(1, 3) + zz(3, 4) * p(1, 2)
        + p(1, 2) * p(3, 4) + p(1, 3) * p(2, 4) + p(1, 4) * p(2, 3)
    )
    assert tbar_scalar(Element.from_monomial(mono(1, 2, 3, 4)), ctx4) == expected
    print("PASS criterion 8: first identity and Pinter identity to grading 6; tbar = zeta * t; 10-term example")


def test_c09_fock_structure():
    rng = random.Random(SEED + 9)
    from wickalg import FockStructure

    fock = FockStructure([1, 2], [3, 4], {1: 3, 2: 4})
    for _ in range(TRIALS):
        u = rand_element(rng, 4, 3)
        v = rand_element(rng, 4, 3)
        assert phi(vee(u, v), fock) == phi(u, fock).vee(phi(v, fock))
        assert vacuum_expectation(u) == counit(u)
        assert involute(involute(u, fock), fock) == u
    images = set()
    for m in monomials_upto(4, 3):
        img = phi(Element.from_monomial(m), fock)
        key = tuple(sorted((k, str(c)) for k, c in img.items()))
        assert key not in images
        images.add(key)
    print("PASS criterion 9: normal-ordering isomorphism multiplicative and injective; vacuum = counit")


def test_c10_series_identities():
    rng = random.Random(SEED + 10)
    for d in (1, 2, 3):
        L = rand_pairing(rng, d, symmetric=True)
        ctx = TContext(L)
        for k in range(1, d + 1):
            lhs, rhs = simplest_lagrangian_check(k, ctx, 5)
            assert lhs == rhs
    for d in (1, 2):
        L = rand_pairing(rng, d, symmetric=True)
        ctx = TContext(L)
        lhs, rhs = gaussian_closed_form_check(ctx, order=3, max_grading=6)
        assert lhs == rhs
    L = rand_pairing(rng, 2, symmetric=True)
    ctx = TContext(L)
    for _ in range(10):
        u = rand_element(rng, 2, 2)
        s = smatrix(u, ctx, 3)
        assert s.coefficient(0).scalar_part() == Scalar(1)
        g = green(1, 2, u, ctx, 3)
        assert g.order == 3
    print("PASS criterion 10: simplest-Lagrangian identity to order 5; Gaussian determinant identity to order 3")


def test_c11_cli_surface(capsys):
    for config in (DEFAULT_CONFIG, ASYMMETRIC_CONFIG):
        code = cli_main(
            ["check", "--config", config, "--trials", "10", "--max-grade", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0, f"check failed on {config}:\n{out}"

    cases = [
        ("e1 o e2", "e1 v e2 + 1/3"),
        ("(e1 v e2) o e3", "e1 v e2 v e3 + 1/5 * e1 + 1/4 * e2"),
        ("e1 o (e2 v e3)", "e1 v e2 v e3 + 1/4 * e2 + 1/3 * e3"),
        ("e1 o e2 o e3", "e1 v e2 v e3 + 1/5 * e1 + 1/4 * e2 + 1/3 * e3"),
        (
            "e1 o e2 o e3 o e4",
            "e1 v e2 v e3 v e4 + 1/7 * e1 v e2 + 1/6 * e1 v e3 + 1/5 * e1 v e4"
            " + 1/5 * e2 v e3 + 1/4 * e2 v e4 + 1/3 * e3 v e4 + 181/1400",
        ),
        (
            "(e1 v e2) o (e3 v e4)",
            "e1 v e2 v e3 v e4 + 1/6 * e1 v e3 + 1/5 * e1 v e4"
            " + 1/5 * e2 v e3 + 1/4 * e2 v e4 + 49/600",
        ),
        ("tbar(e1 v e2)", "10/21"),
        ("tbar(e1 v e2 v e3)", "1/23"),
        ("tbar(e1 v e2 v e3 v e4)", "918595963/2316514200"),
    ]
    for expression, expected in cases:
        code = cli_main(["eval", "--config", DEFAULT_CONFIG, expression])
        out = capsys.readouterr().out
        assert code == 0
        assert out.rstrip("\n") == expected, f"{expression}: got {out!r}"
    print("PASS criterion 11: check exits 0 on shipped configs; worked examples reproduced character-exactly")
