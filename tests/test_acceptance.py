"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality
over Gaussian rationals throughout.  Each test prints a PASS line; run with
``pytest -s tests/test_acceptance.py`` to see them all.
"""

import os
import random
from itertools import product as iterproduct

from conftest import (
    Draws,
    assert_laws,
    mono,
    monomials_upto,
    rand_element,
    rand_pairing,
    rand_scalar,
    rand_scheme,
    sweep,
    trials_for,
)
from wickalg import (
    Element,
    FockStructure,
    PairingMatrix,
    Scalar,
    TContext,
    circle_fold,
    convolve,
    green,
    permanent,
    permanent_by_permutations,
    phi,
    smatrix,
    t_scalar,
    tbar_scalar,
)
from wickalg import checks
from wickalg.cli import main as cli_main
from wickalg.oracles import t_closed_form
from wickalg.renorm import LinearFunctional

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
DEFAULT_CONFIG = os.path.join(CONFIG_DIR, "default.json")
ASYMMETRIC_CONFIG = os.path.join(CONFIG_DIR, "asymmetric.json")

SEED = 20260810
TRIALS = 100


def test_c01_hopf_laws():
    L = rand_pairing(random.Random(SEED), 4, symmetric=True)
    # each law on TRIALS random elements of grading <= 5, coassociativity on
    # every monomial of grading <= 5 first
    assert_laws([checks.law_vee_ring, checks.law_coassociativity, checks.law_derivations_commute],
                L, seed=SEED, max_grade=5, trials=TRIALS)
    # these three on every monomial of grading <= 5 as well
    assert_laws([checks.law_cocommutativity, checks.law_counit, checks.law_antipode],
                L, seed=SEED, max_grade=5, trials=TRIALS, cases=lambda env: sweep(env, Draws()))
    assert_laws([checks.law_coproduct_morphism], L, seed=SEED, max_grade=3, trials=TRIALS)
    print("PASS criterion 1: Hopf laws exact on monomials of grading <= 5 and random elements")


def test_c02_laplace_identities_and_permanent_kernels():
    rng = random.Random(SEED + 2)
    # three trials per grading n <= 5, each comparing two pairs of monomials;
    # n = 6 here
    assert_laws([checks.law_permanent_kernels], rand_pairing(rng, 4, symmetric=False),
                seed=SEED + 2, max_grade=5, trials=trials_for(checks.law_permanent_kernels, 3))
    for _ in range(6):
        matrix = [[rand_scalar(rng) for _ in range(6)] for _ in range(6)]
        assert permanent(matrix) == permanent_by_permutations(matrix)
    for symmetric in (False, True):
        assert_laws([checks.law_laplace_identities], rand_pairing(rng, 4, symmetric),
                    seed=SEED + 2, max_grade=3, trials=TRIALS // 2)
    print("PASS criterion 2: Laplace identities and Glynn = naive permanent for n <= 6")


def test_c03_circle_product_laws():
    rng = random.Random(SEED + 3)
    pairings = [
        rand_pairing(rng, 4, symmetric=True),
        rand_pairing(rng, 4, symmetric=False),
        rand_pairing(rng, 3, symmetric=False),
    ]
    for L in pairings:
        # TRIALS triples on this pairing alone, not on the two the law draws
        assert_laws([checks.law_circle_associative], L, seed=SEED + 3, max_grade=4,
                    trials=trials_for(checks.law_circle_associative, TRIALS),
                    cases=lambda env: [Draws(env.L)])
        assert_laws(
            [
                checks.law_circle_counit,
                checks.law_circle_coproduct,
                checks.law_pairing_shift,
                checks.law_recover_vee,
                checks.law_recover_pairing,
                checks.law_commutativity_criterion,
            ],
            L, seed=SEED + 3, max_grade=3, trials=TRIALS // 4,
        )
        # past the cap of 3: u of grading <= 4, v and w <= 3
        assert_laws([checks.law_distributivity], L, seed=SEED + 3, max_grade=4,
                    trials=TRIALS // 4, cap=4)
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
    L = rand_pairing(rng, 4, symmetric=False)
    # the group laws draw their own schemes and compare on every monomial of
    # grading <= 6, the request and their cap
    assert_laws([checks.law_convolution_group], L, seed=SEED + 5, max_grade=6, trials=1)
    assert_laws(
        [checks.law_inverse_four_point, checks.law_z_pairing_symmetry],
        L, scheme=z, seed=SEED + 5, max_grade=5, trials=TRIALS,
    )
    # TRIALS // 3 triples for each coupling identity
    assert_laws([checks.law_laplace_coupling], L, seed=SEED + 5, max_grade=5, trials=TRIALS // 3)
    assert_laws(
        [checks.law_z_coupling_identity, checks.law_modified_coupling_identity],
        L, scheme=z, seed=SEED + 5, max_grade=5,
        trials=trials_for(checks.law_z_coupling_identity, TRIALS // 3),
    )
    print("PASS criterion 5: convolution group, inverse four-point formula, coupling identities")


def test_c06_renormalised_circle_product():
    rng = random.Random(SEED + 6)
    z = rand_scheme(rng, 3, max_grade=4)
    for symmetric in (True, False):
        # TRIALS // 3 triples
        assert_laws([checks.law_circle_renorm_ring], rand_pairing(rng, 3, symmetric), scheme=z,
                    seed=SEED + 6, max_grade=3,
                    trials=trials_for(checks.law_circle_renorm_ring, TRIALS // 3))
    assert_laws([checks.law_circle_renorm_trivial], rand_pairing(rng, 3, symmetric=False),
                seed=SEED + 6, max_grade=3, trials=TRIALS)
    print("PASS criterion 6: renormalised circle associative, commutative when symmetric, trivial scheme reduces")


def test_c07_t_map_routes_and_scalar_forms():
    rng = random.Random(SEED + 7)
    L = rand_pairing(rng, 4, symmetric=True)
    # every monomial of grading <= 6, past the cap of 5
    assert_laws([checks.law_t_routes], L, seed=SEED + 7, max_grade=6, trials=1, cap=6)
    assert_laws(
        [
            checks.law_t_coproduct,
            checks.law_t_multiplicative,
            checks.law_t_scalar_laws,
            checks.law_sigma_commutator,
        ],
        L, seed=SEED + 7, max_grade=4, trials=TRIALS // 2,
    )
    # the letter loop, the matching sum and Kan's moment formula on a word of
    # each length <= 8, past the cap of six letters
    assert_laws([checks.law_t_closed_forms], L, seed=SEED + 7, max_grade=8,
                trials=trials_for(checks.law_t_closed_forms, 1), cap=8)
    ones = TContext(PairingMatrix([[Scalar(1)]]))
    assert t_closed_form((1,) * 8, ones) == 105  # (2n-1)!! matchings at 2n = 8
    print("PASS criterion 7: T-map routes agree to grading 6; scalar t, its matching sum "
          "and its moment formula agree to eight letters")


def test_c08_renormalisation_identities():
    rng = random.Random(SEED + 8)
    L = rand_pairing(rng, 3, symmetric=True)
    z = rand_scheme(rng, 3, max_grade=6)
    ctx = TContext(L, z)
    # past the caps: the circle-fold route (Pinter identity) on every
    # monomial of grading <= 6, then the first identity and the others on
    # TRIALS // 4 draws of u of grading <= 4, v <= 3
    assert_laws([checks.law_tbar_circle_fold], L, scheme=z, seed=SEED + 8, max_grade=6,
                trials=1, cap=6)
    assert_laws([checks.law_tbar_identities], L, scheme=z, seed=SEED + 8, max_grade=4,
                trials=trials_for(checks.law_tbar_identities, TRIALS // 4), cap=4)
    t_fn = LinearFunctional(lambda m: t_scalar(Element.from_monomial(m), ctx))
    conv = convolve(z, t_fn)
    for m in monomials_upto(3, 6):
        assert tbar_scalar(Element.from_monomial(m), ctx) == conv(m)
    # tbar on e1 v e2, e1 v e2 v e3 and the ten terms of e1 v e2 v e3 v e4
    assert_laws([checks.law_tbar_examples], rand_pairing(rng, 4, symmetric=True),
                scheme=rand_scheme(rng, 4, max_grade=4), seed=SEED + 8, max_grade=4, trials=TRIALS)
    print("PASS criterion 8: first identity and Pinter identity to grading 6; tbar = zeta * t; 10-term example")


def test_c09_fock_structure():
    rng = random.Random(SEED + 9)
    fock = FockStructure([1, 2], [3, 4], {1: 3, 2: 4})
    assert_laws(
        [
            checks.law_fock_projectors,
            checks.law_fock_phi,
            checks.law_fock_involution,
        ],
        rand_pairing(rng, 4, symmetric=True), fock=fock, seed=SEED + 9, max_grade=4, trials=TRIALS,
    )
    images = set()
    for m in monomials_upto(4, 3):
        img = phi(Element.from_monomial(m), fock)
        key = tuple(sorted((k, str(c)) for k, c in img.items()))
        assert key not in images
        images.add(key)
    print("PASS criterion 9: normal-ordering isomorphism multiplicative and injective")


def test_c10_series_identities():
    rng = random.Random(SEED + 10)
    # every generator to order 5, past the law's e1 and e2 to order 4
    for d in (1, 2, 3):
        assert_laws([checks.law_simplest_lagrangian], rand_pairing(rng, d, symmetric=True),
                    seed=SEED + 10, max_grade=6, trials=1,
                    cases=lambda env: [(k, 5) for k in range(1, env.d + 1)])
    # the whole pairing to order 3 and grading 6
    for d in (1, 2):
        assert_laws([checks.law_gaussian_closed_form], rand_pairing(rng, d, symmetric=True),
                    seed=SEED + 10, max_grade=6, trials=1, cases=lambda env: [(env.d, 3, 6)])
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
