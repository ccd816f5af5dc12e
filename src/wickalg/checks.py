"""Randomized identity suites: every law the engine promises, run with seeded
random elements and exact equality.

A law is one trial: a function that draws its inputs from a ``CheckEnv`` and
returns None or a counterexample string.  The ``@law`` decorator above it
declares, once, its name, its needs, its grading cap and its share of the
requested trials, and adds it to ``LAWS``.  One runner, :func:`run_law`, runs
every law at the grading min(cap, requested), so ``--max-grade`` bounds every
draw; it runs each drawn case ceil(share x requested trials) times and each
fixed case (a ``monomials_upto`` sweep, a worked instance) once, stops at the
first counterexample, and counts the trials it ran: ``LawReport.trials_run``.
A law that ran no trial is a skip, never a pass.

A law lives only here: tests/test_laws.py runs each over shipped and random
configs, and the acceptance criteria and unit tests run it through run_law at
their own sizes, past its cap or on cases of their own by a replaced entry
(``entry._replace(cap=..., cases=...)``).  Demo 05 prints the two sides that
``simplest_lagrangian_check`` and ``gaussian_closed_form_check`` build; the
production modules state no law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import permutations, product
from math import ceil, comb, factorial
from typing import Callable, NamedTuple

from . import laplace, renorm
from .algebra import (
    Element,
    Monomial,
    TensorElement,
    _accumulate,
    _wrap,
    antipode,
    coproduct,
    counit,
    derivation,
    divided_power,
    iterated_coproduct,
    sweedler,
    tensor_product,
    vee,
)
from .config import Config, check_int
from .fock import involute, phi, project_minus, project_plus
from .laplace import (
    PairingMatrix,
    circle,
    circle_fold,
    pairing,
    wick_expand,
)
from .oracles import (sweedler_product, t_by_moments, t_closed_form, t_map_by_circle_fold,
                      tbar_map_by_circle_fold, tbar_scalar_by_modified_pairing, wick_step)
from .renorm import Scheme, circle_renorm, modified_pairing, twist, z_pairing
from .scalars import ONE, ZERO, Scalar
from .series import (
    FormalSeries,
    green,
    smatrix,
    vee_exp,
)
from .tmaps import (
    TContext,
    exp_sigma,
    sigma_apply,
    t_map,
    t_scalar,
    tbar_map,
    tbar_scalar,
)


@dataclass
class LawReport:
    name: str
    status: str  # "ok" | "FAIL" | "skip"
    detail: str = ""
    trials_run: int = 0


# Seeded random data; CheckEnv's methods and the pytest suite both draw here.
def rand_scalar(rng) -> Scalar:
    """p/q + (r/s) i, |p| <= 3 and q <= 3; a quarter of the time |r| <= 2 and
    s <= 2, else r = 0."""
    p, q = rng.randint(-3, 3), rng.randint(1, 3)
    if rng.random() < 0.25:
        r, s = rng.randint(-2, 2), rng.randint(1, 2)
        return Scalar.from_integers(p * s, r * q, q * s)
    return Scalar.from_integers(p, 0, q)


def rand_monomial(rng, d, max_grade, min_grade=0) -> Monomial:
    g = rng.randint(min_grade, max_grade)
    return Monomial.from_indices(rng.choices(range(1, d + 1), k=g))


def rand_element(rng, d, max_grade, terms=3) -> Element:
    table = {}
    for _ in range(rng.randint(1, terms)):
        c = rand_scalar(rng)
        _accumulate(table, rand_monomial(rng, d, max_grade), c)
    return _wrap(table)


def rand_pairing(rng, d, symmetric: bool) -> PairingMatrix:
    """A random d x d pairing, drawn symmetric when ``symmetric`` is set."""
    rows = [[rand_scalar(rng) for _ in range(d)] for _ in range(d)]
    if symmetric:
        for i in range(d):
            for j in range(i + 1, d):
                rows[j][i] = rows[i][j]
    return PairingMatrix(rows)


def monomials_upto(d, max_grade):
    """All monomials over 1..d with grading <= max_grade."""
    out = [Monomial.unit()]
    frontier = [Monomial.unit()]
    for _ in range(max_grade):
        nxt = []
        seen = set()
        for m in frontier:
            start = m.counts[-1][0] if m.counts else 1
            for i in range(start, d + 1):
                mm = m.vee(Monomial.generator(i))
                if mm not in seen:
                    seen.add(mm)
                    nxt.append(mm)
        out.extend(nxt)
        frontier = nxt
    return out


class CheckEnv:
    """Shared state for one suite run: config data plus a seeded RNG.

    ``max_grade`` is the grading in force: the request, lowered to a law's
    cap while :func:`run_law` runs that law.  Every draw stays within it."""

    def __init__(self, config: Config, max_grade: int, trials: int, seed: int):
        self.d = config.dimension
        self.L = config.pairing
        self.scheme = config.scheme
        self.fock = config.fock
        self.max_grade = max_grade
        self.trials = trials
        self.rng = random.Random(seed)
        self._tcontext = None

    # -- random data ---------------------------------------------------------

    def random_scalar(self) -> Scalar:
        return rand_scalar(self.rng)

    def random_monomial(self, max_grade=None, min_grade=0) -> Monomial:
        if max_grade is None:
            max_grade = self.max_grade
        return rand_monomial(self.rng, self.d, max_grade, min_grade)

    def random_element(self, max_grade=None, terms=3) -> Element:
        if max_grade is None:
            max_grade = self.max_grade
        return rand_element(self.rng, self.d, max_grade, terms)

    def random_pairing(self, symmetric: bool) -> PairingMatrix:
        return rand_pairing(self.rng, self.d, symmetric)

    def random_scheme(self) -> Scheme:
        """Values on 2 to 6 random monomials of grading 2 up to the grading in
        force; below grading 2 a scheme has no values to draw."""
        values = {}
        if self.max_grade >= 2:
            for _ in range(self.rng.randint(2, 6)):
                m = self.random_monomial(min_grade=2)
                values[m] = self.random_scalar()
        return Scheme(values)

    def tcontext(self) -> TContext:
        if self._tcontext is None:
            self._tcontext = TContext(self.L, self.scheme)
        return self._tcontext


# -- the runner ---------------------------------------------------------------

class Draws:
    """A case whose trials draw fresh random data: it runs the law's share of
    the requested trials, each a call of the trial with ``args``."""

    def __init__(self, *args):
        self.args = args


class Law(NamedTuple):
    """A ``LAWS`` entry; the first four fields are the suite's interface."""
    name: str
    fn: Callable  # fn(env) runs the whole law: None or a counterexample
    needs_symmetric: bool
    needs_fock: bool
    trial: Callable  # trial(env, case) for a fixed case, trial(env, *args) for Draws
    cap: int | None  # grading cap; None: the request alone
    share: Fraction  # of the requested trials, for each Draws case
    cases: Callable | None  # cases(env) -> list at the grading in force; None: [Draws()]


LAWS: list[Law] = []


def law(name, *, cap=None, share=1, cases=None, needs_symmetric=False, needs_fock=False):
    """Declare the decorated trial as a law and add it to ``LAWS``; the name
    it decorates becomes ``fn``, the whole law."""

    def declare(trial):
        @wraps(trial)
        def fn(env):
            return run_law(entry, env)[0]

        entry = Law(name, fn, needs_symmetric, needs_fock, trial, cap, Fraction(share), cases)
        LAWS.append(entry)
        return fn

    return declare


def run_law(entry: Law, env: CheckEnv):
    """Run one law at the grading in force, min(cap, env.max_grade): each
    ``Draws`` case ceil(share x env.trials) times, each other case once, up
    to the first counterexample.  Returns (counterexample or None, trials run).
    """
    requested = env.max_grade
    if entry.cap is not None:
        env.max_grade = min(entry.cap, requested)
    try:
        repeats = ceil(entry.share * env.trials)
        run = 0
        for case in entry.cases(env) if entry.cases else [Draws()]:
            drawn = isinstance(case, Draws)
            for _ in range(repeats if drawn else 1):
                run += 1
                bad = entry.trial(env, *case.args) if drawn else entry.trial(env, case)
                if bad is not None:
                    return bad, run
        return None, run
    finally:
        env.max_grade = requested


def _apply_counit_side(t: TensorElement, left: bool) -> Element:
    out = Element.zero()
    for (m1, m2), c in t.items():
        unit, kept = (m1, m2) if left else (m2, m1)
        if unit.grading == 0:
            out = out + c * Element.from_monomial(kept)
    return out


def _sweep(env: CheckEnv):
    """Every monomial up to the grading in force, each one trial."""
    return monomials_upto(env.d, env.max_grade)


# -- algebra laws ------------------------------------------------------------

@law("vee is an associative commutative unital product")
def law_vee_ring(env: CheckEnv):
    u, v, w = (env.random_element() for _ in range(3))
    if vee(vee(u, v), w) != vee(u, vee(v, w)):
        return f"associativity: u={u}, v={v}, w={w}"
    if vee(u, v) != vee(v, u):
        return f"commutativity: u={u}, v={v}"
    if vee(u, Element.one()) != u:
        return f"unit: u={u}"


@law("coproduct coassociativity", cap=5, cases=lambda env: [*_sweep(env), Draws()])
def law_coassociativity(env: CheckEnv, m=None):
    u = env.random_element() if m is None else Element.from_monomial(m)
    t = coproduct(u)
    if t.expand_slot(0) != t.expand_slot(1):
        return f"u={u}"


@law("coproduct cocommutativity")
def law_cocommutativity(env: CheckEnv, m=None):
    u = env.random_element() if m is None else Element.from_monomial(m)
    t = coproduct(u)
    if t.swap() != t:
        return f"u={u}"


@law("counit law")
def law_counit(env: CheckEnv, m=None):
    u = env.random_element() if m is None else Element.from_monomial(m)
    t = coproduct(u)
    if _apply_counit_side(t, left=True) != u or _apply_counit_side(t, left=False) != u:
        return f"u={u}"


@law("coproduct is an algebra morphism")
def law_coproduct_morphism(env: CheckEnv):
    u, v = env.random_element(), env.random_element()
    if coproduct(vee(u, v)) != coproduct(u).vee(coproduct(v)):
        return f"u={u}, v={v}"


@law("antipode law and antipode morphism")
def law_antipode(env: CheckEnv, m=None):
    u = env.random_element() if m is None else Element.from_monomial(m)
    acc = Element.zero()
    for m1, m2, c in sweedler(u):
        acc = acc + c * antipode(Element.from_monomial(m1)).vee(
            Element.from_monomial(m2)
        )
    if acc != counit(u) * Element.one():
        return f"u={u}"
    v = env.random_element()
    if antipode(vee(u, v)) != vee(antipode(u), antipode(v)):
        return f"morphism: u={u}, v={v}"


@law("derivations commute")
def law_derivations_commute(env: CheckEnv):
    u = env.random_element()
    i = env.rng.randint(1, env.d)
    j = env.rng.randint(1, env.d)
    if derivation(i, derivation(j, u)) != derivation(j, derivation(i, u)):
        return f"i={i}, j={j}, u={u}"


@law("divided power laws", cases=lambda env: range(6))
def law_divided_powers(env: CheckEnv, n):
    """The divided powers e1^(n): coproduct, antipode, and the product with
    each e1^(m), m <= n (the product is commutative)."""
    k = 1
    dp = divided_power(k, n)
    acc = TensorElement(rank=2)
    for a in range(n + 1):
        acc = acc + tensor_product(divided_power(k, a), divided_power(k, n - a))
    if coproduct(dp) != acc:
        return f"coproduct at n={n}"
    if antipode(dp) != (Scalar(-1) ** n) * dp:
        return f"antipode at n={n}"
    for m in range(n + 1):
        lhs = divided_power(k, m).vee(dp)
        rhs = Scalar(comb(m + n, m)) * divided_power(k, m + n)
        if lhs != rhs:
            return f"product at m={m}, n={n}"


# -- laplace laws ------------------------------------------------------------

@law("permanent equals permutation sum", cap=5, share=Fraction(1, 20),
     cases=lambda env: [Draws(n, env.random_pairing(symmetric=False))
                        for n in range(env.max_grade + 1)])
def law_permanent_kernels(env: CheckEnv, n, other):
    """One pair of grading-n monomials under the config's pairing and one under
    a random pairing drawn for grading n: the config's may vanish on most
    monomial pairs (asymmetric.json's zero diagonal), and so may one draw with
    a zero entry."""
    for L in (env.L, other):
        m1, m2 = env.random_monomial(n, n), env.random_monomial(n, n)
        matrix = [[L.entry(a, b) for b in m2.indices()] for a in m1.indices()]
        want = laplace.permanent_by_permutations(matrix)
        if {laplace.pairing_monomials(m1, m2, L), laplace.permanent(matrix)} != {want}:
            return f"({m1}|{m2}) under the {'config' if L is env.L else 'random'} pairing"


@law("Laplace expansion identities", cap=3)
def law_laplace_identities(env: CheckEnv):
    u, v, w = (env.random_element() for _ in range(3))
    lhs = pairing(vee(u, v), w, env.L)
    rhs = ZERO
    for w1, w2, c in sweedler(w):
        rhs = rhs + c * (
            pairing(u, Element.from_monomial(w1), env.L)
            * pairing(v, Element.from_monomial(w2), env.L)
        )
    if lhs != rhs:
        return f"(u v v|w): u={u}, v={v}, w={w}"
    lhs = pairing(u, vee(v, w), env.L)
    rhs = ZERO
    for u1, u2, c in sweedler(u):
        rhs = rhs + c * (
            pairing(Element.from_monomial(u1), v, env.L)
            * pairing(Element.from_monomial(u2), w, env.L)
        )
    if lhs != rhs:
        return f"(u|v v w): u={u}, v={v}, w={w}"


@law("circle product associativity", cap=4, share=Fraction(1, 4),
     cases=lambda env: [Draws(L) for L in (env.L, env.random_pairing(symmetric=False),
                                           env.random_pairing(symmetric=True))])
def law_circle_associative(env: CheckEnv, L):
    u, v, w = (env.random_element() for _ in range(3))
    if circle(circle(u, v, L), w, L) != circle(u, circle(v, w, L), L):
        return f"u={u}, v={v}, w={w}, symmetric={L.symmetric}"


@law("counit of circle product is the pairing")
def law_circle_counit(env: CheckEnv):
    u, v = env.random_element(), env.random_element()
    if counit(circle(u, v, env.L)) != pairing(u, v, env.L):
        return f"u={u}, v={v}"


@law("coproduct of circle product lemma", cap=3)
def law_circle_coproduct(env: CheckEnv):
    u, v = env.random_element(), env.random_element()
    lhs = coproduct(circle(u, v, env.L))
    rhs1 = TensorElement(rank=2)
    rhs2 = TensorElement(rank=2)
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in sweedler(v):
            c = cu * cv
            rhs1 = rhs1 + c * tensor_product(
                Element.from_monomial(u1.vee(v1)),
                circle(Element.from_monomial(u2), Element.from_monomial(v2), env.L),
            )
            rhs2 = rhs2 + c * tensor_product(
                circle(Element.from_monomial(u1), Element.from_monomial(v1), env.L),
                Element.from_monomial(u2.vee(v2)),
            )
    if lhs != rhs1 or lhs != rhs2:
        return f"u={u}, v={v}"


@law("pairing shift lemma", cap=3)
def law_pairing_shift(env: CheckEnv):
    u, v, w = (env.random_element() for _ in range(3))
    if pairing(u, circle(v, w, env.L), env.L) != pairing(circle(u, v, env.L), w, env.L):
        return f"u={u}, v={v}, w={w}"


def antipode_sign(m: Monomial) -> int:
    """The antipode on a monomial is a sign: S(m) = (-1)^|m| m."""
    return -1 if m.grading % 2 else 1


@law("symmetric product recovered from circle", cap=3)
def law_recover_vee(env: CheckEnv):
    """u v v = sum (-1)^|u_(1)| (u_(1)|v_(1)) u_(2) o v_(2)."""
    u, v = env.random_element(), env.random_element()
    out = Element.zero()
    v_splits = list(sweedler(v))
    for u1, u2, cu in sweedler(u):
        sign = antipode_sign(u1)
        for v1, v2, cv in v_splits:
            if u1.grading != v1.grading:
                continue
            p = env.L._laplace[u1, v1]
            if not p:
                continue
            coeff = cu * cv * p * sign
            out = out + coeff * circle(
                Element.from_monomial(u2), Element.from_monomial(v2), env.L
            )
    if out != vee(u, v):
        return f"u={u}, v={v}"


@law("pairing recovered from circle", cap=3)
def law_recover_pairing(env: CheckEnv):
    """(u|v) 1 = sum (-1)^|u_(1) v v_(1)| u_(1) v v_(1) v (u_(2) o v_(2))."""
    u, v = env.random_element(), env.random_element()
    out = Element.zero()
    v_splits = list(sweedler(v))
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in v_splits:
            head = u1.vee(v1)
            sign = antipode_sign(head)
            prod = circle(Element.from_monomial(u2), Element.from_monomial(v2), env.L)
            out = out + (cu * cv * sign) * Element.from_monomial(head).vee(prod)
    if out != pairing(u, v, env.L) * Element.one():
        return f"u={u}, v={v}"


@law("circle distributivity over vee", cap=3)
def law_distributivity(env: CheckEnv):
    """u o (v v w) = sum (-1)^|u_(2)| (u_(1)(1) o v) v (u_(1)(2) o w) v u_(2),
    for u at the grading in force, v and w one grading lower."""
    u = env.random_element()
    v = env.random_element(max_grade=env.max_grade - 1)
    w = env.random_element(max_grade=env.max_grade - 1)
    out = Element.zero()
    for (u11, u12, u2), coeff in iterated_coproduct(u, 3).items():
        left = circle(Element.from_monomial(u11), v, env.L)
        mid = circle(Element.from_monomial(u12), w, env.L)
        out = out + (coeff * antipode_sign(u2)) * left.vee(mid).vee(Element.from_monomial(u2))
    if out != circle(u, vee(v, w), env.L):
        return f"u={u}, v={v}, w={w}"


@law("Wick recursion and expansion", cap=5)
def law_wick(env: CheckEnv):
    """The recursion u o e_b for u one grading below the grading in force, so
    that the product stays within it, and the expansion of a shuffled word."""
    u = env.random_element(max_grade=env.max_grade - 1)
    b = env.rng.randint(1, env.d)
    if wick_step(u, b, env.L) != circle(u, Element.generator(b), env.L):
        return f"wick_step: u={u}, b=e{b}"
    gens = list(env.random_monomial().indices())
    env.rng.shuffle(gens)
    if wick_expand(gens, env.L) != circle_fold([Element.generator(i) for i in gens], env.L):
        return f"wick_expand: gens={gens}"


@law("Laplace coupling identity", cap=2)
def law_laplace_coupling(env: CheckEnv):
    u, v, w = (env.random_element() for _ in range(3))
    if not _coupling_check(lambda a, b: pairing(a, b, env.L), u, v, w):
        return f"u={u}, v={v}, w={w}"


@law("circle commutativity criterion",
     cases=lambda env: [Draws()] if env.L.symmetric
     else list(product(range(1, env.d + 1), repeat=2)))
def law_commutativity_criterion(env: CheckEnv, ij=None):
    """Random elements commute under a symmetric pairing; under an asymmetric
    one the defect of commutativity on generators is exactly the antisymmetric
    part of the pairing."""
    if ij is None:
        u, v = env.random_element(), env.random_element()
        return f"u={u}, v={v}" if circle(u, v, env.L) != circle(v, u, env.L) else None
    i, j = ij
    ei, ej = Element.generator(i), Element.generator(j)
    defect = circle(ei, ej, env.L) - circle(ej, ei, env.L)
    expected = (env.L.entry(i, j) - env.L.entry(j, i)) * Element.one()
    if defect != expected:
        return f"i={i}, j={j}, defect={defect}"


# -- renorm laws -------------------------------------------------------------

def _with_schemes(cases):
    """A scheme law's cases, none below grading 2: there a random scheme has
    no values, and its identities hold term by term."""
    return lambda env: cases(env) if env.max_grade >= 2 else []


def _group_sides(env: CheckEnv):
    """Three random schemes' group laws as (left, right, label), each compared
    on every monomial up to the grading in force."""
    z1, z2, z3 = (env.random_scheme() for _ in range(3))
    c = renorm.convolve
    sides = ((c(c(z1, z2), z3), c(z1, c(z2, z3)), "associativity"),
             (c(z1, z2), c(z2, z1), "commutativity"),
             (c(z1, Scheme()), z1, "unit"),
             (c(z1, z1.inverse()), Scheme(), "inverse"))
    return [(m, sides) for m in _sweep(env)]


@law("convolution group laws", cap=6, cases=_with_schemes(_group_sides))
def law_convolution_group(env: CheckEnv, case):
    m, sides = case
    for lhs, rhs, label in sides:
        if lhs(m) != rhs(m):
            return f"{label} at {m}: {lhs(m)} != {rhs(m)}"


def _four_letters(env: CheckEnv):
    """Letters of the worked four-point instances, (1, 2, 3, 4) when d >= 4.
    With fewer generators letters repeat; the formulas, sums over labelled
    positions, hold verbatim."""
    return tuple(1 + k % env.d for k in range(4))


@law("convolution inverse four-point formula",
     cases=_with_schemes(lambda env: [_four_letters(env)]))
def law_inverse_four_point(env: CheckEnv, letters):
    z = env.random_scheme()

    def zz(*idx):
        return z(Monomial.from_indices(idx))

    i, j, k, l = letters
    got = z.inverse()(Monomial.from_indices((i, j, k, l)))
    expected = (
        -zz(i, j, k, l)
        + Scalar(2) * zz(i, j) * zz(k, l)
        + Scalar(2) * zz(i, k) * zz(j, l)
        + Scalar(2) * zz(i, l) * zz(j, k)
    )
    if got != expected:
        return f"got {got}, expected {expected}"


@law("coupling pairing symmetry and unit", cap=3)
def law_z_pairing_symmetry(env: CheckEnv):
    z = env.scheme
    u, v = env.random_element(), env.random_element()
    if z_pairing(u, v, z) != z_pairing(v, u, z):
        return f"u={u}, v={v}"
    if z_pairing(Element.one(), u, z) != counit(u):
        return f"unit: u={u}"


def _coupling_check(pair_fn, u, v, w):
    lhs = ZERO
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in sweedler(v):
            lhs = lhs + cu * cv * (
                pair_fn(Element.from_monomial(u1.vee(v1)), w)
                * pair_fn(Element.from_monomial(u2), Element.from_monomial(v2))
            )
    rhs = ZERO
    for v1, v2, cv in sweedler(v):
        for w1, w2, cw in sweedler(w):
            rhs = rhs + cv * cw * (
                pair_fn(u, Element.from_monomial(v1.vee(w1)))
                * pair_fn(Element.from_monomial(v2), Element.from_monomial(w2))
            )
    return lhs == rhs


@law("coupling identity for the Z pairing", cap=2, share=Fraction(1, 4),
     cases=lambda env: [Draws(), _four_letters(env)])
def law_z_coupling_identity(env: CheckEnv, letters=None):
    """Random triples, then the worked 2+2 instance on the four letters."""
    z = env.scheme
    if letters is None:
        u, v, w = (env.random_element(terms=2) for _ in range(3))
        holds = _coupling_check(lambda a, b: z_pairing(a, b, z), u, v, w)
        return None if holds else f"u={u}, v={v}, w={w}"
    a, b, c, d = (Element.generator(i) for i in letters)
    lhs = z_pairing(vee(a, b), vee(c, d), z)
    rhs = (
        z_pairing(a, vee(b, vee(c, d)), z)
        + z_pairing(a, c, z) * z_pairing(b, d, z)
        + z_pairing(b, c, z) * z_pairing(a, d, z)
    )
    if lhs != rhs:
        return f"worked instance: lhs={lhs}, rhs={rhs}"


@law("coupling identity for the modified pairing", cap=2, share=Fraction(1, 4))
def law_modified_coupling_identity(env: CheckEnv):
    u, v, w = (env.random_element(terms=2) for _ in range(3))
    if not _coupling_check(lambda a, b: modified_pairing(a, b, env.scheme, env.L), u, v, w):
        return f"u={u}, v={v}, w={w}"


@law("renormalised circle ring laws", cap=3, share=Fraction(1, 2))
def law_circle_renorm_ring(env: CheckEnv):
    z, L = env.scheme, env.L
    u, v, w = (env.random_element(terms=2) for _ in range(3))
    if circle_renorm(circle_renorm(u, v, z, L), w, z, L) != circle_renorm(
            u, circle_renorm(v, w, z, L), z, L):
        return f"associativity: u={u}, v={v}, w={w}"
    if circle_renorm(u, Element.one(), z, L) != u:
        return f"unit: u={u}"
    if L.symmetric and circle_renorm(u, v, z, L) != circle_renorm(v, u, z, L):
        return f"commutativity: u={u}, v={v}"
    if counit(circle_renorm(u, v, z, L)) != modified_pairing(u, v, z, L):
        return f"counit: u={u}, v={v}"


@law("renormalised circle reduces to circle", cap=3)
def law_circle_renorm_trivial(env: CheckEnv):
    u, v = env.random_element(), env.random_element()
    if circle_renorm(u, v, Scheme(), env.L) != circle(u, v, env.L):
        return f"u={u}, v={v}"


@law("coproduct of renormalised circle lemma", cap=3, share=Fraction(1, 2))
def law_circle_renorm_coproduct(env: CheckEnv):
    z = env.scheme
    u, v = env.random_element(terms=2), env.random_element(terms=2)
    lhs = coproduct(circle_renorm(u, v, z, env.L))
    rhs = TensorElement(rank=2)
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in sweedler(v):
            rhs = rhs + (cu * cv) * tensor_product(
                Element.from_monomial(u1.vee(v1)),
                circle_renorm(
                    Element.from_monomial(u2), Element.from_monomial(v2), z, env.L
                ),
            )
    if lhs != rhs:
        return f"u={u}, v={v}"


@law("zeta twist maps circle to renormalised circle", cap=3, share=Fraction(1, 2))
def law_twist_conjugates_circle(env: CheckEnv):
    """twist(u o v, z) = twist(u, z) ro twist(v, z), the right side by
    circle_renorm and by the Sweedler loop over the modified pairing."""
    z, L = env.scheme, env.L
    u, v = env.random_element(terms=2), env.random_element(terms=2)
    tu, tv = twist(u, z), twist(v, z)
    lhs = twist(circle(u, v, L), z)
    if lhs != circle_renorm(tu, tv, z, L):
        return f"circle_renorm: u={u}, v={v}"
    if lhs != sweedler_product(tu, tv, z._modified[L]):
        return f"Sweedler product over the modified pairing: u={u}, v={v}"


def _two_schemes(env: CheckEnv):
    z1, z2 = env.random_scheme(), env.random_scheme()
    return [Draws(z1, z2, renorm.convolve(z1, z2))]


@law("renormalisation group acts on the product", cap=4, cases=_with_schemes(_two_schemes))
def law_group_action(env: CheckEnv, z1, z2, z12):
    """Z_{z1*z2} = Z_{z1} * Z_{z2} and (.|.)_{z1*z2} = Z_{z1} * (.|.)_{z2},
    where (P * Q)(u, v) = sum P(u_(1), v_(1)) Q(u_(2), v_(2)); the schemes
    reach the grading in force, u and v one grading lower."""
    one = Element.from_monomial
    u, v = (env.random_element(max_grade=env.max_grade - 1, terms=2) for _ in range(2))
    z_rhs = modified_rhs = ZERO
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in sweedler(v):
            left = cu * cv * z_pairing(one(u1), one(v1), z1)
            if left:
                a, b = one(u2), one(v2)
                z_rhs = z_rhs + left * z_pairing(a, b, z2)
                modified_rhs = modified_rhs + left * modified_pairing(a, b, z2, env.L)
    if z_pairing(u, v, z12) != z_rhs:
        return f"Z of z1*z2: u={u}, v={v}"
    if modified_pairing(u, v, z12, env.L) != modified_rhs:
        return f"modified pairing of z1*z2: u={u}, v={v}"


# -- tmaps laws (symmetric pairing only) --------------------------------------

@law("T-map routes agree", cap=5, cases=_sweep, needs_symmetric=True)
def law_t_routes(env: CheckEnv, m):
    ctx = env.tcontext()
    u = Element.from_monomial(m)
    a = t_map(u, ctx)
    b = t_map_by_circle_fold(u, ctx)
    c = exp_sigma(u, ctx)
    if a != b or a != c:
        return f"monomial {m}: twist={a}, fold={b}, exp={c}"


@law("coproduct of T lemma", cap=4, needs_symmetric=True)
def law_t_coproduct(env: CheckEnv):
    ctx = env.tcontext()
    u = env.random_element()
    lhs = coproduct(t_map(u, ctx))
    rhs1 = TensorElement(rank=2)
    rhs2 = TensorElement(rank=2)
    for u1, u2, c in sweedler(u):
        rhs1 = rhs1 + c * tensor_product(
            Element.from_monomial(u1), t_map(Element.from_monomial(u2), ctx)
        )
        rhs2 = rhs2 + c * tensor_product(
            t_map(Element.from_monomial(u1), ctx), Element.from_monomial(u2)
        )
    if lhs != rhs1 or lhs != rhs2:
        return f"u={u}"


@law("T multiplicative from vee to circle", cap=3, needs_symmetric=True)
def law_t_multiplicative(env: CheckEnv):
    ctx = env.tcontext()
    u, v = env.random_element(), env.random_element()
    if t_map(vee(u, v), ctx) != circle(t_map(u, ctx), t_map(v, ctx), env.L):
        return f"u={u}, v={v}"


@law("scalar t-map laws", cap=4, needs_symmetric=True)
def law_t_scalar_laws(env: CheckEnv):
    ctx = env.tcontext()
    u = env.random_element()
    if t_scalar(u, ctx) != counit(t_map(u, ctx)):
        return f"t=eps T: u={u}"


@law("Sigma commutator laws", cap=4, needs_symmetric=True)
def law_sigma_commutator(env: CheckEnv):
    ctx = env.tcontext()
    u = env.random_element()
    k = env.rng.randint(1, env.d)
    a = Element.generator(k)
    lhs = sigma_apply(vee(a, u), ctx) - vee(a, sigma_apply(u, ctx))
    rhs = Element.zero()
    for j in range(1, env.d + 1):
        f = env.L.entry(k, j)
        if f:
            rhs = rhs + f * derivation(j, u)
    if lhs != rhs:
        return f"[Sigma,a]: a=e{k}, u={u}"
    if circle(a, u, env.L) != vee(a, u) + rhs:
        return f"a o u = a v u + [Sigma,a]u: a=e{k}, u={u}"


@law("t closed forms agree", cap=6, share=Fraction(1, 25), needs_symmetric=True,
     cases=lambda env: [Draws(n) for n in range(env.max_grade + 1)])
def law_t_closed_forms(env: CheckEnv, n):
    """The letter loop, the matching sum and the moment formula on a random
    word of n letters; all three vanish on odd words."""
    ctx = env.tcontext()
    m = env.random_monomial(n, n)
    gens = m.indices()
    a = t_scalar(Element.from_monomial(m), ctx)
    b = t_closed_form(gens, ctx)
    if a != b:
        return f"recursive vs matching: gens={gens}"
    if b != t_by_moments(gens, ctx):
        return f"matching vs moments: gens={gens}"
    if n % 2 and b != ZERO:
        return f"odd list not zero: {gens}"


@law("Tbar equals the renormalised circle fold", cap=4, cases=_sweep, needs_symmetric=True)
def law_tbar_circle_fold(env: CheckEnv, m):
    ctx = env.tcontext()
    u = Element.from_monomial(m)
    if tbar_map(u, ctx) != tbar_map_by_circle_fold(u, ctx):
        return f"monomial {m}"


@law("renormalised T identities", cap=3, share=Fraction(1, 2), needs_symmetric=True)
def law_tbar_identities(env: CheckEnv):
    """Random u, with v one grading lower in the first identity,
    T(u) ro T(v) = sum Z(u_(1), v_(1)) T(u_(2)) o T(v_(2))."""
    ctx, z, L, one = env.tcontext(), env.scheme, env.L, Element.from_monomial
    u = env.random_element(terms=2)
    v = env.random_element(max_grade=env.max_grade - 1, terms=2)
    lhs = circle_renorm(t_map(u, ctx), t_map(v, ctx), z, L)
    rhs, v_splits = Element.zero(), list(sweedler(v))
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in v_splits:
            if f := z._coupling[u1, v1]:
                rhs = rhs + (cu * cv * f) * circle(t_map(one(u2), ctx), t_map(one(v2), ctx), L)
    if lhs != rhs:
        return f"first identity: u={u}, v={v}"
    if tbar_scalar(u, ctx) != counit(tbar_map(u, ctx)):
        return f"tbar=eps Tbar: u={u}"
    if tbar_scalar(u, ctx) != tbar_scalar_by_modified_pairing(u, ctx):
        return f"tbar = modified-pairing recursion: u={u}"
    if twist(u, lambda m: tbar_scalar(one(m), ctx)) != tbar_map(u, ctx):
        return f"Tbar from tbar: u={u}"
    lhs, rhs = coproduct(tbar_map(u, ctx)), TensorElement(rank=2)
    for u1, u2, c in sweedler(u):
        rhs = rhs + c * tensor_product(one(u1), tbar_map(one(u2), ctx))
    if lhs != rhs:
        return f"coproduct of Tbar: u={u}"


@law("renormalised scalar t examples", needs_symmetric=True,
     cases=lambda env: [_four_letters(env)])
def law_tbar_examples(env: CheckEnv, letters):
    ctx = env.tcontext()
    z = ctx.scheme
    L = env.L
    i, j, k, l = letters
    a, b, c, d = (Element.generator(x) for x in letters)

    def zz(*idx):
        return z(Monomial.from_indices(idx))

    def p(x, y):
        return L.entry(x, y)

    two = tbar_scalar(vee(a, b), ctx)
    if two != p(i, j) + zz(i, j):
        return f"grading 2: got {two}"
    three = tbar_scalar(vee(vee(a, b), c), ctx)
    if three != zz(i, j, k):
        return f"grading 3: got {three}"
    four = tbar_scalar(vee(vee(a, b), vee(c, d)), ctx)
    expected = (
        zz(i, j, k, l)
        + zz(i, j) * p(k, l) + zz(i, k) * p(j, l) + zz(i, l) * p(j, k)
        + zz(j, k) * p(i, l) + zz(j, l) * p(i, k) + zz(k, l) * p(i, j)
        + p(i, j) * p(k, l) + p(i, k) * p(j, l) + p(i, l) * p(j, k)
    )
    if four != expected:
        return f"grading 4: got {four}, expected {expected}"


# -- fock laws ----------------------------------------------------------------

def _mixed_monomial(env: CheckEnv):
    """A creator times an annihilator, when the Fock block has both."""
    f = env.fock
    if f.creation and f.annihilation:
        return [Monomial.from_indices((min(f.creation), min(f.annihilation)))]
    return []


@law("Fock projectors are algebra morphisms", needs_fock=True,
     cases=lambda env: [Draws(), *_mixed_monomial(env)])
def law_fock_projectors(env: CheckEnv, mixed=None):
    f = env.fock
    if mixed is not None:
        e = Element.from_monomial(mixed)
        survives = project_plus(e, f) or project_minus(e, f)
        return f"mixed monomial survives a projector: {mixed}" if survives else None
    u, v = env.random_element(), env.random_element()
    if project_plus(vee(u, v), f) != vee(project_plus(u, f), project_plus(v, f)):
        return f"P morphism: u={u}, v={v}"
    if project_minus(vee(u, v), f) != vee(project_minus(u, f), project_minus(v, f)):
        return f"M morphism: u={u}, v={v}"


@law("normal-ordering isomorphism is multiplicative", needs_fock=True)
def law_fock_phi(env: CheckEnv):
    f = env.fock
    u, v = env.random_element(), env.random_element()
    if phi(vee(u, v), f) != phi(u, f).vee(phi(v, f)):
        return f"u={u}, v={v}"


@law("Fock involution is involutive", needs_fock=True)
def law_fock_involution(env: CheckEnv):
    f = env.fock
    u = env.random_element()
    if involute(involute(u, f), f) != u:
        return f"u={u}"


# -- series laws ---------------------------------------------------------------

@law("formal series ring laws", share=Fraction(1, 2))
def law_series_ring(env: CheckEnv, order=None):
    """Series of a random order 1..4, or of the given order."""
    order = env.rng.randint(1, 4) if order is None else order
    a = FormalSeries.from_scalars([env.random_scalar() for _ in range(order + 1)])
    b = FormalSeries.from_scalars([env.random_scalar() for _ in range(order + 1)])
    c = FormalSeries.from_scalars([env.random_scalar() for _ in range(order + 1)])
    if (a * b) * c != a * (b * c):
        return f"associativity: a={a}, b={b}, c={c}"
    d = FormalSeries.from_scalars(
        [ONE] + [env.random_scalar() for _ in range(order)]
    )
    if (a.divide(d)) * d != a:
        return f"division round trip: a={a}, d={d}"


def simplest_lagrangian_check(generator: int, ctx: TContext, order: int):
    """Both sides of: T(exp_v(lambda a)) = e^{lambda^2 (a|a)/2} exp_v(lambda a)."""
    a = Element.generator(generator)
    lhs = smatrix(a, ctx, order)
    s = ctx.pairing.entry(generator, generator)
    gauss = [ZERO] * (order + 1)
    k = 0
    while 2 * k <= order:
        gauss[2 * k] = (s / 2) ** k / Scalar(factorial(k))
        k += 1
    rhs = FormalSeries.from_scalars(gauss, order) * vee_exp(a, order)
    return lhs, rhs


@law("simplest Lagrangian identity", needs_symmetric=True,
     cases=lambda env: [(k, 4) for k in range(1, min(env.d, 2) + 1)])
def law_simplest_lagrangian(env: CheckEnv, case):
    """The generators e1 and e2 (as far as d allows) to order 4."""
    k, order = case
    lhs, rhs = simplest_lagrangian_check(k, env.tcontext(), order)
    if lhs != rhs:
        return f"generator e{k}: lhs={lhs}, rhs={rhs}"


def _grade_truncate(s: FormalSeries, max_grading: int) -> FormalSeries:
    """Each coefficient of s cut to its terms of grading <= max_grading."""
    return FormalSeries(
        [Element({m: c for m, c in x.terms.items() if m.grading <= max_grading})
         for x in s.coeffs],
        s.order,
    )


def series_vee_exp(w: FormalSeries, max_grading: int) -> FormalSeries:
    """exp of a whole series under the symmetric product, truncated jointly in
    order and grading.

    Every coefficient of ``w`` must have zero scalar part (grading >= 1), so
    the grading cut makes the sum finite even at order zero.
    """
    for c in w.coeffs:
        if c.scalar_part():
            raise ValueError("series exponential needs coefficients without scalar part")
    total = FormalSeries.constant(1, w.order)
    term = FormalSeries.constant(1, w.order)
    m = 1
    while True:
        term = _grade_truncate(term * w, max_grading) * Scalar(Fraction(1, m))
        if not term:
            return total
        total = total + term
        m += 1


def gaussian_closed_form_check(ctx: TContext, order: int, max_grading: int):
    """Both sides of the Gaussian-Lagrangian determinant identity.

    The formal parameter scales the pairing (one power per contraction).  The
    left side is T(exp_v(sum_i e_i v e_i)) with pairing lambda*M, graded by
    contraction count; the right side is det(1-2 lambda M)^(-1/2) times the
    symmetric exponential of the geometric-series quadratic form.  Both sides
    are truncated at the given order and total grading.
    """
    L = ctx.pairing
    d = L.dim

    # Left side: sum_n (1/n!) sum_k lambda^k [k-contraction part of T(u^{v n})].
    # u is homogeneous of grading 2 and each contraction lowers the grading
    # by 2, so the k-contraction part of T(u^{v n}) is its grading 2n-2k part.
    u = Element({Monomial(((i, 2),)): ONE for i in range(1, d + 1)})
    lhs_terms: list[dict[Monomial, Scalar]] = [{} for _ in range(order + 1)]
    n_max = (max_grading + 2 * order) // 2
    power = Element.one()
    for n in range(0, n_max + 1):
        if n:
            power = power.vee(u)
        inv_fact = Scalar(Fraction(1, factorial(n)))
        for mono, coeff in t_map(power, ctx).items():
            k = n - mono.grading // 2
            if k <= order and mono.grading <= max_grading:
                _accumulate(lhs_terms[k], mono, coeff * inv_fact)
    lhs = FormalSeries([_wrap(terms) for terms in lhs_terms], order)

    # Right side: det(1 - 2 lambda M)^(-1/2) * exp_v(sum (2 lambda)^k M^k quadratic).
    entries = [
        [
            FormalSeries(
                [
                    Element.from_scalar(ONE if i == j else ZERO),
                    Element.from_scalar(Scalar(-2) * L.entry(i + 1, j + 1)),
                ],
                order,
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
    det = _det_series(entries, order)
    prefactor = det.inverse_sqrt()

    powers = [_identity_matrix(d)]
    for _ in range(order):
        powers.append(_mat_mul(powers[-1], L))
    w_coeffs = []
    for k in range(order + 1):
        two_k = Scalar(2**k)
        acc = Element.zero()
        for i in range(d):
            for j in range(d):
                c = two_k * powers[k][i][j]
                if c:
                    acc = acc + c * Element.from_monomial(
                        Monomial.from_indices((i + 1, j + 1))
                    )
        w_coeffs.append(acc)
    w = FormalSeries(w_coeffs, order)
    rhs = _grade_truncate(prefactor * series_vee_exp(w, max_grading), max_grading)
    return lhs, rhs


def _identity_matrix(d: int):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def _mat_mul(A, L):
    d = len(A)
    return [
        [
            sum((A[i][k] * L.entry(k + 1, j + 1) for k in range(d)), ZERO)
            for j in range(d)
        ]
        for i in range(d)
    ]


def _det_series(entries, order: int) -> FormalSeries:
    """Leibniz determinant of a small matrix of scalar series."""
    d = len(entries)
    total = FormalSeries([], order)
    for sigma in permutations(range(d)):
        sign = 1
        seen = list(sigma)
        for i in range(d):
            for j in range(i + 1, d):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = FormalSeries.constant(1, order)
        for i in range(d):
            prod = prod * entries[i][sigma[i]]
        total = total + sign * prod
    return total


@law("Gaussian determinant identity", needs_symmetric=True,
     cases=lambda env: [(min(env.d, 2), 2, 4)])
def law_gaussian_closed_form(env: CheckEnv, case):
    """On the pairing's leading block of size d, at (d, order, grading)."""
    d, order, grading = case
    sub = PairingMatrix([[env.L.entry(i, j) for j in range(1, d + 1)] for i in range(1, d + 1)])
    lhs, rhs = gaussian_closed_form_check(TContext(sub), order, grading)
    if lhs != rhs:
        return f"d {d}, order {order}, grading {grading}: lhs={lhs}, rhs={rhs}"


@law("Green function denominator is a unit series", needs_symmetric=True,
     cases=lambda env: [2])
def law_green_denominator(env: CheckEnv, order):
    ctx = env.tcontext()
    u = Element.from_monomial(Monomial(((1, 2),)))
    s = smatrix(u, ctx, order)
    if s.coeffs[0].scalar_part() != ONE:
        return f"constant term {s.coeffs[0].scalar_part()}"
    if green(1, 1, u, ctx, order).order != order:
        return "wrong order"


def run_checks(config: Config, max_grade=None, trials=None, seed=None):
    """Run every applicable law; returns a list of LawReport.

    An override must meet the minimum of the config field it replaces, else
    ConfigError is raised before any law runs.
    """
    env = CheckEnv(
        config,
        config.max_grade if max_grade is None else check_int("max_grade", max_grade),
        config.trials if trials is None else check_int("trials", trials),
        config.seed if seed is None else check_int("seed", seed),
    )
    reports = []
    for entry in LAWS:
        if entry.needs_symmetric and not config.pairing.symmetric:
            reports.append(LawReport(entry.name, "skip", "needs a symmetric pairing"))
            continue
        if entry.needs_fock and config.fock is None:
            reports.append(LawReport(entry.name, "skip", "no fock block in config"))
            continue
        counterexample, run = run_law(entry, env)
        if counterexample is not None:
            reports.append(LawReport(entry.name, "FAIL", counterexample, run))
        elif run:
            reports.append(LawReport(entry.name, "ok", "", run))
        else:
            reports.append(LawReport(entry.name, "skip", "ran 0 trials"))
    return reports
