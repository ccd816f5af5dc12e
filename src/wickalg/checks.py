"""Randomized identity suites: every law the engine promises, run with seeded
random elements and exact equality.

Each law function returns None on success or a human-readable counterexample
string on the first failure; the runner aggregates results for the CLI.  A law
lives only here, in ``LAWS``: tests/test_laws.py runs each over shipped and
random configs, the acceptance criteria and some unit tests at sizes of their
own; the other tests keep worked examples and oracles.

Law statements live here too: where a criterion, test or demo needs a law's
two sides at sizes of its own, a helper beside the law builds them.  The
production modules compute quantities, with named oracles, and state no law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

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
    wick_step,
)
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
    t_by_moments,
    t_closed_form,
    t_map,
    t_map_by_circle_fold,
    t_scalar,
    tbar_map,
    tbar_map_by_circle_fold,
    tbar_scalar,
    tbar_scalar_by_modified_pairing,
)


@dataclass
class LawReport:
    name: str
    status: str  # "ok" | "FAIL" | "skip"
    detail: str = ""


# Seeded random data; CheckEnv's methods and the pytest suite both draw here.
def rand_scalar(rng, allow_imag=True) -> Scalar:
    """p/q + (r/s) i with |p| <= 3, q <= 3, and a quarter of the time (when
    allowed) |r| <= 2, s <= 2; else r = 0."""
    p, q = rng.randint(-3, 3), rng.randint(1, 3)
    if allow_imag and rng.random() < 0.25:
        r, s = rng.randint(-2, 2), rng.randint(1, 2)
        return Scalar.from_integers(p * s, r * q, q * s)
    return Scalar.from_integers(p, 0, q)


def rand_monomial(rng, d, max_grade, min_grade=0) -> Monomial:
    g = rng.randint(min_grade, max_grade)
    return Monomial.from_indices(rng.choices(range(1, d + 1), k=g))


def rand_element(rng, d, max_grade, terms=3) -> Element:
    out = Element.zero()
    for _ in range(rng.randint(1, terms)):
        c = rand_scalar(rng)
        out = out + c * Element.from_monomial(rand_monomial(rng, d, max_grade))
    return out


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
    """Shared state for one suite run: config data plus a seeded RNG."""

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

    def random_scalar(self, allow_imag=True) -> Scalar:
        return rand_scalar(self.rng, allow_imag)

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

    def random_scheme(self, max_grade=None) -> Scheme:
        if max_grade is None:
            max_grade = max(2, self.max_grade)
        values = {}
        for _ in range(self.rng.randint(2, 6)):
            m = self.random_monomial(max_grade=max_grade, min_grade=2)
            values[m] = self.random_scalar()
        return Scheme(values)

    def tcontext(self) -> TContext:
        if self._tcontext is None:
            self._tcontext = TContext(self.L, self.scheme)
        return self._tcontext


def _apply_counit_side(t: TensorElement, left: bool) -> Element:
    out = Element.zero()
    for (m1, m2), c in t.items():
        if left:
            if m1.grading == 0:
                out = out + c * Element.from_monomial(m2)
        else:
            if m2.grading == 0:
                out = out + c * Element.from_monomial(m1)
    return out


# -- algebra laws ------------------------------------------------------------

def law_vee_ring(env: CheckEnv):
    for _ in range(env.trials):
        u, v, w = (env.random_element() for _ in range(3))
        if vee(vee(u, v), w) != vee(u, vee(v, w)):
            return f"associativity: u={u}, v={v}, w={w}"
        if vee(u, v) != vee(v, u):
            return f"commutativity: u={u}, v={v}"
        if vee(u, Element.one()) != u:
            return f"unit: u={u}"
    return None


def law_coassociativity(env: CheckEnv):
    for m in monomials_upto(env.d, min(5, env.max_grade + 2)):
        u = Element.from_monomial(m)
        t = coproduct(u)
        if t.expand_slot(0) != t.expand_slot(1):
            return f"monomial {m}"
    for _ in range(env.trials):
        u = env.random_element()
        t = coproduct(u)
        if t.expand_slot(0) != t.expand_slot(1):
            return f"element {u}"
    return None


def law_cocommutativity(env: CheckEnv):
    for _ in range(env.trials):
        u = env.random_element()
        t = coproduct(u)
        if t.swap() != t:
            return f"u={u}"
    return None


def law_counit(env: CheckEnv):
    for _ in range(env.trials):
        u = env.random_element()
        t = coproduct(u)
        if _apply_counit_side(t, left=True) != u or _apply_counit_side(t, left=False) != u:
            return f"u={u}"
    return None


def law_coproduct_morphism(env: CheckEnv):
    for _ in range(env.trials):
        u, v = env.random_element(), env.random_element()
        if coproduct(vee(u, v)) != coproduct(u).vee(coproduct(v)):
            return f"u={u}, v={v}"
    return None


def law_antipode(env: CheckEnv):
    for _ in range(env.trials):
        u = env.random_element()
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
    return None


def law_derivations_commute(env: CheckEnv):
    for _ in range(env.trials):
        u = env.random_element()
        i = env.rng.randint(1, env.d)
        j = env.rng.randint(1, env.d)
        if derivation(i, derivation(j, u)) != derivation(j, derivation(i, u)):
            return f"i={i}, j={j}, u={u}"
    return None


def law_divided_powers(env: CheckEnv):
    k = 1
    for n in range(0, 6):
        dp = divided_power(k, n)
        acc = TensorElement(rank=2)
        for a in range(n + 1):
            acc = acc + tensor_product(divided_power(k, a), divided_power(k, n - a))
        if coproduct(dp) != acc:
            return f"coproduct at n={n}"
        if antipode(dp) != (Scalar(-1) ** n) * dp:
            return f"antipode at n={n}"
        for m in range(0, 4):
            lhs = divided_power(k, m).vee(dp)
            rhs = Scalar(comb(m + n, m)) * divided_power(k, m + n)
            if lhs != rhs:
                return f"product at m={m}, n={n}"
    return None


# -- laplace laws ------------------------------------------------------------

def law_permanent_kernels(env: CheckEnv):
    # Half of each grade's trials use a random pairing drawn for that grade:
    # the config's may vanish on most monomial pairs (asymmetric.json's zero
    # diagonal), and so may one draw with a zero entry.
    per = max(2, env.trials // 10)
    for n in range(0, 6):
        other = env.random_pairing(symmetric=False)
        for L in [env.L] * (per - per // 2) + [other] * (per // 2):
            m1, m2 = env.random_monomial(n, n), env.random_monomial(n, n)
            matrix = [[L.entry(a, b) for b in m2.indices()] for a in m1.indices()]
            want = laplace.permanent_by_permutations(matrix)
            if {laplace.pairing_monomials(m1, m2, L), laplace.permanent(matrix)} != {want}:
                return f"({m1}|{m2}) under the {'config' if L is env.L else 'random'} pairing"
    return None


def law_laplace_identities(env: CheckEnv):
    for _ in range(env.trials):
        u, v, w = (env.random_element(max_grade=3) for _ in range(3))
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
    return None


def law_circle_associative(env: CheckEnv):
    pairings = [env.L, env.random_pairing(symmetric=False), env.random_pairing(symmetric=True)]
    per = max(1, env.trials // len(pairings))
    for L in pairings:
        for _ in range(per):
            u, v, w = (env.random_element(max_grade=min(4, env.max_grade)) for _ in range(3))
            if circle(circle(u, v, L), w, L) != circle(u, circle(v, w, L), L):
                return f"u={u}, v={v}, w={w}, symmetric={L.symmetric}"
    return None


def law_circle_counit(env: CheckEnv):
    for _ in range(env.trials):
        u, v = env.random_element(), env.random_element()
        if counit(circle(u, v, env.L)) != pairing(u, v, env.L):
            return f"u={u}, v={v}"
    return None


def law_circle_coproduct(env: CheckEnv):
    for _ in range(env.trials):
        u, v = env.random_element(max_grade=3), env.random_element(max_grade=3)
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
    return None


def law_pairing_shift(env: CheckEnv):
    for _ in range(env.trials):
        u, v, w = (env.random_element(max_grade=3) for _ in range(3))
        if pairing(u, circle(v, w, env.L), env.L) != pairing(circle(u, v, env.L), w, env.L):
            return f"u={u}, v={v}, w={w}"
    return None


def antipode_sign(m: Monomial) -> int:
    """The antipode on a monomial is a sign: S(m) = (-1)^|m| m."""
    return -1 if m.grading % 2 else 1


def law_recover_vee(env: CheckEnv):
    """u v v = sum (-1)^|u_(1)| (u_(1)|v_(1)) u_(2) o v_(2)."""
    for _ in range(env.trials):
        u, v = env.random_element(max_grade=3), env.random_element(max_grade=3)
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
    return None


def law_recover_pairing(env: CheckEnv):
    """(u|v) 1 = sum (-1)^|u_(1) v v_(1)| u_(1) v v_(1) v (u_(2) o v_(2))."""
    for _ in range(env.trials):
        u, v = env.random_element(max_grade=3), env.random_element(max_grade=3)
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
    return None


def circle_distribute(u: Element, v: Element, w: Element, L: PairingMatrix) -> Element:
    """The distributivity expansion of u o (v v w) over a Sweedler triple."""
    out = Element.zero()
    triple = iterated_coproduct(u, 3)
    for (u11, u12, u2), coeff in triple.items():
        left = circle(Element.from_monomial(u11), v, L)
        mid = circle(Element.from_monomial(u12), w, L)
        sign = antipode_sign(u2)
        out = out + (coeff * sign) * left.vee(mid).vee(Element.from_monomial(u2))
    return out


def law_distributivity(env: CheckEnv):
    for _ in range(env.trials):
        u = env.random_element(max_grade=3)
        v = env.random_element(max_grade=2)
        w = env.random_element(max_grade=2)
        if circle_distribute(u, v, w, env.L) != circle(u, vee(v, w), env.L):
            return f"u={u}, v={v}, w={w}"
    return None


def law_wick(env: CheckEnv):
    rng = env.rng
    for _ in range(env.trials):
        u = env.random_element(max_grade=3)
        b = rng.randint(1, env.d)
        if wick_step(u, b, env.L) != circle(u, Element.generator(b), env.L):
            return f"wick_step: u={u}, b=e{b}"
    for length in range(0, 6):
        for _ in range(max(2, env.trials // 20)):
            gens = [rng.randint(1, env.d) for _ in range(length)]
            lhs = wick_expand(gens, env.L)
            rhs = circle_fold([Element.generator(i) for i in gens], env.L)
            if lhs != rhs:
                return f"wick_expand: gens={gens}"
    return None


def law_laplace_coupling(env: CheckEnv):
    for _ in range(env.trials):
        u, v, w = (env.random_element(max_grade=2) for _ in range(3))
        if not _coupling_check(lambda a, b: pairing(a, b, env.L), env, u, v, w):
            return f"u={u}, v={v}, w={w}"
    return None


def law_commutativity_criterion(env: CheckEnv):
    if env.L.symmetric:
        for _ in range(env.trials):
            u, v = env.random_element(), env.random_element()
            if circle(u, v, env.L) != circle(v, u, env.L):
                return f"u={u}, v={v}"
        return None
    # asymmetric: the defect of commutativity on generators is exactly the
    # antisymmetric part of the pairing
    for i in range(1, env.d + 1):
        for j in range(1, env.d + 1):
            ei, ej = Element.generator(i), Element.generator(j)
            defect = circle(ei, ej, env.L) - circle(ej, ei, env.L)
            expected = (env.L.entry(i, j) - env.L.entry(j, i)) * Element.one()
            if defect != expected:
                return f"i={i}, j={j}, defect={defect}"
    return None


# -- renorm laws -------------------------------------------------------------

def law_convolution_group(env: CheckEnv):
    z1 = env.random_scheme()
    z2 = env.random_scheme()
    z3 = env.random_scheme()
    eps = Scheme()
    convolve = renorm.convolve
    lhs = convolve(convolve(z1, z2), z3)
    rhs = convolve(z1, convolve(z2, z3))
    comm1 = convolve(z1, z2)
    comm2 = convolve(z2, z1)
    unit = convolve(z1, eps)
    inv = convolve(z1, z1.inverse())
    for m in monomials_upto(env.d, min(6, env.max_grade + 2)):
        if lhs(m) != rhs(m):
            return f"associativity at {m}"
        if comm1(m) != comm2(m):
            return f"commutativity at {m}"
        if unit(m) != z1(m):
            return f"unit at {m}"
        if inv(m) != (ONE if m.grading == 0 else ZERO):
            return f"inverse at {m}: got {inv(m)}"
    return None


def _four_letters(d: int):
    """Letters of the worked four-point instances, (1, 2, 3, 4) when d >= 4.
    With fewer generators letters repeat; the formulas, sums over labelled
    positions, hold verbatim."""
    return tuple(1 + k % d for k in range(4))


def law_inverse_four_point(env: CheckEnv):
    z = env.random_scheme()

    def zz(*idx):
        return z(Monomial.from_indices(idx))

    i, j, k, l = _four_letters(env.d)
    got = z.inverse()(Monomial.from_indices((i, j, k, l)))
    expected = (
        -zz(i, j, k, l)
        + Scalar(2) * zz(i, j) * zz(k, l)
        + Scalar(2) * zz(i, k) * zz(j, l)
        + Scalar(2) * zz(i, l) * zz(j, k)
    )
    if got != expected:
        return f"got {got}, expected {expected}"
    return None


def law_z_pairing_symmetry(env: CheckEnv):
    z = env.scheme
    for _ in range(env.trials):
        u, v = env.random_element(max_grade=3), env.random_element(max_grade=3)
        if z_pairing(u, v, z) != z_pairing(v, u, z):
            return f"u={u}, v={v}"
        if z_pairing(Element.one(), u, z) != counit(u):
            return f"unit: u={u}"
    return None


def _coupling_check(pair_fn, env: CheckEnv, u, v, w):
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


def law_z_coupling_identity(env: CheckEnv):
    z = env.scheme

    def pf(a, b):
        return z_pairing(a, b, z)

    for _ in range(max(10, env.trials // 4)):
        u, v, w = (env.random_element(max_grade=2, terms=2) for _ in range(3))
        if not _coupling_check(pf, env, u, v, w):
            return f"u={u}, v={v}, w={w}"
    # the worked 2+2 instance
    a, b, c, d = (Element.generator(i) for i in _four_letters(env.d))
    lhs = z_pairing(vee(a, b), vee(c, d), z)
    rhs = (
        z_pairing(a, vee(b, vee(c, d)), z)
        + z_pairing(a, c, z) * z_pairing(b, d, z)
        + z_pairing(b, c, z) * z_pairing(a, d, z)
    )
    if lhs != rhs:
        return f"worked instance: lhs={lhs}, rhs={rhs}"
    return None


def law_modified_coupling_identity(env: CheckEnv):
    z = env.scheme

    def pf(a, b):
        return modified_pairing(a, b, z, env.L)

    for _ in range(max(10, env.trials // 4)):
        u, v, w = (env.random_element(max_grade=2, terms=2) for _ in range(3))
        if not _coupling_check(pf, env, u, v, w):
            return f"u={u}, v={v}, w={w}"
    return None


def law_circle_renorm_ring(env: CheckEnv):
    z = env.scheme
    for _ in range(max(10, env.trials // 2)):
        u = env.random_element(max_grade=3, terms=2)
        v = env.random_element(max_grade=3, terms=2)
        w = env.random_element(max_grade=3, terms=2)
        lhs = circle_renorm(circle_renorm(u, v, z, env.L), w, z, env.L)
        rhs = circle_renorm(u, circle_renorm(v, w, z, env.L), z, env.L)
        if lhs != rhs:
            return f"associativity: u={u}, v={v}, w={w}"
        if circle_renorm(u, Element.one(), z, env.L) != u:
            return f"unit: u={u}"
        if env.L.symmetric and circle_renorm(u, v, z, env.L) != circle_renorm(v, u, z, env.L):
            return f"commutativity: u={u}, v={v}"
        if counit(circle_renorm(u, v, z, env.L)) != modified_pairing(u, v, z, env.L):
            return f"counit: u={u}, v={v}"
    return None


def law_circle_renorm_trivial(env: CheckEnv):
    trivial = Scheme()
    for _ in range(env.trials):
        u, v = env.random_element(max_grade=3), env.random_element(max_grade=3)
        if circle_renorm(u, v, trivial, env.L) != circle(u, v, env.L):
            return f"u={u}, v={v}"
    return None


def law_circle_renorm_coproduct(env: CheckEnv):
    z = env.scheme
    for _ in range(max(10, env.trials // 2)):
        u = env.random_element(max_grade=3, terms=2)
        v = env.random_element(max_grade=3, terms=2)
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
    return None


def law_group_action(env: CheckEnv):
    """Z_{z1*z2} = Z_{z1} * Z_{z2} and (.|.)_{z1*z2} = Z_{z1} * (.|.)_{z2},
    where (P * Q)(u, v) = sum P(u_(1), v_(1)) Q(u_(2), v_(2))."""
    z1, z2 = env.random_scheme(), env.random_scheme()
    z12 = renorm.convolve(z1, z2)
    one = Element.from_monomial
    for _ in range(env.trials):
        u, v = (env.random_element(max_grade=3, terms=2) for _ in range(2))
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
    return None


# -- tmaps laws (symmetric pairing only) --------------------------------------

def law_t_routes(env: CheckEnv):
    ctx = env.tcontext()
    for m in monomials_upto(env.d, min(5, env.max_grade + 1)):
        u = Element.from_monomial(m)
        a = t_map(u, ctx)
        b = t_map_by_circle_fold(u, ctx)
        c = exp_sigma(u, ctx)
        if a != b or a != c:
            return f"monomial {m}: twist={a}, fold={b}, exp={c}"
    return None


def law_t_coproduct(env: CheckEnv):
    ctx = env.tcontext()
    for _ in range(env.trials):
        u = env.random_element(max_grade=4)
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
    return None


def law_t_multiplicative(env: CheckEnv):
    ctx = env.tcontext()
    for _ in range(env.trials):
        u, v = env.random_element(max_grade=3), env.random_element(max_grade=3)
        if t_map(vee(u, v), ctx) != circle(t_map(u, ctx), t_map(v, ctx), env.L):
            return f"u={u}, v={v}"
    return None


def law_t_scalar_laws(env: CheckEnv):
    ctx = env.tcontext()
    for _ in range(env.trials):
        u = env.random_element(max_grade=4)
        if t_scalar(u, ctx) != counit(t_map(u, ctx)):
            return f"t=eps T: u={u}"
    return None


def law_sigma_commutator(env: CheckEnv):
    ctx = env.tcontext()
    rng = env.rng
    for _ in range(env.trials):
        u = env.random_element(max_grade=4)
        k = rng.randint(1, env.d)
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
    return None


def law_t_closed_forms(env: CheckEnv):
    ctx = env.tcontext()
    rng = env.rng
    for length in (0, 2, 4, 6):
        for _ in range(max(2, env.trials // 25)):
            gens = [rng.randint(1, env.d) for _ in range(length)]
            u = Element.from_monomial(Monomial.from_indices(gens))
            a = t_scalar(u, ctx)
            b = t_closed_form(gens, ctx)
            if a != b:
                return f"recursive vs matching: gens={gens}"
            if b != t_by_moments(gens, ctx):
                return f"matching vs moments: gens={gens}"
    odd = [rng.randint(1, env.d) for _ in range(3)]
    if t_closed_form(odd, ctx) != ZERO or t_by_moments(odd, ctx) != ZERO:
        return f"odd list not zero: {odd}"
    return None


def first_identity_check(u: Element, v: Element, ctx: TContext):
    """Both sides of: T(u) renorm-circle T(v) = sum Z(u1,v1) T(u2) circle T(v2)."""
    z = ctx.require_scheme()
    lhs = circle_renorm(t_map(u, ctx), t_map(v, ctx), z, ctx.pairing)
    rhs = Element.zero()
    v_splits = list(sweedler(v))
    for u1, u2, cu in sweedler(u):
        for v1, v2, cv in v_splits:
            f = z._coupling[u1, v1]
            if not f:
                continue
            rhs = rhs + (cu * cv * f) * circle(
                t_map(Element.from_monomial(u2), ctx),
                t_map(Element.from_monomial(v2), ctx),
                ctx.pairing,
            )
    return lhs, rhs


def law_tbar_identities(env: CheckEnv):
    ctx = env.tcontext()
    for m in monomials_upto(env.d, min(4, env.max_grade))[:40]:
        u = Element.from_monomial(m)
        if tbar_map(u, ctx) != tbar_map_by_circle_fold(u, ctx):
            return f"circle-fold route at {m}"
    for _ in range(max(10, env.trials // 2)):
        u = env.random_element(max_grade=3, terms=2)
        v = env.random_element(max_grade=2, terms=2)
        lhs, rhs = first_identity_check(u, v, ctx)
        if lhs != rhs:
            return f"first identity: u={u}, v={v}"
        if tbar_scalar(u, ctx) != counit(tbar_map(u, ctx)):
            return f"tbar=eps Tbar: u={u}"
        if tbar_scalar(u, ctx) != tbar_scalar_by_modified_pairing(u, ctx):
            return f"tbar = modified-pairing recursion: u={u}"
        if twist(u, lambda m: tbar_scalar(Element.from_monomial(m), ctx)) != tbar_map(u, ctx):
            return f"Tbar from tbar: u={u}"
        lhs2 = coproduct(tbar_map(u, ctx))
        rhs2 = TensorElement(rank=2)
        for u1, u2, c in sweedler(u):
            rhs2 = rhs2 + c * tensor_product(
                Element.from_monomial(u1), tbar_map(Element.from_monomial(u2), ctx)
            )
        if lhs2 != rhs2:
            return f"coproduct of Tbar: u={u}"
    return None


def law_tbar_examples(env: CheckEnv):
    ctx = env.tcontext()
    z = ctx.scheme
    L = env.L
    i, j, k, l = _four_letters(env.d)
    a, b, c, d = (Element.generator(x) for x in (i, j, k, l))

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
    return None


# -- fock laws ----------------------------------------------------------------

def law_fock_projectors(env: CheckEnv):
    f = env.fock
    for _ in range(env.trials):
        u, v = env.random_element(), env.random_element()
        if project_plus(vee(u, v), f) != vee(project_plus(u, f), project_plus(v, f)):
            return f"P morphism: u={u}, v={v}"
        if project_minus(vee(u, v), f) != vee(project_minus(u, f), project_minus(v, f)):
            return f"M morphism: u={u}, v={v}"
    if env.fock.creation and env.fock.annihilation:
        cgen = min(env.fock.creation)
        agen = min(env.fock.annihilation)
        mixed = Element.from_monomial(Monomial.from_indices((cgen, agen)))
        if project_plus(mixed, f) or project_minus(mixed, f):
            return f"mixed monomial survives a projector: {mixed}"
    return None


def law_fock_phi(env: CheckEnv):
    f = env.fock
    for _ in range(env.trials):
        u, v = env.random_element(), env.random_element()
        if phi(vee(u, v), f) != phi(u, f).vee(phi(v, f)):
            return f"u={u}, v={v}"
    return None


def law_fock_involution(env: CheckEnv):
    f = env.fock
    for _ in range(env.trials):
        u = env.random_element()
        if involute(involute(u, f), f) != u:
            return f"u={u}"
    return None


# -- series laws ---------------------------------------------------------------

def law_series_ring(env: CheckEnv):
    rng = env.rng
    for _ in range(max(10, env.trials // 2)):
        order = rng.randint(1, 4)
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
    return None


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


def law_simplest_lagrangian(env: CheckEnv):
    ctx = env.tcontext()
    for k in range(1, min(env.d, 2) + 1):
        lhs, rhs = simplest_lagrangian_check(k, ctx, 4)
        if lhs != rhs:
            return f"generator e{k}: lhs={lhs}, rhs={rhs}"
    return None


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


def law_gaussian_closed_form(env: CheckEnv):
    d = min(env.d, 2)
    sub = PairingMatrix([[env.L.entry(i, j) for j in range(1, d + 1)] for i in range(1, d + 1)])
    ctx = TContext(sub)
    lhs, rhs = gaussian_closed_form_check(ctx, order=2, max_grading=4)
    if lhs != rhs:
        return f"order 2, grading 4: lhs={lhs}, rhs={rhs}"
    return None


def law_green_denominator(env: CheckEnv):
    ctx = env.tcontext()
    u = Element.from_monomial(Monomial(((1, 2),)))
    s = smatrix(u, ctx, 2)
    if s.coeffs[0].scalar_part() != ONE:
        return f"constant term {s.coeffs[0].scalar_part()}"
    g = green(1, 1, u, ctx, 2)
    if g.order != 2:
        return "wrong order"
    return None


LAWS = [
    ("vee is an associative commutative unital product", law_vee_ring, False, False),
    ("coproduct coassociativity", law_coassociativity, False, False),
    ("coproduct cocommutativity", law_cocommutativity, False, False),
    ("counit law", law_counit, False, False),
    ("coproduct is an algebra morphism", law_coproduct_morphism, False, False),
    ("antipode law and antipode morphism", law_antipode, False, False),
    ("derivations commute", law_derivations_commute, False, False),
    ("divided power laws", law_divided_powers, False, False),
    ("permanent equals permutation sum", law_permanent_kernels, False, False),
    ("Laplace expansion identities", law_laplace_identities, False, False),
    ("circle product associativity", law_circle_associative, False, False),
    ("counit of circle product is the pairing", law_circle_counit, False, False),
    ("coproduct of circle product lemma", law_circle_coproduct, False, False),
    ("pairing shift lemma", law_pairing_shift, False, False),
    ("symmetric product recovered from circle", law_recover_vee, False, False),
    ("pairing recovered from circle", law_recover_pairing, False, False),
    ("circle distributivity over vee", law_distributivity, False, False),
    ("Wick recursion and expansion", law_wick, False, False),
    ("Laplace coupling identity", law_laplace_coupling, False, False),
    ("circle commutativity criterion", law_commutativity_criterion, False, False),
    ("convolution group laws", law_convolution_group, False, False),
    ("convolution inverse four-point formula", law_inverse_four_point, False, False),
    ("coupling pairing symmetry and unit", law_z_pairing_symmetry, False, False),
    ("coupling identity for the Z pairing", law_z_coupling_identity, False, False),
    ("coupling identity for the modified pairing", law_modified_coupling_identity, False, False),
    ("renormalised circle ring laws", law_circle_renorm_ring, False, False),
    ("renormalised circle reduces to circle", law_circle_renorm_trivial, False, False),
    ("coproduct of renormalised circle lemma", law_circle_renorm_coproduct, False, False),
    ("renormalisation group acts on the product", law_group_action, False, False),
    ("T-map routes agree", law_t_routes, True, False),
    ("coproduct of T lemma", law_t_coproduct, True, False),
    ("T multiplicative from vee to circle", law_t_multiplicative, True, False),
    ("scalar t-map laws", law_t_scalar_laws, True, False),
    ("Sigma commutator laws", law_sigma_commutator, True, False),
    ("t closed forms agree", law_t_closed_forms, True, False),
    ("renormalised T identities", law_tbar_identities, True, False),
    ("renormalised scalar t examples", law_tbar_examples, True, False),
    ("Fock projectors are algebra morphisms", law_fock_projectors, False, True),
    ("normal-ordering isomorphism is multiplicative", law_fock_phi, False, True),
    ("Fock involution is involutive", law_fock_involution, False, True),
    ("formal series ring laws", law_series_ring, False, False),
    ("simplest Lagrangian identity", law_simplest_lagrangian, True, False),
    ("Gaussian determinant identity", law_gaussian_closed_form, True, False),
    ("Green function denominator is a unit series", law_green_denominator, True, False),
]


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
    for name, fn, needs_symmetric, needs_fock in LAWS:
        if needs_symmetric and not config.pairing.symmetric:
            reports.append(LawReport(name, "skip", "needs a symmetric pairing"))
            continue
        if needs_fock and config.fock is None:
            reports.append(LawReport(name, "skip", "no fock block in config"))
            continue
        counterexample = fn(env)
        if counterexample is None:
            reports.append(LawReport(name, "ok"))
        else:
            reports.append(LawReport(name, "FAIL", counterexample))
    return reports
