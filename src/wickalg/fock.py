"""Creation/annihilation structure: projectors, normal-ordering isomorphism
and involution.  The vacuum expectation <0|u|0> is the counit
(``algebra.counit``), since normal products kill the vacuum.

Generators carry an intrinsic creation/annihilation tag; a general mode
a = a+ + a- is an element, not a generator, which keeps monomials plain
multisets.
"""

from __future__ import annotations

from .algebra import Element, Monomial, TensorElement, _accumulate, _wrap, sweedler
from .scalars import Scalar


class FockStructure:
    """A partition of the generators into creators and annihilators, with a
    pairing involution between the two halves."""

    def __init__(self, creation, annihilation, involution):
        creation = frozenset(creation)
        annihilation = frozenset(annihilation)
        if creation & annihilation:
            raise ValueError("creation and annihilation sets must be disjoint")
        partner = dict(involution)
        for k, v in list(partner.items()):
            partner.setdefault(v, k)
        for k, v in partner.items():
            if partner.get(v) != k:
                raise ValueError(f"involution is not self-inverse at {k} <-> {v}")
            if k in creation and v not in annihilation:
                raise ValueError(f"involution must map creator {k} to an annihilator")
            if k in annihilation and v not in creation:
                raise ValueError(f"involution must map annihilator {k} to a creator")
        covered = set(partner)
        if covered != creation | annihilation:
            raise ValueError("involution must pair every creator with an annihilator")
        self.creation = creation
        self.annihilation = annihilation
        self.partner = partner

    def covers(self, dim: int) -> bool:
        return self.creation | self.annihilation == set(range(1, dim + 1))

    def __repr__(self):
        return (
            f"FockStructure(creation={sorted(self.creation)}, "
            f"annihilation={sorted(self.annihilation)})"
        )


def _project(u: Element, keep: frozenset) -> Element:
    out: dict[Monomial, Scalar] = {}
    for mono, coeff in u.items():
        if all(idx in keep for idx, _ in mono.counts):
            _accumulate(out, mono, coeff)
    return _wrap(out)


def project_plus(u: Element, f: FockStructure) -> Element:
    """Algebra morphism keeping pure-creation monomials, killing the rest."""
    return _project(u, f.creation)


def project_minus(u: Element, f: FockStructure) -> Element:
    """Algebra morphism keeping pure-annihilation monomials."""
    return _project(u, f.annihilation)


def phi(u: Element, f: FockStructure) -> TensorElement:
    """Normal-ordering isomorphism onto S(V+) (x) S(V-).

    phi(u) = sum P(u_(1)) (x) M(u_(2)): creators split left, annihilators
    right; mixed legs die under the projectors.
    """
    out: dict[tuple, Scalar] = {}
    for left, right, coeff in sweedler(u):
        if not all(idx in f.creation for idx, _ in left.counts):
            continue
        if not all(idx in f.annihilation for idx, _ in right.counts):
            continue
        _accumulate(out, (left, right), coeff)
    t = TensorElement(rank=2)
    t.terms = out
    return t


def involute(u: Element, f: FockStructure) -> Element:
    """Swap each generator with its partner and conjugate coefficients."""
    out: dict[Monomial, Scalar] = {}
    for mono, coeff in u.items():
        swapped = Monomial({f.partner[idx]: mult for idx, mult in mono.counts})
        _accumulate(out, swapped, coeff.conjugate())
    return _wrap(out)

