import pytest

from conftest import e, mono
from wickalg import (
    Element,
    FockStructure,
    Scalar,
    TensorElement,
    counit,
    involute,
    phi,
    project_minus,
    project_plus,
)


@pytest.fixture
def fock():
    return FockStructure(creation=[1, 2], annihilation=[3, 4], involution={1: 3, 2: 4})


class TestStructure:
    def test_partner_closure(self, fock):
        assert fock.partner[3] == 1
        assert fock.partner[4] == 2
        assert fock.covers(4)
        assert not fock.covers(5)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            FockStructure([1, 2], [2, 3], {1: 2, 2: 3})

    def test_rejects_wrong_direction(self):
        with pytest.raises(ValueError):
            FockStructure([1, 2], [3, 4], {1: 2, 3: 4})

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            FockStructure([1, 2], [3, 4], {1: 3})


class TestProjectors:
    def test_generator_values(self, fock):
        assert project_plus(e(1), fock) == e(1)
        assert project_plus(e(3), fock) == Element.zero()
        assert project_minus(e(3), fock) == e(3)
        assert project_plus(Element.one(), fock) == Element.one()
        assert project_minus(Element.one(), fock) == Element.one()


class TestPhi:
    def test_unit(self, fock):
        assert phi(Element.one(), fock) == TensorElement({(mono(), mono()): Scalar(1)})

    def test_normal_ordering_split(self, fock):
        got = phi(Element.from_monomial(mono(1, 3)), fock)
        assert got == TensorElement({(mono(1), mono(3)): Scalar(1)})

    def test_pure_creation(self, fock):
        got = phi(Element.from_monomial(mono(1, 2)), fock)
        assert got == TensorElement({(mono(1, 2), mono()): Scalar(1)})

    def test_monomial_split_keeps_multiplicities(self, fock):
        got = phi(Element.from_monomial(mono(1, 1, 3, 4)), fock)
        assert got == TensorElement({(mono(1, 1), mono(3, 4)): Scalar(1)})

    def test_injective_on_basis(self, fock):
        from conftest import monomials_upto

        images = {}
        for m in monomials_upto(4, 3):
            img = phi(Element.from_monomial(m), fock)
            key = tuple(sorted((k, str(v)) for k, v in img.items()))
            assert key not in images, f"{m} and {images.get(key)} collide"
            images[key] = m


class TestInvolution:
    def test_swaps_partners(self, fock):
        assert involute(e(1), fock) == e(3)
        assert involute(e(3), fock) == e(1)
        assert involute(Element.from_monomial(mono(1, 2)), fock) == Element.from_monomial(
            mono(3, 4)
        )

    def test_conjugates_coefficients(self, fock):
        i = Scalar(0, 1)
        got = involute(i * e(1), fock)
        assert got == (-i) * e(3)


class TestVacuum:
    def test_values(self):
        assert counit(Element.one()) == 1
        assert counit(Element.from_monomial(mono(1, 2))) == 0

    def test_circle_vacuum_is_pairing(self, rng):
        from conftest import rand_pairing
        from wickalg import circle

        L = rand_pairing(rng, 3, symmetric=False)
        assert counit(circle(e(1), e(2), L)) == L.entry(1, 2)
