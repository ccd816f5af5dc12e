import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, prod

import pytest

from conftest import e, mono, monomials_upto, rand_element
from wickalg import (
    Element,
    Monomial,
    Scalar,
    TensorElement,
    antipode,
    coproduct,
    counit,
    derivation,
    divided_power,
    iterated_coproduct,
    vee,
)
from wickalg import algebra


def shuffle_coproduct_oracle(indices):
    """Labelled-position oracle: split the positions over all subsets, then
    merge equal labels.  Independent of the binomial-split implementation."""
    indices = tuple(indices)
    n = len(indices)
    terms = {}
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            left = Monomial.from_indices(indices[p] for p in subset)
            right = Monomial.from_indices(
                indices[p] for p in range(n) if p not in subset
            )
            key = (left, right)
            terms[key] = terms.get(key, Scalar(0)) + Scalar(1)
    return TensorElement(terms)


class TestMonomial:
    def test_canonical_form(self):
        assert mono(2, 1, 1) == mono(1, 2, 1)
        assert mono(1, 1, 2).counts == ((1, 2), (2, 1))
        assert mono().grading == 0
        assert mono(1, 2, 3).grading == 3

    def test_no_zero_multiplicity(self):
        assert Monomial({1: 0, 2: 1}) == mono(2)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            Monomial({0: 1})
        with pytest.raises(ValueError):
            Monomial({1: -1})

    def test_vee_and_remove(self):
        m = mono(1, 2).vee(mono(1))
        assert m == mono(1, 1, 2)
        assert m.remove_one(1) == mono(1, 2)
        with pytest.raises(ValueError):
            mono(1).remove_one(2)

    def test_str(self):
        assert str(mono()) == "1"
        assert str(mono(2, 1, 1)) == "e1 v e1 v e2"


class TestElement:
    def test_zero_coefficients_dropped(self):
        u = Element({mono(1): Scalar(0), mono(2): Scalar(3)})
        assert list(u.items()) == [(mono(2), Scalar(3))]
        assert (u - u) == Element.zero()
        assert not (u - u)

    def test_vee_unit_and_bilinearity(self):
        u = rand = e(1) + 2 * e(2)
        assert vee(Element.one(), u) == u
        assert vee(u, Element.one()) == u
        # (e1 + 2 e2) v e1 expanded term by term
        expected = Element.from_monomial(mono(1, 1)) + 2 * Element.from_monomial(
            mono(1, 2)
        )
        assert vee(rand, e(1)) == expected

    def test_basis_product(self):
        assert vee(e(1), e(2)) == Element.from_monomial(mono(1, 2))

    def test_grading_additive(self, rng):
        for _ in range(30):
            u = rand_element(rng, 3, 3)
            v = rand_element(rng, 3, 3)
            uv = vee(u, v)
            top = (max((m.grading for m in u.terms), default=0)
                   + max((m.grading for m in v.terms), default=0))
            for m in uv.terms:
                assert m.grading <= top
        m1, m2 = mono(1, 2, 2), mono(3, 3)
        assert m1.vee(m2).grading == m1.grading + m2.grading

    def test_scalar_ops(self):
        u = e(1) + Element.from_scalar(Scalar(2))
        assert u / 2 + u / 2 == u
        assert -u + u == Element.zero()


class TestCoproduct:
    def test_primitive_generator(self):
        assert coproduct(e(1)) == TensorElement(
            {
                (mono(1), mono()): Scalar(1),
                (mono(), mono(1)): Scalar(1),
            }
        )

    def test_two_distinct_letters(self):
        got = coproduct(Element.from_monomial(mono(1, 2)))
        expected = TensorElement(
            {
                (mono(1, 2), mono()): Scalar(1),
                (mono(1), mono(2)): Scalar(1),
                (mono(2), mono(1)): Scalar(1),
                (mono(), mono(1, 2)): Scalar(1),
            }
        )
        assert got == expected

    def test_repeated_letter_merges_with_multiplicity(self):
        got = coproduct(Element.from_monomial(mono(1, 1)))
        expected = TensorElement(
            {
                (mono(1, 1), mono()): Scalar(1),
                (mono(1), mono(1)): Scalar(2),
                (mono(), mono(1, 1)): Scalar(1),
            }
        )
        assert got == expected

    @pytest.mark.parametrize(
        "indices",
        [(), (1,), (1, 2), (1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 2), (1, 1, 2, 3), (1, 1, 2, 2, 3)],
    )
    def test_against_shuffle_oracle(self, indices):
        got = coproduct(Element.from_monomial(Monomial.from_indices(indices)))
        assert got == shuffle_coproduct_oracle(indices)

    def test_unit_grouplike(self):
        t = iterated_coproduct(Element.one(), 3)
        assert t == TensorElement({(mono(), mono(), mono()): Scalar(1)}, rank=3)

    def test_iterated_depth_one_is_identity(self):
        u = e(1) + e(2)
        assert iterated_coproduct(u, 1) == u
        assert iterated_coproduct(u, 2) == coproduct(u)


class TestHopfLaws:
    def test_counit_values(self):
        assert counit(Element.one()) == 1
        assert counit(Element.from_monomial(mono(1, 2))) == 0
        assert counit(Element.from_scalar(3) + 2 * e(1)) == 3

    def test_antipode_examples(self):
        assert antipode(e(1)) == -e(1)
        m = Element.from_monomial(mono(1, 2))
        assert antipode(m) == m


class TestDerivation:
    def test_worked_examples(self):
        m12 = Element.from_monomial(mono(1, 2))
        assert derivation(1, m12) == e(2)
        assert derivation(2, m12) == e(1)
        assert derivation(1, Element.from_monomial(mono(1, 1))) == 2 * e(1)

    def test_kills_unit_and_unknowns(self):
        assert derivation(1, Element.one()) == Element.zero()
        assert derivation(3, Element.from_monomial(mono(1, 2))) == Element.zero()

    def test_leibniz(self, rng):
        for _ in range(25):
            u = rand_element(rng, 3, 3)
            v = rand_element(rng, 3, 3)
            k = rng.randint(1, 3)
            assert derivation(k, vee(u, v)) == vee(derivation(k, u), v) + vee(
                u, derivation(k, v)
            )


class TestDividedPowers:
    def test_small_cases(self):
        assert divided_power(2, 0) == Element.one()
        assert divided_power(2, 1) == e(2)
        assert divided_power(1, 3) == Element.from_monomial(
            mono(1, 1, 1), Scalar(Fraction(1, 6))
        )


class TestDisplay:
    def test_canonical_term_order(self):
        u = Element.from_scalar(Scalar(Fraction(1, 2))) + Element.from_monomial(
            mono(1, 2)
        )
        assert str(u) == "e1 v e2 + 1/2"

    def test_negative_and_coefficient_rendering(self):
        u = -e(1)
        assert str(u) == "-1 * e1"
        v = Element.from_monomial(mono(1, 2)) - Element.from_scalar(
            Scalar(Fraction(1, 3))
        )
        assert str(v) == "e1 v e2 - 1/3"
        w = Element.from_monomial(mono(1), Scalar(Fraction(1, 2), Fraction(-3, 4)))
        assert str(w) == "1/2-3/4i * e1"

    def test_zero(self):
        assert str(Element.zero()) == "0"


class TestTrustedConstructor:
    """remove_one, vee and splits build their monomials without validation;
    each result is the validated constructor's object on the same letters."""

    @staticmethod
    def assert_same(got, indices):
        assert got is Monomial.from_indices(indices)

    def test_results_equal_validated_monomials(self):
        monos = monomials_upto(3, 6)
        for m in monos:
            for idx, _ in m.counts:
                rest = list(m.indices())
                rest.remove(idx)
                self.assert_same(m.remove_one(idx), rest)
            for other in monos:
                self.assert_same(m.vee(other), m.indices() + other.indices())
            for left, right, _ in m.splits():
                self.assert_same(left, left.indices())
                self.assert_same(right, right.indices())
                self.assert_same(left.vee(right), m.indices())


class TestInterning:
    """Each multiset exists once: every constructor returns its one object.
    TestTrustedConstructor checks the same of every split half."""

    def test_every_constructor_returns_the_same_object(self):
        m = Monomial({1: 2, 3: 1})
        assert Monomial(((3, 1), (1, 1), (2, 0), (1, 1))) is m
        for order in permutations((1, 1, 3)):
            assert Monomial.from_indices(order) is m
        assert Monomial.generator(2) is Monomial({2: 1}) is mono(2)
        assert Monomial.unit() is Monomial() is Monomial({4: 0}) is mono()
        assert mono(1, 3).vee(mono(1)) is m is mono(1).vee(mono(1, 3))
        assert mono(1, 1, 3, 3).remove_one(3) is m
        assert Monomial({True: 1}) is mono(1) and type(mono(1).counts[0][0]) is int

    @pytest.mark.parametrize("counts", [
        {0: 1}, {-2: 1}, {"e1": 1}, {1.0: 1}, {1: -1}, {1: 1.5}, {1: 2, 7: -1},
    ])
    def test_rejected_input_leaves_the_table_unchanged(self, counts):
        size = len(algebra._MONOMIALS)
        with pytest.raises(ValueError):
            Monomial(counts)
        assert len(algebra._MONOMIALS) == size

    def test_copy_and_pickle_return_the_interned_object(self):
        for m in (mono(), mono(2), mono(1, 1, 2)):
            assert copy.copy(m) is m
            assert copy.deepcopy(m) is m
            assert pickle.loads(pickle.dumps(m)) is m
        u = e(1).vee(e(2)) + Element.from_scalar(3)
        assert pickle.loads(pickle.dumps(u)) == u == copy.deepcopy(u)
        assert Monomial.unit().counts == () and Monomial.unit().grading == 0


def vee_counts(a, b):
    """The counts tuple of the multiset union of two counts tuples, by a dict
    merge: the reference that the packed words are checked against."""
    merged = dict(a)
    for idx, mult in b:
        merged[idx] = merged.get(idx, 0) + mult
    return tuple(sorted(merged.items()))


class TestPackedWordsAgainstCounts:
    """A monomial is its packed word: vee, splits, remove_one, multiplicity
    and derivation work on the word, each checked here against the same
    operation on counts tuples."""

    @pytest.fixture(scope="class")
    def monomials(self):
        rng = random.Random(2417)
        out = []
        for _ in range(80):
            d = rng.randint(1, 6)
            out.append(Monomial.from_indices(rng.choices(range(1, d + 1), k=rng.randint(0, 10))))
        return out

    def test_vee(self, monomials):
        for m in monomials:
            for other in monomials:
                assert m.vee(other).counts == vee_counts(m.counts, other.counts)

    def test_splits(self, monomials):
        for m in monomials:
            expected = {}
            for choice in product(*[range(c + 1) for _, c in m.counts]):
                left = tuple((i, j) for (i, _), j in zip(m.counts, choice) if j)
                right = tuple((i, c - j) for (i, c), j in zip(m.counts, choice) if c - j)
                expected[left, right] = prod(comb(c, j) for (_, c), j in zip(m.counts, choice))
            got = [(left.counts, right.counts, w) for left, right, w in m.splits()]
            assert len(got) == len(expected)
            assert {(left, right): w for left, right, w in got} == expected

    def test_remove_one_multiplicity_and_derivation(self, monomials):
        for m in monomials:
            counts = dict(m.counts)
            for i in range(-1, 8):
                mult = counts.get(i, 0)
                assert m.multiplicity(i) == mult
                d_m = derivation(i, Element.from_monomial(m))
                if not mult:
                    with pytest.raises(ValueError, match="not in monomial"):
                        m.remove_one(i)
                    assert d_m == Element.zero()
                    continue
                rest = tuple((k, c - (k == i)) for k, c in m.counts if c - (k == i))
                assert m.remove_one(i).counts == rest
                assert d_m == Element.from_monomial(Monomial(rest), Scalar(mult))

    def test_an_overflowing_union_interns_nothing(self):
        big = Monomial({1: algebra.FIELD})
        size = len(algebra._MONOMIALS)
        with pytest.raises(ValueError, match="overflows"):
            big.vee(mono(1))
        assert len(algebra._MONOMIALS) == size


class TestPackedWords:
    """Each monomial carries its word, one packed int, W bits per letter,
    which keys the monomial table and the numerator form; construction
    refuses what a field cannot hold, before the table sees it."""

    def test_numerators_round_trip(self):
        rng = random.Random(2317)
        for d in (1, 2, 4):
            for _ in range(40):
                u = rand_element(rng, d, 9, terms=6)
                assert Element.from_numerators(*u.numerators()) == u
        top = algebra.PACKED_LETTERS
        u = Element.from_monomial(mono(1, 1, top, top)) + Scalar(Fraction(2, 3)) * e(top - 1)
        assert Element.from_numerators(*u.numerators()) == u

    def test_a_grading_past_the_field_is_refused(self):
        FIELD = algebra.FIELD
        assert algebra._pack(((2, FIELD),)) == FIELD << algebra.W
        assert algebra._unpack(FIELD << algebra.W) == ((2, FIELD),)
        assert Monomial({2: FIELD}).word == FIELD << algebra.W
        for counts in (((1, FIELD + 1),), ((1, FIELD), (3, 1)), ((2, 1 << 40),)):
            size = len(algebra._MONOMIALS)
            with pytest.raises(ValueError, match="overflows"):
                Monomial(counts)
            assert len(algebra._MONOMIALS) == size

    def test_a_negative_word_is_refused_at_once(self):
        """The trusted constructor refuses a negative word on a table miss,
        with no entry made, where unpacking it would never end; a separate
        interpreter bounds the wait."""
        script = (
            "import pytest\n"
            "from wickalg import algebra\n"
            "size = len(algebra._MONOMIALS)\n"
            "for word in (-1, -(1 << 40), (1 << 32) - (3 << 64)):\n"
            "    with pytest.raises(ValueError, match='negative packed word'):\n"
            "        algebra._canonical(word)\n"
            "assert len(algebra._MONOMIALS) == size\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=20,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_a_letter_too_large_to_pack_is_refused(self):
        for indices in ((algebra.PACKED_LETTERS + 1,), (1, 10**9, 10**9)):
            size = len(algebra._MONOMIALS)
            with pytest.raises(ValueError, match="cannot be packed"):
                Monomial.from_indices(indices)
            assert len(algebra._MONOMIALS) == size
