"""The symmetric algebra on d generators and its Hopf structure.

Monomials are multisets of generator indices (the basis words
``e_i1 v ... v e_in``), elements are finite linear combinations with exact
Gaussian-rational coefficients, and the coproduct splits a monomial over all
sub-multisets with binomial multiplicities -- the merged form of the
labelled-position shuffle.  All values are immutable; all operations are pure.

A monomial {i: c_i} is its packed word, one int sum c_i << W (i - 1)
(Lamport, CACM 18(8), 1975), so a union is a sum.  Monomials are interned:
the module-level memo ``_MONOMIALS``, keyed by the word and kept for the
life of the process, holds the one object of each multiset, so monomial
equality and hashing are the object defaults (identity).  The table takes
no lock: the package runs in one thread.  Construction refuses a letter
above ``PACKED_LETTERS`` and a grading above ``FIELD`` before any table
entry is made: no W-bit field overflows.  An element's numerator form
(:meth:`Element.numerators`) interns nothing: Gaussian integers over one
common denominator, keyed by word.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _iterproduct
from math import comb, factorial
from types import MethodType
from weakref import ref

from .scalars import ONE, ZERO, Scalar, common_denominator, display_negative


class Monomial:
    """A multiset of generator indices, e.g. ``{1: 2, 3: 1}`` = e1 v e1 v e3.

    The empty monomial is the algebra unit.  Every constructor returns the
    interned object for its packed ``word``, which carries the sorted
    ``(index, multiplicity)`` tuple ``counts`` and the ``grading``, both
    read from the word when it is interned.  A word that cannot be packed
    is a ``ValueError`` here and in :meth:`vee`.
    """

    __slots__ = ("word", "counts", "grading")

    def __new__(cls, counts=()):
        return _canonical(_pack(_counts(
            counts.items() if isinstance(counts, dict) else counts)))

    def __reduce__(self):
        # Copies and unpickled values go through the table, not __new__().
        return (Monomial, (self.counts,))

    @classmethod
    def unit(cls) -> "Monomial":
        return _UNIT

    @classmethod
    def generator(cls, index: int) -> "Monomial":
        return cls(((index, 1),))

    @classmethod
    def from_indices(cls, indices) -> "Monomial":
        return cls([(i, 1) for i in indices])

    def indices(self) -> tuple[int, ...]:
        """Expanded index list, one entry per copy, sorted."""
        out = []
        for idx, mult in self.counts:
            out.extend([idx] * mult)
        return tuple(out)

    def multiplicity(self, index: int) -> int:
        return self.word >> W * (index - 1) & FIELD if index > 0 else 0

    def vee(self, other: "Monomial") -> "Monomial":
        grading = self.grading + other.grading
        if grading > FIELD:
            raise ValueError(f"grading {grading} overflows a {W}-bit packed field")
        return _canonical(self.word + other.word)

    def remove_one(self, index: int) -> "Monomial":
        """The monomial with one copy of ``index`` deleted (must be present)."""
        if not self.multiplicity(index):
            raise ValueError(f"generator {index} not in monomial {self}")
        return _canonical(self.word - (1 << W * (index - 1)))

    def splits(self):
        """All ways of cutting the multiset in two, with binomial weights.

        Yields ``(left, right, weight)`` where weight = prod C(k_i, j_i); this
        is the coproduct of the monomial after merging equal labels.
        """
        word, items = self.word, self.counts
        for choice in _iterproduct(*[range(mult + 1) for _, mult in items]):
            weight, left = 1, 0
            for (idx, mult), j in zip(items, choice):
                weight *= comb(mult, j)
                left += j << W * (idx - 1)
            yield _canonical(left), _canonical(word - left), weight

    def sort_key(self):
        return (-self.grading, self.indices())

    def __str__(self):
        if not self.counts:
            return "1"
        return " v ".join(f"e{i}" for i in self.indices())

    def __repr__(self):
        return f"Monomial({dict(self.counts)!r})"


def _counts(items) -> tuple:
    """The canonical counts tuple of ``(index, multiplicity)`` pairs, validated."""
    merged: dict[int, int] = {}
    for idx, mult in items:
        if not isinstance(mult, int) or mult < 0:
            raise ValueError(f"multiplicity must be a non-negative int, got {mult!r}")
        if mult == 0:
            continue
        if not isinstance(idx, int) or idx < 1:
            raise ValueError(f"generator index must be a positive int, got {idx!r}")
        # The table keys on exact ints: a bool enters as its int.
        idx, mult = int(idx), int(mult)
        merged[idx] = merged.get(idx, 0) + mult
    return tuple(sorted(merged.items()))


W = 32  # bits per letter in a packed word
FIELD = (1 << W) - 1  # the largest grading a packed word holds
PACKED_LETTERS = 1 << 12  # the largest letter: a packed word takes at most 16 KB


def _pack(counts: tuple) -> int:
    """The packed word of canonical counts; a letter too large to pack is
    refused before any int is built, a grading above ``FIELD`` after, and
    both before the word reaches the table."""
    if counts and counts[-1][0] > PACKED_LETTERS:
        raise ValueError(f"generator index {counts[-1][0]} above {PACKED_LETTERS} cannot be packed")
    word = grading = 0
    for i, c in counts:
        word += c << W * (i - 1)
        grading += c
    if grading > FIELD:
        raise ValueError(f"grading {grading} overflows a {W}-bit packed field")
    return word


def _unpack(word: int) -> tuple:
    counts = []
    while word:
        a = ((word & -word).bit_length() - 1) // W  # the lowest letter, less one
        counts.append((a + 1, word >> W * a & FIELD))
        word -= counts[-1][1] << W * a
    return tuple(counts)


def _check_letters(dim: int, *elements: "Element", top: int = 0) -> None:
    """A letter above d, in an element or ``top``, is a ``ValueError`` that names d."""
    top = max([top] + [m.counts[-1][0] for u in elements for m in u.terms if m.counts])
    if top > dim:
        raise ValueError(f"generator index out of range: {top} with d={dim}")


class Memo(dict):
    """A dict that computes, stores and returns ``compute(key)`` for a missing key.

    The package's one caching mechanism.  Its owner creates it (in
    ``__init__``, or at module level) and it lives as long as the owner.  A
    bound-method ``compute`` holds its owner weakly, so dropping the owner
    frees its memos by reference counting alone.  ``Memo(compute, *args)``
    computes ``compute(*args, key)`` and holds ``args`` strongly.
    """

    __slots__ = ("_function", "_owner", "_args")

    def __init__(self, compute, *args):
        if isinstance(compute, MethodType):
            self._function, self._owner = compute.__func__, ref(compute.__self__)
        else:
            self._function, self._owner = compute, None
        self._args = args

    def __missing__(self, key):
        if self._owner is None:
            value = self[key] = self._function(*self._args, key)
        else:
            value = self[key] = self._function(self._owner(), *self._args, key)
        return value


def _intern(word: int) -> Monomial:
    if word < 0:
        raise ValueError(f"negative packed word {word}")
    m = object.__new__(Monomial)
    m.word, m.counts = word, _unpack(word)
    m.grading = sum(k for _, k in m.counts)
    return m


# The monomial table: one object per multiset, keyed by its packed word.  A
# monomial depends on its word alone, so it lives for the process.
_MONOMIALS = Memo(_intern)

# Trusted constructor: ``_canonical(word)`` for a packed word, every one of
# which is canonical.  Bound to the memo's ``__getitem__`` so that a hit runs
# no Python frame.
_canonical = _MONOMIALS.__getitem__

_UNIT = Monomial()

# Monomial coproducts recur in every pairing and convolution.  A split list
# depends on the monomial alone, so this memo lives for the process.
_SPLITS = Memo(lambda m: tuple(m.splits()))


def monomial_splits(m: Monomial):
    return _SPLITS[m]


class Element:
    """A finite linear combination of monomials with Scalar coefficients.

    Canonical form: zero coefficients are never stored, so structural
    equality of the term maps is algebra equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Scalar.coerce(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def one(cls) -> "Element":
        return cls({_UNIT: ONE})

    @classmethod
    def from_scalar(cls, value) -> "Element":
        return cls({_UNIT: Scalar.coerce(value)})

    @classmethod
    def generator(cls, index: int) -> "Element":
        return cls({Monomial.generator(index): ONE})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff=ONE) -> "Element":
        return _wrap({mono: coeff}) if type(coeff) is Scalar and coeff else cls({mono: coeff})

    def items(self):
        return self.terms.items()

    @classmethod
    def from_numerators(cls, terms: dict, den: int) -> "Element":
        """The element of a numerator form, one reduction per nonzero term."""
        return _wrap({_canonical(w): Scalar.from_integers(re, im, den)
                      for w, (re, im) in terms.items() if re or im})

    def numerators(self) -> tuple[dict, int]:
        """``(terms, den)``: den the coefficients' least common denominator and
        terms[w] = (re, im), den * coeff of the term whose packed word is w,
        as ints."""
        den, (nums,) = common_denominator([list(self.terms.values())])
        return dict(zip([m.word for m in self.terms], nums)), den

    def scalar_part(self) -> Scalar:
        return self.terms.get(_UNIT, ZERO)

    def is_scalar(self) -> bool:
        return all(m.grading == 0 for m in self.terms)

    def __add__(self, other):
        if type(other) is not Element:
            if isinstance(other, (Scalar, int, Fraction)):
                other = Element.from_scalar(other)
            elif not isinstance(other, Element):
                return NotImplemented
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accumulate(merged, mono, coeff)
        return _wrap(merged)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    # A product, quotient or negation of nonzero Scalars is one: no coercion.
    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __rmul__(self, scalar):
        scalar = Scalar.coerce(scalar)
        if not scalar:
            return Element.zero()
        return _wrap({m: scalar * c for m, c in self.terms.items()})

    __mul__ = __rmul__

    def __truediv__(self, scalar):
        scalar = Scalar.coerce(scalar)
        return _wrap({m: c / scalar for m, c in self.terms.items()})

    def vee(self, other: "Element") -> "Element":
        """The symmetric product: multiset union of monomials, bilinear."""
        if type(other) is not Element and isinstance(other, (Scalar, int, Fraction)):
            return Scalar.coerce(other) * self
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, m1.vee(m2), c1 * c2)
        return _wrap(out)

    def __eq__(self, other):
        if type(other) is Element:
            return self.terms == other.terms
        if isinstance(other, (Scalar, int, Fraction)):
            return self.terms == Element.from_scalar(other).terms
        return self.terms == other.terms if isinstance(other, Element) else NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=Monomial.sort_key):
            coeff = self.terms[mono]
            if parts and display_negative(coeff):
                joiner = " - "
                coeff = -coeff
            elif parts:
                joiner = " + "
            else:
                joiner = ""
            if mono.grading == 0:
                body = str(coeff)
            elif coeff == ONE:
                body = str(mono)
            else:
                body = f"{coeff} * {mono}"
            parts.append(joiner + body)
        return "".join(parts)

    def __repr__(self):
        return f"<Element {self}>"


def _accumulate(table: dict, key, coeff) -> None:
    if not coeff:
        return
    prior = table.get(key)
    if prior is None:
        table[key] = coeff
    else:
        total = prior + coeff
        if total:
            table[key] = total
        else:
            del table[key]


def _wrap(table: dict) -> Element:
    e = Element.__new__(Element)
    e.terms = table
    return e


class TensorElement:
    """A linear combination of rank-r tensors of monomials.

    Rank 2 is the coproduct's home; higher ranks realize iterated coproducts
    (Sweedler triples and beyond).  Keys are tuples of Monomials.
    """

    __slots__ = ("terms", "rank")

    def __init__(self, terms=None, rank=2):
        clean: dict[tuple, Scalar] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Scalar.coerce(coeff)
                if not coeff:
                    continue
                if len(key) != rank:
                    raise ValueError(f"tensor key {key} does not have rank {rank}")
                clean[key] = coeff
        self.terms = clean
        self.rank = rank

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        if not isinstance(other, TensorElement) or other.rank != self.rank:
            return NotImplemented
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(merged, key, coeff)
        out = TensorElement(rank=self.rank)
        out.terms = merged
        return out

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = Scalar.coerce(scalar)
        out = TensorElement(rank=self.rank)
        if scalar:
            out.terms = {k: scalar * c for k, c in self.terms.items()}
        return out

    __mul__ = __rmul__

    def vee(self, other: "TensorElement") -> "TensorElement":
        """Slotwise symmetric product (the product on S(V) tensor S(V))."""
        if other.rank != self.rank:
            raise ValueError("rank mismatch in tensor product")
        out: dict[tuple, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a.vee(b) for a, b in zip(k1, k2))
                _accumulate(out, key, c1 * c2)
        t = TensorElement(rank=self.rank)
        t.terms = out
        return t

    def swap(self) -> "TensorElement":
        if self.rank != 2:
            raise ValueError("swap is defined for rank-2 tensors")
        out = TensorElement(rank=2)
        out.terms = {(b, a): c for (a, b), c in self.terms.items()}
        return out

    def expand_slot(self, slot: int) -> "TensorElement":
        """Apply the coproduct to one slot, raising the rank by one."""
        out: dict[tuple, Scalar] = {}
        for key, coeff in self.terms.items():
            for left, right, weight in monomial_splits(key[slot]):
                new_key = key[:slot] + (left, right) + key[slot + 1:]
                _accumulate(out, new_key, coeff * weight)
        t = TensorElement(rank=self.rank + 1)
        t.terms = out
        return t

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: tuple(m.sort_key() for m in k))
        parts = []
        for key in keys:
            coeff = self.terms[key]
            body = " (x) ".join(str(m) for m in key)
            if coeff == ONE:
                parts.append(body)
            else:
                parts.append(f"{coeff} * {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<TensorElement rank={self.rank} {self}>"


def tensor_product(u: Element, v: Element) -> TensorElement:
    """The simple tensor u (x) v, extended bilinearly."""
    out: dict[tuple, Scalar] = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            _accumulate(out, (m1, m2), c1 * c2)
    t = TensorElement(rank=2)
    t.terms = out
    return t


# ---------------------------------------------------------------------------
# Hopf operations
# ---------------------------------------------------------------------------

def vee(u: Element, v: Element) -> Element:
    return u.vee(v)


def coproduct(u: Element) -> TensorElement:
    """Split every monomial over all sub-multisets with binomial weights."""
    out: dict[tuple, Scalar] = {}
    for mono, coeff in u.items():
        for left, right, weight in monomial_splits(mono):
            _accumulate(out, (left, right), coeff * weight)
    t = TensorElement(rank=2)
    t.terms = out
    return t


def sweedler(u: Element):
    """Iterate the coproduct terms of ``u`` as (left, right, coefficient)."""
    for mono, coeff in u.items():
        for left, right, weight in monomial_splits(mono):
            yield left, right, coeff * weight


def iterated_coproduct(u: Element, depth: int):
    """The (depth-1)-fold coproduct; depth=1 returns ``u`` itself.

    Coassociativity makes the result independent of which slot each
    successive coproduct is applied to; we expand the last slot.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth == 1:
        return u
    t = coproduct(u)
    for _ in range(depth - 2):
        t = t.expand_slot(t.rank - 1)
    return t


def counit(u: Element) -> Scalar:
    return u.scalar_part()


def antipode(u: Element) -> Element:
    """Multiply each grading-n term by (-1)^n."""
    return Element(
        {m: (c if m.grading % 2 == 0 else -c) for m, c in u.items()}
    )


def derivation(index: int, u: Element) -> Element:
    """The derivation sending e_j to delta_{ij}, extended by Leibniz."""
    out: dict[Monomial, Scalar] = {}
    for mono, coeff in u.items():
        mult = mono.multiplicity(index)
        if mult:
            _accumulate(out, mono.remove_one(index), mult * coeff)
    return _wrap(out)


def divided_power(index: int, n: int) -> Element:
    """e_index^{v n} / n! as an ordinary element (no separate basis)."""
    if n < 0:
        raise ValueError("divided powers need n >= 0")
    return Element({Monomial(((index, n),)): Scalar(Fraction(1, factorial(n)))})
