"""Circle products and Wick's theorem.

One bilinear form on the generators produces the time-ordered product
(symmetric form) or the operator product (antisymmetric form) as
deformations of the normal product; the expansion over disjoint
contractions is the same algebra either way."""

from wickalg import (
    Element,
    PairingMatrix,
    circle,
    circle_fold,
    counit,
    pairing,
    permanent,
    vee,
    wick_expand,
)
from wickalg.scalars import Scalar

a, b, c, d = (Element.generator(i) for i in range(1, 5))

# a symmetric pairing: think equal-time contractions of a free field
feynman = PairingMatrix.from_strings(
    [
        ["1/2", "1/3", "1/4", "1/5"],
        ["1/3", "1/4", "1/5", "1/6"],
        ["1/4", "1/5", "1/6", "1/7"],
        ["1/5", "1/6", "1/7", "1/8"],
    ]
)

print("a o b           =", circle(a, b, feynman))
print("(a v b) o c     =", circle(vee(a, b), c, feynman))
print("a o b o c o d   =", circle_fold([a, b, c, d], feynman))

# Wick's theorem: the same product as a sum over disjoint contractions
assert wick_expand([1, 2, 3, 4], feynman) == circle_fold([a, b, c, d], feynman)
print("\nWick expansion agrees with the iterated circle product")

# the scalar part of a circle product is the pairing, computed by permanents
print("\n(a v b | c v d) =", pairing(vee(a, b), vee(c, d), feynman))
print("eps(ab o cd)    =", counit(circle(vee(a, b), vee(c, d), feynman)))
print("permanent of the all-ones 4x4:", permanent([[Scalar(1)] * 4 for _ in range(4)]))

# an antisymmetric pairing: half the commutator; the circle product is now
# the operator product, and its commutativity defect is exactly (a|b)-(b|a)
commutator = PairingMatrix.from_strings([["0", "1/2"], ["-1/2", "0"]])
x, y = Element.generator(1), Element.generator(2)
print("\noperator product x o y =", circle(x, y, commutator))
print("x o y - y o x          =", circle(x, y, commutator) - circle(y, x, commutator))
