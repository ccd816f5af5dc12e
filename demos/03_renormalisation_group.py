"""The renormalisation group as convolution of functionals.

A scheme assigns a number to every monomial of grading >= 2; schemes form a
commutative group under convolution through the coproduct, and they deform
the circle product rather than the algebra elements."""

from fractions import Fraction

from wickalg import (
    Element,
    Monomial,
    Scalar,
    Scheme,
    circle,
    circle_renorm,
    convolve,
    modified_pairing,
    PairingMatrix,
    vee,
    z_pairing,
)

m = Monomial.from_indices
a, b, c = (Element.generator(i) for i in range(1, 4))

zeta = Scheme(
    {
        m((1, 2)): Scalar(Fraction(1, 7)),
        m((1, 3)): Scalar(Fraction(1, 11)),
        m((2, 3)): Scalar(Fraction(2, 7)),
        m((1, 2, 3)): Scalar(Fraction(1, 23)),
    }
)

# group structure: the counit is the unit, the inverse is recursive
inv = zeta.inverse()
print("zeta(a v b)       =", zeta(m((1, 2))))
print("zeta^-1(a v b)    =", inv(m((1, 2))))
conv = convolve(zeta, inv)
print("(zeta * zeta^-1) on a v b v c =", conv(m((1, 2, 3))), " (counit value 0)")
eps = Scheme()
print("(zeta * eps) on a v b          =", convolve(zeta, eps)(m((1, 2))))

# the symmetric coupling pairing built from the scheme
print("\nZ(a, b)        =", z_pairing(a, b, zeta))
print("Z(a, b v c)    =", z_pairing(a, vee(b, c), zeta))
print("Z(b v c, a)    =", z_pairing(vee(b, c), a, zeta), " (symmetric)")

# the modified Laplace pairing mixes the scheme with the bare pairing
L = PairingMatrix.from_strings(
    [["1/2", "1/3", "1/4"], ["1/3", "1/4", "1/5"], ["1/4", "1/5", "1/6"]]
)
print("\n(a|b) modified =", modified_pairing(a, b, zeta, L), " = zeta(ab) + (a|b)")

# the renormalised circle product: associative for every scheme
lhs = circle_renorm(circle_renorm(a, b, zeta, L), c, zeta, L)
rhs = circle_renorm(a, circle_renorm(b, c, zeta, L), zeta, L)
assert lhs == rhs
print("\na ro b        =", circle_renorm(a, b, zeta, L))
print("(a v b) ro c  =", circle_renorm(vee(a, b), c, zeta, L))
print("trivial scheme reduces ro to o:",
      circle_renorm(a, b, Scheme(), L) == circle(a, b, L))
