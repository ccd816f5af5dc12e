"""Time ordering three ways, and its renormalised cousin.

T sends a basis word to the circle product of its letters.  The library
computes it as the twist of the scalar t, T(u) = sum t(u_(1)) u_(2); the
same map comes out as a contraction sum, as an iterated circle product, and
as the exponential of the contraction Laplacian; the scalar part t is a sum
over perfect matchings (a hafnian)."""

from fractions import Fraction

from wickalg import (
    Element,
    Monomial,
    PairingMatrix,
    Scalar,
    Scheme,
    TContext,
    exp_sigma,
    modified_pairing_by_convolution,
    sigma_apply,
    t_closed_form,
    t_map,
    t_map_by_circle_fold,
    t_scalar,
    tbar_map,
    tbar_map_by_circle_fold,
    tbar_scalar,
    wick_expand,
)

m = Monomial.from_indices

L = PairingMatrix.from_strings([["1/2", "1/3"], ["1/3", "1/4"]])
zeta = Scheme({m((1, 2)): Scalar(Fraction(1, 7)), m((1, 1)): Scalar(Fraction(1, 5))})
ctx = TContext(L, zeta)

word = Element.from_monomial(m((1, 1, 2, 2)))
print("T(a v a v b v b), twist of t      :", t_map(word, ctx))
print("   same via contraction sum       :", wick_expand((1, 1, 2, 2), L))
print("   same via circle fold           :", t_map_by_circle_fold(word, ctx))
print("   same via exp(Sigma)            :", exp_sigma(word, ctx))

print("\nSigma lowers grading by two:")
print("  Sigma(a v a v b v b) =", sigma_apply(word, ctx))

# the scalar part: perfect matchings
print("\nt(a v b)             =", t_scalar(Element.from_monomial(m((1, 2))), ctx))
print("t(a v a v b v b)     =", t_scalar(word, ctx))
print("t on an odd word     =", t_scalar(Element.from_monomial(m((1, 1, 2))), ctx))

# matching counts: with all pairings 1 the closed form counts (2n-1)!!
ones = TContext(PairingMatrix([[Scalar(1)]]))
for n in (2, 4, 6, 8):
    print(f"perfect matchings of {n} letters:", t_closed_form((1,) * n, ones))

# renormalised time ordering: T of the zeta twist vs the multiplicative route
print("\nTbar(a v b), twist of T =", tbar_map(Element.from_monomial(m((1, 2))), ctx))
modified = modified_pairing_by_convolution(zeta, L)
print("   via the circle fold  =", tbar_map_by_circle_fold(Element.from_monomial(m((1, 2))), modified))
print("tbar(a v a v b v b) =", tbar_scalar(word, ctx))
