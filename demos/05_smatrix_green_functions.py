"""S-matrices and Green functions as truncated formal series.

Everything non-perturbative is cut at a finite order: the symmetric
exponential of a Lagrangian, its time-ordered image, and the normalized
two-point function, with exact coefficients at every order."""

from fractions import Fraction

from wickalg import (
    Element,
    Monomial,
    PairingMatrix,
    Scalar,
    Scheme,
    TContext,
    green,
    smatrix,
    vee_exp,
)
from wickalg.checks import gaussian_closed_form_check, simplest_lagrangian_check

m = Monomial.from_indices

L = PairingMatrix.from_strings([["1/2", "1/3"], ["1/3", "1/4"]])
ctx = TContext(L, Scheme({m((1, 1)): Scalar(Fraction(-1, 2))}))

# the symmetric exponential of a single mode
print("exp_v(lambda a) to order 3:")
for k, coeff in enumerate(vee_exp(Element.generator(1), 3).coeffs):
    print(f"  lambda^{k}: {coeff}")

# a mass-term Lagrangian and its bare S-matrix
mass = Element.from_monomial(m((1, 1)))
s = smatrix(mass, ctx, 2)
print("\nT(exp_v(lambda a v a)) to order 2:")
for k, coeff in enumerate(s.coeffs):
    print(f"  lambda^{k}: {coeff}")

# renormalising shifts the contraction ambiguity by zeta
s_ren = smatrix(mass, ctx, 2, renormalised=True)
print("renormalised lambda^1 coefficient:", s_ren.coefficient(1))

# the two-point Green function, bare and renormalised
print("\nbare green(1,2):")
for k, value in enumerate(green(1, 2, mass, ctx, 3).scalars()):
    print(f"  lambda^{k}: {value}")
print("renormalised green(1,2):")
for k, value in enumerate(green(1, 2, mass, ctx, 3, renormalised=True).scalars()):
    print(f"  lambda^{k}: {value}")

# two closed-form identities, checked exactly
lhs, rhs = simplest_lagrangian_check(1, ctx, 5)
print("\nT(exp_v(lambda a)) = e^{lambda^2 (a|a)/2} exp_v(lambda a):", lhs == rhs)
lhs, rhs = gaussian_closed_form_check(TContext(L), order=3, max_grading=6)
print("det(1-2 lambda M)^{-1/2} identity to order 3:", lhs == rhs)
