"""Creation/annihilation structure and the normal-ordering isomorphism.

Tagging each generator as a creator or an annihilator splits the algebra as
a tensor product; the counit becomes the vacuum expectation value."""

from wickalg import (
    Element,
    FockStructure,
    Monomial,
    PairingMatrix,
    Scalar,
    circle,
    counit,
    involute,
    phi,
    project_minus,
    project_plus,
    vee,
)

m = Monomial.from_indices

# e1, e2 create; e3, e4 annihilate; the star pairs them up
fock = FockStructure(creation=[1, 2], annihilation=[3, 4], involution={1: 3, 2: 4})

cplus = Element.generator(1)
cminus = Element.generator(3)
word = vee(cplus, cminus)

print("P(a+), M(a+)      =", project_plus(cplus, fock), ",", project_minus(cplus, fock))
print("phi(a+ v a-)      =", phi(word, fock))
print("phi(a+ v a+)      =", phi(vee(cplus, cplus), fock))

# the isomorphism respects the product
u = vee(cplus, Element.generator(2))
v = vee(cminus, Element.generator(4))
assert phi(vee(u, v), fock) == phi(u, fock).vee(phi(v, fock))
print("phi is multiplicative on a sample product")

# the involution swaps the halves and conjugates coefficients
i = Scalar(0, 1)
print("\n(i a+)*           =", involute(i * cplus, fock))
print("((a+)*)*          =", involute(involute(cplus, fock), fock))

# vacuum expectation = counit; contractions give it content
L = PairingMatrix.from_strings(
    [
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
    ]
)
print("\n<0| a+ v a- |0>   =", counit(word))
print("<0| a+ o a- |0>   =", counit(circle(cplus, cminus, L)))
