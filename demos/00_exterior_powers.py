"""The exterior-power toolkit underneath everything else.

Run with: python3 demos/00_exterior_powers.py

Multivectors are coefficient arrays over lexicographic basis blades of
Lambda^k R^m or Lambda^k C^m; one Multivector type holds real, complex
or Fraction coefficients, so the complex wedge is the same ``wedge``
(``complex_wedge`` and ``complex_blade_from_vectors`` are aliases).  The
wedge and Hodge star used by the zonotope machinery are available
directly.
"""

import numpy as np

import zonoidal as zn
from zonoidal import Multivector

print("dim Lambda^2 R^4 =", zn.exterior_dim(4, 2))

# Wedge two vectors: the coefficients are the 2x2 minors.
a = Multivector.from_vector([1.0, 2.0, 0.0, 0.0])
b = Multivector.from_vector([0.0, 1.0, 3.0, 0.0])
ab = zn.wedge(a, b)
print("a ^ b coefficients:", ab.coeffs)
print("a ^ a vanishes:", np.allclose(zn.wedge(a, a).coeffs, 0.0))

# Blade from a list of vectors; its norm is the parallelotope content.
blade = zn.blade_from_vectors([2.0, 0.0, 0.0], [0.0, 0.0, 1.0])
print("blade norm (area spanned by the two vectors):", zn.norm(blade))

# Hodge star is an isometry onto the complementary degree.
e12 = Multivector.basis_blade(3, (0, 1))
print("star(e1^e2) in R^3:", zn.hodge_star(e12).coeffs, "(= e3)")

# Complex exterior algebra: the wedge of n vectors in C^n has modulus
# |det|; realify/unrealify interleave real and imaginary parts.
z = np.array([1.0 + 1.0j, 2.0 - 0.5j])
cz = zn.complex_blade_from_vectors(z)
r = zn.realify(cz)
print("realified complex vector:", r)
back = zn.unrealify(r, 2, 1)
print("round trip:", np.allclose(back.coeffs, cz.coeffs))
