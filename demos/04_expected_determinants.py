"""Expected absolute determinants of random matrices with independent blocks.

Run with: python3 demos/04_expected_determinants.py

A matrix model here is a list of independent column blocks; within a
block the columns are copies drawn together from one distribution.
E|det| of such a matrix equals a mixed volume of the zonotopes attached
to the blocks, which gives an exact evaluation route to compare Monte
Carlo against.
"""

import math

import numpy as np

import zonoidal as zn


def banner(text):
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


# ----------------------------------------------------------------------
banner("1. A discrete column distribution and its zonotope")

atoms = np.array([[2.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [1.0, 1.0, 1.0]])
probs = np.array([0.25, 0.25, 0.25, 0.25])
dist = zn.DiscreteDistribution(atoms, probs)

# The zonotope of a random vector X has generators p_i x_i; its support
# function is E|<X, u>| / 2 and its length is E||X||.
V = zn.vitale_zonotope(dist)
print("zonotope generators (p_i * x_i):")
print(V.generators)
print("E||X|| =", zn.length(V))


# ----------------------------------------------------------------------
banner("2. Exact E|det| versus Monte Carlo")

# Three iid columns from dist: E|det| = 3! * volume of the zonotope.
model = zn.iid_column_model(dist, 3)
exact = zn.expected_abs_det_exact(model)
print("exact E|det| =", exact)
print("3! * vol     =", math.factorial(3) * zn.volume(V))

est, se = zn.expected_abs_det_mc(model, n=200000, seed=4)
print(f"MC (2e5 samples): {est:.6f} +- {se:.6f}"
      f"   ({abs(est - exact) / se:.2f} se away)")


# ----------------------------------------------------------------------
banner("3. Block structure")

# Blocks of width > 1 repeat one draw across several columns.  Here the
# 3x3 matrix has a width-2 block (two copies of one draw from d2) and a
# width-1 block from dist.
d2_atoms = np.zeros((3, 3, 2))
d2_atoms[0] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
d2_atoms[1] = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
d2_atoms[2] = [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
d2 = zn.DiscreteDistribution(d2_atoms, np.full(3, 1.0 / 3.0))
model2 = zn.MatrixBlockModel(3, (zn.MatrixBlock(2, dist=d2), zn.MatrixBlock(1, dist=dist)))
exact2 = zn.expected_abs_det_exact(model2)
est2, se2 = zn.expected_abs_det_mc(model2, n=200000, seed=8)
print("exact E|det| =", exact2)
print(f"MC           = {est2:.6f} +- {se2:.6f}")


# ----------------------------------------------------------------------
banner("4. Gaussian closed forms")

# For iid standard gaussian columns E|det| has a product formula; the
# library ships it along with the complex analogue and tau(m), the
# generator length of the unit ball in R^m seen as a zonoid.  E||G|| for
# a standard gaussian G in R^m is tau(m) / sqrt(2 pi).
for m in (1, 2, 3, 4):
    print("E|det| of %dx%d gaussian:" % (m, m), zn.gaussian_abs_det(m))
print("tau(1), tau(2), tau(3) =", zn.tau(1), zn.tau(2), zn.tau(3), "(2, pi, 4)")
print("E||G_2|| = tau(2)/sqrt(2 pi) =", zn.tau(2) / math.sqrt(2.0 * math.pi))
print("complex gaussian E|det|, n=2:", zn.complex_gaussian_abs_det(2))
print("identity check n=2: n!/(2 sqrt(pi))^n * J-ball volume =",
      math.factorial(2) / (2.0 * math.sqrt(math.pi)) ** 2 * zn.j_ball_volume(2))

# Sampler-backed blocks plug gaussian draws into the same MC machinery.
# When every block is gaussian the estimator draws |det| itself: it has
# the law of chi_1 chi_2 ... chi_m, independent chi variates (Bartlett
# 1933), so no matrix is built.
g_model = zn.MatrixBlockModel(2, (
    zn.MatrixBlock(1, sampler=zn.SeededSampler("gaussian", 2, seed=1)),
    zn.MatrixBlock(1, sampler=zn.SeededSampler("gaussian", 2, seed=2)),
))
est, se = zn.expected_abs_det_mc(g_model, n=100000, seed=3)
print(f"2x2 gaussian MC: {est:.4f} +- {se:.4f}  target {zn.gaussian_abs_det(2):.4f}")


# ----------------------------------------------------------------------
banner("5. Complex models and squared determinants")

catoms = np.array([[1.0 + 0.0j, 0.0j], [0.0j, 0.0 + 1.0j]])
cdist = zn.DiscreteDistribution(catoms, np.array([0.5, 0.5]))
cmodel = zn.iid_column_model(cdist, 2)
print("complex E|det|:   ", zn.expected_abs_det_complex_exact(cmodel))
print("complex E|det|^2: ", zn.expected_sq_abs_det_complex(cmodel))
cest, cse = zn.expected_abs_det_complex_mc(cmodel, n=100000, seed=6)
print(f"complex MC:        {cest:.6f} +- {cse:.6f}")


# ----------------------------------------------------------------------
banner("6. Bernoulli mixtures and the concavity probe")

# Mixing two column distributions with weight t and probing E|det|^(1/d)
# along t in [0, 1] traces a concave curve; t = 1 is the pure first
# model, t = 0 the pure second.  Discrete inputs evaluate exactly
# (standard error 0).
d_a = zn.DiscreteDistribution(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
d_b = zn.DiscreteDistribution(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.5, 0.5]))
curve = zn.bm_concavity_probe(d_a, d_b, d=2, t_grid=np.linspace(0.0, 1.0, 5))
ts, vals, ses = zip(*curve)
for t, v in zip(ts, vals):
    print(f"t = {t:.2f}   E|det|^(1/2) = {v:.6f}")
mid = 2
chord = 0.5 * (vals[mid - 1] + vals[mid + 1])
print("concave at the midpoint:", vals[mid] >= chord - 1e-12)
