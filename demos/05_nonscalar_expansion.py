"""Power series about a non-scalar center: the homogeneous parts are
generalized polynomials whose matrix coefficients live in a
group-dependent algebra -- the *-algebra generated by the center for
O-free maps, its double centralizer for GL-free maps.

Run: python demos/05_nonscalar_expansion.py
"""

import dataclasses

import numpy as np

from ncfun import (
    INV,
    MatTuple,
    NCPoly,
    centralizer,
    eval_genpoly,
    expand_at_point,
    generated_algebra,
    oracle_from_ncpoly,
    random_mattuple,
)
from ncfun.expand import center_tuple

# center A = e12: nilpotent, far from generic
A = MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])

# the coefficient algebras differ by group:
alg_free = generated_algebra(A, with_involution=False)  # F<A>: span{I, e12}
alg_star = generated_algebra(A, with_involution=True)  # F<A, A^t> = M_2
cc = centralizer(centralizer(alg_free.mats, 2).mats, 2)
print("dim F<A> =", alg_free.dim, "  dim C(C(F<A>)) =", cc.dim, "  dim F<A,A^t> =", alg_star.dim)

# expand f = x1 x1^t + x1 about A (O-free, so coefficients in F<A,A^t>).
# A polynomial map is expanded by substituting X = A + H into its words;
# its copy without polys is a black box, fitted by least squares from
# sampled evaluations.  The two routes agree to round-off.
p = NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True) + NCPoly.variable(1, mode=INV)
f = oracle_from_ncpoly(p)
exp = expand_at_point(f, A, D=2, s_eval=3, seed=0)
fit = expand_at_point(dataclasses.replace(f, polys=None), A, D=2, s_eval=3, seed=0)
H = random_mattuple(1, 6, np.random.default_rng(0))
gap = max(float(np.linalg.norm(eval_genpoly(a[0], H) - eval_genpoly(b[0], H)))
          for a, b in zip(exp.parts, fit.parts))
print("\nsubstituted vs fitted parts: largest difference", f"{gap:.2e}")
print("oracle calls: substituted", exp.evaluations, " fitted", fit.evaluations)
print("parts:", [exp.parts[m][0] for m in range(3)])
print("every coefficient matrix lies in F<A,A^t>: residual",
      f"{exp.coefficient_residual():.2e}")

# the reassembled series reproduces f near the center, at several levels
rng = np.random.default_rng(1)
worst = 0.0
for s in (1, 2, 3):
    C = center_tuple(A, s)
    for _ in range(5):
        X = C + random_mattuple(1, 2 * s, rng, norm=0.04)
        worst = max(worst, exp.eval_at(X).max_diff(f(X)))
print("reassembly error near the center:", f"{worst:.2e}")

# degree-0 part of a GL-free expansion is f(A), which lands in the
# double centralizer (not necessarily in F<A> itself)
q = NCPoly.variable(1) ** 2 + NCPoly.one()
g = oracle_from_ncpoly(q)
print("\nGL case: f(A) residual against C(C(F<A>)):",
      f"{cc.residual(g(A).mats[0]):.2e}")
