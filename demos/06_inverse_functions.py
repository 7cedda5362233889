"""Free inverse and implicit functions: degree-graded formal reversion,
levelwise Newton iteration, and agreement between the two.

Run: python demos/06_inverse_functions.py
"""

import dataclasses

import numpy as np

from ncfun import (
    INV,
    FormalSeries,
    FreeMapOracle,
    MatTuple,
    NCPoly,
    composition_residual,
    eval_ncpoly,
    formal_inverse,
    implicit_formal,
    implicit_numeric,
    injectivity_check,
    newton_invert,
    oracle_from_ncpoly,
    random_group_element,
    random_mattuple,
    sym_matrix_function,
)

# -- series reversion ----------------------------------------------------
x1 = NCPoly.variable(1)
F = FormalSeries.from_ncpoly(x1 - x1 * x1, 5)
(H,) = formal_inverse([F])
print("inverse of x - x^2:", H)
print("composition residual:", composition_residual([F], [H]))

# with involution the inverse picks up transposed words:
p = NCPoly.variable(1, mode=INV) + NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
(Hi,) = formal_inverse([FormalSeries.from_ncpoly(p, 3)])
print("\ninverse of x + x x^t:", Hi)

# -- Newton inversion ------------------------------------------------------
f = oracle_from_ncpoly(p)
rng = np.random.default_rng(0)
Y = random_mattuple(1, 2, rng, norm=0.05)
trace = newton_invert(f, Y)
print("\nnewton:", trace)
for i, (res, step) in enumerate(trace.iterates):
    print(f"  iter={i} res={res:.3e} step={step:.3e}")

# the numeric inverse is itself O-free: h(u Y u^t) = u h(Y) u^t
u = random_group_element("O", 2, rng)
trace_u = newton_invert(f, MatTuple([u @ Y.mats[0] @ u.T]))
print("equivariance gap:",
      np.linalg.norm(trace_u.X.mats[0] - u @ trace.X.mats[0] @ u.T, 2))

# and it agrees with the truncated formal inverse to order D+1:
approx = eval_ncpoly(Hi.to_ncpoly(), Y)
print("formal vs newton at |Y| = 0.05:", np.linalg.norm(approx - trace.X.mats[0], 2),
      " (~ |Y|^4 =", 0.05**4, ")")

# a black box (no symbolic backing) gets a Jacobian once, by ray reads of
# t -> f(X + tE) (8 calls per coordinate direction), then Broyden updates
box = FreeMapOracle(1, 1, lambda X: MatTuple([X.mats[0] + sym_matrix_function("sin", X.mats[0] @ X.mats[0].T)]),
                    group="O", name="x + sin(x x^t)")
trace_b = newton_invert(box, random_mattuple(1, 3, rng, norm=0.1), tol=1e-11)
print(f"\nblack box x + sin(x x^t) at n=3: {trace_b.reason} after {len(trace_b.iterates)} iterations,",
      f"evaluations={trace_b.evaluations} jacobians={trace_b.jacobians}")

# -- implicit functions -----------------------------------------------------
# f(x, y) = y + y x + x = 0 defines y = h(x) with h = -x + x^2 - ...
g = oracle_from_ncpoly(NCPoly.variable(2) + NCPoly.variable(2) * NCPoly.variable(1) + NCPoly.variable(1))
(h,) = implicit_formal(g, 1, 4)
print("\nimplicit series:", h)

# numerically, f(x, y) = y - x x^t at x = e12 gives y = e11; Newton runs
# on q itself with x held at e12, so its Jacobian along y is the product
# rule (no oracle call), while a polys=None copy reads it along rays
q = oracle_from_ncpoly(
    NCPoly.variable(2, mode=INV) - NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
)
e12 = MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
sol = implicit_numeric(q, 1, e12)
print("implicit numeric solution:\n", sol.X.mats[0])
sol_b = implicit_numeric(dataclasses.replace(q, polys=None), 1, e12)
print(f"calls: polynomial {sol.evaluations}, polys=None copy {sol_b.evaluations};",
      f"difference {sol_b.X.max_diff(sol.X):.1e}")

# -- the injectivity obstruction --------------------------------------------
# x -> x^2 takes the same value at I and -I; the derivative at their
# direct sum kills the off-diagonal direction built from the difference
sq = oracle_from_ncpoly(x1 * x1)
rep = injectivity_check(sq, MatTuple([np.eye(2)]), MatTuple([-np.eye(2)]))
print("\nequal values:", rep.values_equal,
      " off-diagonal image:", f"{rep.offdiag_image_norm:.2e}",
      " smallest singular value of Df:", f"{rep.min_singular_value:.2e}")
