"""Reconstructing the power series of a black-box free map from
finitely many matrix evaluations.

The degree-m coefficients are read one evaluation each on shift-unit
tuples in M_{m+1}: writing the word's letters along the superdiagonal
(subdiagonal for transposed letters), the only product of at most m
shift units that reaches the corner entry (1, m+1) spells the word
itself, so that entry IS the coefficient.  taylor_at_zero reads every
word at once instead: on a word-trie tuple (nodes are words, letters add
edges u -> u x_k) entry (root, w) of the degree-|w| part is the
coefficient of w, so one Chebyshev scan per sub-trie serves all words,
and the scans of all sub-tries are read together as one stack.

Run: python demos/03_series_reconstruction.py
"""

import numpy as np

from ncfun import (
    INV,
    NCPoly,
    builtin_map,
    eval_ncpoly,
    matenote_plan,
    oracle_from_ncpoly,
    parse_word,
    reconstruct_polynomial,
    taylor_at_zero,
)
from ncfun.oracle import random_ncpoly

# -- the corner-entry mechanism, by hand --------------------------------
w = parse_word("x1 x2")
plan = matenote_plan(w, g=2)
print("plan for x1 x2: a1 =\n", plan.mats[0], "\na2 =\n", plan.mats[1])
p = NCPoly.variable(1) * NCPoly.variable(2) + NCPoly.variable(2) * NCPoly.variable(1)
print("entry (1,3) of p(a):", eval_ncpoly(p, plan)[0, 2], " (the coefficient of x1 x2)")

# -- full round trip -----------------------------------------------------
p = random_ncpoly(2, 3, INV, seed=42)
print("\nhidden polynomial:", p)
f = oracle_from_ncpoly(p)  # from here on, f is only a black box
tay = taylor_at_zero(f, 3)
print("recovered:        ", tay.series[0].to_ncpoly().cleanup(1e-9))
print("coefficient error:", tay.series[0].to_ncpoly().max_coeff_diff(p))
print("oracle calls:     ", tay.evaluations, "(residual samples included)")

# reconstruct_polynomial adds a certificate at levels d+1 and d+2
rec = reconstruct_polynomial(f, 3)
print("certificate residual:", rec.certificate, "->", "ok" if rec.ok else "NOT a free polynomial")

# -- an analytic map: sin(x x^t) ----------------------------------------
# parts: degree 2 is x x^t, degree 6 is -(1/3!) (x x^t)^3, all else 0
s = taylor_at_zero(builtin_map("sinxxt"), 6).series[0]
for m, part in enumerate(s.parts):
    if not part.is_zero():
        print(f"sin(x x^t) degree-{m} part:", part.cleanup(1e-8))

# -- and a certified failure ---------------------------------------------
# X -> tr(X) I is a perfectly good sequence of polynomial maps but not a
# free map; reconstruction returns 0 and the certificate exposes it.
from ncfun import MatTuple
from ncfun.oracle import FreeMapOracle

trace_map = FreeMapOracle(
    1, 1, lambda X: MatTuple([np.trace(X.mats[0]) * np.eye(X.n)], X.field),
    group="GL", smoothness=("polynomial", 1),
)
bad = reconstruct_polynomial(trace_map, 1)
print("\ntrace map certificate:", bad.certificate, "->", "ok" if bad.ok else "rejected, with witness")
