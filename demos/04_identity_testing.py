"""Standard polynomials and randomized identity testing with exact
integer arithmetic.

S_2k alternates over all (2k)! orders of its arguments; it vanishes
identically on n x n matrices exactly when k >= n.

Run: python demos/04_identity_testing.py
"""

import numpy as np

from ncfun import (
    TracePoly,
    eval_standard,
    is_identity,
    parse_word,
    standard_polynomial,
)

for n in (1, 2, 3):
    s2n = standard_polynomial(n)
    on_n = is_identity(s2n, n, trials=100, seed=0, exact=True)
    on_n1 = is_identity(s2n, n + 1, trials=50, seed=0, exact=True)
    print(f"S_{2*n} on M_{n}: {on_n.verdict} (failure bound {on_n.failure_bound:.1e})"
          f"   on M_{n+1}: {on_n1.verdict}")

# the witness is concrete and exact:
rep = is_identity(standard_polynomial(2), 3, trials=50, seed=0, exact=True)
print("\nwitness tuple for S_4 on M_3 (integer entries):")
for k, m in enumerate(rep.witness.mats):
    print(f"A{k+1} =\n{np.asarray(m, dtype=float)}")
print("S_4(witness) =\n", np.asarray(eval_standard(list(rep.witness.mats)), dtype=float))

# trace identities: tr(x1 x2) - tr(x2 x1) vanishes on every level
t = TracePoly({((parse_word("x1 x2"),), ()): 1, ((parse_word("x2 x1"),), ()): -1})
print("\ntr(x1 x2) - tr(x2 x1) on M_3:", is_identity(t, 3, trials=20, seed=1, exact=True).verdict)
