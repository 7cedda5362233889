"""Standard polynomials, randomized identity testing, and the
alternating-sum machinery behind the nonuniform-convergence example.

The standard polynomial S_2k vanishes identically on M_n iff k >= n
(Amitsur-Levitzki); matrix evaluation uses a subset dynamic program
rather than expanding the (2k)! terms, and works with exact integer or
Fraction entries.  Exact evaluation runs on integers: S_m, being
multilinear, clears each argument's denominator and divides once at the
end, in int64 only when a bound on the entries proves that nothing
overflows.  ``is_identity`` evaluates its trials, exact or float, on the
polynomial's kept plan (see :mod:`ncfun.mateval`): the first alone, the
rest as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .mateval import (
    MatTuple,
    _clear_denominators,
    _exact_quotient,
    _max_abs,
    _narrowed,
    _plan,
    _rng,
    eval_poly,
    random_mattuple,
)
from .poly import FREE, NCPoly, TracePoly
from .words import Word


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def standard_polynomial(k: int) -> NCPoly:
    """S_2k as an NCPoly in 2k variables: the signed sum over all
    (2k)! orders of x_1 ... x_2k.  Capped at k <= 6."""
    if not 1 <= k <= 6:
        raise ValueError("standard_polynomial supports 1 <= k <= 6")
    coeffs = {}
    for perm in permutations(range(2 * k)):
        w: Word = tuple((i + 1, False) for i in perm)
        coeffs[w] = _perm_sign(perm)
    return NCPoly(coeffs, FREE)


def eval_standard(mats: Sequence):
    """Evaluate S_m(A_1..A_m) by dynamic programming over subsets.

    P(S) = sum over orders of the subset S, signed; the recursion peels
    the leading factor: P(S) = sum_p (-1)^(p-1) A_{s_p} P(S - s_p).
    Works in any ring whose elements support ``@``, ``+`` and ``-``:
    float or exact object-dtype matrices, or NCPolys (symbolic S_m).
    Exact matrices with int or Fraction entries are scaled to integers
    A_i = d_i M_i and the DP runs on those, in int64 when
    m! n^(m-1) prod max|A_i| proves that nothing overflows; S_m being
    multilinear, the result is divided by prod d_i once.
    """
    m = len(mats)
    if m < 1:
        raise ValueError("S_m needs m >= 1 arguments")
    if all(isinstance(a, np.ndarray) and a.dtype == object for a in mats):
        cleared = [_clear_denominators(a) for a in mats]
        if all(c is not None for c in cleared):
            n = mats[0].shape[-1]
            bound = math.factorial(m) * n ** (m - 1) * math.prod(max(_max_abs(A), 1) for A, _ in cleared)
            ints = [_narrowed(A, bound) for A, _ in cleared]
            return _exact_quotient(_subset_dp(ints), math.prod(d for _, d in cleared))
    return _subset_dp(mats)


def _subset_dp(mats: Sequence):
    m = len(mats)
    prev = {(i,): a for i, a in enumerate(mats)}
    for size in range(2, m + 1):
        cur = {}
        for S in combinations(range(m), size):
            acc = mats[S[0]] @ prev[S[1:]]
            for p in range(1, size):
                term = mats[S[p]] @ prev[S[:p] + S[p + 1:]]
                acc = acc + term if p % 2 == 0 else acc - term
            cur[S] = acc
        prev = cur
    return prev[tuple(range(m))]


# -- randomized identity testing -------------------------------------

FLOAT_TOL = 1e-9  # Frobenius norm below which a float evaluation counts as zero


@dataclass
class IdentityReport:
    is_identity: bool
    trials: int
    level: int
    witness: Optional[MatTuple] = None
    max_residual: float = 0.0
    # Schwartz-Zippel bound (deg p / |S|)^trials on the chance that a
    # non-identity passes every exact trial; None unless exact IDENTITY
    failure_bound: Optional[float] = None

    @property
    def verdict(self) -> str:
        return "IDENTITY" if self.is_identity else "NON-IDENTITY"


def random_int_tuple(g: int, n: int, rng, lo: int = -3, hi: int = 3) -> MatTuple:
    """Integer-entry tuple as an object array (exact arithmetic)."""
    return MatTuple([rng.integers(lo, hi + 1, size=(n, n)).astype(object) for _ in range(g)], "real")


def is_identity(
    p: NCPoly | TracePoly, n: int, trials: int = 100, seed=0, exact: bool = True
) -> IdentityReport:
    """Randomized test whether p vanishes identically on M_n.

    With ``exact`` the evaluations run in exact arithmetic on integer
    tuples with entries drawn from S = {-d..d}, d = max(3, deg p), so
    |S| > 2 deg p.  A nonzero value is always a correct non-identity
    witness; the identity verdict is Monte Carlo, and a non-identity
    passes all trials with probability at most (deg p / |S|)^trials
    (Schwartz-Zippel), reported as ``failure_bound``.

    Trials are drawn in order from one generator and evaluated on p's
    kept plan (see :mod:`ncfun.mateval`): the first trial alone, since a
    non-identity usually shows there, then the others drawn and
    evaluated together as one stack.  Exact trials of a polynomial with
    int or Fraction coefficients run over the integers (coefficients
    times their LCD), others in their own arithmetic.  The first nonzero
    trial is the witness, and ``max_residual`` covers the trials up to
    it.
    """
    if n < 1 or trials < 1:
        raise ValueError(f"is_identity needs n >= 1 and trials >= 1, got n={n}, trials={trials}")
    rng = _rng(seed)
    g = p.num_vars() or 1
    deg = max(p.degree(), 0)
    d = max(3, deg)
    plan = _plan(p, g)

    def evaluated():
        for batch in (1, trials - 1):
            draws = [random_int_tuple(g, n, rng, -d, d) if exact else random_mattuple(g, n, rng)
                     for _ in range(batch)]
            if draws:
                yield from zip(draws, plan.values(np.stack([X.mats for X in draws], axis=1), "real"))

    worst = 0.0
    for X, val in evaluated():
        if exact:
            nonzero = any(val[i, j] != 0 for i in range(n) for j in range(n))
            mag = float(max((abs(v) for row in val for v in row), default=0))
        else:
            mag = float(np.linalg.norm(val))
            nonzero = mag > FLOAT_TOL
        worst = max(worst, mag)
        if nonzero:
            return IdentityReport(False, trials, n, witness=X, max_residual=worst)
    bound = (deg / (2 * d + 1)) ** trials if exact else None
    return IdentityReport(True, trials, n, max_residual=worst, failure_bound=bound)


# -- the nonuniform-convergence example -------------------------------


def z_poly(i: int, j: int) -> NCPoly:
    """z_ij = x3^2 x2^(i-1) x1^(j-1) - x2^i x1^j, homogeneous of degree i+j."""
    x1 = NCPoly.variable(1)
    x2 = NCPoly.variable(2)
    x3 = NCPoly.variable(3)
    return x3 * x3 * x2 ** (i - 1) * x1 ** (j - 1) - x2**i * x1**j


def hk_arg_indices(k: int) -> List[Tuple[int, int]]:
    """Index pairs of the 2k arguments fed to S_2k."""
    args = [(1, 1)]
    for j in range(2, k + 1):
        args.append((j, j))
        args.append((j - 1, j))
    args.append((k + 1, k + 1))
    return args


def hk_degree(k: int) -> int:
    """Degree of h_k: the sum of the argument degrees deg z_ij = i + j,
    since each monomial of S_2k uses every argument exactly once."""
    return sum(i + j for (i, j) in hk_arg_indices(k))


def hk_poly(k: int) -> NCPoly:
    """h_k = S_2k(z_11, z_22, z_12, ..., z_kk, z_{k-1,k}, z_{k+1,k+1}),
    expanded symbolically by the subset DP of :func:`eval_standard`.

    Supported for 1 <= k <= 3: h_3 has 44,064 words of degree 28, while
    h_4 would expand to up to 8! * 2^8 (about 1.0e7) words of degree 45.
    """
    if not 1 <= k <= 3:
        raise ValueError("symbolic h_k expansion is only supported for 1 <= k <= 3")
    return eval_standard([z_poly(i, j) for (i, j) in hk_arg_indices(k)])


def hk_eval(k: int, X: MatTuple) -> np.ndarray:
    """Evaluate h_k on a 3-tuple without symbolic expansion."""
    if X.g != 3:
        raise ValueError("h_k takes a 3-tuple")
    zs = [eval_poly(z_poly(i, j), X) for (i, j) in hk_arg_indices(k)]
    return eval_standard(zs)


def nonuniform_witness(n: int, exact: bool = True) -> MatTuple:
    """The (n+1) x (n+1) witness tuple for the nonuniform example:
    x1 the up-shift, x2 the down-shift, x3 = I + (1/2) e_{n,n+1}.

    The half coefficient makes x3^2 = I + e_{n,n+1} hold exactly, which
    is what the example's evaluations z_ii = e_ii + e_{n,n+1} and
    h_n = (-1)^(n-1) (n+1) e_{1,n+1} require.
    """
    one, half = (Fraction(1), Fraction(1, 2)) if exact else (1.0, 0.5)
    ones = np.full(n, one, dtype=object if exact else float)
    x3 = np.diag(np.full(n + 1, one, dtype=ones.dtype))
    x3[n - 1, n] += half
    return MatTuple([np.diag(ones, 1), np.diag(ones, -1), x3], "real")


def nonuniform_scale(n: int) -> float:
    """Half-radius r'/2 with (n+1)! (r'/2)^(deg h_n) = pi/2."""
    d = hk_degree(n)
    target = np.pi / 2.0
    logv = (np.log(target) - sum(np.log(np.arange(2, n + 2)))) / d
    return float(np.exp(logv))
