"""Helpers shared by the test modules."""

import numpy as np

from ncfun import GenPoly, NCPoly
from ncfun.identities import IdentityReport, random_int_tuple


def max_basis_diff(p: GenPoly, q: GenPoly) -> float:
    """Largest coefficient difference over the matrix-unit basis monomials."""
    if p.n != q.n or p.mode != q.mode:
        raise ValueError("generalized polynomials of different size or mode")
    a, b = p.expand_basis(), q.expand_basis()
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)), default=0.0)


def word_value(w, X) -> np.ndarray:
    """Left-to-right product of the (real, exact) components a word names."""
    out = np.eye(X.n, dtype=int).astype(object)
    for k, starred in w:
        out = out.dot(X.mats[k - 1].T if starred else X.mats[k - 1])
    return out


def reference_eval(p, X) -> np.ndarray:
    """p(X) term by term in Python arithmetic on object matrices: no
    prefix sharing, no denominator clearing, no int64."""
    if isinstance(p, NCPoly):
        items = [(c, (), w) for w, c in p.coeffs.items()]
    else:
        items = [(c, pure, tail) for (pure, tail), c in p.coeffs.items()]
    total = np.zeros((X.n, X.n), dtype=int).astype(object)
    for c, pure, tail in items:
        val = c
        for u in pure:
            val = val * np.trace(word_value(u, X))
        total = total + val * word_value(tail, X)
    return total


def reference_is_identity(p, n: int, trials: int, seed: int) -> IdentityReport:
    """The exact identity test as a plain loop: one trial at a time, drawn
    as ``is_identity`` draws them, evaluated by ``reference_eval``, and
    stopped at the first nonzero value."""
    rng = np.random.default_rng(seed)
    deg = max(p.degree(), 0)
    d = max(3, deg)
    worst = 0.0
    for _ in range(trials):
        X = random_int_tuple(max(p.num_vars(), 1), n, rng, -d, d)
        val = reference_eval(p, X).ravel()
        worst = max(worst, float(max(abs(v) for v in val)))
        if any(v != 0 for v in val):
            return IdentityReport(False, trials, n, witness=X, max_residual=worst)
    return IdentityReport(True, trials, n, max_residual=worst, failure_bound=(deg / (2 * d + 1)) ** trials)
