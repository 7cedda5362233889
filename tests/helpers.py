"""Helpers shared by the test modules."""

from ncfun import GenPoly


def max_basis_diff(p: GenPoly, q: GenPoly) -> float:
    """Largest coefficient difference over the matrix-unit basis monomials."""
    if p.n != q.n or p.mode != q.mode:
        raise ValueError("generalized polynomials of different size or mode")
    a, b = p.expand_basis(), q.expand_basis()
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)), default=0.0)
