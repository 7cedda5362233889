"""Degree-graded formal power series with truncation.

A :class:`FormalSeries` holds homogeneous :class:`~ncfun.poly.NCPoly`
parts for degrees 0..D.  All operations truncate at the smaller order.
Substitution applies the involution convention (series for x_k^t) =
involution of (series for x_k), which matches matrix transposition
under evaluation.
"""

from __future__ import annotations

from typing import List, Sequence

from .poly import FREE, NCPoly
from .words import word_str


def _add_into(acc: dict, coeffs) -> None:
    """acc += coeffs in place, dropping exact zeros as ``NCPoly +`` does,
    so the values and the word order match repeated ``NCPoly +``."""
    for w, c in coeffs.items():
        acc[w] = acc.get(w, 0) + c
        if acc[w] == 0:
            del acc[w]


class FormalSeries:
    __slots__ = ("parts", "order", "mode")

    def __init__(self, parts: Sequence[NCPoly], order: int | None = None, mode: str | None = None):
        parts = list(parts)
        if mode is None:
            mode = parts[0].mode if parts else FREE
        if order is None:
            order = len(parts) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        while len(parts) < order + 1:
            parts.append(NCPoly.zero(mode))
        parts = parts[: order + 1]
        for m, p in enumerate(parts):
            if p.mode != mode:
                raise ValueError("mixed modes in series parts")
            if not p.is_zero() and (not p.is_homogeneous() or p.degree() != m):
                raise ValueError(f"part {m} is not homogeneous of degree {m}")
        self.parts: List[NCPoly] = parts
        self.order = order
        self.mode = mode

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int, mode: str = FREE) -> "FormalSeries":
        return cls([], order, mode)

    @classmethod
    def from_ncpoly(cls, p: NCPoly, order: int) -> "FormalSeries":
        return cls([p.homogeneous_part(m) for m in range(order + 1)], order, p.mode)

    @classmethod
    def variable(cls, k: int, order: int, mode: str = FREE) -> "FormalSeries":
        return cls.from_ncpoly(NCPoly.variable(k, mode=mode), order)

    @classmethod
    def identity_tuple(cls, g: int, order: int, mode: str = FREE):
        return tuple(cls.variable(k, order, mode) for k in range(1, g + 1))

    def to_ncpoly(self) -> NCPoly:
        # parts hold distinct degrees, so no two share a word
        return NCPoly({w: c for p in self.parts for w, c in p.coeffs.items()}, self.mode)

    # -- arithmetic --------------------------------------------------

    def _common_order(self, other: "FormalSeries") -> int:
        if self.mode != other.mode:
            raise ValueError("mode mismatch")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        D = self._common_order(other)
        return FormalSeries([self.parts[m] + other.parts[m] for m in range(D + 1)], D, self.mode)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FormalSeries([-p for p in self.parts], self.order, self.mode)

    def scale(self, c) -> "FormalSeries":
        return FormalSeries([p.scale(c) for p in self.parts], self.order, self.mode)

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return self.scale(other)
        D = self._common_order(other)
        acc: List[dict] = [{} for _ in range(D + 1)]
        for i, p in enumerate(self.parts[: D + 1]):
            if p.is_zero():
                continue
            for j, q in enumerate(other.parts[: D + 1 - i]):
                if q.is_zero():
                    continue
                _add_into(acc[i + j], (p * q).coeffs)
        return FormalSeries([NCPoly(c, self.mode) for c in acc], D, self.mode)

    def involution(self) -> "FormalSeries":
        return FormalSeries([p.involution() for p in self.parts], self.order, self.mode)

    def truncate(self, order: int) -> "FormalSeries":
        return FormalSeries(self.parts[: order + 1], min(order, self.order), self.mode)

    # -- structure ---------------------------------------------------

    def constant_part(self):
        return self.parts[0].coefficient(())

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def cleanup(self, tol: float) -> "FormalSeries":
        return FormalSeries([p.cleanup(tol) for p in self.parts], self.order, self.mode)

    def max_coeff_diff(self, other: "FormalSeries") -> float:
        D = self._common_order(other)
        return max(
            (self.parts[m].max_coeff_diff(other.parts[m]) for m in range(D + 1)),
            default=0.0,
        )

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.mode == other.mode
            and self.order == other.order
            and all(p == q for p, q in zip(self.parts, other.parts))
        )

    def __call__(self, X):
        from . import mateval

        return mateval.eval_ncpoly(self.to_ncpoly(), X)

    def __repr__(self):
        terms = []
        for p in self.parts:
            for w, c in p.sorted_terms():
                terms.append(f"{c}*{word_str(w)}")
        body = " + ".join(terms) if terms else "0"
        return f"FormalSeries({body} + O(deg {self.order + 1}))"


def series_compose(F: FormalSeries, G: Sequence[FormalSeries]) -> FormalSeries:
    """Substitute the tuple G into F; G[k-1] replaces x_k, and the
    involution of G[k-1] replaces x_k^t.

    Every component of G must have zero constant part, so the result is
    well defined degree-by-degree up to the common truncation order.
    """
    if not G:
        raise ValueError("empty substitution tuple")
    D = min([F.order] + [g.order for g in G])
    mode = G[0].mode
    for g in G:
        if g.mode != mode:
            raise ValueError("mixed modes in substitution tuple")
        if g.constant_part() != 0:
            raise ValueError("substituted series must have zero constant part")
    subs = {}

    def series_for(let):
        if let not in subs:
            k, starred = let
            if k > len(G):
                raise ValueError(f"series tuple has {len(G)} components, needs x{k}")
            subs[let] = G[k - 1].involution() if starred else G[k - 1]
        return subs[let]

    acc: List[dict] = [{} for _ in range(D + 1)]
    one = FormalSeries.from_ncpoly(NCPoly.one(mode), D)
    for p in F.parts[: D + 1]:
        for w, c in p.coeffs.items():
            term = one.scale(c)
            for let in w:
                term = term * series_for(let)
            for m, q in enumerate(term.parts):
                _add_into(acc[m], q.coeffs)
    return FormalSeries([NCPoly(c, mode) for c in acc], D, mode)


def compose_tuple(
    F: Sequence[FormalSeries], G: Sequence[FormalSeries]
) -> tuple:
    return tuple(series_compose(f, G) for f in F)
