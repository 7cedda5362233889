"""Formal power series truncated at a degree.

A :class:`FormalSeries` is one :class:`~ncfun.poly.NCPoly` whose words
have length <= its order D, listed shortest first, plus D; its degree-m
part is a view of that polynomial.  All operations truncate at the
smaller order.  Substitution applies the involution convention (series
for x_k^t) = involution of (series for x_k), which matches matrix
transposition under evaluation.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from .poly import FREE, INV, NCPoly
from .words import Word, word_str


def _graded_sum(terms: Iterable[Tuple[Word, object]]) -> Dict[Word, object]:
    """Sum of (word, coefficient) pairs, listed shortest first (stable).
    Exact zeros drop out as they arise, as with repeated ``NCPoly +``, so
    the values and the word order match summing the pairs one at a time."""
    acc: Dict[Word, object] = {}
    for w, c in terms:
        c = acc.get(w, 0) + c
        if c == 0:
            acc.pop(w, None)
        else:
            acc[w] = c
    return dict(sorted(acc.items(), key=lambda wc: len(wc[0])))


def _products(a: Dict[Word, object], b: Dict[Word, object], D: int):
    """Pairs (u v, a_u b_v) of length <= D; b is listed shortest first."""
    for u, x in a.items():
        for v, y in b.items():
            if len(u) + len(v) > D:
                break
            yield u + v, x * y


class FormalSeries:
    __slots__ = ("poly", "order")

    def __init__(self, parts: Sequence[NCPoly], order: int | None = None, mode: str | None = None):
        parts = list(parts)
        if mode is None:
            mode = parts[0].mode if parts else FREE
        if order is None:
            order = len(parts) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        parts = parts[: order + 1]
        for m, p in enumerate(parts):
            if p.mode != mode:
                raise ValueError("mixed modes in series parts")
            if not p.is_zero() and (not p.is_homogeneous() or p.degree() != m):
                raise ValueError(f"part {m} is not homogeneous of degree {m}")
        self.poly = NCPoly({w: c for p in parts for w, c in p.coeffs.items()}, mode)
        self.order = order

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int, mode: str = FREE) -> "FormalSeries":
        return cls([], order, mode)

    @classmethod
    def from_ncpoly(cls, p: NCPoly, order: int) -> "FormalSeries":
        """p without its words longer than ``order``."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        s = cls.__new__(cls)
        kept = ((w, c) for w, c in p.coeffs.items() if len(w) <= order)
        s.poly = NCPoly(dict(sorted(kept, key=lambda wc: len(wc[0]))), p.mode)
        s.order = order
        return s

    @classmethod
    def variable(cls, k: int, order: int, mode: str = FREE) -> "FormalSeries":
        return cls.from_ncpoly(NCPoly.variable(k, mode=mode), order)

    @classmethod
    def identity_tuple(cls, g: int, order: int, mode: str = FREE):
        return tuple(cls.variable(k, order, mode) for k in range(1, g + 1))

    def to_ncpoly(self) -> NCPoly:
        return self.poly

    @property
    def mode(self) -> str:
        return self.poly.mode

    @property
    def parts(self) -> List[NCPoly]:
        return [self.poly.homogeneous_part(m) for m in range(self.order + 1)]

    # -- arithmetic --------------------------------------------------

    def _common_order(self, other: "FormalSeries") -> int:
        if self.mode != other.mode:
            raise ValueError("mode mismatch")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return FormalSeries.from_ncpoly(self.poly + other.poly, self._common_order(other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FormalSeries.from_ncpoly(-self.poly, self.order)

    def scale(self, c) -> "FormalSeries":
        return FormalSeries.from_ncpoly(self.poly.scale(c), self.order)

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return self.scale(other)
        D = self._common_order(other)
        prod = _graded_sum(_products(self.poly.coeffs, other.poly.coeffs, D))
        return FormalSeries.from_ncpoly(NCPoly(prod, self.mode), D)

    def involution(self) -> "FormalSeries":
        return FormalSeries.from_ncpoly(self.poly.involution(), self.order)

    # -- structure ---------------------------------------------------

    def constant_part(self):
        return self.poly.coefficient(())

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def max_coeff_diff(self, other: "FormalSeries") -> float:
        D = self._common_order(other)
        a, b = (FormalSeries.from_ncpoly(s.poly, D).poly for s in (self, other))
        return a.max_coeff_diff(b)

    def __eq__(self, other):
        return isinstance(other, FormalSeries) and self.order == other.order and self.poly == other.poly

    def __call__(self, X):
        from . import mateval

        return mateval.eval_ncpoly(self.poly, X)

    def __repr__(self):
        terms = [f"{c}*{word_str(w)}" for w, c in self.poly.sorted_terms()]
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
    subs = {}
    for k, g in enumerate(G, start=1):
        if g.mode != mode:
            raise ValueError("mixed modes in substitution tuple")
        if g.constant_part() != 0:
            raise ValueError("substituted series must have zero constant part")
        subs[k, False] = g.poly.coeffs
        if mode == INV:
            subs[k, True] = g.involution().poly.coeffs

    def term(w, c):
        t = {(): c}
        for let in w:
            if let not in subs:
                raise ValueError(f"no series for {word_str((let,))} in a {mode} tuple of {len(G)}")
            t = _graded_sum(_products(t, subs[let], D))
        return t.items()

    words = ((w, c) for w, c in F.poly.coeffs.items() if len(w) <= D)
    total = _graded_sum(chain.from_iterable(term(w, c) for w, c in words))
    return FormalSeries.from_ncpoly(NCPoly(total, mode), D)


def compose_tuple(F: Sequence[FormalSeries], G: Sequence[FormalSeries]) -> tuple:
    return tuple(series_compose(f, G) for f in F)
