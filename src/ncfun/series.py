"""Formal power series truncated at a degree.

A :class:`FormalSeries` is one :class:`~ncfun.poly.NCPoly` whose words
have length <= its order D, listed shortest first, plus D; its degree-m
part is a view of that polynomial.  All operations truncate at the
smaller order; products and substitution run on graded parts, one word
map per degree.  Substitution is a degree-major Horner walk over the
outer word trie, which drops a node's parts once its parent has read
them for the last time; series for x_k^t = involution of series for
x_k, as transposition under evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .poly import FREE, INV, NCPoly
from .words import Word, word_str


Parts = List[Dict[Word, object]]  # graded parts: parts[m] maps the words of length m to coefficients


def _parts(coeffs: Dict[Word, object], D: int) -> Parts:
    """The words of length <= D of a word map, as graded parts 0..D."""
    parts: Parts = [{} for _ in range(D + 1)]
    for w, c in coeffs.items():
        if len(w) <= D:
            parts[len(w)][w] = c
    return parts


def _mul_into(out: Parts, a: Parts, b: Parts) -> Parts:
    """Add the product a b, truncated at degree len(out) - 1, into out."""
    D = len(out) - 1
    for i, ai in enumerate(a[: D + 1]):
        for j, bj in enumerate(b[: D + 1 - i]):
            o = out[i + j]
            for u, x in ai.items():
                for v, y in bj.items():
                    w = u + v
                    o[w] = o.get(w, 0) + x * y
    return out


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
        return cls._from_parts(_parts(p.coeffs, order), p.mode)

    @classmethod
    def _from_parts(cls, parts: Parts, mode: str) -> "FormalSeries":
        """The series of order len(parts) - 1 with these graded parts."""
        s = cls.__new__(cls)
        s.poly = NCPoly({w: c for part in parts for w, c in part.items()}, mode)
        s.order = len(parts) - 1
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
        prod = _mul_into([{} for _ in range(D + 1)], _parts(self.poly.coeffs, D), _parts(other.poly.coeffs, D))
        return FormalSeries._from_parts(prod, self.mode)

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
    well defined degree-by-degree up to the common truncation order D.
    It is Horner's rule over the word trie of F: the series of the node
    u is S(u) = c_u + sum_l G_l S(u l), truncated at D - |u|, so each
    edge of the trie costs one product and F o G = S(empty word).
    """
    return compose_tuple((F,), G)[0]


def _horner_walk(roots, subs):
    """Horner's rule, degree-major, over the tries of the words of length
    <= D of each (word map, D, list) in ``roots``: node u of depth t gets
    parts 0..D - t of S(u) = c_u + sum_l subs[l] S(u l), a root's going to
    its list.  For k = 0, 1, ... it sets part k of the roots, yields k,
    then sets part k of the other nodes.  Roots read part k of subs only
    against depth-1 coefficients, so where there are none the caller
    may append it at yield k.  A node's top part (degree D - t) is the
    last to read its children's parts, which are dropped once it is set."""
    nodes = []
    for coeffs, D, parts in roots:
        root = [None, {}, parts]  # coefficient of its word or None, children by letter, parts
        for w, c in coeffs.items():
            if len(w) <= D:
                node = root
                for let in w:
                    node = node[1].setdefault(let, [None, {}, []])
                node[0] = c
        nodes.append((root, D))
    for node, room in nodes:  # breadth first: the list grows as it is read
        nodes.extend((child, room - 1) for child in node[1].values())
    below = sorted(nodes[len(roots):], key=lambda nr: -nr[1])

    def part(node, k):  # child letters in trie order, then i ascending, then u, then v
        out = {(): node[0]} if k == 0 and node[0] is not None else {}
        for let, child in node[1].items():
            a, b = subs[let], child[2]
            for i in range(1, min(k, len(a) - 1) + 1):  # part 0 of subs is empty
                for u, x in a[i].items():
                    for v, y in b[k - i].items():
                        w = u + v
                        out[w] = out.get(w, 0) + x * y
        return out

    def set_part(node, k, room):
        node[2].append(part(node, k))
        if k == room:
            for child in node[1].values():
                child[2] = None

    for k in range(max((D for _, D, _ in roots), default=-1) + 1):
        for root, D in nodes[: len(roots)]:
            if k <= D:
                set_part(root, k, D)
        yield k
        for node, room in below:
            if room < k:
                break
            set_part(node, k, room)


def compose_tuple(F: Sequence[FormalSeries], G: Sequence[FormalSeries]) -> tuple:
    """``series_compose`` of each component of F, by one ``_horner_walk``
    over all their tries."""
    if not G:
        raise ValueError("empty substitution tuple")
    mode, order = G[0].mode, min(g.order for g in G)
    subs = {}
    for k, g in enumerate(G, start=1):
        if g.mode != mode:
            raise ValueError("mixed modes in substitution tuple")
        if g.constant_part() != 0:
            raise ValueError("substituted series must have zero constant part")
        subs[k, False] = _parts(g.poly.coeffs, order)
        if mode == INV:
            subs[k, True] = _parts(g.poly.involution().coeffs, order)
    missing = next((let for f in F for w in f.poly.coeffs for let in w if let not in subs), None)
    if missing is not None:
        raise ValueError(f"no series for {word_str((missing,))} in a {mode} tuple of {len(G)}")
    parts = [[] for _ in F]
    for _ in _horner_walk([(f.poly.coeffs, min(f.order, order), p) for f, p in zip(F, parts)], subs):
        pass
    return tuple(FormalSeries._from_parts(p, mode) for p in parts)
