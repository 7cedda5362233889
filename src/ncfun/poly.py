"""Sparse noncommutative polynomials and trace polynomials.

Two coefficient-map flavors live here:

* :class:`NCPoly` -- elements of the free algebra in x_1..x_g, or of the
  free algebra with involution in x_1, x_1^t, ..., stored as a map
  word -> coefficient.
* :class:`TracePoly` -- noncommutative polynomials over the commutative
  algebra of formal traces tr(w), stored as a map
  (multiset of trace words, tail word) -> coefficient.

Both rest on one sparse core, ``_SparsePoly``: a map monomial -> coefficient
in a space (the mode, and for trace polynomials also the field), with the
arithmetic they share (``+``, ``-``, negation, scaling, ``cleanup``,
``==``, evaluation).  Results are rebuilt through ``_like(coeffs)``, the
class's own constructor in the same space.  What differs stays in each
class: construction (word checks, trace canonicalization), ``*`` and the
structure queries.

Coefficients are arbitrary Python scalars (float, complex, int,
Fraction); zero coefficients are pruned exactly on construction.
Numeric cleanup with a tolerance is a separate explicit operation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .words import (
    Word,
    EMPTY_WORD,
    cyclic_canonical,
    graded_lex_key,
    word_has_star,
    word_involution,
    word_str,
    max_var,
)

FREE = "free"
INV = "involution"

TraceMonomial = Tuple[Tuple[Word, ...], Word]  # (sorted pure factors, tail)


def _check_mode(mode: str) -> str:
    if mode not in (FREE, INV):
        raise ValueError(f"mode must be {FREE!r} or {INV!r}, got {mode!r}")
    return mode


class _SparsePoly:
    """Arithmetic shared by NCPoly and TracePoly; ``_space`` names what two
    operands must share, and ``_like`` rebuilds a result in that space.
    A polynomial does not change once built, so what is derived from all
    its words is found once and kept: ``_plans``, its evaluation plans by
    tuple arity (see :mod:`ncfun.mateval`), and ``_num_vars``."""

    __slots__ = ("coeffs", "mode", "_plans", "_num_vars")

    def _space(self) -> tuple:
        return (self.mode,)

    def _like(self, coeffs):
        return type(self)(coeffs, *self._space())

    def _check_space(self, other) -> None:
        if self._space() != other._space():
            raise ValueError(f"mode/field mismatch: {self._space()} vs {other._space()}")

    def is_zero(self) -> bool:
        return not self.coeffs

    def num_vars(self) -> int:
        """The largest variable index in any word; 0 if there is none."""
        if self._num_vars is None:
            self._num_vars = max((max_var(w) for m in self.coeffs for w in self._words(m)), default=0)
        return self._num_vars

    def cleanup(self, tol: float):
        """Drop coefficients with magnitude <= tol."""
        return self._like({k: c for k, c in self.coeffs.items() if abs(c) > tol})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_space(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return self._like({k: c * a for k, a in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self._space() == other._space()
            and self.coeffs == other.coeffs
        )

    def __call__(self, X):
        from . import mateval

        return mateval.eval_poly(self, X)


class NCPoly(_SparsePoly):
    """Sparse free noncommutative polynomial."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[Word, object] | None = None, mode: str = FREE):
        self.mode = _check_mode(mode)
        clean: Dict[Word, object] = {}
        for w, c in (coeffs or {}).items():
            if c == 0:
                continue
            if self.mode == FREE and word_has_star(w):
                raise ValueError(f"starred letters not allowed in {FREE} mode: {word_str(w)}")
            clean[tuple(w)] = c
        self.coeffs = clean
        self._plans, self._num_vars = {}, None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, mode: str = FREE) -> "NCPoly":
        return cls({}, mode)

    @classmethod
    def one(cls, mode: str = FREE) -> "NCPoly":
        return cls({EMPTY_WORD: 1}, mode)

    @classmethod
    def variable(cls, k: int, starred: bool = False, mode: str | None = None) -> "NCPoly":
        if mode is None:
            mode = INV if starred else FREE
        return cls({((k, bool(starred)),): 1}, mode)

    @classmethod
    def from_word(cls, w: Word, coeff=1, mode: str | None = None) -> "NCPoly":
        if mode is None:
            mode = INV if word_has_star(w) else FREE
        return cls({tuple(w): coeff}, mode)

    # -- structure ---------------------------------------------------

    def degree(self) -> int:
        """Max word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.coeffs), default=-1)

    @staticmethod
    def _words(w: Word) -> Tuple[Word, ...]:
        return (w,)

    def is_homogeneous(self) -> bool:
        return len({len(w) for w in self.coeffs}) <= 1

    def homogeneous_part(self, m: int) -> "NCPoly":
        return NCPoly({w: c for w, c in self.coeffs.items() if len(w) == m}, self.mode)

    def coefficient(self, w: Word):
        return self.coeffs.get(tuple(w), 0)

    def max_coeff_diff(self, other: "NCPoly") -> float:
        words = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coefficient(w) - other.coefficient(w)) for w in words), default=0.0)

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self.scale(other)
        self._check_space(other)
        out: Dict[Word, object] = {}
        for u, a in self.coeffs.items():
            for v, b in other.coeffs.items():
                w = u + v
                out[w] = out.get(w, 0) + a * b
        return self._like(out)

    __matmul__ = __mul__  # the free-algebra product, so eval_standard runs on NCPolys

    def __pow__(self, k: int) -> "NCPoly":
        if k < 0:
            raise ValueError("negative power")
        out = NCPoly.one(self.mode)
        for _ in range(k):
            out = out * self
        return out

    def involution(self) -> "NCPoly":
        """Word-wise involution with conjugated coefficients."""
        if self.mode != INV:
            raise ValueError("involution requires with-involution mode")
        return NCPoly({word_involution(w): c.conjugate() for w, c in self.coeffs.items()}, INV)

    # -- misc --------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda wc: graded_lex_key(wc[0]))

    def __repr__(self):
        if not self.coeffs:
            return "NCPoly(0)"
        parts = [f"{c}*{word_str(w)}" for w, c in self.sorted_terms()]
        return "NCPoly(" + " + ".join(parts) + ")"


class TracePoly(_SparsePoly):
    """Noncommutative polynomial with pure-trace coefficients.

    Monomials are pairs (pure, tail): ``pure`` is a sorted tuple of
    canonical cyclic-class representatives (the formal factors tr(w)),
    ``tail`` a plain word.  In real with-involution mode trace words
    canonicalize over star-cyclic classes (tr(w^t) = tr(w) on real
    matrices); in complex mode only cyclic rotation is used, since
    tr(w^*) = conj(tr(w)) is a different quantity.
    """

    __slots__ = ("field",)

    def __init__(
        self,
        coeffs: Mapping[TraceMonomial, object] | None = None,
        mode: str = FREE,
        field: str = "real",
    ):
        self.mode = _check_mode(mode)
        if field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
        self.field = field
        clean: Dict[TraceMonomial, object] = {}
        for (pure, tail), c in (coeffs or {}).items():
            if c == 0:
                continue
            key = (self._canon_pure(pure), tuple(tail))
            if self.mode == FREE:
                if word_has_star(key[1]) or any(word_has_star(w) for w in key[0]):
                    raise ValueError("starred letters not allowed in free mode")
            clean[key] = clean.get(key, 0) + c
        self.coeffs = {k: c for k, c in clean.items() if c != 0}
        self._plans, self._num_vars = {}, None

    def _space(self) -> tuple:
        return (self.mode, self.field)

    def _star_classes(self) -> bool:
        return self.mode == INV and self.field == "real"

    def _canon_pure(self, pure: Iterable[Word]) -> Tuple[Word, ...]:
        star = self._star_classes()
        return tuple(sorted(cyclic_canonical(tuple(w), star) for w in pure))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, mode: str = FREE, field: str = "real") -> "TracePoly":
        return cls({}, mode, field)

    @classmethod
    def from_ncpoly(cls, p: NCPoly, field: str = "real") -> "TracePoly":
        return cls({((), w): c for w, c in p.coeffs.items()}, p.mode, field)

    @classmethod
    def trace_of_word(cls, w: Word, mode: str | None = None, field: str = "real") -> "TracePoly":
        if mode is None:
            mode = INV if word_has_star(w) else FREE
        return cls({((tuple(w),), EMPTY_WORD): 1}, mode, field)

    # -- structure ---------------------------------------------------

    def degree(self) -> int:
        return max(
            (len(tail) + sum(len(w) for w in pure) for (pure, tail) in self.coeffs),
            default=-1,
        )

    @staticmethod
    def _words(key: TraceMonomial) -> Tuple[Word, ...]:
        return key[0] + (key[1],)

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, TracePoly):
            return self.scale(other)
        self._check_space(other)
        out: Dict[TraceMonomial, object] = {}
        for (p1, t1), a in self.coeffs.items():
            for (p2, t2), b in other.coeffs.items():
                key = (tuple(sorted(p1 + p2)), t1 + t2)
                out[key] = out.get(key, 0) + a * b
        return self._like(out)

    def sorted_terms(self):
        """Terms by graded-lex tail, then by trace factors."""
        return sorted(self.coeffs.items(), key=lambda kc: (graded_lex_key(kc[0][1]), kc[0][0]))

    @staticmethod
    def monomial_str(key: TraceMonomial) -> str:
        pure, tail = key
        return " ".join([f"tr({word_str(w)})" for w in pure] + [word_str(tail)])

    def __repr__(self):
        if not self.coeffs:
            return "TracePoly(0)"
        return "TracePoly(" + " + ".join(f"{c}*{self.monomial_str(k)}" for k, c in self.sorted_terms()) + ")"
