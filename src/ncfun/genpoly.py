"""Generalized polynomials: words interleaved with fixed n x n matrix
coefficients (elements of the free product of a matrix algebra with the
free algebra).

A :class:`GenTerm` is a_0 u_1 a_1 ... u_l a_l with n x n coefficient
matrices a_i and letters u_j.  A :class:`GenPoly` is a formal sum of
terms at a common coefficient size n.  There is no canonical term-level
normal form; equality is decided through the unique expansion over the
matrix-unit basis monomials e_{i0,j0} u_1 e_{i1,j1} ... e_{il,jl}.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .poly import FREE, INV, NCPoly, _check_mode
from .words import Word, word_has_star, word_str

BasisMonomial = Tuple[Tuple[int, ...], Tuple[int, ...], Word]  # (I, J, letters)


class GenTerm:
    __slots__ = ("n", "mats", "letters")

    def __init__(self, mats: Sequence[np.ndarray], letters: Word):
        mats = tuple(np.asarray(m) for m in mats)
        if len(mats) != len(letters) + 1:
            raise ValueError("need len(letters)+1 coefficient matrices")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("coefficient matrices must share one square size")
        self.n = n
        self.mats = mats
        self.letters = tuple(letters)

    def degree(self) -> int:
        return len(self.letters)

    def __repr__(self):
        return f"GenTerm(n={self.n}, letters={word_str(self.letters)})"


class GenPoly:
    __slots__ = ("n", "terms", "mode")

    def __init__(self, n: int, terms: Sequence[GenTerm] = (), mode: str = FREE):
        self.n = n
        self.mode = _check_mode(mode)
        for t in terms:
            if t.n != n:
                raise ValueError(f"term size {t.n} != polynomial size {n}")
            if self.mode == FREE and word_has_star(t.letters):
                raise ValueError("starred letters not allowed in free mode")
        self.terms = list(terms)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int, mode: str = FREE) -> "GenPoly":
        return cls(n, [], mode)

    @classmethod
    def from_ncpoly(cls, p: NCPoly, n: int) -> "GenPoly":
        """Embed with scalar coefficients c -> c * I_n."""
        eye = np.eye(n)
        terms = [
            GenTerm([c * eye] + [eye] * len(w), w) for w, c in p.coeffs.items()
        ]
        return cls(n, terms, p.mode)

    @classmethod
    def monomial(cls, mats: Sequence[np.ndarray], letters: Word, mode: str | None = None) -> "GenPoly":
        t = GenTerm(mats, letters)
        if mode is None:
            mode = INV if word_has_star(letters) else FREE
        return cls(t.n, [t], mode)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other: "GenPoly"):
        if self.n != other.n:
            raise ValueError(f"coefficient size mismatch: {self.n} vs {other.n}")
        if self.mode != other.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")

    def __add__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        self._coerce(other)
        return GenPoly(self.n, self.terms + other.terms, self.mode)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "GenPoly":
        terms = [GenTerm((c * t.mats[0],) + t.mats[1:], t.letters) for t in self.terms]
        return GenPoly(self.n, terms, self.mode)

    def __rmul__(self, other):
        return self.scale(other)

    def __mul__(self, other):
        if not isinstance(other, GenPoly):
            return self.scale(other)
        self._coerce(other)
        terms = []
        for s in self.terms:
            for t in other.terms:
                mats = s.mats[:-1] + (s.mats[-1] @ t.mats[0],) + t.mats[1:]
                terms.append(GenTerm(mats, s.letters + t.letters))
        return GenPoly(self.n, terms, self.mode)

    # -- basis expansion ---------------------------------------------

    def expand_basis(self) -> Dict[BasisMonomial, object]:
        """Unique coefficients over matrix-unit basis monomials: each term
        distributed over every choice of one nonzero entry per coefficient.

        Indices are 1-based.  Exact zeros are dropped.
        """
        out: Dict[BasisMonomial, object] = {}
        for t in self.terms:
            nonzero = [[(i + 1, j + 1, m[i, j]) for i in range(self.n) for j in range(self.n) if m[i, j] != 0]
                       for m in t.mats]
            for choice in itertools.product(*nonzero):
                I, J, cs = zip(*choice)
                out[I, J, t.letters] = out.get((I, J, t.letters), 0) + math.prod(cs)
        return {k: v for k, v in out.items() if v != 0}

    def degree(self) -> int:
        return max((t.degree() for t in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({t.degree() for t in self.terms}) <= 1

    def __call__(self, X):
        from . import mateval

        return mateval.eval_genpoly(self, X)

    def __repr__(self):
        return f"GenPoly(n={self.n}, {len(self.terms)} terms, deg={self.degree()})"

