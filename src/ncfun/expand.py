"""Power series expansion of a free map about a non-scalar center A.

The degree-m homogeneous part of H -> f(A^{+s} + H) is a generalized
polynomial whose matrix coefficients live in a group-dependent algebra:
the double centralizer of the algebra generated by A for GL-free maps,
the *-algebra generated by A for O-free maps.  The solver expresses the
part over the basis monomials b_{i0} u_{k1} b_{i1} ... u_{km} b_{im}
and solves for the scalar coefficients in the least-squares sense from
random evaluations at level n * s_eval with s_eval > D (where the
expression is unique).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import List, Tuple

import numpy as np

from .genpoly import GenPoly, GenTerm
from .mateval import (
    RANK_CUTOFF,
    MatTuple,
    SubspaceBasis,
    _eval_term,
    _rng,
    centralizer,
    eval_genpoly,
    eye_like,
    generated_algebra,
    random_mattuple,
)
from .oracle import FreeMapOracle
from .poly import INV
from .recon import homogeneous_part_eval
from .words import words_of_degree

MAX_DEGREE = 3
MAX_CENTER_SIZE = 3
MAX_BASIS_DIM = 4


def coefficient_algebra(f_group: str, A: MatTuple) -> SubspaceBasis:
    """C(C(F<A>)) for GL, F<A, A^t> for O/U."""
    if f_group == "GL":
        alg = generated_algebra(A, with_involution=False)
        return centralizer(centralizer(alg.mats, A.n).mats, A.n)
    return generated_algebra(A, with_involution=True)


def center_tuple(A: MatTuple, s: int) -> MatTuple:
    """A embedded at level n*s; coefficients a act as kron(a, I_s), and
    the center uses the same embedding."""
    eye = np.eye(s)
    dt = complex if A.field == "complex" else float
    return MatTuple([np.kron(np.asarray(a, dtype=dt), eye) for a in A.mats], A.field)


@dataclass
class GenExpansion:
    center: MatTuple
    group: str
    basis: SubspaceBasis
    order: int
    s_eval: int
    parts: List[Tuple[GenPoly, ...]]  # parts[m][j] = degree-m part, output j
    residuals: List[float] = dc_field(default_factory=list)
    nullspace_dims: List[int] = dc_field(default_factory=list)
    mode: str = INV

    @property
    def gprime(self) -> int:
        return len(self.parts[0]) if self.parts else 0

    def eval_at(self, X: MatTuple) -> MatTuple:
        """Sum of parts at X - A^{+s} (X at any level n*s)."""
        C = center_tuple(self.center, X.n // self.center.n)
        H = X - C
        outs = []
        for j in range(self.gprime):
            acc = np.zeros((X.n, X.n), dtype=complex if X.field == "complex" else float)
            for m in range(self.order + 1):
                acc = acc + eval_genpoly(self.parts[m][j], H)
            outs.append(acc)
        return MatTuple(outs, X.field)

    def coefficient_residual(self) -> float:
        """Max residual of any coefficient matrix against the algebra basis."""
        worst = 0.0
        for part in self.parts:
            for gp in part:
                for t in gp.terms:
                    for a in t.mats:
                        worst = max(worst, self.basis.residual(np.asarray(a, dtype=complex)))
        return worst


def expand_at_point(f: FreeMapOracle, A: MatTuple, D: int, s_eval: int, seed=0) -> GenExpansion:
    """Constructive expansion about A, degree by degree up to D.

    Hard practical caps: D <= 3, center size <= 3, coefficient-algebra
    dimension <= 4 (the unknown count grows like dim^(m+1) letters^m).
    Each degree's least-squares residual is reported in ``residuals``; a
    large one signals f not free for the declared group, a wrong group,
    or D too small.  Singular values below RANK_CUTOFF (relative) count
    as zero, and rank-deficient systems are reported through
    ``nullspace_dims`` instead of guessing a canonical representative.
    """
    if D > MAX_DEGREE:
        raise ValueError(f"degree {D} exceeds practical cap {MAX_DEGREE}")
    if A.n > MAX_CENTER_SIZE:
        raise ValueError(f"center size {A.n} exceeds practical cap {MAX_CENTER_SIZE}")
    if s_eval <= D:
        raise ValueError(f"need s_eval > D for uniqueness, got s_eval={s_eval}, D={D}")
    n = A.n
    basis = coefficient_algebra(f.group, A)
    if basis.dim > MAX_BASIS_DIM:
        raise ValueError(
            f"coefficient algebra dimension {basis.dim} exceeds practical cap {MAX_BASIS_DIM}"
        )
    mode = f.mode
    level = n * s_eval
    C = center_tuple(A, s_eval)
    rng = _rng(seed)

    def shifted(H: MatTuple) -> MatTuple:
        return f(C + H)

    Dint = D
    if f.is_polynomial():
        Dint = max(D, f.poly_degree())

    bas = [np.asarray(b, dtype=complex if f.field == "complex" else float) for b in basis.mats]
    parts: List[Tuple[GenPoly, ...]] = []
    residuals: List[float] = []
    nulldims: List[int] = []
    for m in range(D + 1):
        monomials = [
            (I, K)
            for I in itertools.product(range(basis.dim), repeat=m + 1)
            for K in words_of_degree(f.g, m, mode == INV)
        ]
        unknowns = len(monomials)
        per_sample = level * level
        samples = max(2, math.ceil(2.0 * unknowns / per_sample))
        rows = []
        rhs = [[] for _ in range(f.gprime)]
        for _ in range(samples):
            H = random_mattuple(f.g, level, rng, f.field, norm=1.0)
            y = homogeneous_part_eval(
                shifted,
                m,
                H,
                Dint,
                refine=0 if f.is_polynomial() else None,
                h=min(1.0, f.radius_at(level) / 2.0) if f.is_polynomial() else None,
            )
            block = np.empty((per_sample, unknowns), dtype=complex)
            eye_s = eye_like(s_eval, H.mats[0])
            for c, (I, K) in enumerate(monomials):
                block[:, c] = _eval_term([bas[i] for i in I], K, H, eye_s).ravel()
            rows.append(block)
            for j in range(f.gprime):
                rhs[j].append(np.asarray(y.mats[j], dtype=complex).ravel())
        M = np.vstack(rows)
        B = np.stack([np.concatenate(r) for r in rhs], axis=1)
        sol, _, rank, sv = np.linalg.lstsq(M, B, rcond=RANK_CUTOFF)
        nulldims.append(unknowns - int(rank))
        fit = M @ sol
        res = float(
            np.linalg.norm(fit - B) / max(1.0, np.linalg.norm(B))
        )
        residuals.append(res)
        comp_polys = []
        for j in range(f.gprime):
            terms = []
            for c, (I, K) in enumerate(monomials):
                coeff = sol[c, j]
                if abs(coeff) <= 1e-10:
                    continue
                if f.field == "real":
                    coeff = coeff.real
                mats = [bas[i] for i in I]
                mats = [coeff * mats[0]] + list(mats[1:])
                terms.append(GenTerm(mats, K))
            comp_polys.append(GenPoly(n, terms, mode))
        parts.append(tuple(comp_polys))
    return GenExpansion(A, f.group, basis, D, s_eval, parts, residuals, nulldims, mode)
