"""Power series expansion of a free map about a non-scalar center A.

The degree-m homogeneous part of H -> f(A^{+s} + H) is a generalized
polynomial whose matrix coefficients live in a group-dependent algebra:
the double centralizer of the algebra generated by A for GL-free maps,
the *-algebra generated by A for O-free maps.  The solver expresses the
part over the basis monomials b_{i0} u_{k1} b_{i1} ... u_{km} b_{im}
and solves for the scalar coefficients in the least-squares sense from
random evaluations at level n * s_eval with s_eval > D (where the
expression is unique).

Each sample's columns come from stacked prefix products, one batch of
matrix products per letter (``monomial_columns``), and the system stays
in the map's field (float64 for real maps).  The cost is then the
``lstsq`` solve itself, on (samples * level^2) rows and dim^(m+1) L^m
unknowns for L letters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import List, Tuple

import numpy as np

from .genpoly import GenPoly, GenTerm
from .mateval import (
    RANK_CUTOFF,
    MatTuple,
    SubspaceBasis,
    _rng,
    adjoint,
    centralizer,
    eval_genpoly,
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
    evaluations: int = 0  # oracle calls made by expand_at_point

    @property
    def gprime(self) -> int:
        return len(self.parts[0]) if self.parts else 0

    def eval_at(self, X: MatTuple) -> MatTuple:
        """Sum of parts at X - A^{+s} (X at any level n*s)."""
        n = self.center.n
        if X.n < n or X.n % n:
            raise ValueError(f"evaluation size {X.n} is not a positive multiple of the center size {n}")
        C = center_tuple(self.center, X.n // n)
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


def monomial_columns(P: np.ndarray, H: MatTuple, m: int, involution: bool) -> np.ndarray:
    """Every degree-m basis monomial b_{i0} u_{k1} b_{i1} ... u_{km} b_{im}
    at H, as the (N*N, dim^(m+1) L^m) block of flattened values.

    ``P`` stacks the embedded coefficients kron(b_i, I_s), shape (dim, N, N);
    the L letters are x1, x1*, x2, ... (x1, x2, ... without involution).
    All products are built at once, each prefix shared by every monomial
    that extends it, in the left-to-right association of
    ``mateval.eval_genpoly``.  Columns run over the coefficient indices I
    outermost and the word K innermost, K in ``words_of_degree`` order.
    """
    dim, N = P.shape[0], P.shape[1]
    letters = []
    for h in H.mats:
        letters.append(h)
        if involution:
            letters.append(adjoint(h, H.field))
    Hs = np.stack(letters)
    acc = P
    for _ in range(m):
        acc = (acc[:, None] @ Hs[None]).reshape(-1, N, N)
        acc = (acc[:, None] @ P[None]).reshape(-1, N, N)
    # axes (i0, k1, i1, ..., km, im) -> (i0, i1, ..., im, k1, ..., km)
    acc = acc.reshape((dim,) + (len(letters), dim) * m + (N * N,))
    axes = [0] + [2 + 2 * t for t in range(m)] + [1 + 2 * t for t in range(m)] + [2 * m + 1]
    return acc.transpose(axes).reshape(-1, N * N).T


def expand_at_point(f: FreeMapOracle, A: MatTuple, D: int, s_eval: int, seed=0) -> GenExpansion:
    """Constructive expansion about A, degree by degree up to D.

    Degree m has dim^(m+1) L^m unknowns (L = g letters, 2g with
    involution), fitted by ``lstsq`` on samples * (n s_eval)^2 rows, at
    least twice as many as unknowns; that solve is where the time goes.
    Hard practical caps: D <= 3, center size <= 3, coefficient-algebra
    dimension <= 4.  Each degree's least-squares residual is reported in
    ``residuals``; a large one signals f not free for the declared group,
    a wrong group, or D too small.  Singular values below RANK_CUTOFF
    (relative) count as zero, and rank-deficient systems are reported
    through ``nullspace_dims`` instead of guessing a canonical
    representative.  ``evaluations`` counts the oracle calls made.
    """
    if D < 0:
        raise ValueError(f"degree must be >= 0, got {D}")
    if A.g != f.g:
        raise ValueError(f"center has {A.g} components, the map takes {f.g}")
    if A.field == "complex" and f.field == "real":
        raise ValueError("complex center for a real map")
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
    calls0 = f.calls

    # f about C, scanned as any map of f's kind at radius inf; its calls count on f
    shifted = replace(f, evaluator=lambda H: f(C + H), polys=None, radius=math.inf)
    Dint = D
    if f.is_polynomial():
        Dint = max(D, f.poly_degree())

    dt = complex if f.field == "complex" else float
    bas = [np.asarray(b, dtype=dt) for b in basis.mats]
    P = np.stack([np.kron(b, np.eye(s_eval, dtype=dt)) for b in bas])
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
        M = np.empty((samples * per_sample, unknowns), dtype=dt)
        B = np.empty((samples * per_sample, f.gprime), dtype=dt)
        for r in range(samples):
            H = random_mattuple(f.g, level, rng, f.field, norm=1.0)
            y = homogeneous_part_eval(shifted, m, H, Dint)
            rows = slice(r * per_sample, (r + 1) * per_sample)
            M[rows] = monomial_columns(P, H, m, mode == INV)
            for j in range(f.gprime):
                B[rows, j] = y.mats[j].ravel()
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
                mats = [bas[i] for i in I]
                mats = [coeff * mats[0]] + list(mats[1:])
                terms.append(GenTerm(mats, K))
            comp_polys.append(GenPoly(n, terms, mode))
        parts.append(tuple(comp_polys))
    return GenExpansion(
        A, f.group, basis, D, s_eval, parts, residuals, nulldims, mode, f.calls - calls0
    )
