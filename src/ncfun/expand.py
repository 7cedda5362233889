"""Power series expansion of a free map about a non-scalar center A.

The degree-m homogeneous part of H -> f(A^{+s} + H) is a generalized
polynomial whose matrix coefficients live in a group-dependent algebra:
the double centralizer of the algebra generated by A for GL-free maps,
the *-algebra generated by A for O-free maps.  The solver expresses the
part over the basis monomials b_{i0} u_{k1} b_{i1} ... u_{km} b_{im}
and solves for the scalar coefficients in the least-squares sense from
random evaluations at level n * s_eval with s_eval > D (where the
expression is unique).

Each degree draws all its samples first, then reads them as one
stacked scan of t -> f(C + tH) about the embedded center C (one
``FreeMapOracle.stack`` per Richardson refinement), and builds every
sample's columns from stacked prefix products, one batch of matrix
products per letter (``monomial_columns``).  The system stays in the
map's field (float64 for real maps).  The cost is then the ``lstsq``
solve itself, on (samples * level^2) rows and dim^(m+1) L^m unknowns
for L letters.
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
    _rng,
    adjoint,
    centralizer,
    eval_genpoly,
    generated_algebra,
    scaled_to,
    standard_mats,
)
from .oracle import FreeMapOracle
from .poly import INV
from .recon import _part_scan, _scan_params
from .recon import homogeneous_part_eval  # noqa: F401  (unused; bench/test_bench.py looks it up here)
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


def monomial_columns(P: np.ndarray, H: MatTuple | np.ndarray, m: int, involution: bool) -> np.ndarray:
    """Every degree-m basis monomial b_{i0} u_{k1} b_{i1} ... u_{km} b_{im}
    at H, as the (N*N, dim^(m+1) L^m) block of flattened values; for a
    stack H of S tuples, shape (g, S, N, N), the S blocks one under the
    other, (S*N*N, dim^(m+1) L^m).

    ``P`` stacks the embedded coefficients kron(b_i, I_s), shape (dim, N, N);
    the L letters are x1, x1*, x2, ... (x1, x2, ... without involution).
    A sample's products are built at once, each prefix shared by every
    monomial that extends it, in the left-to-right association of
    ``mateval.eval_genpoly``, and written into the sample's block; one
    sample at a time keeps a single copy of all columns in memory.
    Columns run over the coefficient indices I outermost and the word K
    innermost, K in ``words_of_degree`` order.
    """
    dim, N = P.shape[0], P.shape[1]
    Hs = (np.stack(H.mats)[:, None] if isinstance(H, MatTuple) else H).swapaxes(0, 1)  # (S, g, N, N)
    S = Hs.shape[0]
    if involution:
        star = adjoint(Hs, "complex" if np.iscomplexobj(Hs) else "real")
        Hs = np.stack([Hs, star], axis=2).reshape(S, -1, N, N)
    L = Hs.shape[1]
    # axes (i0, k1, i1, ..., km, im, entry) -> (entry, i0, i1, ..., im, k1, ..., km)
    shape = (dim,) + (L, dim) * m + (N * N,)
    axes = [2 * m + 1, 0] + [2 + 2 * t for t in range(m)] + [1 + 2 * t for t in range(m)]
    out = np.empty((S, N * N, dim ** (m + 1) * L**m), dtype=np.result_type(P, Hs))
    for s in range(S):
        acc = P
        for _ in range(m):
            acc = (acc[:, None] @ Hs[s][None]).reshape(-1, N, N)
            acc = (acc[:, None] @ P[None]).reshape(-1, N, N)
        out[s] = acc.reshape(shape).transpose(axes).reshape(N * N, -1)
    return out.reshape(S * N * N, -1)


def expand_at_point(f: FreeMapOracle, A: MatTuple, D: int, s_eval: int, seed=0) -> GenExpansion:
    """Constructive expansion about A, degree by degree up to D.

    Each degree draws its samples first (standard-normal tuples at level
    n s_eval, each scaled to norm 1), then reads all of them as one
    stacked scan about the embedded center: f itself is evaluated, with
    its own checks on every tuple, at the scan radius of a map of f's
    kind with infinite radius, since f's radius about the center is not
    known.  Degree m has dim^(m+1) L^m unknowns (L = g letters, 2g with
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
    C = np.stack(center_tuple(A, s_eval).mats)
    rng = _rng(seed)
    calls0 = f.calls
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
        draws = [standard_mats(f.g, level, rng, f.field) for _ in range(samples)]
        H = scaled_to(np.stack(draws, axis=1), np.ones(samples))
        parts_m = _part_scan(f, H, Dint, *_scan_params(f, H, radius=math.inf), row0=False, C=C)[:, :, m]
        M = monomial_columns(P, H, m, mode == INV)
        # C order: the norms of the residual below sum in memory order
        B = parts_m.reshape(f.gprime, -1).T.astype(dt, order="C")
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
