"""Power series expansion of a free map about a non-scalar center A.

The degree-m homogeneous part of H -> f(A^{+s} + H) is a generalized
polynomial whose matrix coefficients live in a group-dependent algebra:
the double centralizer of the algebra generated by A for GL-free maps,
the *-algebra generated by A for O-free maps.  Each part is expressed
over the basis monomials b_{i0} u_{k1} b_{i1} ... u_{km} b_{im} of a
trace-orthonormal basis b_i of that algebra, and ``polys`` decides how
its scalar coefficients are found.

A polynomial-backed oracle is expanded by substitution, with no oracle
call: X = A + H in every word, each choice of the positions that take H
giving one term whose coefficients are products of center letters,
expanded on the basis.  Those products lie in the coefficient algebra,
so the reported residual of a degree, the largest relative distance of
a product it used from the algebra, is round-off.

A black box is fitted in the least-squares sense from random
evaluations at level n * s_eval with s_eval > D (where the expression is
unique).  All degrees share one sample draw, as many tuples as the top
degree D needs, and one stacked scan of t -> f(C + tH) about the
embedded center C (one ``FreeMapOracle.stack`` of its Chebyshev
nodes), whose part m is degree m's right-hand side.  Every sample's
least-squares columns come from one ``mateval._Walk`` prefix walk over
the letters x_k, their adjoints and the slots kron(b_i, I_s): a degree-m
monomial is a prefix of the degree-(m+1) ones, so all degrees share it.
The system stays in the map's field (float64 for real maps).  The cost
is then the ``lstsq`` solves, on (samples * level^2) rows and
dim^(m+1) L^m unknowns for L letters; the reported residual of a degree
is its relative least-squares residual.
"""

from __future__ import annotations

import functools
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
    _letter_rows,
    _rng,
    _Walk,
    adjoint,
    centralizer,
    eval_genpoly,
    generated_algebra,
    scaled_to,
    standard_block,
)
from .oracle import FreeMapOracle, _part_scan, _scan_radius
from .poly import INV
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
    # per degree: the least-squares residual (fitted) or the distance of the
    # center products from the algebra (substituted); see expand_at_point
    residuals: List[float] = dc_field(default_factory=list)
    nullspace_dims: List[int] = dc_field(default_factory=list)  # all 0 when substituted
    mode: str = INV
    evaluations: int = 0  # oracle calls made by expand_at_point

    @property
    def gprime(self) -> int:
        return len(self.parts[0]) if self.parts else 0

    def eval_at(self, X: MatTuple) -> MatTuple:
        """Sum of parts at X - A^{+s} (X at any level n*s), one
        ``eval_genpoly`` over the terms of every part per output."""
        n = self.center.n
        if X.g != self.center.g:
            raise ValueError(f"tuple has {X.g} components, the center {self.center.g}")
        if X.n < n or X.n % n:
            raise ValueError(f"evaluation size {X.n} is not a positive multiple of the center size {n}")
        H = X - center_tuple(self.center, X.n // n)
        sums = [GenPoly(n, [t for part in self.parts for t in part[j].terms], self.mode) for j in range(self.gprime)]
        return MatTuple([eval_genpoly(p, H) for p in sums], X.field)

    def coefficient_residual(self) -> float:
        """Max residual of any coefficient matrix against the algebra basis."""
        return max((self.basis.residual(np.asarray(a, dtype=complex))
                    for part in self.parts for gp in part for t in gp.terms for a in t.mats), default=0.0)


def expand_at_point(f: FreeMapOracle, A: MatTuple, D: int, s_eval: int, seed=0) -> GenExpansion:
    """Constructive expansion about A up to degree D, by one of two routes
    that ``polys`` decides, after the same guards.

    A polynomial-backed oracle is expanded by substitution: X = A + H in
    every word, with no oracle call.  ``residuals[m]`` is then the largest
    relative distance ||P - proj P|| / max(1, ||P||) from the coefficient
    algebra of a product P of center letters that degree m uses; it is
    zero in exact arithmetic, so it measures round-off (or a polynomial
    whose words the declared group does not allow).

    A black box is fitted.  The samples are drawn once (standard-normal
    tuples at level n s_eval, each scaled to norm 1) and read as one
    stacked scan about the embedded center: f itself is evaluated, with
    its own checks on every tuple, at the scan radius of a map of f's
    kind with infinite radius, since f's radius about the center is not
    known.  Degree m has dim^(m+1) L^m unknowns (L = g letters, 2g with
    involution), fitted by ``lstsq`` on samples * (n s_eval)^2 rows, at
    least twice as many as the unknowns of degree D; those solves are
    where the time goes.  ``residuals[m]`` is degree m's relative
    least-squares residual; a large one signals f not free for the
    declared group, a wrong group, or D too small.  Singular values below
    RANK_CUTOFF (relative) count as zero, and rank-deficient systems are
    reported through ``nullspace_dims`` instead of guessing a canonical
    representative (all zeros on the substitution route).

    Hard practical caps, on both routes: D <= 3, center size <= 3,
    coefficient-algebra dimension <= 4.  ``evaluations`` counts the
    oracle calls made (0 on the substitution route).
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
    basis = coefficient_algebra(f.group, A)
    if basis.dim > MAX_BASIS_DIM:
        raise ValueError(
            f"coefficient algebra dimension {basis.dim} exceeds practical cap {MAX_BASIS_DIM}"
        )
    calls0 = f.calls
    dt = complex if f.field == "complex" else float
    bas = [np.asarray(b, dtype=dt) for b in basis.mats]
    if f.polys is not None:
        parts, residuals = _substituted_parts(f, A, D, bas)
        nulldims = [0] * (D + 1)
    else:
        parts, residuals, nulldims = _fitted_parts(f, A, D, s_eval, bas, seed)
    return GenExpansion(
        A, f.group, basis, D, s_eval, parts, residuals, nulldims, f.mode, f.calls - calls0
    )


def _gen_poly(n: int, mode: str, bas, coeffs) -> GenPoly:
    """The sum of the terms a b_{i0} u_1 b_{i1} ... u_m b_{im} over the
    (I, K, a) of ``coeffs`` (I the basis indices, K the letters), each
    with |a| <= 1e-10 dropped."""
    terms = [GenTerm([a * bas[I[0]]] + [bas[i] for i in I[1:]], K) for I, K, a in coeffs if abs(a) > 1e-10]
    return GenPoly(n, terms, mode)


def _substituted_parts(f: FreeMapOracle, A: MatTuple, D: int, bas):
    """The parts of a polynomial map about A, by substituting X = A + H.

    A word w with coefficient c contributes, for each set S of m <= D of
    its positions, the term c P_0 w_{s1}(H) P_1 ... w_{sm}(H) P_m, where P_i
    is the product of the center letters between those positions (x_k ->
    A_k, x_k^t -> its adjoint; I when empty).  Each P_i is expanded on the
    trace-orthonormal basis, so the term adds c coords(P_0) x ... x
    coords(P_m) to the dim^(m+1) coefficient tensor of the letters w[S].
    Returns the parts, ordered and dropped as the fitted ones, and per
    degree the largest relative distance of a product P it used from its
    projection onto the basis."""
    dt = bas[0].dtype
    centers = {}
    for k, a in enumerate(A.mats, 1):
        centers[(k, False)] = np.asarray(a, dtype=dt)
        centers[(k, True)] = adjoint(centers[(k, False)], f.field)
    B = np.stack(bas)
    segments = {}

    def segment(seg):
        # coordinates of the product of the center letters seg, and its distance from the span
        if seg not in segments:
            P = functools.reduce(np.matmul, [centers[u] for u in seg]) if seg else np.eye(A.n, dtype=dt)
            c = np.array([np.vdot(b, P) for b in bas])
            segments[seg] = c, float(np.linalg.norm(P - np.tensordot(c, B, 1)) / max(1.0, np.linalg.norm(P)))
        return segments[seg]

    tensors = [[{} for _ in f.polys] for _ in range(D + 1)]  # [m][j][K]: coefficient tensor
    residuals = [0.0] * (D + 1)
    for j, p in enumerate(f.polys):
        for w, c in p.coeffs.items():
            for m in range(min(D, len(w)) + 1):
                for S in itertools.combinations(range(len(w)), m):
                    cuts = (-1,) + S + (len(w),)
                    segs = [segment(w[a + 1 : b]) for a, b in zip(cuts, cuts[1:])]
                    t = dt.type(c) * functools.reduce(np.multiply.outer, [s[0] for s in segs])
                    K, acc = tuple(w[i] for i in S), tensors[m][j]
                    acc[K] = acc[K] + t if K in acc else t
                    residuals[m] = max(residuals[m], *(s[1] for s in segs))
    parts: List[Tuple[GenPoly, ...]] = []
    for m, accs in enumerate(tensors):
        comps = []
        for acc in accs:
            Ks = sorted(acc)  # the order of words_of_degree
            T = np.stack([acc[K] for K in Ks], axis=-1) if Ks else np.zeros(0)
            # C order: the basis indices I outer, the letters K inner, as the fitted parts
            comps.append(_gen_poly(A.n, f.mode, bas, ((r[:-1], Ks[r[-1]], T[tuple(r)])
                                                       for r in np.argwhere(np.abs(T) > 1e-10).tolist())))
        parts.append(tuple(comps))
    return parts, residuals


def _fitted_parts(f: FreeMapOracle, A: MatTuple, D: int, s_eval: int, bas, seed):
    """The parts of a black box about A, fitted by ``lstsq`` to one stacked
    scan of the samples degree D needs (see ``expand_at_point``).  Every
    sample's columns come from one ``mateval._Walk`` prefix walk over the
    letters x_k, their adjoints and the slots kron(b_i, I_s).  Returns the
    parts, the relative residual of each degree and the nullspace
    dimension of each degree's system."""
    n, mode = A.n, f.mode
    level = n * s_eval
    C = np.stack(center_tuple(A, s_eval).mats)
    rng = _rng(seed)
    dt = bas[0].dtype
    P = np.stack([np.kron(b, np.eye(s_eval, dtype=dt)) for b in bas])
    monomials = [[(I, K) for I in itertools.product(range(len(bas)), repeat=m + 1)
                  for K in words_of_degree(f.g, m, mode == INV)] for m in range(D + 1)]
    samples = max(2, math.ceil(2.0 * len(monomials[D]) / level**2))
    H = scaled_to(standard_block(f.g, level, samples, rng, f.field), np.ones(samples))
    scan = _part_scan(f, H, D, C=C, h=_scan_radius(f, H, math.inf))
    # the monomial b_{i0} u_1 b_{i1} ... as a word, letter i the slot kron(b_i, I_s)
    rows = {**_letter_rows(f.g), **{i: 2 * f.g + i for i in range(len(bas))}}
    words = [(I[0],) + sum(zip(K, I[1:]), ()) for mons in monomials for I, K in mons]
    letters = (H, adjoint(H, f.field), np.broadcast_to(P[:, None], P.shape[:1] + H.shape[1:]))
    columns = _Walk([(1, (), w) for w in words], rows).tails(letters).reshape(len(words), -1)
    parts: List[Tuple[GenPoly, ...]] = []
    residuals: List[float] = []
    nulldims: List[int] = []
    c0 = 0
    for m, mons in enumerate(monomials):
        M = columns[c0 : c0 + len(mons)].T
        c0 += len(mons)
        # C order: the norms of the residual below sum in memory order
        B = scan[:, :, m].reshape(f.gprime, -1).T.astype(dt, order="C")
        sol, _, rank, _ = np.linalg.lstsq(M, B, rcond=RANK_CUTOFF)
        nulldims.append(len(mons) - int(rank))
        residuals.append(float(np.linalg.norm(M @ sol - B) / max(1.0, np.linalg.norm(B))))
        parts.append(tuple(_gen_poly(n, mode, bas, ((I, K, sol[c, j]) for c, (I, K) in enumerate(mons)))
                           for j in range(f.gprime)))
    return parts, residuals, nulldims
