"""Reconstruction of free maps from finitely many matrix evaluations.

Pipeline: the degree-m homogeneous part of f is isolated by polynomial
interpolation of t -> f(tX) at Chebyshev nodes (with Richardson
refinement in the radius for non-polynomial oracles), then its word
coefficients are read off one evaluation each on shift-unit tuples in
M_{m+1}: the coefficient of a degree-m word w appears at matrix entry
(1, m+1), because e_{1,m+1} factors into sub/superdiagonal units in
exactly one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .mateval import MatTuple, _rng, eval_ncpoly, random_mattuple
from .oracle import FreeMapOracle, neville_to_zero
from .poly import FREE, INV, NCPoly
from .series import FormalSeries
from .words import Word, words_of_degree

ANALYTIC_RADIUS_CAP = 0.25  # empirical: with 3 refinements gives ~1e-8 coefficients
ANALYTIC_REFINE = 3
CLEANUP_TOL = 1e-9  # float coefficients at or below this read as zero
RESIDUAL_LEVELS = (1, 2)  # levels and samples per level of the Taylor residual
RESIDUAL_SAMPLES = 4
RECON_TOL = 1e-7  # reconstruction and certificate tolerance
CERT_SAMPLES = 5  # certificate samples at each of levels d+1, d+2


def _cheb_nodes(D: int) -> np.ndarray:
    j = np.arange(D + 1)
    return np.cos(np.pi * (2 * j + 1) / (2 * (D + 1)))


def _coeffs_at_radius(f: Callable[[MatTuple], MatTuple], X: MatTuple, D: int, h: float):
    """Coefficient arrays c_k (k=0..D) of t -> f(tX), per output slot."""
    taus = _cheb_nodes(D)
    vals = [f(X.scale(float(h * t))) for t in taus]
    gprime = len(vals[0].mats)
    V = np.vander(taus, D + 1, increasing=True)
    out = []
    for j in range(gprime):
        B = np.array([np.asarray(v.mats[j]).ravel() for v in vals])
        C = np.linalg.solve(V, B)  # coefficients in tau = t/h
        scale = h ** np.arange(D + 1)
        out.append(C / scale[:, None])
    return out, vals[0].mats[0].shape[0]


def homogeneous_part_eval(
    f: FreeMapOracle | Callable[[MatTuple], MatTuple],
    m: int,
    X: MatTuple,
    D: int,
    h: float | None = None,
    refine: int | None = None,
) -> MatTuple:
    """Value of the degree-m homogeneous part of f at X.

    Exact (up to Vandermonde conditioning) when f is a polynomial map of
    degree <= D; for analytic f the Chebyshev fit aliases degrees > D,
    which the radius-halving Richardson refinement suppresses.
    """
    if m > D:
        raise ValueError(f"m={m} exceeds degree bound D={D}")
    if isinstance(f, FreeMapOracle):
        is_poly = f.is_polynomial()
        rad = f.radius_at(X.n)
        evalf = f
        field = f.field
    else:
        is_poly, rad, evalf, field = False, math.inf, f, X.field
    if h is None:
        cap = 1.0 if is_poly else ANALYTIC_RADIUS_CAP
        h = cap if math.isinf(rad) else min(cap, rad / 2.0)
        nrm = X.norm()
        if nrm > 1.0:
            h = h / nrm
    if refine is None:
        refine = 0 if is_poly else ANALYTIC_REFINE

    ests: List[List[np.ndarray]] = []
    nprime = None
    for j in range(refine + 1):
        coeffs, nprime = _coeffs_at_radius(evalf, X, D, h / 2**j)
        ests.append([c[m] for c in coeffs])
    # extrapolation in h^2 toward 0
    top = neville_to_zero(ests, [(h / 2**j) ** 2 for j in range(refine + 1)])[-1]
    mats = [c.reshape(nprime, nprime) for c in top]
    return MatTuple(mats, field)


# -- coefficient extraction on shift-unit tuples ----------------------


def matenote_plan(
    w: Word, g: int, level: int | None = None, exact: bool = False, field: str = "real"
) -> MatTuple:
    """Shift-unit tuple a = (a_1..a_g) in M_level for a degree-m word:
    position p carrying x_k adds e_{p,p+1} to a_k, and x_k^t adds
    e_{p+1,p}."""
    m = len(w)
    if level is None:
        level = m + 1
    if level < m + 1:
        raise ValueError(f"level {level} too small for degree {m}")
    if exact:
        mats = [np.zeros((level, level), dtype=object) for _ in range(g)]
        one = Fraction(1)
    else:
        dt = complex if field == "complex" else float
        mats = [np.zeros((level, level), dtype=dt) for _ in range(g)]
        one = 1.0
    for p, (k, starred) in enumerate(w):
        if starred:
            mats[k - 1][p + 1, p] += one
        else:
            mats[k - 1][p, p + 1] += one
    return MatTuple(mats, field)


@dataclass
class ExtractionResult:
    polys: Tuple[NCPoly, ...]
    evaluations: int


def matenote_extract(
    f_hom: Callable[[MatTuple], MatTuple],
    m: int,
    g: int,
    mode: str = FREE,
    level: int | None = None,
    exact: bool = False,
    field: str = "real",
) -> ExtractionResult:
    """Read every degree-m coefficient of a homogeneous evaluator from
    single evaluations at level m+1 (or any given level >= m+1): the
    coefficient of w is entry (1, m+1) of f_hom at the plan tuple.

    (2g)^m evaluations in involution mode, g^m otherwise.
    """
    involution = mode == INV
    coeff_maps: List[dict] = []
    count = 0
    for w in words_of_degree(g, m, involution):
        a = matenote_plan(w, g, level, exact, field)
        val = f_hom(a)
        count += 1
        if not coeff_maps:
            coeff_maps = [dict() for _ in range(len(val.mats))]
        for j, mat in enumerate(val.mats):
            c = mat[0, m]
            if exact:
                if c != 0:
                    coeff_maps[j][w] = c
            elif abs(c) > CLEANUP_TOL:
                coeff_maps[j][w] = float(c.real) if not np.iscomplexobj(mat) else complex(c)
    polys = tuple(NCPoly(cm, mode) for cm in (coeff_maps or [dict()]))
    return ExtractionResult(polys, count)


# -- Taylor series at the origin --------------------------------------


@dataclass
class TaylorResult:
    series: Tuple[FormalSeries, ...]
    order: int
    residual: float
    residual_samples: int
    flags: List[str] = dc_field(default_factory=list)
    evaluations: int = 0

    @property
    def gprime(self) -> int:
        return len(self.series)


def taylor_at_zero(
    f: FreeMapOracle,
    D: int,
    tol: float = 1e-8,
    seed=0,
    cross_check: bool = False,
) -> TaylorResult:
    """Degree-graded series of f at 0 up to order D, with a residual
    report comparing f against the truncated series on RESIDUAL_SAMPLES
    random points in a small ball at each of RESIDUAL_LEVELS (meaningful
    for polynomial f or small radius).  Homogeneous parts use the
    default radius and refinement of :func:`homogeneous_part_eval`."""
    mode = f.mode
    parts_per_comp: List[List[NCPoly]] = [[] for _ in range(f.gprime)]
    flags: List[str] = []
    evaluations = 0
    for m in range(D + 1):
        def f_hom(X, _m=m):
            return homogeneous_part_eval(f, _m, X, D)

        ext = matenote_extract(f_hom, m, f.g, mode, field=f.field)
        evaluations += ext.evaluations
        for j in range(f.gprime):
            parts_per_comp[j].append(ext.polys[j] if j < len(ext.polys) else NCPoly.zero(mode))
        if cross_check:
            ext2 = matenote_extract(f_hom, m, f.g, mode, level=m + 2, field=f.field)
            for j in range(f.gprime):
                d = ext.polys[j].max_coeff_diff(ext2.polys[j])
                if d > tol:
                    flags.append(f"degree {m} comp {j}: level {m+1} vs {m+2} differ by {d:.3g}")

    series = tuple(FormalSeries(parts, D, mode) for parts in parts_per_comp)

    rng = _rng(seed)
    worst = 0.0
    count = 0
    for n in RESIDUAL_LEVELS:
        r = min(0.3, f.radius_at(n) / 4.0)
        for _ in range(RESIDUAL_SAMPLES):
            X = random_mattuple(f.g, n, rng, f.field, norm=r * rng.uniform(0.1, 1.0))
            fx = f(X)
            sx = MatTuple([eval_ncpoly(s.to_ncpoly(), X) for s in series], f.field)
            worst = max(worst, fx.max_diff(sx))
            count += 1
    return TaylorResult(series, D, worst, count, flags, evaluations)


# -- polynomial reconstruction with certificate -----------------------


@dataclass
class ReconResult:
    polys: Tuple[NCPoly, ...]
    certificate: float
    ok: bool
    witness: Optional[MatTuple]
    taylor: TaylorResult

    def __repr__(self):
        status = "ok" if self.ok else "NOT a free polynomial at this degree/tolerance"
        return f"ReconResult({status}, certificate={self.certificate:.3g})"


def reconstruct_polynomial(f: FreeMapOracle, d: int, seed=0) -> ReconResult:
    """Recover a degree-<= d free polynomial from evaluations, then
    certify on random tuples at levels d+1 and d+2 (cross-level
    consistency; a free map that is not a free polynomial fails here,
    e.g. the trace map X -> tr(X) I)."""
    tay = taylor_at_zero(f, d, tol=RECON_TOL, seed=seed)
    polys = tuple(s.to_ncpoly() for s in tay.series)
    rng = _rng(seed)
    worst = 0.0
    witness = None
    for n in (d + 1, d + 2):
        r = min(1.0, f.radius_at(n) / 2.0)
        for _ in range(CERT_SAMPLES):
            X = random_mattuple(f.g, n, rng, f.field, norm=r * rng.uniform(0.1, 1.0))
            fx = f(X)
            px = MatTuple([eval_ncpoly(q, X) for q in polys], f.field)
            res = fx.max_diff(px)
            if res > worst:
                worst, witness = res, X
    ok = worst <= RECON_TOL
    return ReconResult(polys, worst, ok, None if ok else witness, tay)
