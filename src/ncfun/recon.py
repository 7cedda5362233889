"""Reconstruction of free maps from finitely many matrix evaluations.

Two routes read the Taylor coefficients of f at 0.

Word tries (the default of :func:`taylor_at_zero`): the nodes of a trie
tuple T are words, letter x_k puts e_{u, u x_k} into component k and
x_k^t puts e_{u x_k^t, u} there.  The only root-to-w path of length |w|
runs along w, so entry (root, w) of the degree-|w| part of f is the
coefficient of w, for every node w at once.  The words of degree <= D
are split by their first j letters into sub-tries (plus the chain from
the root down to the prefix) of at most TRIE_MAX_LEVEL nodes, or of the
oracle's ``max_level`` when it declares a smaller one.  Without
involution T is nilpotent and one evaluation f(hT) holds h^|w| c_w at
(root, w); with involution one Chebyshev scan of t -> f(tT), one
stacked read of its nodes at one radius, separates every degree at
once.  T is bipartite by word length, so its depth signature
J = diag((-1)^|u|) is orthogonal with J T J = -T, and a map with
involution has f(-tT) = J f(tT) J: the scan takes an even number N of
nodes and reads only the N/2 positive ones, mirroring the other half.

Matenote plans (:func:`matenote_extract`, for ``ncfun extract`` and the
cross-check): one shift-unit tuple in M_{m+1} per degree-m word w, whose
coefficient appears at entry (1, m+1) of the degree-m part, because
e_{1,m+1} factors into sub/superdiagonal units in exactly one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .mateval import MatTuple, _rng, eval_stack, scaled_block, stack_diffs, stack_norms
from .mateval import eval_ncpoly  # noqa: F401  (unused; bench/test_bench.py looks it up here)
from .oracle import FreeMapOracle
from .poly import FREE, INV, NCPoly
from .series import FormalSeries
from .words import Letter, Word, words_of_degree

ANALYTIC_RADIUS_CAP = 0.25  # empirical: with SCAN_EXTRA_NODES gives ~1e-10 coefficients
# nodes a non-polynomial scan reads past degree D: fewer let the tail
# alias (6: errors up to 8e-7), more cost calls (sweep in CHANGES.md)
SCAN_EXTRA_NODES = 10
CLEANUP_TOL = 1e-9  # float coefficients at or below this read as zero
RESIDUAL_LEVELS = (1, 2)  # levels and samples per level of the Taylor residual
RESIDUAL_SAMPLES = 4
RECON_TOL = 1e-7  # reconstruction and certificate tolerance
CERT_SAMPLES = 5  # certificate samples at each of levels d+1, d+2
# largest sub-trie level: dense evaluation cost grows like level^3, and
# above ~64 it outweighs the saving in calls (sweep in CHANGES.md);
# oracles whose cost grows faster declare a smaller FreeMapOracle.max_level
TRIE_MAX_LEVEL = 64


def _cheb_nodes(N: int) -> np.ndarray:
    j = np.arange(N)
    return np.cos(np.pi * (2 * j + 1) / (2 * N))


def _scan_radius(f: FreeMapOracle, A: np.ndarray, radius: Optional[float] = None) -> np.ndarray:
    """Radius h of the scans of t -> f(tX), one per tuple of the stack A
    (g, S, n, n).  ``radius`` replaces f's own radius at A's level (a scan
    about a center, where the radius of f is not known, passes inf).

    A polynomial oracle scans at the cap 1, any other map at
    ANALYTIC_RADIUS_CAP.  At infinite radius h keeps ||hX|| <= 2 cap, so
    read tuples (norm <= 2: each component is a sum of two partial
    isometries) scan at the cap itself; dividing by their norm would
    amplify round-off by ||X||^m in the degree-m part.  At finite radius
    ||hX|| <= radius/2.
    """
    rad = f.radius_at(A.shape[-1]) if radius is None else radius
    cap = 1.0 if f.is_polynomial() else ANALYTIC_RADIUS_CAP
    norm = stack_norms(A)
    return cap / np.maximum(1.0, norm / 2.0) if math.isinf(rad) else min(cap, rad / 2.0) / np.maximum(1.0, norm)


def _part_scan(
    f: FreeMapOracle, A: np.ndarray, D: int, row0: bool = False,
    C: Optional[np.ndarray] = None, radius: Optional[float] = None,
    signs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Homogeneous parts 0..D of t -> f(C + tX) in t for each tuple X of
    the stack A (g, S, n, n): shape (g', S, D+1, cols), with row m the
    flattened degree-m part (only its first matrix row when ``row0``).
    The center C (components, shape (g, n, n)) is added only when given,
    so a scan about 0 keeps the signs of zeros.

    One ``f.stack`` reads N Chebyshev nodes of every tuple at its
    ``_scan_radius`` (given ``radius``), and one Vandermonde solve,
    stacked over outputs and tuples, fits them: N = max(D, deg f) + 1
    for a polynomial map, exact and unaliased, D + 1 + SCAN_EXTRA_NODES
    for any other, whose top degrees take up the tail of the series.

    ``signs``, given with ``row0`` for a map with involution and no
    center, is the diagonal of an orthogonal J = diag(+-1) with
    J X J = -X for every tuple X of A (the depth signature of a trie
    tuple).  Such a map respects orthogonal and unitary similarity, so
    f(-tX) = J f(tX) J: the scan rounds N up to even, reads only the N/2
    positive nodes tau_j and takes J v_j J as the value at -tau_j, then
    fits the exactly symmetric nodes
    [tau_0 .. tau_{N/2-1}, -tau_{N/2-1} .. -tau_0].  Even N spends no
    read at tau ~ 0, which carries only the constant term.
    """
    g, S, n = A.shape[0], A.shape[1], A.shape[-1]
    N = max(D, f.poly_degree()) + 1 if f.is_polynomial() else D + 1 + SCAN_EXTRA_NODES
    h = _scan_radius(f, A, radius)[:, None]
    if signs is None:
        taus = read = _cheb_nodes(N)
    else:
        N += N % 2
        read = _cheb_nodes(N)[: N // 2]
        taus = np.concatenate([read, -read[::-1]])
    nodes = A[:, :, None] * (h * read)[..., None, None]
    if C is not None:
        nodes = C[:, None, None] + nodes
    vals = f.stack(nodes.reshape(g, S * read.size, n, n))
    vals = vals.reshape((-1, S, read.size) + vals.shape[-2:])
    B = vals[..., 0, :] if row0 else vals.reshape(vals.shape[:3] + (-1,))
    if signs is not None:  # the root row of J v J: s_0 s_w v[0, w]
        B = np.concatenate([B, (signs[0] * signs * B)[:, :, ::-1]], axis=2)
    # coefficients in tau = t/h, per output and tuple, then in t
    coeffs = np.linalg.solve(np.vander(taus, N, increasing=True), B) / (h ** np.arange(N))[..., None]
    return coeffs[:, :, : D + 1]


def homogeneous_part_eval(f: FreeMapOracle, m: int, X: MatTuple, D: int) -> MatTuple:
    """Value of the degree-m homogeneous part of f at X, read by one
    ``_part_scan`` of degrees 0..D.

    Exact (up to Vandermonde conditioning) for a polynomial map, whose
    scan takes a node per degree of f; for any other map the
    SCAN_EXTRA_NODES degrees above D absorb the tail of the series.
    """
    if m < 0:  # a negative index would read the top part
        raise ValueError(f"degree must be >= 0, got {m}")
    if m > D:
        raise ValueError(f"m={m} exceeds degree bound D={D}")
    parts = _part_scan(f, np.array(X.mats)[:, None], D)
    return MatTuple([p[0, m].reshape(X.n, X.n) for p in parts], f.field)


# -- every coefficient at once from word-trie tuples ------------------


def _trie_prefix_length(letters: int, D: int, max_level: Optional[int]) -> int:
    """Smallest j >= 1 whose sub-tries (j chain nodes plus a full
    letters-ary tree of depth D - j) fit TRIE_MAX_LEVEL and the oracle's
    own ``max_level``; at j = D a sub-trie is a chain of D + 1 nodes."""
    cap = TRIE_MAX_LEVEL if max_level is None else min(TRIE_MAX_LEVEL, max_level)
    j = min(1, D)
    while j < D and j + sum(letters**k for k in range(D - j + 1)) > cap:
        j += 1
    return j


def _shift_units(nodes: List[Word], g: int, level: int, exact: bool, field: str) -> MatTuple:
    """The tuple in M_level on the words ``nodes`` (each after its parent,
    node i indexing row and column i): node u x_k puts e_{u, u x_k} into
    component k and u x_k^t puts e_{u x_k^t, u} there; exact entries are
    Fraction(1) in object arrays."""
    index = {u: i for i, u in enumerate(nodes)}
    dt = object if exact else complex if field == "complex" else float
    one = Fraction(1) if exact else 1.0
    mats = [np.zeros((level, level), dtype=dt) for _ in range(g)]
    for i, u in enumerate(nodes[1:], start=1):
        p, (k, starred) = index[u[:-1]], u[-1]
        if starred:
            mats[k - 1][i, p] = one
        else:
            mats[k - 1][p, i] = one
    return MatTuple(mats, field)


def _trie_tuple(prefix: Word, D: int, alphabet: List[Letter], g: int, field: str):
    """Sub-trie tuple of the words of degree <= D that start with
    ``prefix``, plus the chain from the root down to it; returns the
    tuple and its nodes (node 0 is the root)."""
    nodes = [prefix[:i] for i in range(len(prefix))]
    layer = [prefix]
    while True:
        nodes += layer
        if len(layer[0]) == D:
            break
        layer = [u + (a,) for u in layer for a in alphabet]
    return _shift_units(nodes, g, len(nodes), False, field), nodes


def _trie_reads(f: FreeMapOracle, D: int) -> List[Dict[Word, object]]:
    """Coefficients of every word of degree <= D, as one word -> value map
    per output slot: one call per sub-trie for maps without involution,
    one mirrored scan (half its nodes read) per sub-trie with it."""
    involution = f.mode == INV
    alphabet = [w[0] for w in words_of_degree(f.g, 1, involution)]
    j = _trie_prefix_length(len(alphabet), D, f.max_level)
    coeffs = [dict() for _ in range(f.gprime)]
    on_chain = set()  # words shorter than j are shared by sub-tries: read once
    for prefix in words_of_degree(f.g, j, involution):
        T, nodes = _trie_tuple(prefix, D, alphabet, f.g, f.field)
        A = np.array(T.mats)[:, None]
        if involution:
            signs = np.array([(-1.0) ** len(u) for u in nodes])  # J = diag((-1)^|u|), J T J = -T
            rows = list(_part_scan(f, A, D, row0=True, signs=signs)[:, 0])  # iterated once per node
        else:
            h = _scan_radius(f, A).item()  # a Python float: h**m below rounds as Python's pow
            rows = [v[0] for v in f(T.scale(h)).mats]
        for i, w in enumerate(nodes):
            if i < j:
                if w in on_chain:
                    continue
                on_chain.add(w)
            m = len(w)
            for k, r in enumerate(rows):
                c = r[m, i] if involution else r[i] / h**m
                if abs(c) > CLEANUP_TOL:
                    coeffs[k][w] = complex(c) if np.iscomplexobj(r) else float(c)
    return coeffs


# -- coefficient extraction on shift-unit tuples ----------------------


def matenote_plan(
    w: Word, g: int, level: int | None = None, exact: bool = False, field: str = "real"
) -> MatTuple:
    """Shift-unit tuple a = (a_1..a_g) in M_level for a degree-m word:
    position p carrying x_k adds e_{p,p+1} to a_k, and x_k^t adds
    e_{p+1,p}; the one-word chain of the trie tuples."""
    m = len(w)
    if level is None:
        level = m + 1
    if level < m + 1:
        raise ValueError(f"level {level} too small for degree {m}")
    return _shift_units([w[:p] for p in range(m + 1)], g, level, exact, field)


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
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
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
    evaluations: int = 0  # oracle calls, residual samples included

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
    """Degree-graded series of f at 0 up to order D, read from word-trie
    tuples, with a residual report comparing f against the truncated
    series on RESIDUAL_SAMPLES random points in a small ball at each of
    RESIDUAL_LEVELS (meaningful for polynomial f or small radius).

    The TRIE_MAX_LEVEL cap assumes a call costs about level^3, as a
    dense matrix function does; an oracle whose cost grows faster (the
    builtin ``nonuniform``) declares ``max_level``, and the sub-tries
    shrink to fit it, down to chains of D+1 nodes.

    ``cross_check`` re-reads every coefficient on the independent
    matenote route (one plan per word at level m+1, through
    :func:`homogeneous_part_eval`) and flags differences above ``tol``.
    ``evaluations`` counts every oracle call made here."""
    if D < 0:
        raise ValueError(f"degree must be >= 0, got {D}")
    calls_before = f.calls
    mode = f.mode
    series = tuple(FormalSeries.from_ncpoly(NCPoly(c, mode), D) for c in _trie_reads(f, D))
    polys = tuple(s.to_ncpoly() for s in series)
    flags: List[str] = []
    if cross_check:
        for m in range(D + 1):
            ext = matenote_extract(
                lambda X, _m=m: homogeneous_part_eval(f, _m, X, D), m, f.g, mode, field=f.field
            )
            for j, p in enumerate(polys):
                d = p.homogeneous_part(m).max_coeff_diff(ext.polys[j])
                if d > tol:
                    flags.append(f"degree {m} comp {j}: trie vs matenote (level {m+1}) differ by {d:.3g}")

    worst, _ = _probe(f, polys, RESIDUAL_LEVELS, RESIDUAL_SAMPLES,
                      lambda n: min(0.3, f.radius_at(n) / 4.0), seed)
    count = len(RESIDUAL_LEVELS) * RESIDUAL_SAMPLES
    return TaylorResult(series, D, worst, count, flags, f.calls - calls_before)


def _probe(f: FreeMapOracle, polys, levels, samples: int, radius: Callable[[int], float], seed):
    """``(worst, witness)``: the largest deviation of f from the polynomials
    ``polys`` on ``samples`` random tuples at each of ``levels``, drawn in
    order from one generator with norms radius(n) * U(0.1, 1), and the
    first tuple that reached it (None when every deviation is 0).  The
    samples of a level are drawn first, as the blocks u, X (see
    ``mateval.scaled_block``), then evaluated as one stack."""
    rng = _rng(seed)
    worst, witness = 0.0, None
    for n in levels:
        X = scaled_block(f.g, n, samples, rng, f.field, radius(n), 0.1)
        res = stack_diffs(f.stack(X), eval_stack(polys, X, f.field))
        for t, v in enumerate(res.tolist()):
            if v > worst:
                worst, witness = v, X[:, t]
    return worst, None if witness is None else MatTuple(witness, f.field)


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
    e.g. the trace map X -> tr(X) I), drawing where the Taylor residual
    probe's generator stopped, not replaying that probe's samples."""
    rng = _rng(seed)
    tay = taylor_at_zero(f, d, tol=RECON_TOL, seed=rng)
    polys = tuple(s.to_ncpoly() for s in tay.series)
    worst, witness = _probe(f, polys, (d + 1, d + 2), CERT_SAMPLES,
                            lambda n: min(1.0, f.radius_at(n) / 2.0), rng)
    ok = worst <= RECON_TOL
    return ReconResult(polys, worst, ok, None if ok else witness, tay)
