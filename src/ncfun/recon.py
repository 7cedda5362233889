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

Both routes read a fixed set of same-level shift-unit tuples: the
sub-tries of one prefix length share one node order (so one level and
one J), and the plans of one degree one level.  Each set is built as one
stack and read by one ``f.stack`` (one scan for a map with involution
and for the cross-check), cut into several only where the stack would
hold more than ``mateval._WALK_ENTRIES`` matrix entries per component.
Stacking changes no value, call or level, only ``batches``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .mateval import _WALK_ENTRIES, MatTuple, _rng, eval_stack, scaled_block, stack_diffs
from .mateval import eval_ncpoly  # noqa: F401  (unused; bench/test_bench.py looks it up here)
from .oracle import FreeMapOracle, _part_scan, _scan_radius, _scan_size
from .poly import FREE, INV, NCPoly
from .series import FormalSeries
from .words import Letter, Word, words_of_degree

CLEANUP_TOL = 1e-9  # float coefficients at or below this read as zero
RESIDUAL_LEVELS = (1, 2)  # levels and samples per level of the Taylor residual
RESIDUAL_SAMPLES = 4
RECON_TOL = 1e-7  # reconstruction and certificate tolerance
CERT_SAMPLES = 5  # certificate samples at each of levels d+1, d+2
# largest sub-trie level: dense evaluation cost grows like level^3, and
# above ~64 it outweighs the saving in calls (sweep in CHANGES.md);
# oracles whose cost grows faster declare a smaller FreeMapOracle.max_level
TRIE_MAX_LEVEL = 64


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
    return MatTuple([p[0, m].reshape(X.n, X.n) for p in parts], "complex" if np.iscomplexobj(parts) else f.field)


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


def _shift_unit_stack(parents: List[int], letters: List[Word], g: int, level: int, exact: bool,
                      field: str) -> np.ndarray:
    """The stack (g, T, level, level) of the shift-unit tuples on T trees
    of one shape: node i >= 1 hangs below node ``parents[i-1]`` by the
    letter ``letters[t][i-1]`` = (k, starred) of tree t, and x_k puts
    e_{parent, i} into component k of its tuple, x_k^t puts e_{i, parent}
    there.  Entries are float, complex in the complex field, or exact:
    Fraction(1) in an object array."""
    T, n = len(letters), len(parents) + 1
    L = np.asarray(letters, dtype=np.intp).reshape(T, n - 1, 2)
    i, p, starred = np.arange(1, n), np.asarray(parents, dtype=np.intp), L[..., 1] != 0
    A = np.zeros((g, T, level, level), dtype=object if exact else complex if field == "complex" else float)
    A[L[..., 0] - 1, np.arange(T)[:, None], np.where(starred, i, p), np.where(starred, p, i)] = (
        Fraction(1) if exact else 1.0)
    return A


def _read_stacks(T: int, reads: int, level: int) -> List[slice]:
    """The T tuples of one read, in stacks of at most ``_WALK_ENTRIES``
    matrix entries per component (tuples x nodes read per tuple x
    level^2), one tuple at least: a read of many small tuples is one
    stack, and the memory of a large one stays bounded."""
    step = max(1, _WALK_ENTRIES // (reads * level * level))
    return [slice(t, t + step) for t in range(0, T, step)]


def _trie_nodes(prefix: Word, D: int, alphabet: List[Letter]) -> List[Word]:
    """Nodes of the sub-trie of the words of degree <= D that start with
    ``prefix``, after the chain from the root down to it (node 0 is the
    root); the sub-tries of one prefix length share this node order."""
    nodes = [prefix[:i] for i in range(len(prefix))]
    layer = [prefix]
    while True:
        nodes += layer
        if len(layer[0]) == D:
            break
        layer = [u + (a,) for u in layer for a in alphabet]
    return nodes


def _trie_stack(tries: List[List[Word]], g: int, field: str) -> np.ndarray:
    """The tuples of the sub-tries ``tries``, node lists of one order, as
    one stack (g, T, n, n)."""
    index = {u: i for i, u in enumerate(tries[0])}
    parents = [index[u[:-1]] for u in tries[0][1:]]
    return _shift_unit_stack(parents, [[u[-1] for u in nodes[1:]] for nodes in tries], g, len(index), False, field)


def _trie_reads(f: FreeMapOracle, D: int) -> List[Dict[Word, object]]:
    """Coefficients of every word of degree <= D, as one word -> value map
    per output slot.  The sub-tries share one node order, hence one level
    and one depth signature J, and are read together in the stacks of
    ``_read_stacks`` (one, unless their entries outgrow it): without
    involution a stack is one ``f.stack`` of the tuples h_s T_s, with it
    one mirrored scan of all its tuples, half its nodes read."""
    involution = f.mode == INV
    alphabet = [w[0] for w in words_of_degree(f.g, 1, involution)]
    j = _trie_prefix_length(len(alphabet), D, f.max_level)
    tries = [_trie_nodes(prefix, D, alphabet) for prefix in words_of_degree(f.g, j, involution)]
    depths = [len(u) for u in tries[0]]
    n = len(depths)
    signs = np.array([(-1.0) ** m for m in depths])  # J = diag((-1)^|u|), J T J = -T
    coeffs = [dict() for _ in range(f.gprime)]
    on_chain = set()  # words shorter than j are shared by sub-tries: read once
    for cut in _read_stacks(len(tries), _scan_size(f, D, True) // 2 if involution else 1, n):
        A = _trie_stack(tries[cut], f.g, f.field)
        if involution:  # node i's coefficient: entry (root, i) of the degree-|u_i| part
            vals = _part_scan(f, A, D, row0=True, signs=signs)[:, :, depths, np.arange(n)]
        else:  # h^|u_i| c at (root, i), h**m taken on Python floats: it rounds as Python's pow
            h = _scan_radius(f, A)
            vals = f.stack(A * h[:, None, None])[:, :, 0] / np.array([[x**m for m in depths] for x in h.tolist()])
        for nodes, rows in zip(tries[cut], vals.swapaxes(0, 1).tolist()):
            for i, w in enumerate(nodes):
                if i < j:
                    if w in on_chain:
                        continue
                    on_chain.add(w)
                for k, r in enumerate(rows):
                    if abs(r[i]) > CLEANUP_TOL:
                        coeffs[k][w] = r[i]
    return coeffs


# -- coefficient extraction on shift-unit tuples ----------------------


def _plan_level(m: int, level: Optional[int]) -> int:
    if level is None:
        return m + 1
    if level < m + 1:
        raise ValueError(f"level {level} too small for degree {m}")
    return level


def _plan_stack(words: List[Word], g: int, level: int, exact: bool, field: str) -> np.ndarray:
    """The plan tuples of the words ``words`` of one degree m, as one stack
    (g, T, level, level): chains, node p below node p-1 by letter p."""
    m = len(words[0])
    return _shift_unit_stack(list(range(m)), words, g, level, exact, field)


def matenote_plan(
    w: Word, g: int, level: int | None = None, exact: bool = False, field: str = "real"
) -> MatTuple:
    """Shift-unit tuple a = (a_1..a_g) in M_level for a degree-m word:
    position p carrying x_k adds e_{p,p+1} to a_k, and x_k^t adds
    e_{p+1,p}; the one-word chain of the trie tuples, and a plan stack
    of one."""
    return MatTuple(list(_plan_stack([w], g, _plan_level(len(w), level), exact, field)[:, 0]), field)


@dataclass
class ExtractionResult:
    polys: Tuple[NCPoly, ...]
    evaluations: int
    batches: int = 0  # the stacks sent to an oracle


def _corner_reads(read, words: List[Word], g: int, level: int, mode: str,
                  exact: bool, field: str, reads: int) -> Tuple[NCPoly, ...]:
    """The polynomials whose coefficient of each degree-m word w is the
    entry (1, m+1) that ``read`` returns for w's plan: ``read(A)`` takes a
    plan stack (g, S, level, level), cut by ``_read_stacks`` for ``reads``
    nodes per tuple, and returns per tuple its corner per output slot."""
    coeff_maps = None
    for cut in _read_stacks(len(words), reads, level):
        for w, corners in zip(words[cut], read(_plan_stack(words[cut], g, level, exact, field))):
            if coeff_maps is None:
                coeff_maps = [dict() for _ in corners]
            for cm, c in zip(coeff_maps, corners):
                if exact:
                    if c != 0:
                        cm[w] = c
                elif abs(c) > CLEANUP_TOL:
                    cm[w] = complex(c) if np.iscomplexobj(c) else float(c.real)
    return tuple(NCPoly(cm, mode) for cm in (coeff_maps or [dict()]))


def matenote_extract(
    f_hom: Callable[[MatTuple], MatTuple],
    m: int,
    g: int,
    mode: str = FREE,
    level: int | None = None,
    exact: bool = False,
    field: str = "real",
) -> ExtractionResult:
    """Read every degree-m coefficient of a homogeneous evaluator at level
    m+1 (or any given level >= m+1): the coefficient of w is entry
    (1, m+1) of f_hom at w's plan tuple.

    The (2g)^m plans in involution mode, g^m otherwise, are built as one
    stack (g, T, level, level) of float, complex or exact Fraction(1)
    entries.  A FreeMapOracle reads it through ``f.stack`` (in the stacks
    of ``_read_stacks`` when its entries outgrow one); any other callable
    is called one plan at a time.  ``evaluations`` counts the plans,
    ``batches`` the stacks sent.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    level = _plan_level(m, level)
    words = list(words_of_degree(g, m, mode == INV))
    if isinstance(f_hom, FreeMapOracle):
        batches = f_hom.batches
        polys = _corner_reads(lambda A: f_hom.stack(A)[:, :, 0, m].T, words, g, level, mode, exact, field, 1)
        return ExtractionResult(polys, len(words), f_hom.batches - batches)

    def per_plan(A):
        return [[v[0, m] for v in f_hom(MatTuple._checked(A[:, t], field)).mats] for t in range(A.shape[1])]

    return ExtractionResult(_corner_reads(per_plan, words, g, level, mode, exact, field, 1), len(words))


# -- Taylor series at the origin --------------------------------------


@dataclass
class TaylorResult:
    series: Tuple[FormalSeries, ...]
    order: int
    residual: float
    residual_samples: int
    flags: List[str] = dc_field(default_factory=list)
    evaluations: int = 0  # oracle calls, residual samples included
    batches: int = 0  # the stacks among them

    @property
    def gprime(self) -> int:
        return len(self.series)


def _smoothness_flags(f: FreeMapOracle, D: int) -> List[str]:
    """A flag when f's declared smoothness leaves degrees <= D without a
    Taylor part at 0: above 0 for a continuous map, above k for C^k."""
    s = f.smoothness
    k = 0 if s == "continuous" else s[1] if isinstance(s, tuple) and s[0] == "Ck" else D
    if k >= D:
        return []
    degrees = f"degree {D}" if k + 1 == D else f"degrees {k + 1}..{D}"
    return [f"declared smoothness {s if s == 'continuous' else f'C^{k}'}: {degrees} undefined at 0"]


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
    RESIDUAL_LEVELS (meaningful for polynomial f or small radius).  A map
    declared continuous or C^k, k < D, is flagged: the degrees above its
    smoothness have no Taylor part, and what is read there is no series.

    The TRIE_MAX_LEVEL cap assumes a call costs about level^3, as a
    dense matrix function does; an oracle whose cost grows faster (the
    builtin ``nonuniform``) declares ``max_level``, and the sub-tries
    shrink to fit it, down to chains of D+1 nodes.

    ``cross_check`` re-reads every coefficient on the independent
    matenote route, the plans of each degree m at level m+1 read by one
    unmirrored ``_part_scan``, and flags differences above ``tol``.
    ``evaluations`` counts every oracle call made here, ``batches`` the
    stacks among them."""
    if D < 0:
        raise ValueError(f"degree must be >= 0, got {D}")
    calls_before, batches_before = f.calls, f.batches
    mode = f.mode
    series = tuple(FormalSeries.from_ncpoly(NCPoly(c, mode), D) for c in _trie_reads(f, D))
    polys = tuple(s.to_ncpoly() for s in series)
    flags = _smoothness_flags(f, D)
    if cross_check:
        for m in range(D + 1):
            words = list(words_of_degree(f.g, m, mode == INV))
            mate = _corner_reads(lambda A, m=m: _part_scan(f, A, D, row0=True)[:, :, m, m].T,
                                 words, f.g, m + 1, mode, False, f.field, _scan_size(f, D))
            for j, p in enumerate(polys):
                d = p.homogeneous_part(m).max_coeff_diff(mate[j])
                if d > tol:
                    flags.append(f"degree {m} comp {j}: trie vs matenote (level {m+1}) differ by {d:.3g}")

    worst, _ = _probe(f, polys, RESIDUAL_LEVELS, RESIDUAL_SAMPLES,
                      lambda n: min(0.3, f.radius_at(n) / 4.0), seed)
    count = len(RESIDUAL_LEVELS) * RESIDUAL_SAMPLES
    return TaylorResult(series, D, worst, count, flags, f.calls - calls_before, f.batches - batches_before)


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
