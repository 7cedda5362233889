"""Black-box free maps: a level-indexed evaluator with metadata, the
built-in example maps, the Chebyshev ray scan that reads them,
derivatives, and checkers for the free-map axioms and the derivative
identities.

Oracles are pure callables on :class:`~ncfun.mateval.MatTuple` inputs;
declared metadata (group, smoothness, radius) is advisory and verified
by the checkers, never assumed.  Out-of-domain evaluation raises
:class:`DomainError` rather than extrapolating.  A single call and a
``FreeMapOracle.stack`` of tuples at one level run one evaluation body:
the input checks, then ``calls`` grows by the tuples evaluated, so the
black-box cost (evaluations and their level) does not depend on how
they were batched (``batches`` counts the stacks).  ``polys`` decides
the route: the plans kept on the polynomials (see :mod:`ncfun.mateval`)
evaluate a polynomial-backed oracle's stacks, and ``evaluator``, the
black-box route, is called once per tuple, its values checked (a
builtin returns its value matrix, from one eigendecomposition per
tuple).  The axiom checks draw the trials of a level first, as blocks
(one generator call each, see :mod:`ncfun.mateval`), and evaluate each
level as stacks.  A ray scan reads the homogeneous parts of
t -> f(C + tX) for a stack of tuples X from one stack of Chebyshev
nodes and one stacked Vandermonde solve; the Taylor, expansion and
certificate reads go through it, and so does every derivative that the
product rule on the kept plans does not give: the order-k derivative
along H is k! times the degree-k part of t -> f(X + tH).  A checker's
witnesses keep the level it ran at.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import identities
from .mateval import (
    DEFAULT_TOL,
    MatTuple,
    _derivative_plan,
    _group_block,
    _rng,
    _spectral,
    adjoint,
    block_tuple,
    direct_sum,
    direct_sums,
    eval_ncpoly,
    eval_stack,
    scaled_block,
    stack_diffs,
    stack_norms,
)
from .poly import FREE, INV, NCPoly


class DomainError(ValueError):
    """Evaluation outside the declared per-level radius."""


Smoothness = object  # "continuous" | ("Ck", k) | "smooth" | "analytic" | ("polynomial", d)


@dataclass
class FreeMapOracle:
    g: int
    gprime: int
    evaluator: Callable[[MatTuple], MatTuple]
    field: str = "real"
    group: str = "GL"
    smoothness: Smoothness = "analytic"
    radius: float = math.inf  # input norms must stay below it, at every level
    name: str = ""
    polys: Optional[Tuple[NCPoly, ...]] = None  # symbolic backing, if any
    max_level: Optional[int] = None  # larger levels are refused; None: no limit
    # tuples evaluated through this object, and the stacks among them (not
    # copied by dataclasses.replace)
    calls: int = dc_field(default=0, init=False, compare=False, repr=False)
    batches: int = dc_field(default=0, init=False, compare=False, repr=False)

    def radius_at(self, n: int) -> float:
        return float(self.radius)

    def is_polynomial(self) -> bool:
        return isinstance(self.smoothness, tuple) and self.smoothness[0] == "polynomial"

    def poly_degree(self) -> Optional[int]:
        return self.smoothness[1] if self.is_polynomial() else None

    @property
    def mode(self) -> str:
        """Word mode of the map's series: with involution for O/U maps."""
        return INV if self.group in ("O", "U") else FREE

    def __call__(self, X: MatTuple) -> MatTuple:
        """f at one tuple: the evaluation body on a stack of one, which
        counts one call and no batch."""
        if not isinstance(X, MatTuple):
            X = MatTuple(X, self.field)
        out = self._evaluate(np.array(X.mats)[:, None], X.field)[:, 0]
        return MatTuple._checked(out, "complex" if np.iscomplexobj(out) else X.field)

    def stack(self, A: np.ndarray) -> np.ndarray:
        """f on each of the T tuples of a stack at one level: A holds their
        components, shape (g, T, n, n), and the values come back the same
        way, shape (g', T, n, n), in one dtype.  Complex entries make the
        stack complex, as they make a conjugated MatTuple.  The evaluation
        body of a single call, with ``calls`` grown by T, plus one batch."""
        A = np.asarray(A)
        self.batches += 1
        return self._evaluate(A, "complex" if np.iscomplexobj(A) else self.field)

    def _evaluate(self, A: np.ndarray, field: str) -> np.ndarray:
        """The one evaluation body, for a stack A of shape (g, T, n, n).
        It checks the arity and the entries, refuses a level above
        ``max_level`` and, at a finite radius, the first input norm that
        reaches it, and counts T calls.  ``polys`` decides the route: when
        set, the plans kept on them evaluate the whole stack, trusted as
        ``derivative`` trusts them; otherwise ``evaluator`` (the black-box
        route) is called once per tuple of the given field, and each value
        must have g' components of the input's size.  Values must be
        finite unless exact."""
        if A.ndim != 4 or A.shape[0] != self.g or not A.shape[1] or A.shape[2] != A.shape[3]:
            raise ValueError(f"oracle expects a stack of shape ({self.g}, T >= 1, n, n), got {A.shape}")
        exact, n = A.dtype == object, A.shape[-1]
        if not exact and not np.isfinite(A).all():
            raise ValueError("non-finite entries")
        if self.max_level is not None and n > self.max_level:
            raise DomainError(f"level {n} above the largest level {self.max_level} of {self.name or 'the map'}")
        r = self.radius_at(n)
        if math.isfinite(r) and not exact:
            for v in stack_norms(A).tolist():
                if v >= r:
                    raise DomainError(f"input norm {v:.3g} outside radius {r:.3g} at level {n}")
        self.calls += A.shape[1]
        if self.polys is not None:
            out = eval_stack(self.polys, A, field)
        else:
            out = np.array([self._components(self.evaluator(MatTuple._checked(A[:, t], field)), n)
                            for t in range(A.shape[1])]).swapaxes(0, 1)
        if out.dtype != object and not np.isfinite(out).all():
            raise ValueError(f"{self.name or 'the map'} returned non-finite entries at level {n}")
        return out

    def _components(self, value, n: int):
        """The components of one value of ``evaluator`` at level n: a
        MatTuple, a sequence of matrices or one matrix, refused unless it
        is g' matrices of shape (n, n)."""
        mats = value.mats if isinstance(value, MatTuple) else value if isinstance(value, (tuple, list)) else (value,)
        shapes = [np.shape(m) for m in mats]
        if shapes != [(n, n)] * self.gprime:
            raise ValueError(f"{self.name or 'the map'} returned components of shapes {shapes} at level {n}; "
                             f"expected {self.gprime} of shape ({n}, {n})")
        return mats


# -- constructors -----------------------------------------------------


def oracle_from_ncpoly(
    p: NCPoly | Sequence[NCPoly], field: str = "real", name: str = ""
) -> FreeMapOracle:
    """Polynomial free map; group GL when involution-free, else O/U."""
    polys = tuple(p) if isinstance(p, (tuple, list)) else (p,)
    if not polys:
        raise ValueError("oracle_from_ncpoly needs at least one polynomial")
    # starred letters need with-involution mode, so the modes decide the group
    group = ("U" if field == "complex" else "O") if any(q.mode == INV for q in polys) else "GL"
    g = max((q.num_vars() for q in polys), default=1) or 1
    d = max(q.degree() for q in polys)

    def evaluator(X: MatTuple) -> MatTuple:
        vals = [eval_ncpoly(q, X) for q in polys]
        out_field = "complex" if any(np.iscomplexobj(v) for v in vals) else X.field
        return MatTuple._checked(vals, out_field)

    return FreeMapOracle(
        g=g,
        gprime=len(polys),
        evaluator=evaluator,
        field=field,
        group=group,
        smoothness=("polynomial", max(d, 0)),
        radius=math.inf,
        name=name or "poly",
        polys=polys,
    )


def _pow_smoothness(alpha: float) -> Smoothness:
    if alpha == int(alpha):
        return ("polynomial", 2 * int(alpha))
    if (2 * alpha) == int(2 * alpha) and alpha > 1:
        return ("Ck", int(alpha - 0.5))
    return "continuous"


# one nonuniform call takes ~0.1 s at level 7, ~0.6 s at 8 and ~3 s at 9 (2-core x86)
NONUNIFORM_MAX_LEVEL = 7


def _of_xxt(tag) -> Callable[[MatTuple], np.ndarray]:
    """The evaluator x -> F(x x^t) of the spectral function ``tag``."""
    return lambda X: _spectral(tag, X.mats[0] @ adjoint(X.mats[0], X.field))


def builtin_map(name: str, **params) -> FreeMapOracle:
    """Registry of the example maps.  Each evaluator returns its one value
    matrix, checked once by the oracle's evaluation body, and takes one
    eigendecomposition per tuple: ``mateval.sym_matrix_function`` without
    its symmetry check, as x x^t, x + x^t and the nonuniform sum are
    symmetric by construction.

    pow_xxt(alpha)          (x x^t)^alpha by spectral calculus
    sinxxt                  sin(x x^t)
    smooth_nonanalytic(J)   sum_j e^{-sqrt(2^j)} cos(2^j (x + x^t)), the
                            sum applied to the eigenvalues of x + x^t
    nonuniform              sin(sum_k k! (h_k + h_k^t)), level-n sum
                            truncated at k < n (Amitsur-Levitzki); the
                            S_2k subset DPs for k < n make a call cost
                            about 5x more per level, so levels above
                            NONUNIFORM_MAX_LEVEL are refused
    """
    if name == "pow_xxt":
        alpha = params.get("alpha")
        if alpha is None:
            m = params.get("m")
            if m is None or m < 2:
                raise ValueError("pow_xxt needs alpha or integer m >= 2")
            alpha = 1.0 / m
        if alpha <= 0:
            raise ValueError("pow_xxt exponent must be positive")
        return FreeMapOracle(1, 1, _of_xxt(("pow", alpha)), group="O", smoothness=_pow_smoothness(alpha),
                             name=f"pow_xxt({alpha})")

    if name == "sinxxt":
        return FreeMapOracle(1, 1, _of_xxt("sin"), group="O", smoothness="analytic", name="sinxxt")

    if name == "smooth_nonanalytic":
        J = params.get("J", 40)
        if J < 0:
            raise ValueError("J must be >= 0")
        # the weights fall below the smallest float from j = 20 on, and 2.0**j
        # overflows from j = 1024: the sum stops at the first zero weight
        weights = list(itertools.takewhile(lambda tw: tw[1] > 0.0,
                                           ((2.0**j, math.exp(-math.sqrt(2.0**j))) for j in range(J + 1))))

        def ev_smooth(X: MatTuple) -> np.ndarray:
            return _spectral(lambda lam: sum(w * np.cos(t * lam) for t, w in weights),
                             X.mats[0] + adjoint(X.mats[0], X.field))

        return FreeMapOracle(
            1, 1, ev_smooth, group="O", smoothness="smooth", name=f"smooth_nonanalytic({J})"
        )

    if name == "nonuniform":

        def ev_nonuniform(X: MatTuple) -> np.ndarray:
            n = X.n
            acc = np.zeros((n, n))
            for k in range(1, n):  # h_k = 0 on M_n for k >= n
                hk = np.asarray(identities.hk_eval(k, X), dtype=float)
                acc = acc + math.factorial(k) * (hk + hk.T)
            return _spectral("sin", acc)

        return FreeMapOracle(3, 1, ev_nonuniform, group="O", smoothness="analytic", name="nonuniform",
                             max_level=NONUNIFORM_MAX_LEVEL)

    raise ValueError(f"unknown builtin map {name!r}")


def random_ncpoly(
    g: int,
    deg: int,
    mode: str = FREE,
    seed=0,
    n_terms: int = 6,
    field: str = "real",
) -> NCPoly:
    """Random sparse polynomial with coefficients in [-1, 1]."""
    rng = _rng(seed)
    from .words import words_of_degree

    coeffs = {}
    for _ in range(n_terms):
        m = int(rng.integers(0, deg + 1))
        choices = list(words_of_degree(g, m, mode == INV))
        w = choices[int(rng.integers(0, len(choices)))]
        c = rng.uniform(-1, 1)
        if field == "complex":
            c = complex(c, rng.uniform(-1, 1))
        coeffs[w] = coeffs.get(w, 0) + c
    p = NCPoly(coeffs, mode)
    if p.is_zero():
        p = NCPoly.variable(1, mode=mode)
    return p


# -- check reports ----------------------------------------------------


@dataclass
class CheckReport:
    name: str
    trials: int
    tol: float
    max_violation: float = 0.0
    witnesses: List[tuple] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def record(self, residual: float, level: int, info) -> None:
        """One trial at ``level``; above tol it is kept as a witness
        ``(info, residual, level)``."""
        self.max_violation = max(self.max_violation, residual)
        if residual > self.tol:
            self.witnesses.append((info, residual, level))

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"CheckReport({self.name}: {status}, trials={self.trials}, "
            f"max_violation={self.max_violation:.3g}, tol={self.tol:.3g})"
        )


DEFAULT_LEVELS = ((1, 1), (1, 2), (2, 2), (2, 3))


def _sample_radius(f: FreeMapOracle, *ns: int) -> float:
    return min([f.radius_at(n) for n in ns] + [2.0]) / 2.0


_EVAL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


def _record_trials(report: CheckReport, level: int, trials: int, residuals, witness, key) -> None:
    """Record the trials of one level in order.  ``residuals(ts)`` gives the
    residuals of the trials ts (an index of the stacks) at once; when the
    whole level raises, each trial runs again as a stack of one, and one
    that fails is recorded as an inf residual with ``(key, repr(error))``,
    so an evaluator failure is a witness, not fatal.  A trial above tol
    keeps ``witness(t)``."""
    try:
        results = residuals(slice(None)).tolist()
    except _EVAL_ERRORS:
        results = []
        for t in range(trials):
            try:
                results.append(residuals(slice(t, t + 1)).item())
            except _EVAL_ERRORS as e:
                results.append(e)
    for t, r in enumerate(results):
        if isinstance(r, Exception):
            report.record(math.inf, level, (key, repr(r)))
        else:
            report.record(r, level, witness(t) if r > report.tol else None)


def check_direct_sums(
    f: FreeMapOracle,
    levels: Sequence[Tuple[int, int]] = DEFAULT_LEVELS,
    trials: int = 25,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> CheckReport:
    """Residuals of f(X+Y block diag) - f(X)+f(Y) block diag.  The trials
    of a level pair are drawn first, as the blocks uX, X, uY, Y (see
    ``mateval.scaled_block``), then evaluated as three stacks: the
    direct sums, the X and the Y."""
    rng = _rng(seed)
    report = CheckReport("direct_sums", trials * len(levels), tol)
    for (m, n) in levels if trials > 0 else ():
        r = _sample_radius(f, m, n, m + n)
        X = scaled_block(f.g, m, trials, rng, f.field, r, 0.05)
        Y = scaled_block(f.g, n, trials, rng, f.field, r, 0.05)

        def residuals(ts):
            lhs = f.stack(direct_sums(X[:, ts], Y[:, ts]))
            return stack_diffs(lhs, direct_sums(f.stack(X[:, ts]), f.stack(Y[:, ts])))

        _record_trials(report, m + n, trials, residuals,
                       lambda t: ((m, n), MatTuple._checked(X[:, t], f.field), MatTuple._checked(Y[:, t], f.field)),
                       (m, n))
    return report


def check_similarity(
    f: FreeMapOracle,
    group: str | None = None,
    levels: Sequence[int] = (1, 2, 3),
    trials: int = 25,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> CheckReport:
    """Residuals of f(s X s^-1) - s f(X) s^-1 for s sampled in the group.
    The trials of a level are drawn first, as the blocks s, u, X (see
    ``mateval.scaled_block``; radius over cond(s), for GL the condition
    numbers the draw's rejection test computed), then evaluated as two
    stacks: the conjugated X and the X."""
    group = group or f.group
    rng = _rng(seed)
    report = CheckReport(f"similarity[{group}]", trials * len(levels), tol)
    for n in levels if trials > 0 else ():
        S, cond = _group_block(group, n, trials, rng, f.field)
        r = _sample_radius(f, n) / np.maximum(1.0, np.linalg.cond(S) if cond is None else cond)
        X = scaled_block(f.g, n, trials, rng, f.field, r, 0.05)

        def residuals(ts):
            try:
                inv = np.linalg.inv(S[ts])
            except np.linalg.LinAlgError as e:
                raise ValueError("sigma is singular") from e
            lhs = f.stack(S[ts] @ X[:, ts] @ inv)
            return stack_diffs(lhs, S[ts] @ f.stack(X[:, ts]) @ inv)

        _record_trials(report, n, trials, residuals,
                       lambda t: (n, MatTuple._checked(X[:, t], f.field), S[t]), (n,))
    return report


# -- ray scans ---------------------------------------------------------

ANALYTIC_RADIUS_CAP = 0.25  # empirical: with SCAN_EXTRA_NODES gives ~1e-10 coefficients
# nodes a non-polynomial scan reads past degree D: fewer let the tail
# alias (6: errors up to 8e-7), more cost calls (sweep in CHANGES.md)
SCAN_EXTRA_NODES = 10
# nodes of a derivative's ray read on a map not declared polynomial: fewer
# lose accuracy (6: errors up to 4.8e-10), more cost calls (sweep in CHANGES.md)
RAY_NODES = 8


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


def _scan_size(f: FreeMapOracle, D: int, mirrored: bool = False) -> int:
    """Nodes N of a scan of degrees 0..D: max(D, deg f) + 1 for a
    polynomial map, D + 1 + SCAN_EXTRA_NODES for any other, rounded up
    to even when ``mirrored`` (see ``_part_scan``'s ``signs``)."""
    N = max(D, f.poly_degree()) + 1 if f.is_polynomial() else D + 1 + SCAN_EXTRA_NODES
    return N + N % 2 if mirrored else N


def _part_scan(
    f: FreeMapOracle, A: np.ndarray, D: int, row0: bool = False,
    C: Optional[np.ndarray] = None, h: Optional[np.ndarray] = None,
    signs: Optional[np.ndarray] = None, N: Optional[int] = None,
) -> np.ndarray:
    """Homogeneous parts 0..D of t -> f(C + tX) in t for each tuple X of
    the stack A (g, S, n, n): shape (g', S, D+1, cols), with row m the
    flattened degree-m part (only its first matrix row when ``row0``).
    The center C (components, shape (g, n, n)) is added only when given,
    so a scan about 0 keeps the signs of zeros.

    One ``f.stack`` reads N Chebyshev nodes of every tuple at its radius
    h (shape (S,); ``_scan_radius`` unless given), and one Vandermonde
    solve, stacked over outputs and tuples, fits them.  N is
    ``_scan_size`` unless given: max(D, deg f) + 1 for a polynomial map,
    exact and unaliased, D + 1 + SCAN_EXTRA_NODES for any other, whose
    top degrees take up the tail of the series.  A derivative's ray read
    (see ``_derivatives``) gives its own N and h.

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
    N = _scan_size(f, D, signs is not None) if N is None else N
    h = (_scan_radius(f, A) if h is None else h)[:, None]
    if signs is None:
        taus = read = _cheb_nodes(N)
    else:
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


# -- derivatives ------------------------------------------------------


def _check_direction(X: MatTuple, H: MatTuple) -> None:
    if (H.g, H.n) != (X.g, X.n):
        raise ValueError(f"direction H has g={H.g}, n={H.n} but the point X has g={X.g}, n={X.n}")


def _product_rule(f: FreeMapOracle, X: MatTuple, H: np.ndarray) -> np.ndarray:
    """D f(X)[H] for a polynomial-backed oracle on the T directions H of
    shape (g, T, n, n), shape (g', T, n, n): from each polynomial's kept
    derivative plan on the stack of 2g-tuples (X, H).  The values keep
    the field of the coefficients, as f's own do."""
    XH = np.concatenate([np.broadcast_to(np.stack(X.mats)[:, None], H.shape), H])
    letters, dt = (XH, adjoint(XH, X.field)), complex if X.field == "complex" else float
    return np.stack([_derivative_plan(p, X.g)(letters, dt) for p in f.polys])


def _derivatives(f: FreeMapOracle, X: MatTuple, H: np.ndarray, order: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """The order-k derivative D^k f(X)[H_t, ..., H_t] along each of the T
    directions H_t of the stack H (g, T, n, n), shape (g', T, n, n), and
    an error indicator per direction, shape (T,).

    A polynomial-backed oracle takes the product rule at order 1, with no
    oracle call and indicator 0.  Any other derivative is a ray read:
    k! times the degree-k part of t -> f(X + t H_t), from one centered
    ``_part_scan`` of every direction, so one ``f.stack`` of N nodes per
    direction.  A map declared polynomial of degree d takes
    N = max(k, d) + 2 nodes at the cap 1, exact with one node spare; any
    other takes RAY_NODES nodes, at the cap 0.1 when declared analytic
    and at 0.02 otherwise, since a smooth or C^k map may vary on scales
    that 8 nodes at 0.1 miss (``smooth_nonanalytic``: errors 1e-9 at 0.1,
    4.5e-13 at 0.02).  The radius is h_t = cap / (1 + ||X||) /
    max(1, ||H_t||), at a finite radius r at most
    (r - ||X||) / 2 / max(1, ||H_t||).

    The indicator is the gap between part k of the N-node fit and part k
    of the fit with the top degree dropped, the interpolant through the
    first N - 1 nodes.  The two differ by the top coefficient a times
    prod_{i < N-1} (tau - tau_i), so the gap costs no call.  Like the
    tail of any fit it indicates the error; it does not bound it.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if f.polys is not None and order == 1:
        return _product_rule(f, X, H), np.zeros(H.shape[1])
    x, r = X.norm(), f.radius_at(X.n)
    if x >= r:
        raise DomainError(f"point norm {x:.3g} outside radius {r:.3g} at level {X.n}")
    N = max(order, f.poly_degree()) + 2 if f.is_polynomial() else RAY_NODES
    cap = (1.0 if f.is_polynomial() else 0.1 if f.smoothness == "analytic" else 0.02) / (1.0 + x)
    h = min(cap, (r - x) / 2.0) / np.maximum(1.0, stack_norms(H))
    parts = _part_scan(f, H, N - 1, C=np.stack(X.mats), h=h, N=N)
    parts = parts.reshape(parts.shape[:3] + H.shape[-2:])
    omega = np.poly(_cheb_nodes(N)[:-1])[::-1][order]  # coefficient of tau^k in prod (tau - tau_i)
    k = math.factorial(order)
    return k * parts[:, :, order], k * abs(omega) * h ** (N - 1 - order) * stack_norms(parts[:, :, N - 1])


def derivative(f: FreeMapOracle, X: MatTuple, H: MatTuple, order: int = 1) -> Tuple[MatTuple, float]:
    """The order-k derivative of f at X along H, k = ``order`` (1 or 2),
    and its error indicator: the one-direction case of ``_derivatives``
    (the product rule of a polynomial-backed oracle at order 1, else a
    ray read of t -> f(X + tH))."""
    _check_direction(X, H)
    V, err = _derivatives(f, X, np.stack(H.mats)[:, None], order)
    return MatTuple(list(V[:, 0]), "complex" if np.iscomplexobj(V) else X.field), float(err[0])


# -- derivative identities --------------------------------------------


def _block_residual(got: MatTuple, want: MatTuple) -> float:
    """The largest operator 2-norm of the four n x n blocks of got - want
    over all components, 2n x 2n each: one ``stack_norms`` call."""
    n = got.n // 2
    D = np.array(got.mats) - np.array(want.mats)
    return float(stack_norms(D.reshape(-1, 2, n, 2, n).swapaxes(-2, -3).reshape(-1, n, n)))


def check_triangular_identity(
    f: FreeMapOracle, X: MatTuple, H: MatTuple, tol: float = 1e-6
) -> CheckReport:
    """Upper-triangular derivative identity for GL-free maps:
    f([[X,H],[0,X]]) = [[f(X), Df(X)(H)], [0, f(X)]]."""
    report = CheckReport("triangular_identity", 1, tol)
    val = f(block_tuple(X, H, None, X))
    fX = f(X)
    report.record(_block_residual(val, block_tuple(fX, derivative(f, X, H)[0], None, fX)), X.n, (X, H))
    return report


def commutator_tuple(a: np.ndarray, X: MatTuple) -> MatTuple:
    return MatTuple([a @ m - m @ a for m in X.mats], X.field)


def check_commutator_identity(
    f: FreeMapOracle, X: MatTuple, a: np.ndarray, tol: float = 1e-6
) -> CheckReport:
    """Skew-direction identity for differentiable O-free maps:
    Df(X)([a, X]) = [a, f(X)] for a^t = -a."""
    a = np.asarray(a)
    if np.linalg.norm(a + adjoint(a, f.field)) > 1e-12 * max(1.0, np.linalg.norm(a)):
        raise ValueError("direction a must be skew-symmetric")
    report = CheckReport("commutator_identity", 1, tol)
    lhs = derivative(f, X, commutator_tuple(a, X))[0]
    rhs = commutator_tuple(a, f(X))
    report.record(lhs.max_diff(rhs), X.n, (X, a))
    return report


def offdiag_direction(X1: MatTuple, X2: MatTuple) -> MatTuple:
    """The direction [[0, X1 - X2], [X1 - X2, 0]] at the direct sum of X1 and X2."""
    d = X1 - X2
    return block_tuple(None, d, d, None)


def check_did_block(
    f: FreeMapOracle, X1: MatTuple, X2: MatTuple, tol: float = 1e-6
) -> CheckReport:
    """Block instance of the commutator identity with a = [[0,I],[-I,0]]:
    Df(X1 + X2 block diag) applied to the off-diagonal direction built
    from X1 - X2 equals the off-diagonal of f(X1) - f(X2)."""
    report = CheckReport("did_block", 1, tol)
    lhs = derivative(f, direct_sum(X1, X2), offdiag_direction(X1, X2))[0]
    report.record(_block_residual(lhs, offdiag_direction(f(X1), f(X2))), X1.n, (X1, X2))
    return report
