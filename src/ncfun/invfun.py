"""Free inverse and implicit function computation.

Two routes: degree-graded formal inversion of tuple power series (each
one truncated polynomial, see :mod:`ncfun.series`), whose linear part
is normalized and restored by one linear substitution lam = L^{-1} y,
and levelwise Newton iteration on the black-box map.
The two agree to the truncation order on small targets; both inherit
the free property (G-equivariance) of the input map.

Inversion and implicit solves run one Newton body on f itself, with
the x block held fixed for the latter, so ``polys`` picks the route of
their Jacobians as of every derivative: the product rule at every
iterate, or ray reads kept by Broyden updates (see ``newton_invert``).
``NewtonTrace`` counts the oracle calls (``evaluations``) and the
Jacobians assembled (``jacobians``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .mateval import MatTuple, direct_sum
from .oracle import FreeMapOracle, _derivatives, derivative, offdiag_direction
from .poly import FREE, INV, NCPoly
from .recon import taylor_at_zero
from .series import FormalSeries, _horner_walk, compose_tuple

DET_CUTOFF = 1e-10
MAX_HALVINGS = 20  # step halvings per Newton iteration
STALL_ITERS, STALL_FACTOR = 5, 0.9  # Newton stagnates: residual > 0.9 x its value 5 iterations back
EQUAL_VALUES_TOL = 1e-8  # injectivity_check: f(X1), f(X2) closer than this count as equal


class SingularLinearPartError(ValueError):
    pass


@dataclass
class LinearPart:
    """Action of the degree-1 coefficients on the letter space.

    The matrix has shape g x g (involution-free) or 2g x 2g, ordered as
    (x_1..x_g, x_1^t..x_g^t); the 2g form is [[A, B], [conj B, conj A]],
    which commutes with the letter involution by construction, and this
    structure is closed under inversion.
    """

    matrix: np.ndarray
    mode: str
    g: int

    def is_invertible(self) -> bool:
        return abs(np.linalg.det(self.matrix)) > DET_CUTOFF

    def inverse_rows(self) -> np.ndarray:
        """First g rows of matrix^{-1}: the substitution y -> L^{-1} y."""
        if not self.is_invertible():
            raise SingularLinearPartError(
                f"linear part is singular (|det| = {abs(np.linalg.det(self.matrix)):.3g})"
            )
        return np.linalg.inv(self.matrix)[: self.g]


def linear_part(F: Sequence[FormalSeries]) -> LinearPart:
    """The degree-1 coefficients of F as one table: row i holds those of
    F_i on x_1..x_g, then (with involution) on x_1^t..x_g^t.  Free mode
    keeps the g x g table and refuses complex coefficients; with
    involution the table [A, B] is stacked over its rolled conjugate
    [conj B, conj A]."""
    g, mode = len(F), F[0].mode
    stars = (False, True) if mode == INV else (False,)
    letters = [(j, starred) for starred in stars for j in range(1, g + 1)]
    table = [[s.to_ncpoly().coefficient((let,)) for let in letters] for s in F]
    if mode == FREE:
        if any(isinstance(c, complex) for row in table for c in row):
            raise ValueError("complex coefficients in free-mode linear part are unsupported")
        return LinearPart(np.array(table, dtype=float), mode, g)
    T = np.array(table, dtype=complex)
    L = np.concatenate([T, np.roll(T, g, axis=1).conj()])
    return LinearPart(L.real if np.allclose(L.imag, 0) else L, mode, g)


def _linear_series(rows: np.ndarray, letters, D: int, mode: str) -> Tuple[FormalSeries, ...]:
    """Tuple of degree-1 series sum_j rows[i, j] x_j + rows[i, g + j] x_j^t
    (g = len(rows)), their words in the order of ``letters``."""
    g = len(rows)
    out = []
    for row in rows:
        coeffs = {}
        for k, starred in letters:
            c = row[g * starred + k - 1]
            c = c.real if isinstance(c, complex) and c.imag == 0 else c
            if c != 0:
                coeffs[((k, starred),)] = c
        out.append(FormalSeries.from_ncpoly(NCPoly(coeffs, mode), D))
    return tuple(out)


def _from_length(s: FormalSeries, k: int) -> FormalSeries:
    """s without its words shorter than k."""
    kept = {w: c for w, c in s.to_ncpoly().coeffs.items() if len(w) >= k}
    return FormalSeries.from_ncpoly(NCPoly(kept, s.mode), s.order)


def formal_inverse(F: Sequence[FormalSeries], D: int | None = None) -> Tuple[FormalSeries, ...]:
    """Compositional inverse of a series tuple with zero constant part
    and invertible linear part: both compositions equal the identity up
    to degree D.

    With lam = L^{-1} y, the linear substitution by the inverse of the
    linear part L, Fbar = lam o F has the identity as its linear part.
    Solves H = y - G(H), G = Fbar - y, in one degree-major Horner walk
    over the tries of G: G has no words shorter than 2, so degree k of
    G(H) reads H below degree k, and each yield k >= 2 sets H_k = -(that
    degree) before the walk reads it.  Then it restores H o lam.
    Only the word order of lam differs between the two substitutions:
    x_1, x_1^t, x_2, x_2^t, ... when it sums Fbar_i from F_1, F_1^t,
    F_2, ..., and x_1, ..., x_g, x_1^t, ... in the restore, which fixes
    the word order of the result.
    """
    F = tuple(F)
    g = len(F)
    if not g:
        raise ValueError("formal inverse of an empty tuple F")
    order = min(s.order for s in F)
    D = order if D is None else D
    if D > order:
        raise ValueError(f"degree {D} above the order {order} of F")
    for s in F:
        if s.constant_part() != 0:
            raise ValueError("formal inverse needs zero constant part")
        k = s.poly.num_vars()
        if k > g:
            raise ValueError(f"F has g = {g} components but uses x{k}")
    mode = F[0].mode
    rows = linear_part(F).inverse_rows()  # raises when singular
    stars = (False, True) if mode == INV else (False,)
    letters = [(k, starred) for k in range(1, g + 1) for starred in stars]
    Fbar = compose_tuple(_linear_series(rows, letters, D, mode), F)

    # tail G = Fbar - identity = the words of length >= 2 of Fbar (its
    # linear part is the identity up to the round-off of L^{-1} L)
    GH = [[] for _ in range(g)]  # parts of G(H), set by the walk
    subs = {let: [{}, {(let,): 1}] for let in letters}  # parts 0 and 1 of H and of its involution
    for k in _horner_walk([(_from_length(fb, 2).poly.coeffs, D, p) for fb, p in zip(Fbar, GH)], subs):
        for i, p in enumerate(GH if k >= 2 else (), start=1):  # H's parts 0 and 1 are given
            Hk = {w: -c for w, c in p[k].items() if c != 0}
            subs[i, False].append(Hk)
            if mode == INV:
                subs[i, True].append(NCPoly(Hk, INV).involution().coeffs)
    H = [FormalSeries._from_parts(subs[i, False][: D + 1], mode) for i in range(1, g + 1)]
    return compose_tuple(H, _linear_series(rows, sorted(letters, key=lambda let: let[1]), D, mode))


def composition_residual(F: Sequence[FormalSeries], H: Sequence[FormalSeries]) -> float:
    """Max coefficient deviation of F o H and H o F from the identity."""
    if not F or not H:
        raise ValueError(f"composition residual of an empty tuple {'F' if not F else 'H'}")
    if len(F) != len(H):
        raise ValueError(f"composition residual of tuples of {len(F)} and {len(H)} series")
    D = min(min(s.order for s in F), min(s.order for s in H))
    ident = FormalSeries.identity_tuple(len(F), D, F[0].mode)
    out = 0.0
    for comp in (compose_tuple(F, H), compose_tuple(H, F)):
        for s, idn in zip(comp, ident):
            out = max(out, s.max_coeff_diff(idn))
    return float(out)


# -- Newton inversion --------------------------------------------------


class NewtonError(RuntimeError):
    pass


@dataclass
class NewtonTrace:
    iterates: List[Tuple[float, float]] = dc_field(default_factory=list)  # (residual, step)
    converged: bool = False
    X: Optional[MatTuple] = None
    cond: float = math.nan
    reason: str = "maxit"  # why the iteration stopped: "converged", "stagnated" or "maxit"
    evaluations: int = 0  # oracle calls made by the solve
    jacobians: int = 0  # Jacobians assembled by the solve

    def __repr__(self):
        tail = self.iterates[-1][0] if self.iterates else math.nan
        return f"NewtonTrace(converged={self.converged}, iters={len(self.iterates)}, final_res={tail:.3g})"


def _unit_directions(g: int, n: int, field: str) -> np.ndarray:
    """Structural coordinate directions, stacked as (g, T, n, n): the
    g n^2 matrix units, and for complex maps also their i-multiples
    (maps built from conjugate transposes are only R-linear, so the
    complex case works in the real embedding, 2 g n^2 coordinates)."""
    E = np.eye(g * n * n).reshape(-1, g, n, n).swapaxes(0, 1)
    return np.concatenate([E, 1j * E], axis=1) if field == "complex" else E


def _vec(X: MatTuple) -> np.ndarray:
    """The real coordinates of X: its entries row-major, component by
    component, and for a complex X their real parts, then their imaginary ones."""
    flat = np.asarray(X.mats, dtype=complex if X.field == "complex" else float).ravel()
    return np.concatenate([flat.real, flat.imag]) if X.field == "complex" else flat


def _unvec(v: np.ndarray, g: int, n: int, field: str) -> MatTuple:
    """The g-tuple of n x n matrices with the coordinates ``_vec`` gives v."""
    flat = v[: g * n * n] + 1j * v[g * n * n :] if field == "complex" else v
    return MatTuple(list(flat.reshape(g, n, n)), field)


def _jacobian(f: FreeMapOracle, X: MatTuple, E: np.ndarray) -> np.ndarray:
    """D f(X) on the T directions E (g, T, n, n): T columns in the coordinates of ``_vec``."""
    V = _derivatives(f, X, E)[0].swapaxes(0, 1).reshape(E.shape[1], -1)
    return (np.concatenate([V.real, V.imag], axis=1) if f.field == "complex" else V).T


def assemble_jacobian(f: FreeMapOracle, X: MatTuple) -> np.ndarray:
    """Frechet derivative at X over the structural coordinate
    directions: a real (g' n^2) x (g n^2) matrix in real mode, the real
    embedding of size (2 g' n^2) x (2 g n^2) in complex mode.  Columns
    come from one stacked derivative over every direction: the
    product rule for polynomial-backed oracles, and otherwise the ray
    read of ``oracle._derivatives``, one stack of the nodes of every
    direction (8 per direction, d + 2 for a map declared polynomial of
    degree d)."""
    return _jacobian(f, X, _unit_directions(f.g, X.n, f.field))


def _in_field(f: FreeMapOracle, name: str, T: MatTuple) -> MatTuple:
    """T as floats of f's field: a complex T of a real map is refused."""
    if T.field == "complex" and f.field == "real":
        raise ValueError(f"{name} is complex but {f.name or 'the map'} is a real map")
    return MatTuple._checked([np.asarray(m, complex if f.field == "complex" else float) for m in T.mats], f.field)


def _newton(f: FreeMapOracle, Y: MatTuple, X: MatTuple, head: tuple, tol: float, maxit: int) -> NewtonTrace:
    """The body of ``newton_invert`` and ``implicit_numeric``: solve f(head, X) = Y from X,
    the first components ``head`` held fixed, with Jacobians along the unit directions of X."""
    if maxit < 0:
        raise ValueError(f"maxit must be >= 0, got {maxit}")
    E = _unit_directions(X.g, X.n, f.field)
    E = np.concatenate([np.zeros((len(head),) + E.shape[1:]), E])  # zero on the fixed block
    at = (lambda Z: MatTuple._checked(head + Z.mats, f.field)) if head else (lambda Z: Z)  # f's input
    calls0 = f.calls
    trace = NewtonTrace()
    fX = f(at(X))
    res = fX.max_diff(Y)
    start, history = (X, fX, res), [res]
    J, kept, broyden = None, False, True  # kept: J is updated across iterates, not assembled at each
    for _ in range(maxit):
        if res < tol:
            break
        if len(history) > STALL_ITERS and res > STALL_FACTOR * history[-1 - STALL_ITERS]:
            if not kept:
                trace.reason = "stagnated"
                break
            # Broyden's path can stall where a Jacobian per iterate converges
            (X, fX, res), history, J, broyden = start, [start[2]], None, False
        cond = math.inf if J is None else float(np.linalg.cond(J))
        if not cond <= 1e14:  # no Jacobian kept, or the kept one fails (a NaN fails too)
            c = f.calls
            J = _jacobian(f, at(X), E)
            trace.jacobians += 1
            kept = broyden and f.calls > c
            cond = float(np.linalg.cond(J))
            if not cond <= 1e14:
                raise NewtonError(f"singular derivative (condition estimate {cond:.3g})")
        trace.cond = cond
        r = _vec(fX) - _vec(Y)
        delta = np.linalg.solve(J, r)
        step = 2.0
        for _ in range(MAX_HALVINGS + 1):  # the last, most halved step is taken unchecked
            step /= 2.0
            Xn = X - _unvec(step * delta, X.g, X.n, f.field)
            fXn = f(at(Xn))
            rn = fXn.max_diff(Y)
            if rn < res or rn < tol:
                break
        if kept and step == 1.0:  # Broyden: s = -delta, y = the change of the residual
            J = J - np.outer(_vec(fXn) - _vec(Y) - r + J @ delta, delta) / (delta @ delta)
        else:
            J = None
        X, fX, res = Xn, fXn, rn
        history.append(res)
        trace.iterates.append((res, float(step * np.linalg.norm(delta))))
    trace.converged = res < tol
    trace.reason = "converged" if trace.converged else trace.reason
    trace.X = X
    trace.evaluations = f.calls - calls0
    return trace


def newton_invert(
    f: FreeMapOracle,
    Y: MatTuple,
    X0: MatTuple | None = None,
    tol: float = 1e-12,
    maxit: int = 50,
) -> NewtonTrace:
    """Solve f(X) = Y levelwise by damped Newton iteration.  Each tried
    step costs one value of f; the accepted one is the next residual and
    right-hand side.  The iteration stops when the residual is below
    ``tol`` (converged), when it is above STALL_FACTOR times its value
    STALL_ITERS iterations earlier (stagnated: f(X) = Y may have no
    solution near the path), or after ``maxit`` iterations.

    The Jacobian is assembled at the start.  When that cost no oracle
    calls (the product rule of a polynomial oracle), it is assembled
    again at every iterate.  Otherwise (the ray reads of a black box, 8
    calls per coordinate direction) it is kept: after a full step
    s with residual change y, Broyden's rank-one update
    J + (y - J s) s^t / (s^t s) in the real coordinates of ``_vec``
    carries it to the next iterate, and it is assembled afresh after a
    damped step or when the kept one fails the condition test.  A kept
    solve that stagnates runs once more from its start with a Jacobian
    at every iterate (Broyden's path can stall where that one
    converges); ``maxit`` bounds both runs, and ``iterates`` holds both.
    Only a freshly assembled singular Jacobian raises NewtonError.
    ``evaluations`` counts the oracle calls made, ``jacobians`` the
    Jacobians assembled.  ``Y`` and ``X0`` are taken as floats of the
    map's field: a real one of a complex map is promoted first."""
    if f.g != f.gprime:
        raise ValueError("newton inversion needs matching input/output arity")
    if Y.g != f.gprime:
        raise ValueError(f"target Y has {Y.g} components, the map has {f.gprime} outputs")
    n = Y.n
    if X0 is not None and (X0.g, X0.n) != (f.g, n):
        raise ValueError(f"start X0 has g={X0.g}, n={X0.n}; the map takes g={f.g} and the target Y has n={n}")
    Y = _in_field(f, "target Y", Y)
    X0 = MatTuple.zeros(f.g, n, f.field) if X0 is None else _in_field(f, "start X0", X0)
    return _newton(f, Y, X0, (), tol, maxit)


# -- implicit function -------------------------------------------------


def implicit_formal(
    f: FreeMapOracle, g1: int, D: int, tol: float = 1e-8
) -> Tuple[FormalSeries, ...]:
    """Series h with f(x, h(x)) = O(degree D+1), from the inverse of the
    augmented map (x, y) -> (x, f(x, y)).  Requires f(0,0) = 0 and
    invertible partial derivative in the y block."""
    g2 = f.g - g1
    if g2 != f.gprime:
        raise ValueError("implicit solve expects g' = g - g1 outputs")
    if f.polys is not None:
        Fser = tuple(FormalSeries.from_ncpoly(p, D) for p in f.polys)
    else:
        Fser = taylor_at_zero(f, D, tol=tol).series
    mode = Fser[0].mode
    for s in Fser:
        if abs(s.constant_part()) > tol:
            raise ValueError("implicit solve needs f(0,0) = 0")
    Fser = tuple(_from_length(s, 1) for s in Fser)
    ident = FormalSeries.identity_tuple(f.g, D, mode)
    aug = tuple(ident[:g1]) + Fser
    Haug = formal_inverse(aug, D)
    # h(x) = last g2 components at (x_1..x_g1, 0..0)
    zero = FormalSeries.zero(D, mode)
    return compose_tuple(Haug[g1:], tuple(ident[:g1]) + (zero,) * g2)


def implicit_residual(f: FreeMapOracle, g1: int, h: Sequence[FormalSeries]) -> float:
    """Max coefficient of f(x, h(x)) up to the truncation order."""
    if f.polys is None:
        raise ValueError("residual check needs a symbolic oracle")
    D = min(s.order for s in h)
    mode = h[0].mode
    ident = FormalSeries.identity_tuple(g1, D, mode)
    comp = compose_tuple([FormalSeries.from_ncpoly(p, D) for p in f.polys], tuple(ident) + tuple(h))
    zero = FormalSeries.zero(D, mode)
    return float(max((s.max_coeff_diff(zero) for s in comp), default=0.0))


def implicit_numeric(
    f: FreeMapOracle,
    g1: int,
    xhat: MatTuple,
    tol: float = 1e-12,
    maxit: int = 50,
) -> NewtonTrace:
    """Solve f(xhat, y) = 0 for y by Newton at a concrete point, from y = 0:
    the body of ``newton_invert`` on f with the x block held at xhat, so
    ``polys`` picks the Jacobian's route as for inversion (the product
    rule, or ray reads through one ``f.stack`` per Jacobian).
    ``evaluations`` are calls of f.  xhat is taken as floats of the
    map's field."""
    if not 1 <= g1 < f.g:
        raise ValueError(f"split g1={g1} must be in 1 .. {f.g - 1} for a map of g={f.g} inputs")
    if xhat.g != g1:
        raise ValueError(f"point xhat has g={xhat.g} components, the split is g1={g1}")
    if f.g - g1 != f.gprime:
        raise ValueError("implicit solve expects g' = g - g1 outputs")
    xhat = _in_field(f, "point xhat", xhat)
    Z = MatTuple.zeros(f.gprime, xhat.n, f.field)
    return _newton(f, Z, Z, xhat.mats, tol, maxit)


# -- injectivity obstruction ------------------------------------------


@dataclass
class InjectivityReport:
    values_equal: bool
    value_gap: float
    offdiag_image_norm: Optional[float] = None
    min_singular_value: Optional[float] = None
    note: str = ""


def injectivity_check(f: FreeMapOracle, X1: MatTuple, X2: MatTuple) -> InjectivityReport:
    """When f(X1) = f(X2), the derivative at X1 + X2 (block diag) kills
    the off-diagonal direction built from X1 - X2; a near-zero smallest
    singular value of the assembled derivative certifies the
    obstruction (equal values force a singular derivative)."""
    gap = f(X1).max_diff(f(X2))
    if gap >= EQUAL_VALUES_TOL:
        return InjectivityReport(False, gap, note="values differ; no obstruction test applicable")
    Z = direct_sum(X1, X2)
    img = derivative(f, Z, offdiag_direction(X1, X2))[0]
    img_norm = img.norm()
    J = assemble_jacobian(f, Z)
    smin = float(np.linalg.svd(J, compute_uv=False)[-1])
    return InjectivityReport(
        True,
        gap,
        offdiag_image_norm=img_norm,
        min_singular_value=smin,
        note="equal values: derivative at the direct sum is singular along the off-diagonal direction",
    )
