"""Dense matrix engine: evaluation of all polynomial flavors on matrix
tuples, group sampling, symmetric matrix functions, and the linear
algebra of centralizers and generated subalgebras.

Every polynomial value is a sum of words on a letter stack: a tuple's
components and their adjoints, plus one slot kron(a, I_s) per coefficient
of a generalized polynomial.  One engine, ``_Walk``, computes all words
of a sum in one prefix walk, stacked over tuples when asked, in any
dtype, and adds the terms in order.

An NCPoly or a TracePoly is evaluated only through its ``_PolyPlan``,
made on first use and kept on the polynomial: ``values`` takes one tuple
or a stack of tuples, and the plan also keeps, once asked, the plan of
the product-rule derivative D p(X)[H] (``_derivative_plan``).  Exact
evaluation (object arrays of int or Fraction entries and coefficients)
runs the same walk on integers: the common denominators are cleared
once, the walk is int64 only when a bound proves that nothing overflows
(Python ints otherwise), and the sum is divided once at the end.  Other
object entries keep plain Python arithmetic.  Random tuples and group
elements come in blocks of T (``standard_block``, ``group_block``), drawn
trial-major in one generator call: the stream of T single draws.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .genpoly import GenPoly
from .poly import NCPoly, TracePoly
from .words import Letter, Word, max_var

DEFAULT_TOL = 1e-8
RANK_CUTOFF = 1e-10

GROUPS = ("GL", "O", "U")


def _is_exact(m: np.ndarray) -> bool:
    return m.dtype == object


def adjoint(m: np.ndarray, field: str = "real") -> np.ndarray:
    """Transpose (real) or conjugate transpose (complex), of each matrix of
    a stack."""
    return (m.conj() if field == "complex" else m).swapaxes(-1, -2)


class MatTuple:
    """A g-tuple of n x n matrices over a declared field."""

    __slots__ = ("mats", "field")

    def __init__(self, mats: Sequence[np.ndarray], field: str = "real"):
        if field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
        mats = tuple(np.asarray(m) for m in mats)
        if not mats:
            raise ValueError("empty tuple")
        n = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (n, n):
                raise ValueError("components must be square matrices of equal size")
            if not _is_exact(m) and not np.all(np.isfinite(m)):
                raise ValueError("non-finite entries")
            if field == "real" and np.iscomplexobj(m):
                raise ValueError("complex entries in a real tuple")
        self.mats = mats
        self.field = field

    @classmethod
    def _checked(cls, mats, field: str) -> "MatTuple":
        """A tuple of components the caller has already checked (square
        arrays of one size, finite unless exact, complex only in a
        complex field), built without checking them again."""
        X = object.__new__(cls)
        X.mats, X.field = tuple(mats), field
        return X

    @property
    def g(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.mats[k]

    def __iter__(self):
        return iter(self.mats)

    def __len__(self):
        return len(self.mats)

    def norm(self) -> float:
        """Max operator 2-norm over components: ``stack_norms`` of one tuple."""
        return float(stack_norms(np.array(self.mats)))

    def _same_shape(self, other: "MatTuple") -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError(f"tuples differ in arity or size: "
                             f"g={self.g}, n={self.n} and g={other.g}, n={other.n}")

    def __add__(self, other: "MatTuple") -> "MatTuple":
        self._same_shape(other)
        return MatTuple([a + b for a, b in zip(self.mats, other.mats)], self.field)

    def __sub__(self, other: "MatTuple") -> "MatTuple":
        self._same_shape(other)
        return MatTuple([a - b for a, b in zip(self.mats, other.mats)], self.field)

    def scale(self, c) -> "MatTuple":
        field = "complex" if (self.field == "complex" or isinstance(c, complex)) else "real"
        return MatTuple([c * m for m in self.mats], field)

    def __rmul__(self, c):
        return self.scale(c)

    def max_diff(self, other: "MatTuple") -> float:
        """``stack_diffs`` of one pair of tuples."""
        self._same_shape(other)
        return float(stack_diffs(np.array(self.mats), np.array(other.mats)))

    def __repr__(self):
        return f"MatTuple(g={self.g}, n={self.n}, field={self.field})"

    @classmethod
    def zeros(cls, g: int, n: int, field: str = "real") -> "MatTuple":
        dt = complex if field == "complex" else float
        return cls([np.zeros((n, n), dtype=dt) for _ in range(g)], field)


def block_tuple(A, B, C, D) -> MatTuple:
    """The tuple of 2 x 2 block matrices [[A_k, B_k], [C_k, D_k]] built from
    the components of the g-tuples A, B, C, D, where None is a zero block;
    a zero block takes the size of its block row and column."""
    blocks = (A, B, C, D)
    given = [T for T in blocks if T is not None]
    n0 = (A or B or C).n
    halves = (slice(0, n0), slice(n0, None))
    cuts = [(rows, cols) for rows in halves for cols in halves]
    n = n0 + (D or C or B).n
    mats = []
    for k in range(given[0].g):
        m = np.zeros((n, n), dtype=np.result_type(*(T.mats[k] for T in given)))
        for T, cut in zip(blocks, cuts):
            if T is not None:
                m[cut] = T.mats[k]
        mats.append(m)
    return MatTuple(mats, given[0].field)


def direct_sum(X: MatTuple, Y: MatTuple) -> MatTuple:
    if X.g != Y.g or X.field != Y.field:
        raise ValueError("tuples must share arity and field")
    return MatTuple([direct_sums(a, b) for a, b in zip(X.mats, Y.mats)], X.field)


# -- stacks of tuples -------------------------------------------------
#
# A stack holds the components of T tuples at one level as one array of
# shape (g, T, n, n).  Each function below does per tuple what the
# MatTuple operation of the same idea does, with the same arithmetic.


def direct_sums(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The block diagonal matrices [[a, 0], [0, b]] of two stacks of blocks
    (..., m, m) and (..., n, n)."""
    m = A.shape[-1]
    out = np.zeros(A.shape[:-2] + (m + B.shape[-1],) * 2, dtype=np.result_type(A, B))
    out[..., :m, :m] = A
    out[..., m:, m:] = B
    return out


def stack_norms(A: np.ndarray) -> np.ndarray:
    """The max operator 2-norm over the components of each tuple of a
    stack: shape (T,); of one tuple (g, n, n), a scalar.  A matrix's norm
    is its first singular value, the one ``np.linalg.norm(m, 2)`` takes."""
    return np.linalg.svd(A, compute_uv=False)[..., 0].max(axis=0)


def stack_diffs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``stack_norms`` of the differences of each pair of tuples of two
    stacks, taken in complex arithmetic."""
    return stack_norms(np.asarray(A - B, dtype=complex))


def scaled_to(A: np.ndarray, norms) -> np.ndarray:
    """Each tuple of a stack scaled to the given norm, as ``random_mattuple``
    scales one (a zero tuple stays as it is)."""
    cur = stack_norms(A)
    c = np.divide(norms, cur, out=np.ones_like(cur), where=cur > 0)
    return A * c[:, None, None]


def conjugate(X: MatTuple, sigma: np.ndarray, group: str | None = None) -> MatTuple:
    """Componentwise sigma X_i sigma^{-1}, with a group-membership check."""
    sigma = np.asarray(sigma)
    n = X.n
    if sigma.shape != (n, n):
        raise ValueError("sigma size mismatch")
    if group == "O":
        if np.linalg.norm(sigma @ sigma.T - np.eye(n)) > DEFAULT_TOL:
            raise ValueError("sigma is not orthogonal within tolerance")
    elif group == "U":
        if np.linalg.norm(sigma @ sigma.conj().T - np.eye(n)) > DEFAULT_TOL:
            raise ValueError("sigma is not unitary within tolerance")
    try:
        inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as e:
        raise ValueError("sigma is singular") from e
    field = "complex" if (X.field == "complex" or np.iscomplexobj(sigma)) else "real"
    return MatTuple([sigma @ m @ inv for m in X.mats], field)


# -- evaluation -----------------------------------------------------


def _check_vars(k: int, g: int) -> None:
    if k > g:
        raise ValueError(f"word uses x{k} but tuple has {g} components")


def _letter_rows(g: int) -> Dict[Letter, int]:
    """The row of each letter in a letter stack: the g components, then
    their adjoints."""
    return {(k, starred): g * starred + k - 1 for starred in (False, True) for k in range(1, g + 1)}


# entries the buffer of one walk may hold: it caps how many tuples of a
# stack share a walk, so that memory stays bounded for long polynomials
_WALK_ENTRIES = 2**16


class _Walk:
    """A sum of terms ``(c, (u_1, ..., u_k), tail)``, each c tr(u_1)...
    tr(u_k) tail with words of letters that ``letter_rows`` maps to rows of
    a letter stack, planned once for many stacks.  The walk fills one
    buffer: the letter stack, the unit word when a word is empty, then the
    longer prefixes level by level, each level grouped by last letter into
    one stacked matmul of the parents (a slice when contiguous) by that
    letter."""

    def __init__(self, terms, letter_rows: dict):
        words = [w for _, pure, tail in terms for w in (*pure, tail)]
        rows = {(u,): r for u, r in letter_rows.items()}
        levels: List[Dict[object, list]] = [{} for _ in range(max(map(len, words), default=0) - 1)]
        seen = set()
        for w in words:
            for l in range(len(w), 1, -1):
                if w[:l] in seen:
                    break
                seen.add(w[:l])
                levels[l - 2].setdefault(w[l - 1], []).append(w[:l])
        self.letters, self.unit = len(letter_rows), () in words
        rows[()], self.size = self.letters, self.letters + self.unit
        self.steps = []
        for level in levels:
            for u, ps in level.items():
                parents = [rows[p[:-1]] for p in ps]
                p0, a, b = parents[0], self.size, self.size + len(ps)
                run = parents == list(range(p0, p0 + len(ps)))
                self.steps.append((letter_rows[u], a, b, slice(p0, p0 + len(ps)) if run else np.array(parents)))
                rows.update(zip(ps, range(a, b)))
                self.size = b
        self.coeffs = np.array([c for c, _, _ in terms])
        self.tail_rows = np.array([rows[t] for _, _, t in terms], dtype=np.intp)
        self.traced = [(k, [rows[u] for u in pure]) for k, (_, pure, _) in enumerate(terms) if pure]

    def _pieces(self, letters: Sequence[np.ndarray]) -> list:
        """The letter stack ``letters`` (r, ..., n, n) in pieces, each with
        the slice of the tuple axis it holds: one piece, unless a stack of
        tuples needs more to keep each buffer within _WALK_ENTRIES."""
        L0 = letters[0]
        if L0.ndim < 4 or self.size * L0[0].size <= _WALK_ENTRIES:
            return [(slice(None), letters)]
        step = max(1, _WALK_ENTRIES // (self.size * L0[0, 0].size))
        return [(slice(t, t + step), [L[:, t : t + step] for L in letters])
                for t in range(0, L0.shape[1], step)]

    def _fill(self, letters: Sequence[np.ndarray]) -> np.ndarray:
        """The buffer of one piece: its letters, the unit, every prefix."""
        B = np.empty((self.size,) + letters[0].shape[1:], dtype=np.result_type(*letters))
        np.concatenate(letters, out=B[: self.letters])
        if self.unit:
            B[self.letters] = np.eye(B.shape[-1], dtype=B.dtype)
        for r, a, b, parents in self.steps:
            np.matmul(B[parents], B[r], out=B[a:b])
        return B

    def tails(self, letters: Sequence[np.ndarray]) -> np.ndarray:
        """The unweighted terms, each tail's value on the letter stack
        ``letters``: shape (terms, ..., n, n).  Each value is added to 0, as
        the sum of ``__call__`` is, so that a -0.0 entry reads 0.0 here too."""
        out = np.empty((len(self.tail_rows),) + letters[0].shape[1:], dtype=np.result_type(*letters))
        for cut, piece in self._pieces(letters):
            np.add(self._fill(piece)[self.tail_rows], 0.0, out=out[:, cut])
        return out

    def __call__(self, letters: Sequence[np.ndarray], dtype, coeffs=None) -> np.ndarray:
        """The sum on the stack of the blocks ``letters`` (r, ..., n, n), with
        the array ``coeffs`` for the plan's when given; zeros of ``dtype``
        if empty.  The weights c tr(u_1)...tr(u_k), per tuple on a stack of
        tuples, multiply their tails at once, and one reduction adds the
        products in term order, bit for bit a sequential sum."""
        pieces = self._pieces(letters)
        if len(pieces) > 1:
            return np.concatenate([self(piece, dtype, coeffs) for _, piece in pieces])
        B = self._fill(letters)
        C = self.coeffs if coeffs is None else coeffs
        if self.traced:
            weights = C.tolist()
            for k, us in self.traced:
                for u in us:
                    weights[k] = weights[k] * np.trace(B[u], axis1=-2, axis2=-1)
            C = np.array(np.broadcast_arrays(*weights))
        P = C.reshape(C.shape + (1,) * (B.ndim - C.ndim)) * B[self.tail_rows]
        # add.reduce adds the terms in order, but pairwise on a lone entry,
        # where accumulate keeps the -0.0 that reduce drops: floats add 0.0
        lone = len(C) and P[0].size == 1
        acc = np.zeros(B.shape[1:], dtype) if not len(C) else np.add.accumulate(P)[-1] if lone else np.add.reduce(P)
        return acc + 0.0 if lone and acc.dtype.kind in "fc" else acc


class _PolyPlan(_Walk):
    """The walk of an NCPoly or a TracePoly on g-tuples.  When every
    coefficient is an int or a Fraction (``exact``) it also keeps what
    evaluating over the integers needs: the LCD L of the coefficients,
    the degree D, each term's integer coefficient c L and degree, and the
    summed weights of each term shape that the overflow bound needs.
    ``derivative`` is the plan of the polynomial's product-rule
    derivative, made on first use (see ``_derivative_plan``)."""

    def __init__(self, p, g: int):
        _check_vars(p.num_vars(), g)
        items = ([(c, (), w) for w, c in p.coeffs.items()] if isinstance(p, NCPoly)
                 else [(c, pure, tail) for (pure, tail), c in p.coeffs.items()])
        super().__init__(items, _letter_rows(g))
        self.g, self.derivative = g, None
        self.exact = all(isinstance(c, (int, Fraction)) for c, _, _ in items)
        if self.exact:
            self.L = math.lcm(*(c.denominator for c, _, _ in items))
            self.int_coeffs, self.shapes = [], {}
            for c, pure, tail in items:
                c = int(c * self.L)
                self.int_coeffs.append((c, sum(map(len, pure)) + len(tail)))
                shape = (len(tail), tuple(sorted(map(len, pure))))
                self.shapes[shape] = self.shapes.get(shape, 0) + max(abs(c), 1)
            self.D = max((m for _, m in self.int_coeffs), default=0)

    def bound(self, n: int, M: int, d: int) -> int:
        """Cap on every entry, product and partial sum of the walk on n x n
        integer matrices with entries at most M in size, each term of
        degree m weighted d^(D - m): a product of l factors has entries at
        most n^(l-1) M^l and a trace at most n^l M^l."""
        M = max(M, 1)
        total = 0
        for (l, traced), w in self.shapes.items():
            b = w * d ** (self.D - l - sum(traced)) * n ** max(l - 1, 0) * M**l
            for u in traced:
                b *= (n * M) ** max(u, 1)
            total += b
        return total

    def values(self, A: np.ndarray, field: str) -> np.ndarray:
        """p on the components A of one g-tuple, shape (g, n, n), or of a
        stack of T of them, shape (g, T, n, n).  When every entry and
        coefficient is an int or a Fraction the walk runs over the
        integers d A, d the common denominator of all entries; a term of
        degree m is weighted d^(D - m), so each value is one integer sum
        divided by L d^D (Python ints, or Fractions when a denominator
        remains).  Other tuples keep their own arithmetic."""
        exact = A.dtype == object
        cleared = exact and self.exact and _clear_denominators(A)
        if not cleared:
            return self((A, adjoint(A, field)), object if exact else None)
        N, d = cleared
        N = _narrowed(N, self.bound(A.shape[-1], _max_abs(N), d))
        coeffs = np.array([c * d ** (self.D - m) for c, m in self.int_coeffs])
        return _exact_quotient(self((N, N.swapaxes(-1, -2)), N.dtype, coeffs), self.L * d**self.D)

    def value(self, X: MatTuple) -> np.ndarray:
        return self.values(np.array(X.mats), X.field)


def _plan(p, g: int) -> _PolyPlan:
    """p's plan on g-tuples, made on first use and kept on p: a polynomial
    does not change once built, and oracles evaluate one on many tuples."""
    if not isinstance(p, (NCPoly, TracePoly)):
        raise TypeError(f"{type(p).__name__} is not an NCPoly or a TracePoly")
    if g not in p._plans:
        p._plans[g] = _PolyPlan(p, g)
    return p._plans[g]


def _derivative_plan(p: NCPoly, g: int) -> _PolyPlan:
    """The plan of D p(X)[H] on 2g-tuples (X, H), kept beside p's plan on
    g-tuples.  By the product rule a word w spawns len(w) words, each
    with one letter x_k replaced by x_(g+k), its H-letter, in (word,
    position) order."""
    plan = _plan(p, g)
    if plan.derivative is None:
        spawned = {w[:i] + ((k + g, starred),) + w[i + 1:]: c
                   for w, c in p.coeffs.items() for i, (k, starred) in enumerate(w)}
        plan.derivative = _PolyPlan(NCPoly(spawned, p.mode), 2 * g)
    return plan.derivative


def eval_word(w: Word, X: MatTuple) -> np.ndarray:
    """Product of components (and their adjoints) in word order."""
    return eval_ncpoly(NCPoly.from_word(w), X)


def eval_ncpoly(p: NCPoly, X: MatTuple) -> np.ndarray:
    return _plan(p, X.g).value(X)


def eval_tracepoly(p: TracePoly, X: MatTuple) -> np.ndarray:
    return _plan(p, X.g).value(X)


def eval_stack(polys: Sequence, A: np.ndarray, field: str) -> np.ndarray:
    """The NCPolys or TracePolys ``polys`` on each g-tuple of the stack A
    (g, T, n, n): shape (len(polys), T, n, n), one walk per polynomial."""
    return np.stack([_plan(p, A.shape[0]).values(A, field) for p in polys])


# -- exact evaluation on integers ------------------------------------

_INT64_MAX = 2**63 - 1


def _clear_denominators(A: np.ndarray):
    """``(N, d)`` with ``A == N / d`` entry by entry, where d is the least
    common denominator of all entries and N an object array of Python
    ints; None unless every entry is an int or a Fraction."""
    flat = A.ravel().tolist()
    if not all(isinstance(v, (int, Fraction)) for v in flat):
        return None
    d = math.lcm(*(v.denominator for v in flat))
    return np.array([int(v * d) for v in flat], dtype=object).reshape(A.shape), d


def _max_abs(A: np.ndarray) -> int:
    return max((abs(v) for v in A.ravel().tolist()), default=0)


def _narrowed(A: np.ndarray, bound: int) -> np.ndarray:
    """The Python-int array A as int64 when ``bound`` caps every entry,
    product and partial sum computed from it, else A unchanged."""
    return A.astype(np.int64, order="C") if bound <= _INT64_MAX else A


def _exact_quotient(N: np.ndarray, q: int) -> np.ndarray:
    """N / q as an object array: Python ints when q == 1, else Fractions."""
    if q == 1:
        return N.astype(object)
    return np.array([Fraction(v, q) for v in N.ravel().tolist()], dtype=object).reshape(N.shape)


def eval_genpoly(p: GenPoly, X: MatTuple) -> np.ndarray:
    """Evaluate at level ns; coefficients a act as kron(a, I_s).  A term
    a_0 u_1 a_1 ... u_m a_m is one word in the letters of X and one slot
    kron(a, I_s) per distinct coefficient array."""
    if X.n % p.n:
        raise ValueError(f"evaluation size {X.n} is not a multiple of coefficient size {p.n}")
    _check_vars(max((max_var(t.letters) for t in p.terms), default=0), X.g)
    eye_s = np.eye(X.n // p.n, dtype=X.mats[0].dtype)
    coeffs = {id(a): a for t in p.terms for a in t.mats}
    letter_rows = {**_letter_rows(X.g), **{key: 2 * X.g + i for i, key in enumerate(coeffs)}}
    words = [(id(t.mats[0]),) + sum(((u, id(a)) for u, a in zip(t.letters, t.mats[1:])), ()) for t in p.terms]
    slots = [np.kron(a, eye_s) for a in coeffs.values()]
    exact, A = _is_exact(X.mats[0]), np.array(X.mats)
    out = _Walk([(1, (), w) for w in words], letter_rows)(
        (A, adjoint(A, X.field)) + ((np.array(slots),) if slots else ()), object if exact else complex)
    real = not exact and not any(map(np.iscomplexobj, X.mats + tuple(slots)))
    return out.real if real else out


def eval_poly(p, X: MatTuple) -> np.ndarray:
    """Dispatch over the three polynomial flavors."""
    if isinstance(p, GenPoly):
        return eval_genpoly(p, X)
    return _plan(p, X.g).value(X)


# -- random sampling ------------------------------------------------


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_group_element(group: str, n: int, seed=0, field: str | None = None) -> np.ndarray:
    """Random element of GL_n / O_n / U_n: a ``group_block`` of one."""
    return group_block(group, n, 1, _rng(seed), field)[0]


def group_block(group: str, n: int, T: int, rng: np.random.Generator, field: str | None = None) -> np.ndarray:
    """T random elements of GL_n / O_n / U_n, a stack (T, n, n) drawn
    trial-major in one call, an element's real part before its imaginary
    part.  O and U are Haar: one stacked QR of standard-normal matrices
    ((x + iy)/sqrt 2 for U), Q's columns fixed by the sign/phase of R's
    diagonal.  GL keeps standard-normal matrices (x + iy when ``field``
    is complex) of condition number below 1e6 and redraws the others as
    one block until none is left."""
    return _group_block(group, n, T, rng, field)[0]


def _group_block(group: str, n: int, T: int, rng: np.random.Generator,
                 field: str | None = None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``group_block`` and, for GL, the condition numbers its rejection
    test computed (None for O and U, which compute none)."""
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}")
    cplx = group == "U" or (group == "GL" and field == "complex")

    def draw(k: int) -> np.ndarray:
        if not cplx:
            return rng.standard_normal((k, n, n))
        z = rng.standard_normal((k, 2, n, n))
        return z[:, 0] + 1j * z[:, 1]

    if group == "GL":
        S = draw(T)
        cond = np.linalg.cond(S)
        bad = np.flatnonzero(~(cond < 1e6))  # a NaN condition number is rejected too
        while bad.size:
            S[bad] = draw(bad.size)
            cond[bad] = np.linalg.cond(S[bad])
            bad = bad[~(cond[bad] < 1e6)]
        return S, cond
    q, r = np.linalg.qr(draw(T) / np.sqrt(2) if cplx else draw(T))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[:, None, :], None


def random_mattuple(
    g: int, n: int, seed=0, field: str = "real", norm: float | None = None
) -> MatTuple:
    """Standard-normal tuple, optionally rescaled to a given norm."""
    mats = standard_mats(g, n, _rng(seed), field)
    if norm is None:
        return MatTuple(mats, field)
    return MatTuple(list(scaled_to(np.stack(mats)[:, None], [norm])[:, 0]), field)


def standard_mats(g: int, n: int, rng: np.random.Generator, field: str = "real") -> List[np.ndarray]:
    """The components of a standard-normal g-tuple: a ``standard_block`` of one."""
    return list(standard_block(g, n, 1, rng, field)[:, 0])


def standard_block(g: int, n: int, T: int, rng: np.random.Generator, field: str = "real") -> np.ndarray:
    """T standard-normal g-tuples, a stack (g, T, n, n) drawn trial-major as
    one (T, g, n, n) draw, or (T, g, 2, n, n) when complex (each component
    (x + iy)/sqrt 2, its real part x drawn before its imaginary part y)."""
    if field == "complex":
        z = rng.standard_normal((T, g, 2, n, n))
        A = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2)
    else:
        A = rng.standard_normal((T, g, n, n))
    return np.ascontiguousarray(A.swapaxes(0, 1))


def scaled_block(g: int, n: int, T: int, rng: np.random.Generator, field: str, radius, low: float) -> np.ndarray:
    """A ``standard_block``, tuple t scaled to the norm radius * u_t (radius
    a scalar or one per tuple), the T uniforms u_t on [low, 1) drawn first."""
    u = rng.uniform(low, 1.0, T)
    return scaled_to(standard_block(g, n, T, rng, field), radius * u)


# -- symmetric matrix functions --------------------------------------


def sym_matrix_function(tag, S: np.ndarray) -> np.ndarray:
    """Spectral calculus on a symmetric/hermitian matrix.

    ``tag`` is "sin", "cos", ("pow", alpha) with alpha > 0 acting on
    a nonnegative spectrum (eigenvalues below -1e-10 are an error,
    round-off negatives are clipped to zero), or a function of the array
    of eigenvalues: one decomposition serves any function of them.
    """
    S = np.asarray(S)
    field = "complex" if np.iscomplexobj(S) else "real"
    if np.linalg.norm(S - adjoint(S, field)) > DEFAULT_TOL * max(1.0, np.linalg.norm(S)):
        raise ValueError("matrix is not symmetric/hermitian within tolerance")
    return _spectral(tag, S)


def _spectral(tag, S: np.ndarray) -> np.ndarray:
    """``sym_matrix_function`` of a matrix S symmetric/hermitian by
    construction (x x^t, x + x^t), without the symmetry check."""
    w, v = np.linalg.eigh(S)
    if isinstance(tag, tuple) and tag[0] == "pow":
        alpha = tag[1]
        if alpha <= 0:
            raise ValueError("pow exponent must be positive")
        if np.any(w < -1e-10):
            raise ValueError(f"negative eigenvalue {w.min()} under pow({alpha})")
        w = np.clip(w, 0.0, None) ** alpha
    elif tag == "sin":
        w = np.sin(w)
    elif tag == "cos":
        w = np.cos(w)
    elif callable(tag):
        w = tag(w)
    else:
        raise ValueError(f"unsupported function tag {tag!r}")
    return (v * w) @ adjoint(v, "complex" if np.iscomplexobj(S) else "real")


# -- subspaces ------------------------------------------------------


class SubspaceBasis:
    """Trace-orthonormal basis of a subspace of M_n."""

    __slots__ = ("n", "mats")

    def __init__(self, n: int, mats: Sequence[np.ndarray]):
        self.n = n
        self.mats = tuple(np.asarray(m) for m in mats)
        for m in self.mats:
            if m.shape != (n, n):
                raise ValueError("basis size mismatch")

    @property
    def dim(self) -> int:
        return len(self.mats)

    def project(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M)
        out = np.zeros_like(M, dtype=np.result_type(M, *self.mats) if self.mats else None)
        for b in self.mats:
            out = out + np.vdot(b, M) * b
        return out

    def residual(self, M: np.ndarray) -> float:
        """Frobenius distance from M to its projection onto the span."""
        M = np.asarray(M)
        if M.shape != (self.n, self.n):
            raise ValueError("size mismatch")
        return float(np.linalg.norm(M - self.project(M)))

    def __iter__(self):
        return iter(self.mats)

    def __repr__(self):
        return f"SubspaceBasis(n={self.n}, dim={self.dim})"


def subspace_residual(M: np.ndarray, V: SubspaceBasis) -> float:
    return V.residual(M)


def orthonormalize(mats: Iterable[np.ndarray], n: int) -> SubspaceBasis:
    """SVD-based orthonormal basis of the span, under the trace inner
    product (= Frobenius inner product of flattened matrices).  Complex
    when any matrix is, else real."""
    mats = [np.asarray(m) for m in mats]
    if not mats:
        return SubspaceBasis(n, [])
    A = np.array(mats, dtype=complex if any(map(np.iscomplexobj, mats)) else float).reshape(len(mats), -1)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0
    return SubspaceBasis(n, list(vh[:rank].reshape(rank, n, n)))


def matrix_units(n: int) -> List[np.ndarray]:
    """The n^2 matrix units e_ij, row-major: the rows of I_(n^2)."""
    return list(np.eye(n * n).reshape(n * n, n, n))


def centralizer(B: Sequence[np.ndarray], n: int) -> SubspaceBasis:
    """Orthonormal basis of {c : cb = bc for all b in B}: the null space of
    the stacked constraints kron(I, b^t) - kron(b, I), which map the
    row-major vec of c to that of cb - bc (Horn & Johnson, Topics in
    Matrix Analysis, 4.3)."""
    B = [np.asarray(b) for b in B]
    for b in B:
        if b.shape != (n, n):
            raise ValueError("centralizer input size mismatch")
    if not B:
        return SubspaceBasis(n, matrix_units(n))
    eye = np.eye(n)
    A = np.concatenate([np.kron(eye, b.T) - np.kron(b, eye) for b in B])
    _, s, vh = np.linalg.svd(A)
    # the cutoff is relative to the larger of the top singular value and
    # the input scale: a numerically zero constraint matrix (e.g. B in
    # the scalars) must yield rank 0, not keep round-off noise
    scale = max(float(np.linalg.norm(b)) for b in B)
    smax = max(float(s[0]) if s.size else 0.0, scale)
    rank = int(np.sum(s > RANK_CUTOFF * smax))
    return SubspaceBasis(n, list(vh[rank:].reshape(-1, n, n)))


def generated_algebra(A: MatTuple, with_involution: bool) -> SubspaceBasis:
    """Span closure of the unital subalgebra generated by the tuple
    (and its adjoints when ``with_involution``)."""
    n = A.n
    gens = list(A.mats)
    if with_involution:
        gens += [adjoint(m, A.field) for m in A.mats]
    basis = orthonormalize([np.eye(n)] + gens, n)
    for _ in range(n * n + 1):
        candidates = list(basis.mats)
        for b in basis.mats:
            for gmat in gens:
                candidates.append(b @ gmat)
        new = orthonormalize(candidates, n)
        if new.dim == basis.dim:
            return new
        basis = new
    return basis
