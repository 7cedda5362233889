"""Dense matrix engine: evaluation of all polynomial flavors on matrix
tuples, group sampling, symmetric matrix functions, and the linear
algebra of centralizers and generated subalgebras.

NCPolys and TracePolys are read through one term view, a (coefficient,
traced words, tail) triple per term, so both flavors share one float
loop and one integer walk.  All numerics are double precision; exact
evaluation is available by passing object-dtype arrays (e.g. Fraction
or int entries).  Exact evaluation runs on integers: the tuple's common
denominator d and the coefficients' LCD are cleared once, every product
is an integer matrix product, and the sum is divided once at the end.
The integer arrays are int64 only when a bound on every entry, product
and partial sum proves that nothing overflows; otherwise they hold
Python ints, through the same code.  Entries or coefficients that are
neither int nor Fraction (floats or complex numbers in an object array)
keep plain Python arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .genpoly import GenPoly
from .poly import NCPoly, TracePoly
from .words import Word

DEFAULT_TOL = 1e-8
RANK_CUTOFF = 1e-10

GROUPS = ("GL", "O", "U")


def _is_exact(m: np.ndarray) -> bool:
    return m.dtype == object


def adjoint(m: np.ndarray, field: str = "real") -> np.ndarray:
    """Transpose (real) or conjugate transpose (complex)."""
    return m.conj().T if field == "complex" else m.T


def eye_like(n: int, ref: np.ndarray) -> np.ndarray:
    if _is_exact(ref):
        m = np.zeros((n, n), dtype=object)
        for i in range(n):
            m[i, i] = 1
        return m
    return np.eye(n, dtype=ref.dtype)


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
        """Max operator 2-norm over components."""
        return max(float(np.linalg.norm(m, 2)) for m in self.mats)

    def __add__(self, other: "MatTuple") -> "MatTuple":
        return MatTuple([a + b for a, b in zip(self.mats, other.mats)], self.field)

    def __sub__(self, other: "MatTuple") -> "MatTuple":
        return MatTuple([a - b for a, b in zip(self.mats, other.mats)], self.field)

    def scale(self, c) -> "MatTuple":
        field = "complex" if (self.field == "complex" or isinstance(c, complex)) else "real"
        return MatTuple([c * m for m in self.mats], field)

    def __rmul__(self, c):
        return self.scale(c)

    def max_diff(self, other: "MatTuple") -> float:
        return max(
            float(np.linalg.norm(np.asarray(a - b, dtype=complex), 2))
            for a, b in zip(self.mats, other.mats)
        )

    def __repr__(self):
        return f"MatTuple(g={self.g}, n={self.n}, field={self.field})"

    @classmethod
    def zeros(cls, g: int, n: int, field: str = "real") -> "MatTuple":
        dt = complex if field == "complex" else float
        return cls([np.zeros((n, n), dtype=dt) for _ in range(g)], field)


def direct_sum(X: MatTuple, Y: MatTuple) -> MatTuple:
    if X.g != Y.g or X.field != Y.field:
        raise ValueError("tuples must share arity and field")
    mats = []
    for a, b in zip(X.mats, Y.mats):
        m = np.zeros((X.n + Y.n, X.n + Y.n), dtype=np.result_type(a, b))
        m[: X.n, : X.n] = a
        m[X.n :, X.n :] = b
        mats.append(m)
    return MatTuple(mats, X.field)


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


def eval_word(w: Word, X: MatTuple, cache: Dict[Word, np.ndarray] | None = None) -> np.ndarray:
    """Product of components (and their adjoints) in word order."""
    if cache is None:
        cache = {}
    w = tuple(w)
    if w in cache:
        return cache[w]
    if not w:
        out = eye_like(X.n, X.mats[0])
    else:
        prefix = eval_word(w[:-1], X, cache)
        k, starred = w[-1]
        if k > X.g:
            raise ValueError(f"word uses x{k} but tuple has {X.g} components")
        m = adjoint(X.mats[k - 1], X.field) if starred else X.mats[k - 1]
        out = prefix.dot(m) if len(w) > 1 else m
    cache[w] = out
    return out


def _zeros(X: MatTuple) -> np.ndarray:
    """The value of the zero polynomial: object zeros on an exact tuple."""
    return np.zeros((X.n, X.n), dtype=object if _is_exact(X.mats[0]) else None)


def _terms(p):
    """The term view of an NCPoly or TracePoly: one ``(coefficient, traced
    words, tail)`` per term, where the term is c tr(u_1)...tr(u_k) tail
    (no traced words for an NCPoly)."""
    if isinstance(p, NCPoly):
        return [(c, (), w) for w, c in p.coeffs.items()]
    if isinstance(p, TracePoly):
        return [(c, pure, tail) for (pure, tail), c in p.coeffs.items()]
    raise TypeError(f"{type(p).__name__} is not an NCPoly or a TracePoly")


def _eval_terms(items, X: MatTuple) -> np.ndarray:
    """The sum of the terms ``items`` (see ``_terms``) at X: over the
    integers when every entry and coefficient is an int or a Fraction,
    else term by term in the entries' own arithmetic, words shared
    through one ``eval_word`` cache."""
    plan = _integer_plan(items, X.g) if _is_exact(X.mats[0]) else None
    vals = plan and _exact_values(plan, [X])
    if vals is not None:
        return next(vals)
    cache: Dict[Word, np.ndarray] = {}
    out = None
    for c, pure, tail in items:
        val = c
        for w in pure:
            val = val * np.trace(eval_word(w, X, cache))
        term = val * eval_word(tail, X, cache)
        out = term if out is None else out + term
    return _zeros(X) if out is None else out


def eval_ncpoly(p: NCPoly, X: MatTuple) -> np.ndarray:
    return _eval_terms(_terms(p), X)


def eval_tracepoly(p: TracePoly, X: MatTuple) -> np.ndarray:
    return _eval_terms(_terms(p), X)


# -- exact evaluation on integers ------------------------------------

_INT64_MAX = 2**63 - 1


def _clear_denominators(arrays: Sequence[np.ndarray]):
    """``(A, d)`` with ``arrays[i] == A[i] / d`` entry by entry, where d is
    the least common denominator of all entries and A an object array of
    Python ints; None unless every entry is an int or a Fraction."""
    flat = [v for a in arrays for v in np.asarray(a).ravel().tolist()]
    if not all(isinstance(v, (int, Fraction)) for v in flat):
        return None
    d = math.lcm(*(v.denominator for v in flat))
    A = np.array([int(v * d) for v in flat], dtype=object)
    return A.reshape((len(arrays),) + np.shape(arrays[0])), d


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


def _prefix_plan(words: Iterable[Word], g: int):
    """``(levels, steps)`` for a walk over the prefixes of ``words``.

    ``levels[l]`` maps each distinct length-l prefix to its row in level l
    (level 0 is the unit word); rows are grouped by last letter, whose
    row in the letter stack is k - 1 for x_k and g + k - 1 for x_k*.
    ``steps[l - 1]`` holds the row of each word's prefix in level l - 1
    and, per letter, its row and the slice of level l ending in it."""
    prefixes: List[Dict[Word, None]] = [{(): None}]
    for w in words:
        prefixes.extend({} for _ in range(len(w) + 1 - len(prefixes)))
        for l in range(len(w), 0, -1):
            if w[:l] in prefixes[l]:
                break
            prefixes[l][w[:l]] = None
    levels: List[Dict[Word, int]] = [{(): 0}]
    steps = []
    for ws in prefixes[1:]:
        keyed = []
        for w in ws:
            k, starred = w[-1]
            if k > g:
                raise ValueError(f"word uses x{k} but tuple has {g} components")
            keyed.append((g * starred + k - 1, w))
        keyed.sort(key=lambda t: t[0])
        parents = np.array([levels[-1][w[:-1]] for _, w in keyed], dtype=np.intp)
        groups = []
        for i, (r, _) in enumerate(keyed):
            if not groups or groups[-1][0] != r:
                groups.append([r, i, i])
            groups[-1][2] = i + 1
        levels.append({w: i for i, (_, w) in enumerate(keyed)})
        steps.append((parents, groups))
    return levels, steps


def _walk(steps, A: np.ndarray):
    """Yield level by level the stacked products of a plan's words on the
    integer tuples A of shape (g, T, n, n): each word's product is its
    prefix's times its last letter, one batched matmul per letter."""
    letters = np.concatenate([A, A.swapaxes(-1, -2)])
    P = np.broadcast_to(np.eye(A.shape[-1], dtype=A.dtype), (1,) + A.shape[1:])
    yield P
    for parents, groups in steps:
        Q = np.empty((len(parents),) + A.shape[1:], dtype=A.dtype)
        for r, a, b in groups:
            np.matmul(P[parents[a:b]], letters[r], out=Q[a:b])
        P = Q
        yield P


class _IntegerPlan:
    """What evaluating p over the integers needs that no tuple changes:
    the LCD L of its coefficients, its degree D, its terms split into
    trace-free ones (an integer weight per tail word, level by level of
    the tail walk) and traced ones, the walk plans of the tails and of the
    traced words (see ``_prefix_plan``), and the summed weights of each
    term shape that the overflow bound needs."""

    def __init__(self, items, g: int):
        self.L = math.lcm(*(c.denominator for c, _, _ in items))
        self.D = 0
        self.traced = _prefix_plan((u for _, pure, _ in items for u in pure), g)
        self.tails = _prefix_plan((tail for _, _, tail in items), g)
        weights: Dict[Word, int] = {}
        self.traced_terms = []
        self.shapes: Dict[tuple, int] = {}
        for c, pure, tail in items:
            c, m = int(c * self.L), sum(map(len, pure)) + len(tail)
            self.D = max(self.D, m)
            weights[tail] = weights.get(tail, 0) + (0 if pure else c)
            if pure:
                self.traced_terms.append((c, pure, tail, m))
            shape = (len(tail), tuple(sorted(map(len, pure))))
            self.shapes[shape] = self.shapes.get(shape, 0) + max(abs(c), 1)
        self.tail_weights = []  # per tail level: the words ending a term, their rows, their weights
        for lev in self.tails[0]:
            words = [w for w in lev if w in weights]
            self.tail_weights.append((words, np.array([lev[w] for w in words], dtype=np.intp),
                                [weights[w] for w in words]))

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


def _integer_plan(items, g: int):
    """The ``_IntegerPlan`` of the terms ``items`` (see ``_terms``) on
    g-tuples; None unless every coefficient is an int or a Fraction."""
    if not all(isinstance(c, (int, Fraction)) for c, _, _ in items):
        return None
    return _IntegerPlan(items, g)


def _integer_sum(plan: _IntegerPlan, weights, traced_terms, A: np.ndarray) -> np.ndarray:
    """Sum of the plan's terms, weighted as ``weights`` (per tail level) and
    ``traced_terms`` say, on the stacked integer tuples A of shape
    (g, T, n, n): one walk for the traced words, then one for the tails."""
    T = A.shape[1]
    coef: Dict[Word, object] = {}  # tail -> per-trial weight of the traced terms
    if traced_terms:
        traces = {}
        for lev, P in zip(plan.traced[0], _walk(plan.traced[1], A)):
            tr = np.trace(P, axis1=-2, axis2=-1)
            traces.update((w, tr[i]) for w, i in lev.items())
        for c, pure, tail in traced_terms:
            val = c
            for u in pure:
                val = val * traces[u]
            coef[tail] = coef.get(tail, 0) + val
    out = np.zeros(A.shape[1:], dtype=A.dtype)
    for P, (words, rows, wts) in zip(_walk(plan.tails[1], A), weights):
        if not words:
            continue
        Q = P if len(rows) == len(P) else P[rows]
        if coef:
            C = np.repeat(wts[:, None], T, axis=1)
            for j, w in enumerate(words):
                if w in coef:
                    C[j] += coef[w]
            out += np.einsum("wt,wtij->tij", C, Q)
        else:
            out += np.einsum("w,wtij->tij", wts, Q)
    return out


# integers one level of the stacked walk may hold: it caps how many
# tuples share a walk, so that memory stays bounded for long polynomials
_LEVEL_ENTRIES = 2**16


def _exact_values(plan: _IntegerPlan, tuples: Sequence[MatTuple]):
    """An iterator over the exact values, on the g-tuples of n x n matrices
    ``tuples``, of the polynomial ``plan`` was made for: Python ints when
    no denominator remains, Fractions otherwise.  None unless every entry
    is an int or a Fraction.

    The common denominator d of all entries is cleared once: with A = d X,
    each term of degree m is weighted d^(D - m), so every value is one
    integer sum divided by L d^D.  The tuples are stacked, as many per walk
    as ``_LEVEL_ENTRIES`` allows."""
    cleared = _clear_denominators([m for X in tuples for m in X.mats])
    if cleared is None:
        return None
    A, d = cleared
    T, g, n = len(tuples), tuples[0].g, tuples[0].n
    A = _narrowed(A.reshape(T, g, n, n).swapaxes(0, 1), plan.bound(n, _max_abs(A), d))
    D = plan.D
    weights = [(words, rows, np.array([c * d ** (D - l) for c in wts], dtype=A.dtype))
               for l, (words, rows, wts) in enumerate(plan.tail_weights)]
    traced_terms = [(c * d ** (D - m), pure, tail) for c, pure, tail, m in plan.traced_terms]
    step = max(1, _LEVEL_ENTRIES // (max(map(len, plan.traced[0] + plan.tails[0])) * n * n))
    return (_exact_quotient(v, plan.L * d**D) for s in range(0, T, step)
            for v in _integer_sum(plan, weights, traced_terms, A[:, s : s + step]))


def _eval_term(
    mats: Sequence[np.ndarray], letters: Word, X: MatTuple, eye_s: np.ndarray
) -> np.ndarray:
    """a_0 X_{k_1} a_1 ... X_{k_m} a_m, each coefficient acting as kron(a, eye_s)."""
    acc = np.kron(np.asarray(mats[0]), eye_s)
    for (k, starred), a in zip(letters, mats[1:]):
        m = adjoint(X.mats[k - 1], X.field) if starred else X.mats[k - 1]
        acc = acc.dot(m).dot(np.kron(np.asarray(a), eye_s))
    return acc


def eval_genpoly(p: GenPoly, X: MatTuple) -> np.ndarray:
    """Evaluate at level ns; coefficients a act as kron(a, I_s)."""
    if X.n % p.n:
        raise ValueError(f"evaluation size {X.n} is not a multiple of coefficient size {p.n}")
    s = X.n // p.n
    eye_s = eye_like(s, X.mats[0])
    exact = _is_exact(X.mats[0])
    out = np.zeros((X.n, X.n), dtype=object if exact else complex)
    for t in p.terms:
        out = out + _eval_term(t.mats, t.letters, X, eye_s)
    if not exact and not np.iscomplexobj(X.mats[0]) and not any(
        np.iscomplexobj(m) for t in p.terms for m in t.mats
    ):
        out = out.real
    return out


def eval_poly(p, X: MatTuple) -> np.ndarray:
    """Dispatch over the three polynomial flavors."""
    if isinstance(p, GenPoly):
        return eval_genpoly(p, X)
    return _eval_terms(_terms(p), X)


# -- random sampling ------------------------------------------------


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_group_element(group: str, n: int, seed=0, field: str | None = None) -> np.ndarray:
    """Random element of GL_n / O_n / U_n.

    O and U are Haar distributed (QR with sign/phase-fixed triangular
    factor); GL resamples standard-normal matrices until the condition
    number estimate is below 1e6.
    """
    rng = _rng(seed)
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}")
    if group == "O":
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        return q * d
    if group == "U":
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diag(r).copy()
        d[d == 0] = 1.0
        return q * (d / np.abs(d))
    while True:
        m = rng.standard_normal((n, n))
        if field == "complex":
            m = m + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(m) < 1e6:
            return m


def random_mattuple(
    g: int, n: int, seed=0, field: str = "real", norm: float | None = None
) -> MatTuple:
    """Standard-normal tuple, optionally rescaled to a given norm."""
    rng = _rng(seed)
    mats = []
    for _ in range(g):
        m = rng.standard_normal((n, n))
        if field == "complex":
            m = (m + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        mats.append(m)
    X = MatTuple(mats, field)
    if norm is not None:
        cur = X.norm()
        if cur > 0:
            X = X.scale(norm / cur)
    return X




# -- symmetric matrix functions --------------------------------------


def sym_matrix_function(tag, S: np.ndarray) -> np.ndarray:
    """Spectral calculus on a symmetric/hermitian matrix.

    ``tag`` is "sin", "cos", or ("pow", alpha) with alpha > 0 acting on
    a nonnegative spectrum (eigenvalues below -1e-10 are an error,
    round-off negatives are clipped to zero).
    """
    S = np.asarray(S)
    herm = np.iscomplexobj(S)
    if np.linalg.norm(S - adjoint(S, "complex" if herm else "real")) > DEFAULT_TOL * max(
        1.0, np.linalg.norm(S)
    ):
        raise ValueError("matrix is not symmetric/hermitian within tolerance")
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
    else:
        raise ValueError(f"unsupported function tag {tag!r}")
    out = (v * w) @ adjoint(v, "complex" if herm else "real")
    return out


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
    product (= Frobenius inner product of flattened matrices)."""
    rows = [np.asarray(m, dtype=complex if any(np.iscomplexobj(x) for x in mats) else float).ravel() for m in mats]
    if not rows:
        return SubspaceBasis(n, [])
    A = np.array(rows)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0
    return SubspaceBasis(n, [vh[i].reshape(n, n) for i in range(rank)])


def matrix_units(n: int) -> List[np.ndarray]:
    out = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            out.append(m)
    return out


def centralizer(B: Sequence[np.ndarray], n: int) -> SubspaceBasis:
    """Orthonormal basis of {c : cb = bc for all b in B}."""
    B = [np.asarray(b) for b in B]
    for b in B:
        if b.shape != (n, n):
            raise ValueError("centralizer input size mismatch")
    if not B:
        return SubspaceBasis(n, matrix_units(n))
    cols = []
    dtype = complex if any(np.iscomplexobj(b) for b in B) else float
    for i in range(n):
        for j in range(n):
            c = np.zeros((n, n), dtype=dtype)
            c[i, j] = 1.0
            cols.append(np.concatenate([(c @ b - b @ c).ravel() for b in B]))
    A = np.array(cols).T  # rows: constraints, cols: n^2 coordinates
    _, s, vh = np.linalg.svd(A)
    # the cutoff is relative to the larger of the top singular value and
    # the input scale: a numerically zero constraint matrix (e.g. B in
    # the scalars) must yield rank 0, not keep round-off noise
    scale = max(float(np.linalg.norm(b)) for b in B)
    smax = max(float(s[0]) if s.size else 0.0, scale)
    rank = int(np.sum(s > RANK_CUTOFF * smax))
    null = vh[rank:]
    return SubspaceBasis(n, [null[i].reshape(n, n) for i in range(null.shape[0])])


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
