"""Dense matrix engine: evaluation of all polynomial flavors on matrix
tuples, group sampling, symmetric matrix functions, and the linear
algebra of centralizers and generated subalgebras.

All numerics are double precision; exact evaluation is available by
passing object-dtype arrays (e.g. Fraction or int entries) through the
evaluation routines, which only use ring operations.
"""

from __future__ import annotations

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


def eval_ncpoly(p: NCPoly, X: MatTuple) -> np.ndarray:
    cache: Dict[Word, np.ndarray] = {}
    out = None
    for w, c in p.coeffs.items():
        term = c * eval_word(w, X, cache)
        out = term if out is None else out + term
    if out is None:
        return np.zeros((X.n, X.n), dtype=X.mats[0].dtype if _is_exact(X.mats[0]) else None)
    return out


def eval_tracepoly(p: TracePoly, X: MatTuple) -> np.ndarray:
    cache: Dict[Word, np.ndarray] = {}
    out = None
    for (pure, tail), c in p.coeffs.items():
        val = c
        for w in pure:
            val = val * np.trace(eval_word(w, X, cache))
        term = val * eval_word(tail, X, cache)
        out = term if out is None else out + term
    if out is None:
        return np.zeros((X.n, X.n))
    return out


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
    if isinstance(p, NCPoly):
        return eval_ncpoly(p, X)
    if isinstance(p, TracePoly):
        return eval_tracepoly(p, X)
    if isinstance(p, GenPoly):
        return eval_genpoly(p, X)
    raise TypeError(f"cannot evaluate {type(p).__name__}")


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
