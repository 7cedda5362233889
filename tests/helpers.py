"""Helpers shared by the test modules."""

import dataclasses

import numpy as np

from ncfun import INV, FormalSeries, GenPoly, GenTerm, MatTuple, NCPoly, random_mattuple
from ncfun.identities import FLOAT_TOL, IdentityReport, random_int_tuple
from ncfun.invfun import _from_length, _linear_series, linear_part
from ncfun.mateval import RANK_CUTOFF, SubspaceBasis, adjoint, matrix_units
from ncfun.series import _mul_into, _parts
from ncfun.words import word_str


def max_basis_diff(p: GenPoly, q: GenPoly) -> float:
    """Largest coefficient difference over the matrix-unit basis monomials."""
    if p.n != q.n or p.mode != q.mode:
        raise ValueError("generalized polynomials of different size or mode")
    a, b = p.expand_basis(), q.expand_basis()
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)), default=0.0)


def word_value(w, X) -> np.ndarray:
    """Left-to-right product of the components (and adjoints) a word names,
    in the tuple's own dtype: the first letter itself, then one ``.dot``
    per further letter; the identity for the empty word."""
    out = None
    for k, starred in w:
        m = X.mats[k - 1]
        if starred:
            m = m.conj().T if X.field == "complex" else m.T
        out = m if out is None else out.dot(m)
    return np.eye(X.n, dtype=X.mats[0].dtype) if out is None else out


def reference_eval(p, X) -> np.ndarray:
    """p(X) as a plain sum in the tuple's own arithmetic: each term
    c tr(u_1)...tr(u_k) tail computed on its own, and the terms added in
    order from the first; no prefix sharing, no stacking, no denominator
    clearing, no int64."""
    if isinstance(p, NCPoly):
        items = [(c, (), w) for w, c in p.coeffs.items()]
    else:
        items = [(c, pure, tail) for (pure, tail), c in p.coeffs.items()]
    total = None
    for c, pure, tail in items:
        val = c
        for u in pure:
            val = val * np.trace(word_value(u, X))
        term = val * word_value(tail, X)
        total = term if total is None else total + term
    return np.zeros((X.n, X.n), dtype=X.mats[0].dtype) if total is None else total


def reference_derivative(f, X, H) -> MatTuple:
    """The product rule of a polynomial oracle as a plain loop: each word
    rebuilt once per position, with H in that position, and the words
    added in (word, position) order to zero."""
    outs = []
    for p in f.polys:
        acc = np.zeros((X.n, X.n), dtype=complex if X.field == "complex" else float)
        for w, c in p.coeffs.items():
            for pos in range(len(w)):
                cur = None
                for i, (k, starred) in enumerate(w):
                    src = H if i == pos else X
                    m = adjoint(src.mats[k - 1], X.field) if starred else src.mats[k - 1]
                    cur = m if cur is None else cur @ m
                acc = acc + c * cur
        outs.append(acc)
    return MatTuple(outs, "complex" if any(np.iscomplexobj(m) for m in outs) else X.field)


def reference_jacobian(f, X) -> np.ndarray:
    """The Jacobian of a polynomial oracle column by column: one
    ``reference_derivative`` per matrix unit E_ij in component k (and, for
    complex maps, per i E_ij after them), its outputs flattened, with the
    real parts above the imaginary ones for complex maps."""
    n, dt = X.n, complex if f.field == "complex" else float
    cols = []
    for s in (1.0,) if f.field == "real" else (1.0, 1j):
        for k in range(f.g):
            for i in range(n):
                for j in range(n):
                    mats = [np.zeros((n, n), dtype=dt) for _ in range(f.g)]
                    mats[k][i, j] = s
                    d = reference_derivative(f, X, MatTuple(mats, f.field))
                    flat = np.concatenate([np.asarray(m, dtype=dt).ravel() for m in d.mats])
                    cols.append(np.concatenate([flat.real, flat.imag]) if f.field == "complex" else flat)
    return np.stack(cols, axis=1)


def reference_is_identity(p, n: int, trials: int, seed: int, exact: bool = True) -> IdentityReport:
    """The identity test as a plain loop: one trial at a time, drawn as
    ``is_identity`` draws them, evaluated by ``reference_eval``, and
    stopped at the first nonzero value (any nonzero entry for exact
    trials, a Frobenius norm above FLOAT_TOL for float ones)."""
    rng = np.random.default_rng(seed)
    deg = max(p.degree(), 0)
    d = max(3, deg)
    worst = 0.0
    for _ in range(trials):
        g = max(p.num_vars(), 1)
        X = random_int_tuple(g, n, rng, -d, d) if exact else random_mattuple(g, n, rng)
        val = reference_eval(p, X)
        if exact:
            mag, nonzero = float(max(abs(v) for v in val.ravel())), any(v != 0 for v in val.ravel())
        else:
            mag = float(np.linalg.norm(val))
            nonzero = mag > FLOAT_TOL
        worst = max(worst, mag)
        if nonzero:
            return IdentityReport(False, trials, n, witness=X, max_residual=worst)
    bound = (deg / (2 * d + 1)) ** trials if exact else None
    return IdentityReport(True, trials, n, max_residual=worst, failure_bound=bound)


# -- per-trial references for the stacked checks ----------------------


class CountingGenerator(np.random.Generator):
    """``np.random.default_rng(seed)``'s generator, counting the calls
    that draw from it in ``draws``."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draws = 0


def _counted(name):
    def draw(self, *args, **kwargs):
        self.draws += 1
        return getattr(np.random.Generator, name)(self, *args, **kwargs)
    return draw


for _name in ("standard_normal", "normal", "uniform", "integers", "random", "choice"):
    setattr(CountingGenerator, _name, _counted(_name))


EVAL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


def reference_tuples(g: int, n: int, rng, field: str, norms) -> list:
    """len(norms) standard-normal tuples from one raw trial-major draw,
    shape (T, g, n, n), or (T, g, 2, n, n) with the real part before the
    imaginary part when complex, tuple t scaled to ``norms[t]`` through
    ``MatTuple.norm`` and ``MatTuple.scale``."""
    Z = rng.standard_normal((len(norms), g, 2, n, n) if field == "complex" else (len(norms), g, n, n))
    out = []
    for z, norm in zip(Z, norms):
        X = MatTuple([(m[0] + 1j * m[1]) / np.sqrt(2) for m in z] if field == "complex" else list(z), field)
        cur = X.norm()
        out.append(X.scale(norm / cur) if cur > 0 else X)
    return out


def reference_group_elements(group: str, n: int, T: int, rng, field) -> list:
    """T group elements from raw trial-major draws, each made by the
    one-matrix QR or condition number: O and U by QR with the sign/phase
    fix, GL redrawing the elements whose condition number is not below
    1e6, all of them in one draw, until none is left."""
    cplx = group == "U" or (group == "GL" and field == "complex")

    def draw(k):
        z = rng.standard_normal((k, 2, n, n) if cplx else (k, n, n))
        return [m[0] + 1j * m[1] for m in z] if cplx else list(z)

    if group == "GL":
        S = draw(T)
        bad = [t for t in range(T) if not np.linalg.cond(S[t]) < 1e6]
        while bad:
            for t, m in zip(bad, draw(len(bad))):
                S[t] = m
            bad = [t for t in bad if not np.linalg.cond(S[t]) < 1e6]
        return S
    out = []
    for m in draw(T):
        if group == "O":
            q, r = np.linalg.qr(m)
            d = np.sign(np.diag(r))
            d[d == 0] = 1.0
            out.append(q * d)
        else:
            q, r = np.linalg.qr(m / np.sqrt(2))
            d = np.diag(r).copy()
            d[d == 0] = 1.0
            out.append(q * (d / np.abs(d)))
    return out


def reference_direct_sums(f, levels, trials, tol, seed):
    """``check_direct_sums`` one trial at a time through ``f(...)``: the
    trials of a level pair drawn as the library draws them (the norm
    factors of the X, the X, those of the Y, the Y), then each trial
    evaluated and recorded before the next."""
    from ncfun.mateval import block_tuple
    from ncfun.oracle import CheckReport, _sample_radius

    rng = np.random.default_rng(seed)
    report = CheckReport("direct_sums", trials * len(levels), tol)
    for (m, n) in levels:
        r = _sample_radius(f, m, n, m + n)
        uX = rng.uniform(0.05, 1, trials)
        Xs = reference_tuples(f.g, m, rng, f.field, r * uX)
        uY = rng.uniform(0.05, 1, trials)
        Ys = reference_tuples(f.g, n, rng, f.field, r * uY)
        for X, Y in zip(Xs, Ys):
            try:
                lhs = f(block_tuple(X, None, None, Y))
                rhs = block_tuple(f(X), None, None, f(Y))
                res = lhs.max_diff(rhs)
            except EVAL_ERRORS as e:
                report.record(np.inf, m + n, ((m, n), repr(e)))
                continue
            report.record(res, m + n, ((m, n), X, Y))
    return report


def reference_similarity(f, group, levels, trials, tol, seed):
    """``check_similarity`` one trial at a time through ``f(...)`` and
    ``conjugate``: the group elements, the norm factors and the X of a
    level drawn as the library draws them."""
    from ncfun.mateval import conjugate
    from ncfun.oracle import CheckReport, _sample_radius

    rng = np.random.default_rng(seed)
    report = CheckReport(f"similarity[{group}]", trials * len(levels), tol)
    for n in levels:
        sigmas = reference_group_elements(group, n, trials, rng, f.field)
        r = [_sample_radius(f, n) / max(1.0, float(np.linalg.cond(s))) for s in sigmas]
        u = rng.uniform(0.05, 1, trials)
        Xs = reference_tuples(f.g, n, rng, f.field, [rt * ut for rt, ut in zip(r, u)])
        for sigma, X in zip(sigmas, Xs):
            try:
                lhs = f(conjugate(X, sigma))
                rhs = conjugate(f(X), sigma)
                res = lhs.max_diff(rhs)
            except EVAL_ERRORS as e:
                report.record(np.inf, n, ((n,), repr(e)))
                continue
            report.record(res, n, (n, X, sigma))
    return report


def reference_probe(f, polys, levels, samples, radius, seed):
    """``recon._probe`` one sample at a time through ``f(...)`` and
    ``eval_ncpoly``, the samples of a level drawn as the library draws
    them (the norm factors, then the tuples)."""
    from ncfun.mateval import eval_ncpoly

    rng = np.random.default_rng(seed)
    worst, witness = 0.0, None
    for n in levels:
        r = radius(n)
        u = rng.uniform(0.1, 1.0, samples)
        for X in reference_tuples(f.g, n, rng, f.field, r * u):
            res = f(X).max_diff(MatTuple([eval_ncpoly(q, X) for q in polys], f.field))
            if res > worst:
                worst, witness = res, X
    return worst, witness


def reference_symmetric_scan(f, A, D):
    """The root rows of ``oracle._part_scan``'s signed scan of the one tuple
    A (shape (g, 1, n, n)) read in full: every node of the exactly
    symmetric set [tau_0 .. tau_{N/2-1}, -tau_{N/2-1} .. -tau_0], N rounded
    up to even, evaluated by ``f.stack`` with no mirror, then the
    Vandermonde solve on those nodes.  Shape (g', D+1, n)."""
    from ncfun.oracle import SCAN_EXTRA_NODES, _scan_radius

    N = max(D, f.poly_degree()) + 1 if f.is_polynomial() else D + 1 + SCAN_EXTRA_NODES
    N += N % 2
    half = np.cos(np.pi * (2 * np.arange(N // 2) + 1) / (2 * N))
    taus = np.concatenate([half, -half[::-1]])
    h = _scan_radius(f, A)[0]
    rows = f.stack(A[:, 0][:, None] * (h * taus)[:, None, None])[:, :, 0, :]
    return (np.linalg.solve(np.vander(taus, N, increasing=True), rows) / (h ** np.arange(N))[:, None])[:, : D + 1]


def reference_shift_units(nodes, g, level, exact, field) -> MatTuple:
    """One shift-unit tuple in M_level built entry by entry: nodes in
    order, each after its parent; u x_k puts 1 at (u, u x_k) of component
    k and u x_k^t puts it at (u x_k^t, u); exact ones are Fraction(1) in
    object arrays."""
    from fractions import Fraction

    index = {u: i for i, u in enumerate(nodes)}
    dt = object if exact else complex if field == "complex" else float
    mats = [np.zeros((level, level), dtype=dt) for _ in range(g)]
    for i, u in enumerate(nodes[1:], start=1):
        p, (k, starred) = index[u[:-1]], u[-1]
        mats[k - 1][(i, p) if starred else (p, i)] = Fraction(1) if exact else 1.0
    return MatTuple(mats, field)


def reference_trie_reads(f, D):
    """``recon._trie_reads`` with one read per sub-trie: one call f(h T)
    per sub-trie without involution, one mirrored ``_part_scan`` of the
    sub-trie alone with it; the coefficients in the same order."""
    from ncfun.oracle import _part_scan, _scan_radius
    from ncfun.recon import CLEANUP_TOL, _trie_nodes, _trie_prefix_length
    from ncfun.words import words_of_degree

    involution = f.mode == INV
    alphabet = [w[0] for w in words_of_degree(f.g, 1, involution)]
    j = _trie_prefix_length(len(alphabet), D, f.max_level)
    coeffs = [dict() for _ in range(f.gprime)]
    on_chain = set()
    for prefix in words_of_degree(f.g, j, involution):
        nodes = _trie_nodes(prefix, D, alphabet)
        T = reference_shift_units(nodes, f.g, len(nodes), False, f.field)
        A = np.array(T.mats)[:, None]
        if involution:
            signs = np.array([(-1.0) ** len(u) for u in nodes])
            rows = list(_part_scan(f, A, D, row0=True, signs=signs)[:, 0])
        else:
            h = _scan_radius(f, A).item()
            rows = [v[0] for v in f(T.scale(h)).mats]
        for i, w in enumerate(nodes):
            if i < j:
                if w in on_chain:
                    continue
                on_chain.add(w)
            for k, r in enumerate(rows):
                c = r[len(w), i] if involution else r[i] / h ** len(w)
                if abs(c) > CLEANUP_TOL:
                    coeffs[k][w] = complex(c) if np.iscomplexobj(r) else float(c)
    return coeffs


def reference_matenote_extract(f_hom, m, g, mode, level=None, exact=False, field="real"):
    """``matenote_extract`` one plan at a time: f_hom called on each plan
    tuple, built by ``reference_shift_units``, and its corners read in
    word order.  Returns the polynomials and the calls made."""
    from ncfun.recon import CLEANUP_TOL
    from ncfun.words import words_of_degree

    coeff_maps, count = [], 0
    for w in words_of_degree(g, m, mode == INV):
        val = f_hom(reference_shift_units([w[:p] for p in range(m + 1)], g, level or m + 1, exact, field))
        count += 1
        coeff_maps = coeff_maps or [dict() for _ in val.mats]
        for cm, mat in zip(coeff_maps, val.mats):
            c = mat[0, m]
            if exact:
                if c != 0:
                    cm[w] = c
            elif abs(c) > CLEANUP_TOL:
                cm[w] = complex(c) if np.iscomplexobj(mat) else float(c.real)
    return tuple(NCPoly(cm, mode) for cm in coeff_maps), count


def same_info(a, b) -> bool:
    """Witness infos equal entry by entry: tuples element-wise, MatTuples
    and arrays by ``np.array_equal`` (and field), anything else by ==."""
    if isinstance(a, MatTuple) or isinstance(b, MatTuple):
        return (isinstance(a, MatTuple) and isinstance(b, MatTuple) and a.field == b.field
                and a.g == b.g and all(np.array_equal(x, y) for x, y in zip(a.mats, b.mats)))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same_info(x, y) for x, y in zip(a, b))
    return a == b


def same_report(a, b) -> bool:
    """Two check reports with the same name, trials, max violation and
    witnesses, bit for bit."""
    return (a.name == b.name and a.trials == b.trials and a.max_violation == b.max_violation
            and len(a.witnesses) == len(b.witnesses)
            and all(ra == rb and la == lb and same_info(ia, ib)
                    for (ia, ra, la), (ib, rb, lb) in zip(a.witnesses, b.witnesses)))


def _graded_sum(terms):
    """Sum of (word, coefficient) pairs, listed shortest first (stable);
    exact zeros drop out as they arise."""
    acc = {}
    for w, c in terms:
        c = acc.get(w, 0) + c
        if c == 0:
            acc.pop(w, None)
        else:
            acc[w] = c
    return dict(sorted(acc.items(), key=lambda wc: len(wc[0])))


def _products(a, b, D):
    """Pairs (u v, a_u b_v) of length <= D; b is listed shortest first."""
    for u, x in a.items():
        for v, y in b.items():
            if len(u) + len(v) > D:
                break
            yield u + v, x * y


def reference_compose(F, G) -> FormalSeries:
    """F o G by the per-word route: each word c_w w of F kept at the
    common order D is multiplied out on its own, letter by letter from
    the left as ((c_w G_1) G_2) ..., every partial product truncated at D,
    and all terms summed in word order; no prefix sharing."""
    D = min([F.order] + [g.order for g in G])
    mode = G[0].mode
    subs = {}
    for k, g in enumerate(G, start=1):
        subs[k, False] = g.poly.coeffs
        if mode == INV:
            subs[k, True] = g.involution().poly.coeffs
    terms = []
    for w, c in F.poly.coeffs.items():
        if len(w) <= D:
            t = {(): c}
            for let in w:
                t = _graded_sum(_products(t, subs[let], D))
            terms.extend(t.items())
    return FormalSeries.from_ncpoly(NCPoly(_graded_sum(terms), mode), D)


def reference_horner_compose(F, G) -> tuple:
    """``compose_tuple`` by the recursive Horner's rule over each word
    trie of F, one trie and one recursion per component: a node's parts
    are the sum over its children, in trie order, of the product of the
    child letter's series with the child's parts, by ``_mul_into``."""
    if not G:
        raise ValueError("empty substitution tuple")
    mode, order = G[0].mode, min(g.order for g in G)
    subs = {}
    for k, g in enumerate(G, start=1):
        if g.mode != mode:
            raise ValueError("mixed modes in substitution tuple")
        if g.constant_part() != 0:
            raise ValueError("substituted series must have zero constant part")
        subs[k, False] = _parts(g.poly.coeffs, order)
        if mode == INV:
            subs[k, True] = _parts(g.poly.involution().coeffs, order)

    def horner(node, room: int):
        out = [{} for _ in range(room + 1)]
        if node[0] is not None:
            out[0][()] = node[0]
        for let, child in node[1].items():
            _mul_into(out, subs[let], horner(child, room - 1))
        return out

    composed = []
    for f in F:
        D = min(f.order, order)
        root: list = [None, {}]  # node: [coefficient of its word or None, children by letter]
        for w, c in f.poly.coeffs.items():
            for let in w:
                if let not in subs:
                    raise ValueError(f"no series for {word_str((let,))} in a {mode} tuple of {len(G)}")
            if len(w) <= D:
                node = root
                for let in w:
                    node = node[1].setdefault(let, [None, {}])
                node[0] = c
        composed.append(FormalSeries._from_parts(horner(root, D), mode))
    return tuple(composed)


def reference_formal_inverse(F, D: int) -> tuple:
    """``formal_inverse`` by ``reference_horner_compose``, with every
    step d composing all of G o H at the full order D and keeping its
    words of length d."""
    g, mode = len(F), F[0].mode
    rows = linear_part(F).inverse_rows()
    stars = (False, True) if mode == INV else (False,)
    letters = [(k, starred) for k in range(1, g + 1) for starred in stars]
    G = [_from_length(fb, 2) for fb in reference_horner_compose(_linear_series(rows, letters, D, mode), F)]
    H = list(FormalSeries.identity_tuple(g, D, mode))
    for d in range(2, D + 1):
        K = reference_horner_compose(G, H)
        for i in range(g):
            Kd = {w: -c for w, c in K[i].poly.coeffs.items() if len(w) == d}
            H[i] = FormalSeries.from_ncpoly(NCPoly({**H[i].poly.coeffs, **Kd}, mode), D)
    return reference_horner_compose(H, _linear_series(rows, sorted(letters, key=lambda let: let[1]), D, mode))


# -- per-sample and per-direction references for the stacked scans -----


def reference_parts(f, X, D):
    """Parts 0..D of f at X by the single-tuple Chebyshev scan: one
    ``f.stack`` of its N nodes (max(D, deg f) + 1 for a polynomial map,
    D + 1 + SCAN_EXTRA_NODES otherwise) and one Vandermonde solve per
    output, with the scan radius of a map of f's kind at infinite radius."""
    from ncfun.oracle import ANALYTIC_RADIUS_CAP, SCAN_EXTRA_NODES, _cheb_nodes

    N = max(D, f.poly_degree()) + 1 if f.is_polynomial() else D + 1 + SCAN_EXTRA_NODES
    r = (1.0 if f.is_polynomial() else ANALYTIC_RADIUS_CAP) / max(1.0, X.norm() / 2.0)
    taus = _cheb_nodes(N)
    V = np.vander(taus, N, increasing=True)
    vals = f.stack(np.array(X.mats)[:, None] * (r * taus)[:, None, None])
    parts = [np.linalg.solve(V, v.reshape(N, -1)) / (r ** np.arange(N))[:, None] for v in vals]
    return [MatTuple([p[m].reshape(X.n, X.n) for p in parts], f.field) for m in range(D + 1)]


def reference_expand_at_point(f, A, D, s_eval, seed=0):
    """``expand_at_point`` one sample at a time: the samples degree D needs,
    each drawn by ``random_mattuple`` and read through a shifted copy of
    f (evaluator H -> f(C + H), no polys, infinite radius) by
    ``reference_parts``, and each column one ``eval_genpoly`` of one
    monomial per sample.  Columns are stored term by term, as the walk's
    tails are, so that ``M @ sol`` runs in the same memory layout.
    Returns (parts, residuals, nullspace_dims, evaluations)."""
    import itertools
    import math

    from ncfun.expand import center_tuple, coefficient_algebra
    from ncfun.mateval import RANK_CUTOFF, eval_genpoly
    from ncfun.words import words_of_degree

    basis = coefficient_algebra(f.group, A)
    level = A.n * s_eval
    C = center_tuple(A, s_eval)
    rng = np.random.default_rng(seed)
    calls0 = f.calls
    shifted = dataclasses.replace(f, evaluator=lambda H: f(C + H), polys=None, radius=math.inf)
    dt = complex if f.field == "complex" else float
    bas = [np.asarray(b, dtype=dt) for b in basis.mats]
    monomials = [[(I, K) for I in itertools.product(range(basis.dim), repeat=m + 1)
                  for K in words_of_degree(f.g, m, f.mode == INV)] for m in range(D + 1)]
    per_sample = level * level
    samples = max(2, math.ceil(2.0 * len(monomials[D]) / per_sample))
    cols = [np.empty((len(mons), samples * per_sample), dtype=dt) for mons in monomials]
    B = np.empty((D + 1, samples * per_sample, f.gprime), dtype=dt)
    for r in range(samples):
        H = random_mattuple(f.g, level, rng, f.field, norm=1.0)
        rows = slice(r * per_sample, (r + 1) * per_sample)
        for m, y in enumerate(reference_parts(shifted, H, D)):
            for j in range(f.gprime):
                B[m, rows, j] = y.mats[j].ravel()
            for c, (I, K) in enumerate(monomials[m]):
                cols[m][c, rows] = eval_genpoly(GenPoly.monomial([bas[i] for i in I], K), H).ravel()
    parts, residuals, nulldims = [], [], []
    for m, mons in enumerate(monomials):
        M = cols[m].T
        sol, _, rank, _ = np.linalg.lstsq(M, B[m], rcond=RANK_CUTOFF)
        nulldims.append(len(mons) - int(rank))
        residuals.append(float(np.linalg.norm(M @ sol - B[m]) / max(1.0, np.linalg.norm(B[m]))))
        comps = []
        for j in range(f.gprime):
            terms = [GenTerm([sol[c, j] * bas[I[0]]] + [bas[i] for i in I[1:]], K)
                     for c, (I, K) in enumerate(mons) if abs(sol[c, j]) > 1e-10]
            comps.append(GenPoly(A.n, terms, f.mode))
        parts.append(tuple(comps))
    return parts, residuals, nulldims, f.calls - calls0


def counted(f):
    """A copy of the oracle f without polys, so that its evaluator sees
    every tuple evaluated, and the list of their levels it records."""
    seen = []

    def evaluator(X, _ev=f.evaluator):
        seen.append(X.n)
        return _ev(X)

    return dataclasses.replace(f, evaluator=evaluator, polys=None), seen


def black_box(g: int, field: str = "real"):
    """A black box (no polys) for the derivative routes: (x, y) ->
    (x + sin(x y*), y x) with an entrywise sine, for g = 1 x -> x + sin(x x*).
    Not a free map; only its values matter."""
    from ncfun import FreeMapOracle

    def ev(X):
        x, y = X.mats[0], X.mats[-1]
        return MatTuple([x + np.sin(x @ y.conj().T), y @ x][:g], X.field)

    return FreeMapOracle(g, g, ev, field=field, group="O" if field == "real" else "U", name="black box")


def reference_directional_derivative(f, X, H, order=1):
    """``oracle.derivative`` one call at a time: the product rule of
    ``reference_derivative`` for a polynomial-backed oracle at order 1,
    otherwise the ray read along one direction, each of its N nodes
    X + (h tau_j) H built component by component and read by one call of
    f, then one Vandermonde solve per output, k! times part k, and the
    indicator k! |omega_k| h^(N-1-k) ||part N-1||, omega the polynomial
    prod_{i < N-1} (tau - tau_i)."""
    import math

    from ncfun.oracle import RAY_NODES, _cheb_nodes

    if f.polys is not None and order == 1:
        return reference_derivative(f, X, H), 0.0
    N = max(order, f.poly_degree()) + 2 if f.is_polynomial() else RAY_NODES
    x = X.norm()
    cap = 1.0 if f.is_polynomial() else 0.1 if f.smoothness == "analytic" else 0.02
    h = np.array([min(cap / (1.0 + x), (f.radius_at(X.n) - x) / 2.0) / max(1.0, H.norm())])
    taus = _cheb_nodes(N)
    vals = [f(MatTuple([a + b * (h[0] * t) for a, b in zip(X.mats, H.mats)], X.field)) for t in taus]
    V, k = np.vander(taus, N, increasing=True), math.factorial(order)
    parts = [np.linalg.solve(V, np.array([v.mats[o] for v in vals]).reshape(N, -1)) / (h ** np.arange(N))[:, None]
             for o in range(f.gprime)]
    est = MatTuple([k * p[order].reshape(X.n, X.n) for p in parts], vals[0].field)
    omega = np.poly(taus[:-1])[::-1][order]
    top = MatTuple([p[N - 1].reshape(X.n, X.n) for p in parts], vals[0].field)
    return est, (k * abs(omega) * h ** (N - 1 - order) * top.norm()).item()


def reference_second_derivative(f, X, H) -> MatTuple:
    """The second derivative of a polynomial oracle as a plain loop: twice
    the sum, over each word and each pair of its positions, of the word
    rebuilt with H in both positions, added in order to zero."""
    outs = []
    for p in f.polys:
        acc = np.zeros((X.n, X.n), dtype=complex if X.field == "complex" else float)
        for w, c in p.coeffs.items():
            for i in range(len(w)):
                for j in range(i + 1, len(w)):
                    cur = np.eye(X.n)
                    for pos, (k, starred) in enumerate(w):
                        src = H if pos in (i, j) else X
                        cur = cur @ (adjoint(src.mats[k - 1], X.field) if starred else src.mats[k - 1])
                    acc = acc + c * cur
        outs.append(2 * acc)
    return MatTuple(outs, "complex" if any(np.iscomplexobj(m) for m in outs) else X.field)


def daleckii_krein_x_plus_sin_xxt(X, H) -> np.ndarray:
    """D(x + sin(x x^t))(X)[H] = H + Q (G o Q^t E Q) Q^t with E = X H^t + H X^t,
    X X^t = Q diag(lam) Q^t and the divided differences of sin,
    G_ij = (sin lam_i - sin lam_j) / (lam_i - lam_j), taken without
    cancellation as cos((lam_i + lam_j) / 2) sinc((lam_i - lam_j) / 2)
    (Daleckii-Krein)."""
    x, h = X.mats[0], H.mats[0]
    lam, Q = np.linalg.eigh(x @ x.T)
    G = np.cos((lam[:, None] + lam[None, :]) / 2) * np.sinc((lam[:, None] - lam[None, :]) / (2 * np.pi))
    return h + Q @ (G * (Q.T @ (x @ h.T + h @ x.T) @ Q)) @ Q.T


def reference_fd_jacobian(f, X) -> np.ndarray:
    """The black-box Jacobian column by column: one
    ``reference_directional_derivative`` per matrix unit E_ij in component
    k (and, for complex maps, per i E_ij after them), its outputs
    flattened, real parts above imaginary ones for complex maps."""
    n, dt = X.n, complex if f.field == "complex" else float
    cols = []
    for s in (1.0,) if f.field == "real" else (1.0, 1j):
        for k in range(f.g):
            for i in range(n):
                for j in range(n):
                    mats = [np.zeros((n, n), dtype=dt) for _ in range(f.g)]
                    mats[k][i, j] = s
                    d, _ = reference_directional_derivative(f, X, MatTuple(mats, f.field))
                    flat = np.concatenate([np.asarray(m, dtype=dt).ravel() for m in d.mats])
                    cols.append(np.concatenate([flat.real, flat.imag]) if f.field == "complex" else flat)
    return np.stack(cols, axis=1)


def reference_newton(f, Y, tol=1e-12, maxit=50):
    """Damped Newton for a polynomial oracle with a fresh Jacobian at every
    iterate: ``reference_jacobian`` columns, one solve for the step on the
    flattened residual (real parts above imaginary ones for complex
    maps), halvings until the residual drops, and the stop rules of
    ``newton_invert``.  Returns (iterates, X, calls of f)."""
    from ncfun.invfun import MAX_HALVINGS, STALL_FACTOR, STALL_ITERS

    n, cplx = Y.n, f.field == "complex"
    N = f.g * n * n

    def flat(T):
        v = np.concatenate([np.asarray(m, dtype=complex if cplx else float).ravel() for m in T.mats])
        return np.concatenate([v.real, v.imag]) if cplx else v

    def unflat(v):
        v = v[:N] + 1j * v[N:] if cplx else v
        return MatTuple([v[k * n * n:(k + 1) * n * n].reshape(n, n) for k in range(f.g)], f.field)

    calls0 = f.calls
    X = MatTuple.zeros(f.g, n, f.field)
    fX = f(X)
    res = fX.max_diff(Y)
    history, iterates = [res], []
    for _ in range(maxit):
        if res < tol or (len(history) > STALL_ITERS and res > STALL_FACTOR * history[-1 - STALL_ITERS]):
            break
        delta = np.linalg.solve(reference_jacobian(f, X), flat(fX) - flat(Y))
        for k in range(MAX_HALVINGS + 1):
            step = 0.5**k
            Xn = X - unflat(step * delta)
            fXn = f(Xn)
            rn = fXn.max_diff(Y)
            if rn < res or rn < tol:
                break
        X, fX, res = Xn, fXn, rn
        history.append(res)
        iterates.append((res, float(step * np.linalg.norm(delta))))
    return iterates, X, f.calls - calls0


# -- per-block and per-term references for the oracle layer ------------


def _block_norms(blocks) -> float:
    """The largest ``np.linalg.norm(b, 2)`` over ``blocks``, one at a time."""
    res = 0.0
    for b in blocks:
        res = max(res, float(np.linalg.norm(b, 2)))
    return res


def reference_triangular_residual(f, X, H) -> float:
    """The residual of the upper-triangular identity, each of the four
    n x n blocks of each component measured on its own."""
    from ncfun.mateval import block_tuple
    from ncfun.oracle import derivative

    n = X.n
    val, fX, dF = f(block_tuple(X, H, None, X)), f(X), derivative(f, X, H)[0]
    return _block_norms(b for blk, a, d in zip(val.mats, fX.mats, dF.mats)
                        for b in (blk[:n, :n] - a, blk[n:, n:] - a, blk[n:, :n], blk[:n, n:] - d))


def reference_did_residual(f, X1, X2) -> float:
    """The residual of the DID block identity, each of the four n x n
    blocks of each component measured on its own."""
    from ncfun.mateval import direct_sum
    from ncfun.oracle import derivative, offdiag_direction

    n = X1.n
    lhs = derivative(f, direct_sum(X1, X2), offdiag_direction(X1, X2))[0]
    return _block_norms(b for blk, a, c in zip(lhs.mats, f(X1).mats, f(X2).mats)
                        for b in (blk[:n, n:] - (a - c), blk[n:, :n] - (a - c), blk[:n, :n], blk[n:, n:]))


def reference_smooth_nonanalytic(J: int, X) -> np.ndarray:
    """sum_j e^{-sqrt(2^j)} cos(2^j (x + x^t)) term by term: one spectral
    cosine of each scaled matrix, added in order to zero."""
    import math

    from ncfun.mateval import sym_matrix_function

    s = X.mats[0] + adjoint(X.mats[0], X.field)
    out = np.zeros_like(np.asarray(s, dtype=float if X.field == "real" else complex))
    for j in range(J + 1):
        w = math.exp(-math.sqrt(2.0**j))
        if w > 0.0:
            out = out + w * sym_matrix_function("cos", (2.0**j) * s)
    return out


def reference_centralizer(B, n: int):
    """The centralizer's constraint matrix built column by column: one
    column per matrix unit c = e_ij, the stacked c b - b c over B."""
    from ncfun.mateval import RANK_CUTOFF, SubspaceBasis, matrix_units

    B = [np.asarray(b) for b in B]
    if not B:
        return SubspaceBasis(n, matrix_units(n))
    cols = []
    dtype = complex if any(np.iscomplexobj(b) for b in B) else float
    for i in range(n):
        for j in range(n):
            c = np.zeros((n, n), dtype=dtype)
            c[i, j] = 1.0
            cols.append(np.concatenate([(c @ b - b @ c).ravel() for b in B]))
    A = np.array(cols).T
    _, s, vh = np.linalg.svd(A)
    scale = max(float(np.linalg.norm(b)) for b in B)
    smax = max(float(s[0]) if s.size else 0.0, scale)
    rank = int(np.sum(s > RANK_CUTOFF * smax))
    null = vh[rank:]
    return SubspaceBasis(n, [null[i].reshape(n, n) for i in range(null.shape[0])])


def reference_linear_part(F) -> np.ndarray:
    """The linear part's matrix entry by entry: free mode a real g x g
    matrix (complex coefficients refused), with involution the blocks A
    (on x_j) and B (on x_j^t) placed as [[A, B], [conj B, conj A]]."""
    g = len(F)
    if F[0].mode != INV:
        L = np.zeros((g, g))
        for i, s in enumerate(F):
            for j in range(1, g + 1):
                c = s.to_ncpoly().coefficient(((j, False),))
                if isinstance(c, complex):
                    raise ValueError("complex coefficients in free-mode linear part are unsupported")
                L[i, j - 1] = c
        return L
    A = np.zeros((g, g), dtype=complex)
    B = np.zeros((g, g), dtype=complex)
    for i, s in enumerate(F):
        for j in range(1, g + 1):
            A[i, j - 1] = s.to_ncpoly().coefficient(((j, False),))
            B[i, j - 1] = s.to_ncpoly().coefficient(((j, True),))
    L = np.block([[A, B], [B.conj(), A.conj()]])
    return L.real if np.allclose(L.imag, 0) else L


def reference_expand_basis(p: GenPoly) -> dict:
    """The matrix-unit expansion by an explicit stack walk over the
    choices of one nonzero entry per coefficient, products taken left to
    right from 1."""
    out = {}
    for t in p.terms:
        nonzero = [[(i + 1, j + 1, m[i, j]) for i in range(p.n) for j in range(p.n) if m[i, j] != 0]
                   for m in t.mats]
        stack = [(0, (), (), 1)]
        while stack:
            pos, I, J, val = stack.pop()
            if pos == len(t.mats):
                out[I, J, t.letters] = out.get((I, J, t.letters), 0) + val
                continue
            for i, j, c in nonzero[pos]:
                stack.append((pos + 1, I + (i,), J + (j,), val * c))
    return {k: v for k, v in out.items() if v != 0}
