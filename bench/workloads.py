"""Seeded job lists for the three benchmark workloads.

Every job is a call into the public API of ``ncfun`` (looked up on the
module at call time, so the tracer's wrappers see it) plus a check
against a reference that does not come from the code under test: the
generating polynomial, closed forms (sin(x x^t), Catalan numbers,
(1 + c x)^-1), Amitsur-Levitzki and Cayley-Hamilton verdicts, residuals
recomputed with plain numpy, and expected CLI exit codes and lines.

The seed changes coefficients, matrices and sample seeds, never the
shape of the work (number of variables, degrees, levels), so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import ncfun as nc
import ncfun.cli

Check = Tuple[bool, Optional[float]]  # (output correct, numeric error or None)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Check]


@dataclass
class Built:
    jobs: List[Job]
    files: Dict[str, str]  # input files for CLI jobs, relative to the work dir


# -- benchmark-side polynomial and matrix helpers ------------------------------


def letters(g: int, inv: bool):
    return [(k, s) for k in range(1, g + 1) for s in ((False, True) if inv else (False,))]


def rand_coeff(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.0))


def rand_poly(rng, g: int, d: int, inv: bool, n_terms: int = 6, homogeneous: bool = False) -> dict:
    """Word -> coefficient map of degree exactly d that uses x_g (starred
    when ``inv``), so the oracle built from it has g inputs and the
    reconstruction reads every degree up to d."""
    alpha = letters(g, inv)
    coeffs = {}
    for _ in range(n_terms - 1):
        m = d if homogeneous else int(rng.integers(0, d + 1))
        coeffs[tuple(alpha[int(i)] for i in rng.integers(0, len(alpha), size=m))] = rand_coeff(rng)
    top = [alpha[int(i)] for i in rng.integers(0, len(alpha), size=d)]
    top[-1] = (g, inv)
    coeffs[tuple(top)] = rand_coeff(rng)
    return coeffs


def word_text(w) -> str:
    return " ".join(f"x{k}*" if s else f"x{k}" for k, s in w) if w else "1"


def ncpoly_text(polys: List[dict], inv: bool) -> str:
    lines = [f"NCPOLY1 mode={'involution' if inv else 'free'} polys={len(polys)}"]
    for p in polys:
        lines.append(f"terms={len(p)}")
        lines += [f"{float(c)!r} : {word_text(w)}" for w, c in sorted(p.items(), key=lambda wc: (len(wc[0]), wc[0]))]
    return "\n".join(lines) + "\n"


def parse_ncpoly_text(text: str) -> List[dict]:
    polys: List[dict] = []
    for line in text.splitlines()[1:]:
        if line.startswith("terms="):
            polys.append({})
            continue
        c, w = line.split(":", 1)
        toks = w.split()
        word = () if toks == ["1"] else tuple((int(t[1:].rstrip("*")), t.endswith("*")) for t in toks)
        polys[-1][word] = float(c)
    return polys


def mtx_text(mats: List[np.ndarray]) -> str:
    n = mats[0].shape[0]
    lines = [f"MTX1 n={n} g={len(mats)} field=real"]
    for m in mats:
        lines += [" ".join(repr(float(v)) for v in row) for row in m]
    return "\n".join(lines) + "\n"


def parse_mtx_text(text: str) -> List[np.ndarray]:
    head, *rows = [ln for ln in text.splitlines() if ln.strip()]
    fields = dict(tok.split("=") for tok in head.split()[1:])
    n, g = int(fields["n"]), int(fields["g"])
    vals = np.array([[float(t) for t in r.split()] for r in rows])
    return [vals[k * n : (k + 1) * n] for k in range(g)]


def coeff_diff(got: dict, want: dict) -> float:
    words = set(got) | set(want)
    return max((abs(complex(got.get(w, 0)) - want.get(w, 0)) for w in words), default=0.0)


def eval_words(p: dict, mats: List[np.ndarray]) -> np.ndarray:
    """Sum of c * word(mats) with prefix sharing; exact for object arrays."""
    n = mats[0].shape[0]
    eye = np.eye(n, dtype=mats[0].dtype)
    if mats[0].dtype == object:
        eye = np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)], dtype=object)
    prefix = {(): eye}
    out = None
    for w, c in p.items():
        for i in range(1, len(w) + 1):
            if w[:i] not in prefix:
                k, s = w[i - 1]
                prefix[w[:i]] = prefix[w[: i - 1]].dot(mats[k - 1].T if s else mats[k - 1])
        term = prefix[w] * c
        out = term if out is None else out + term
    return out


def exact_witness(n: int) -> List[np.ndarray]:
    """The nonuniform-example witness at size n+1, built independently:
    up-shift, down-shift and I + (1/2) e_{n,n+1}."""
    N = n + 1
    x1 = np.array([[Fraction(int(j == i + 1)) for j in range(N)] for i in range(N)], dtype=object)
    x2 = np.array([[Fraction(int(i == j + 1)) for j in range(N)] for i in range(N)], dtype=object)
    x3 = np.array([[Fraction(int(i == j)) for j in range(N)] for i in range(N)], dtype=object)
    x3[n - 1, n] += Fraction(1, 2)
    return [x1, x2, x3]


def rand_mat(rng, n: int, norm: float) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m * (norm / np.linalg.norm(m, 2))


def sin_sym(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v * np.sin(w)) @ v.T


def sin_dd1(a: float, b: float) -> float:
    """First divided difference of sin."""
    return math.cos(a) if a == b else (math.sin(a) - math.sin(b)) / (a - b)


def sin_dd2(a: float, b: float, c: float) -> float:
    """Second divided difference of sin (symmetric in its arguments)."""
    if a != c:
        return (sin_dd1(a, b) - sin_dd1(b, c)) / (a - c)
    if a != b:
        return (sin_dd1(a, b) - sin_dd1(a, a)) / (b - a)
    return -math.sin(a) / 2


def sin_xxt_parts(c: np.ndarray, H: np.ndarray) -> List[np.ndarray]:
    """Degree 0, 1 and 2 parts of H -> sin((C+H)(C+H)^t) about C = diag(c),
    from the Daleckii-Krein divided-difference formulas: with S = C C^t
    and E = C H^t + H C^t, they are sin(S), L[E] and L[H H^t] + Q[E, E],
    where L[M]_pq = sin[l_p, l_q] M_pq and Q[E, E]_pq = sum_r
    sin[l_p, l_r, l_q] E_pr E_rq."""
    lam = c * c
    N = len(c)
    E = np.diag(c) @ H.T + H @ np.diag(c)
    L1 = np.array([[sin_dd1(lam[p], lam[q]) for q in range(N)] for p in range(N)])
    L2 = np.array([[[sin_dd2(lam[p], lam[r], lam[q]) for q in range(N)] for r in range(N)] for p in range(N)])
    return [np.diag(np.sin(lam)), L1 * E, L1 * (H @ H.T) + np.einsum("prq,pr,rq->pq", L2, E, E)]


def err_max(*vals) -> float:
    return max(float(v) for v in vals)


def within(err: float, tol: float) -> Check:
    return (bool(err <= tol), err)


def passes(rep) -> Check:
    return rep.passed, rep.max_violation


# -- CLI jobs -------------------------------------------------------------


@dataclass
class CliOut:
    code: int
    stdout: str
    output: Optional[str]  # contents of the -o file, if one was named


def cli_run(argv: List[str], out_path: Optional[str] = None) -> Callable[[], CliOut]:
    """Job body calling ``cli.main(argv)`` in process, with ``-o out_path``
    when given, capturing stdout, the exit code and the output file."""

    def run() -> CliOut:
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = nc.cli.main(argv + (["-o", out_path] if out_path else []))
        output = None
        if out_path and os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                output = fh.read()
        return CliOut(code, buf.getvalue(), output)

    return run


def residual_lines(stdout: str) -> Dict[int, float]:
    """``degree=<m> residual=<r>`` lines of a CLI report, by degree."""
    return {int(m.group(1)): float(m.group(2)) for m in re.finditer(r"^degree=(\d+) residual=(\S+)", stdout, re.M)}


# -- workloads -------------------------------------------------------------


class Builder:
    """Collects jobs and CLI input files for one workload run."""

    def __init__(self, seed: int, workdir: str, account: Callable):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.account = account  # FreeMapOracle -> accounted copy
        self.jobs: List[Job] = []
        self.files: Dict[str, str] = {}

    def sub_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def file(self, name: str, text: str) -> str:
        self.files[name] = text
        return os.path.join(self.workdir, name)

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def poly_oracle(self, coeffs: dict, inv: bool):
        return self.account(nc.oracle_from_ncpoly(nc.NCPoly(coeffs, nc.INV if inv else nc.FREE)))

    def add(self, name, run, check):
        self.jobs.append(Job(name, run, check))


RECON_GRID = (
    (False, 1, 4), (False, 2, 3), (False, 2, 4), (False, 3, 1), (False, 3, 3),
    (True, 1, 3), (True, 1, 4), (True, 2, 2), (True, 2, 3), (True, 3, 2),
)

XXT = ((1, False), (1, True))


def build_blackbox(b: Builder) -> None:
    """Reconstruction at the origin from black boxes, axiom checks and the
    reconstruction commands of the CLI."""
    for inv, g, d in RECON_GRID:
        p = rand_poly(b.rng, g, d, inv)
        f, s = b.poly_oracle(p, inv), b.sub_seed()

        def check(r, p=p):
            ok, err = within(err_max(coeff_diff(r.polys[0].coeffs, p), r.certificate), 1e-7)
            return ok and r.ok, err

        b.add(f"reconstruct_{'inv' if inv else 'free'}_g{g}_d{d}",
              lambda f=f, d=d, s=s: nc.reconstruct_polynomial(f, d, seed=s), check)

    # sin(x x^t) = sum_k (-1)^k (x x^t)^(2k+1) / (2k+1)!
    sin_parts = {XXT: 1.0, XXT * 3: -1.0 / 6.0}
    fsin = b.account(nc.builtin_map("sinxxt"))
    b.add("taylor_sinxxt_d6", lambda: nc.taylor_at_zero(fsin, 6),
          lambda r: within(coeff_diff({w: c for part in r.series[0].parts for w, c in part.coeffs.items()},
                                      sin_parts), 1e-6))

    ph = rand_poly(b.rng, 2, 3, True, n_terms=8, homogeneous=True)
    fh = b.poly_oracle(ph, True)

    def check_extract_hom(r):
        ok, err = within(coeff_diff(r.polys[0].coeffs, ph), 1e-9)
        return ok and r.evaluations == 4**3, err

    b.add("matenote_extract_inv_g2_m3", lambda: nc.matenote_extract(fh, 3, 2, nc.INV), check_extract_hom)

    pf, pi = rand_poly(b.rng, 2, 3, False), rand_poly(b.rng, 2, 2, True)
    ff, fi = b.poly_oracle(pf, False), b.poly_oracle(pi, True)
    s = b.sub_seed()
    b.add("direct_sums_free_g2", lambda s=s: nc.check_direct_sums(ff, seed=s), passes)
    b.add("similarity_gl_free_g2", lambda s=s: nc.check_similarity(ff, "GL", seed=s), passes)
    b.add("similarity_o_inv_g2", lambda s=s: nc.check_similarity(fi, "O", seed=s), passes)
    # expected failure: a polynomial with transposes is not GL-equivariant
    b.add("similarity_gl_inv_g2_expect_fail", lambda s=s: nc.check_similarity(fi, "GL", seed=s),
          lambda rep: (not rep.passed, None))
    b.add("direct_sums_sinxxt", lambda s=s: nc.check_direct_sums(fsin, trials=10, seed=s), passes)

    pt = rand_poly(b.rng, 1, 3, True)
    path = b.file("taylor_in.ncpoly", ncpoly_text([pt], True))

    def check_taylor(o: CliOut):
        res = residual_lines(o.stdout)
        if o.code != 0 or sorted(res) != [0, 1, 2, 3] or o.output is None:
            return False, None
        return within(err_max(coeff_diff(parse_ncpoly_text(o.output)[0], pt), *res.values()), 1e-7)

    b.add("cli_taylor_inv_g1_d3",
          cli_run(["taylor", "--map", f"poly:{path}", "--degree", "3"], b.out("taylor_out.ncpoly")), check_taylor)

    pe = rand_poly(b.rng, 2, 2, False, homogeneous=True)
    path = b.file("extract_in.ncpoly", ncpoly_text([pe], False))

    def check_extract(o: CliOut):
        if o.code != 0 or "degree=2 evaluations=4 level=3" not in o.stdout or o.output is None:
            return False, None
        return within(coeff_diff(parse_ncpoly_text(o.output)[0], pe), 1e-9)

    b.add("cli_extract_free_g2_m2",
          cli_run(["extract", "--map", f"poly:{path}", "--degree", "2"], b.out("extract_out.ncpoly")), check_extract)

    free_path = b.file("check_free.ncpoly", ncpoly_text([pf], False))
    inv_path = b.file("check_inv.ncpoly", ncpoly_text([pi], True))
    cli_seed = str(b.sub_seed())

    def check_free(o: CliOut):
        lines = o.stdout.splitlines()
        names = {ln.split()[1] for ln in lines}
        ok = o.code == 0 and all(ln.startswith("PASS ") for ln in lines)
        return ok and names == {"direct_sums", "similarity[GL]", "triangular_identity"}, None

    def check_inv_gl(o: CliOut):
        lines = o.stdout.splitlines()
        ok = o.code == 2 and "PASS direct_sums" in o.stdout
        return ok and any(ln.startswith("FAIL similarity[GL] ") for ln in lines), None

    b.add("cli_check_free_g2", cli_run(["check", "--map", f"poly:{free_path}", "--seed", cli_seed]), check_free)
    b.add("cli_check_inv_under_gl_expect_exit2",
          cli_run(["check", "--map", f"poly:{inv_path}", "--group", "GL", "--seed", cli_seed]), check_inv_gl)


def x_plus_xxt(x: np.ndarray) -> np.ndarray:
    return x + x @ x.T


def build_nonscalar(b: Builder) -> None:
    """Expansion about non-scalar centers, Newton solves and the derivative
    identities: few oracle calls at large levels."""
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    f_e12 = b.poly_oracle({XXT: 1.0, ((1, False),): 1.0}, True)

    def reassembly(exp, direct, s_levels, norm, rng_seed):
        rng = np.random.default_rng(rng_seed)
        worst = 0.0
        for s in s_levels:
            C = [np.kron(a, np.eye(s)) for a in exp.center.mats]
            H = [rand_mat(rng, C[0].shape[0], norm) for _ in C]
            X = [c + h for c, h in zip(C, H)]
            worst = max(worst, float(np.linalg.norm(exp.eval_at(nc.MatTuple(X)).mats[0] - direct(X), 2)))
        return worst

    def check_expand(direct, s_levels, norm, tol, rng_seed):
        def check(exp):
            return within(err_max(max(exp.residuals), reassembly(exp, direct, s_levels, norm, rng_seed)), tol)
        return check

    s = b.sub_seed()
    b.add("expand_e12_xxt_plus_x_d2",
          lambda s=s: nc.expand_at_point(f_e12, nc.MatTuple([e12]), D=2, s_eval=3, seed=s),
          check_expand(lambda X: x_plus_xxt(X[0]), (1, 2, 3), 0.5, 1e-6, s))

    pg = rand_poly(b.rng, 2, 3, False)
    f_gl = b.poly_oracle(pg, False)
    # distinct diagonal entries: the coefficient algebra is the diagonal one, of dimension 2
    center = [np.diag(b.rng.uniform(0.5, 1.5) * np.array([1.0, -1.0]) + b.rng.uniform(-0.2, 0.2, 2))
              for _ in range(2)]
    s = b.sub_seed()
    b.add("expand_gl_diag_g2_d3",
          lambda s=s: nc.expand_at_point(f_gl, nc.MatTuple(center), D=3, s_eval=4, seed=s),
          check_expand(lambda X: eval_words(pg, X), (1, 2), 0.5, 1e-6, s))

    fsin = b.account(nc.builtin_map("sinxxt"))
    dsin = np.sort(b.rng.uniform(0.1, 0.5, 2)) + np.array([0.0, 0.1])  # distinct, so the algebra is diagonal
    s = b.sub_seed()

    def check_sin_parts(exp, s=s):
        # each degree part against its closed form, on unit-norm directions at two levels
        rng = np.random.default_rng(s)
        worst = 0.0
        for level in (1, 2):
            H = rand_mat(rng, 2 * level, 1.0)
            want = sin_xxt_parts(np.repeat(dsin, level), H)
            for m in range(3):
                got = nc.eval_genpoly(exp.parts[m][0], nc.MatTuple([H]))
                worst = max(worst, float(np.linalg.norm(got - want[m], 2)))
        return within(err_max(max(exp.residuals), worst), 1e-6)

    b.add("expand_sinxxt_d2",
          lambda s=s: nc.expand_at_point(fsin, nc.MatTuple([np.diag(dsin)]), D=2, s_eval=3, seed=s),
          check_sin_parts)

    f_newton = b.poly_oracle({((1, False),): 1.0, XXT: 1.0}, True)

    def check_solve(target, fn, tol):
        def check(tr):
            if not tr.converged:
                return False, None
            return within(float(np.linalg.norm(fn(tr.X.mats[0]) - target, 2)), tol)
        return check

    for n in range(2, 9):
        Y = rand_mat(b.rng, n, 0.1)
        b.add(f"newton_x_plus_xxt_n{n}", lambda Y=Y: nc.newton_invert(f_newton, nc.MatTuple([Y]), tol=1e-12),
              check_solve(Y, x_plus_xxt, 1e-10))

    def x_plus_sin_xxt(x):
        return x + sin_sym(x @ x.T)

    f_bb = b.account(nc.FreeMapOracle(1, 1, lambda X: nc.MatTuple([x_plus_sin_xxt(X.mats[0])]), group="O",
                                      smoothness="analytic", name="x+sin(x x^t)"))
    Y = rand_mat(b.rng, 3, 0.1)
    b.add("newton_blackbox_x_plus_sin_xxt_n3", lambda: nc.newton_invert(f_bb, nc.MatTuple([Y]), tol=1e-11),
          check_solve(Y, x_plus_sin_xxt, 1e-9))

    f_imp = b.poly_oracle({((2, False),): 1.0, XXT: -1.0}, True)
    xhat = rand_mat(b.rng, 2, 1.0)

    def check_implicit(tr):
        if not tr.converged:
            return False, None
        return within(float(np.linalg.norm(tr.X.mats[0] - xhat @ xhat.T, 2)), 1e-10)

    b.add("implicit_numeric_y_minus_xxt", lambda: nc.implicit_numeric(f_imp, 1, nc.MatTuple([xhat])), check_implicit)

    X, H = (nc.MatTuple([rand_mat(b.rng, 3, 0.5) for _ in range(2)]) for _ in range(2))
    b.add("triangular_identity_gl_g2_n3", lambda: nc.check_triangular_identity(f_gl, X, H), passes)
    X1, X2 = nc.MatTuple([rand_mat(b.rng, 2, 0.5)]), nc.MatTuple([rand_mat(b.rng, 2, 0.5)])
    b.add("did_block_blackbox_n2", lambda: nc.check_did_block(f_bb, X1, X2), passes)
    f_inv = b.poly_oracle(rand_poly(b.rng, 1, 3, True), True)
    b.add("did_block_inv_g1_d3_n2", lambda: nc.check_did_block(f_inv, X1, X2), passes)

    gl_path = b.file("expand_gl.ncpoly", ncpoly_text([pg], False))
    center_path = b.file("center.mtx", mtx_text(center))

    def check_expand_cli(o: CliOut):
        res = residual_lines(o.stdout)
        if o.code != 0 or sorted(res) != [0, 1, 2] or "level=6" not in o.stdout:
            return False, None
        return within(max(res.values()), 1e-8)

    b.add("cli_expand_at_gl_g2_d2",
          cli_run(["expand-at", "--map", f"poly:{gl_path}", "--center", center_path,
                   "--degree", "2", "--s-eval", "3", "--seed", str(b.sub_seed())]), check_expand_cli)

    newton_path = b.file("newton.ncpoly", ncpoly_text([{((1, False),): 1.0, XXT: 1.0}], True))
    Yc = rand_mat(b.rng, 3, 0.1)
    target_path = b.file("target.mtx", mtx_text([Yc]))

    def check_newton_cli(o: CliOut):
        if o.code != 0 or not o.stdout.startswith("iter=0 ") or o.output is None:
            return False, None
        return within(float(np.linalg.norm(x_plus_xxt(parse_mtx_text(o.output)[0]) - Yc, 2)), 1e-10)

    b.add("cli_invert_newton_n3",
          cli_run(["invert", "--newton", "--map", f"poly:{newton_path}", "--target", target_path, "--tol", "1e-12"],
                  b.out("newton_out.mtx")), check_newton_cli)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def check_catalan(coeffs: dict, D: int) -> float:
    want = {((1, False),) * m: float(catalan(m - 1)) for m in range(1, D + 1)}
    words = set(coeffs) | set(want)
    return max(abs(float(coeffs.get(w, 0.0)) - want.get(w, 0.0)) / max(1.0, want.get(w, 0.0)) for w in words)


def build_algebra(b: Builder) -> None:
    """Exact and symbolic work with no oracle: dict arithmetic in the
    polynomial and series layers, object-dtype matrix products."""
    x = [nc.NCPoly.variable(k) for k in (1, 2, 3)]
    witness2 = exact_witness(2)

    def check_hk2(p):
        val = eval_words(p.coeffs, witness2)
        want = {(0, 2): -3}  # h_n(witness_n) = (-1)^(n-1) (n+1) e_{1,n+1}
        ok = p.degree() == 15 and all(val[i, j] == want.get((i, j), 0) for i in range(3) for j in range(3))
        return ok, None

    b.add("hk_poly_k2", lambda: nc.hk_poly(2), check_hk2)

    D = 16
    F = nc.FormalSeries.from_ncpoly(x[0] - x[0] * x[0], D)

    def inverse_and_residual(F, D):
        H = nc.formal_inverse(F, D)
        return H, nc.composition_residual(F, H)

    b.add("formal_inverse_catalan_d16", lambda: inverse_and_residual([F], D),
          lambda r: within(err_max(check_catalan(r[0][0].to_ncpoly().coeffs, D), r[1]), 1e-9))

    a, c = b.rng.uniform(0.5, 1.0, 2)
    iv = {k: nc.NCPoly.variable(k, mode=nc.INV) for k in (1, 2)}
    F2 = [nc.FormalSeries.from_ncpoly(iv[1] + (iv[1] * nc.NCPoly.variable(1, True)).scale(float(a)), 8),
          nc.FormalSeries.from_ncpoly(iv[2] + (iv[2] * iv[1]).scale(float(c)), 8)]

    def check_inv_tuple(r):
        H, res = r
        second = abs(H[0].parts[2].coefficient(XXT) + a)  # h_1 = y_1 - a y_1 y_1^t + O(3)
        return within(err_max(res, second), 1e-9)

    b.add("formal_inverse_inv_g2_d8", lambda: inverse_and_residual(F2, 8), check_inv_tuple)

    cy = float(b.rng.uniform(0.5, 1.0))
    f_imp = b.account(nc.oracle_from_ncpoly(x[1] + (x[1] * x[0]).scale(cy) + x[0]))

    def implicit(f):
        h = nc.implicit_formal(f, 1, 8)
        return h, nc.implicit_residual(f, 1, h)

    def check_implicit(r):
        # y + c y x + x = 0  =>  y = -x (1 + c x)^-1 = sum_k (-1)^k c^(k-1) x^k
        want = {((1, False),) * k: (-1) ** k * cy ** (k - 1) for k in range(1, 9)}
        return within(err_max(coeff_diff(r[0][0].to_ncpoly().coeffs, want), r[1]), 1e-10)

    b.add("implicit_formal_d8", lambda: implicit(f_imp), check_implicit)

    r = rand_poly(b.rng, 3, 3, False)
    rp = nc.NCPoly(r)
    s3 = x[0] + x[1] + x[2]

    def check_product(prod):
        # every word of length 6 has coefficient 1 in s3^6, so (s3^6 r)[u v] = r[v]
        if len(prod.coeffs) != 3**6 * len(r):
            return False, None
        return within(max(abs(c - r.get(w[6:], math.inf)) for w, c in prod.coeffs.items()), 0.0)

    b.add("ncpoly_product_free_g3", lambda: s3**6 * rp, check_product)

    for k, n, verdict in ((2, 2, True), (2, 3, False), (3, 3, True), (3, 4, False)):
        S, s = nc.standard_polynomial(k), b.sub_seed()
        b.add(f"is_identity_s{2 * k}_m{n}", lambda S=S, n=n, s=s: nc.is_identity(S, n, trials=25, seed=s, exact=True),
              lambda rep, v=verdict: (rep.is_identity == v, None))

    x1, e = ((1, False),), ()
    # Cayley-Hamilton on M_2: x^2 - tr(x) x + (tr(x)^2 - tr(x^2)) / 2 = 0
    ch = nc.TracePoly({((), x1 * 2): 1, ((x1,), x1): -1,
                       ((x1, x1), e): Fraction(1, 2), ((x1 * 2,), e): Fraction(-1, 2)})
    for n, verdict in ((2, True), (3, False)):
        s = b.sub_seed()
        b.add(f"cayley_hamilton_2x2_on_m{n}", lambda n=n, s=s: nc.is_identity(ch, n, trials=25, seed=s, exact=True),
              lambda rep, v=verdict: (rep.is_identity == v, None))

    for k in (3, 4):
        W = nc.MatTuple(exact_witness(k))

        def check_hk(val, k=k):
            want = {(0, k): (-1) ** (k - 1) * (k + 1)}
            return all(val[i, j] == want.get((i, j), 0) for i in range(k + 1) for j in range(k + 1)), None

        b.add(f"hk_eval_k{k}_exact_witness", lambda k=k, W=W: nc.hk_eval(k, W), check_hk)

    for k2, n, text in ((4, 2, "IDENTITY"), (6, 4, "NON-IDENTITY")):
        b.add(f"cli_identity_s{k2}_m{n}",
              cli_run(["identity", "--standard", str(k2), "--n", str(n), "--exact", "--seed", str(b.sub_seed())]),
              lambda o, text=text: (o.code == 0 and o.stdout == text + "\n", None))

    path = b.file("catalan.ncpoly", ncpoly_text([{x1: 1.0, x1 * 2: -1.0}], False))

    def check_invert_cli(o: CliOut):
        res = residual_lines(o.stdout)
        if o.code != 0 or list(res) != [10] or o.output is None:
            return False, None
        return within(err_max(check_catalan(parse_ncpoly_text(o.output)[0], 10), res[10]), 1e-9)

    b.add("cli_invert_formal_catalan_d10",
          cli_run(["invert", "--formal", "--degree", "10", "--poly", path], b.out("catalan_inverse.ncpoly")),
          check_invert_cli)

    w = tuple((int(k), False) for k in b.rng.integers(1, 4, size=8))
    least = min(w[i:] + w[:i] for i in range(len(w)))
    b.add("cli_canon_cyclic_len8", cli_run(["canon", "--cyclic", word_text(w)]),
          lambda o: (o.code == 0 and o.stdout == word_text(least) + "\n", None))


BUILDERS = {"blackbox": build_blackbox, "nonscalar": build_nonscalar, "algebra": build_algebra}


def build(workload: str, seed: int, workdir: str, account: Callable) -> Built:
    b = Builder(seed, workdir, account)
    BUILDERS[workload](b)
    return Built(b.jobs, b.files)
