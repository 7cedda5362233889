"""Acceptance gate: one test per criterion, each printing a pass/fail
line.  Criterion 7's second clause is implemented exactly as stated and
is expected red: the second difference quotients of (x x^t)^{3/2} at 0
provably shrink like h (the map is 3-homogeneous and C^{1,1}); see
test_oracle.test_pow_three_halves_quotient_scalings for the true
signature and the decisions ledger for the analysis.
"""

import math
import time

import numpy as np
import pytest

from ncfun import (
    FREE,
    INV,
    FormalSeries,
    MatTuple,
    NCPoly,
    builtin_map,
    centralizer,
    check_commutator_identity,
    check_did_block,
    check_triangular_identity,
    composition_residual,
    eval_ncpoly,
    expand_at_point,
    formal_inverse,
    generated_algebra,
    hk_degree,
    hk_eval,
    homogeneous_part_eval,
    is_identity,
    matenote_plan,
    newton_invert,
    nonuniform_scale,
    nonuniform_witness,
    oracle_from_ncpoly,
    parse_word,
    random_group_element,
    random_mattuple,
    standard_polynomial,
    subspace_residual,
    taylor_at_zero,
)
from ncfun.expand import center_tuple
from ncfun.oracle import random_ncpoly


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def ivar(k, starred=False):
    return NCPoly.variable(k, starred, mode=INV)


def test_criterion_1_roundtrip_reconstruction():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for t in range(50):
        mode = INV if t % 2 else FREE
        g = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 5))
        p = random_ncpoly(g, deg, mode, rng, n_terms=6)
        f = oracle_from_ncpoly(p)
        tay = taylor_at_zero(f, max(p.degree(), 0))
        worst = max(worst, tay.series[0].to_ncpoly().max_coeff_diff(p))
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-7 and elapsed < 60.0,
           f"50 polynomials, worst coefficient error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_matenote_hand_values():
    # exact rational evaluations on the shift-unit plans, read at (1, m+1)
    ok = True
    p1 = NCPoly.variable(1) * NCPoly.variable(2) + NCPoly.variable(2) * NCPoly.variable(1)
    a = matenote_plan(parse_word("x1 x2"), g=2, exact=True)
    ok &= np.array_equal(np.asarray(a.mats[0], dtype=float),
                         np.array([[0.0, 1, 0], [0, 0, 0], [0, 0, 0]]))  # a1 = e12
    ok &= np.array_equal(np.asarray(a.mats[1], dtype=float),
                         np.array([[0.0, 0, 0], [0, 0, 1], [0, 0, 0]]))  # a2 = e23
    ok &= eval_ncpoly(p1, a)[0, 2] == 1

    p2 = NCPoly.variable(1)
    a2 = matenote_plan(parse_word("x1"), g=1, exact=True)
    ok &= eval_ncpoly(p2, a2)[0, 1] == 1

    p3 = ivar(1) * ivar(1, True)
    a3 = matenote_plan(parse_word("x1 x1*"), g=1, exact=True)
    ok &= np.array_equal(
        np.asarray(a3.mats[0], dtype=float),
        np.array([[0.0, 1, 0], [0, 0, 0], [0, 1, 0]]),
    )
    ok &= eval_ncpoly(p3, a3)[0, 2] == 1
    a3p = matenote_plan(parse_word("x1* x1"), g=1, exact=True)
    ok &= eval_ncpoly(p3, a3p)[0, 2] == 0
    report(2, bool(ok), "three worked micro-cases reproduce exactly in rational mode")


def test_criterion_3_derivative_identities():
    rng = np.random.default_rng(7)
    worst_gl = 0.0
    for t in range(20):
        p = random_ncpoly(int(rng.integers(1, 3)), int(rng.integers(1, 4)), FREE, rng)
        f = oracle_from_ncpoly(p)
        for n in (2, 3):
            X = random_mattuple(f.g, n, rng, norm=0.8)
            H = random_mattuple(f.g, n, rng, norm=0.8)
            worst_gl = max(worst_gl, check_triangular_identity(f, X, H, tol=1e-6).max_violation)
    oracles = [oracle_from_ncpoly(random_ncpoly(int(rng.integers(1, 3)),
                                                int(rng.integers(1, 4)), INV, rng))
               for _ in range(18)]
    oracles += [builtin_map("pow_xxt", alpha=1.5), builtin_map("sinxxt")]
    worst_o = 0.0
    for f in oracles:
        for n in (2, 3):
            X = random_mattuple(f.g, n, rng, norm=0.9)
            a = rng.standard_normal((n, n))
            a = a - a.T
            worst_o = max(worst_o, check_commutator_identity(f, X, a, tol=1e-6).max_violation)
            Y = random_mattuple(f.g, n, rng, norm=0.9)
            worst_o = max(worst_o, check_did_block(f, X, Y, tol=1e-6).max_violation)
    report(3, worst_gl < 1e-6 and worst_o < 1e-6,
           f"triangular identity worst {worst_gl:.2e}, commutator identity worst {worst_o:.2e}")


def test_criterion_4_amitsur_levitzki():
    ok = True
    for n in (1, 2, 3):
        rep = is_identity(standard_polynomial(n), n, trials=100, seed=n, exact=True)
        ok &= rep.is_identity and rep.max_residual == 0.0
        wit = is_identity(standard_polynomial(n), n + 1, trials=50, seed=n, exact=True)
        ok &= (not wit.is_identity) and wit.witness is not None
    report(4, bool(ok), "S_2n exact identity on M_n, explicit witness on M_(n+1), n=1,2,3")


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_5_nonuniform_counterexample(n):
    X = nonuniform_witness(n, exact=True)
    expected = (-1) ** (n - 1) * (n + 1)
    ok = True
    for k in range(1, n + 2):
        h = hk_eval(k, X)
        nz = {(i, j): h[i, j] for i in range(n + 1) for j in range(n + 1) if h[i, j] != 0}
        if k == n:
            ok &= nz == {(0, n): expected}
        else:
            ok &= nz == {}
    ok &= hk_degree(n) == 2 * n * n + 3 * n + 1
    r2 = nonuniform_scale(n)
    Y = MatTuple([np.asarray(m, dtype=float) * r2 for m in X.mats])
    f = builtin_map("nonuniform")
    fy = f(Y).mats[0]
    target = np.zeros((n + 1, n + 1))
    target[0, n] = target[n, 0] = float((-1) ** (n - 1))
    ok &= np.linalg.norm(fy - target, 2) < 1e-9
    partial = np.zeros((n + 1, n + 1))
    for m in range(n + 1):
        partial = partial + homogeneous_part_eval(f, m, Y, n).mats[0]
    gap = float(np.linalg.norm(fy - partial, 2))
    ok &= abs(gap - 1.0) < 1e-6
    report(5, bool(ok), f"n={n}: h_k values exact, f(y) within 1e-9, partial-sum gap {gap:.8f}")


def test_criterion_6_sinxxt_parts_and_growth():
    f = builtin_map("sinxxt")
    tay = taylor_at_zero(f, 6)
    s = tay.series[0]
    xxt = NCPoly.from_word(parse_word("x1 x1*"))
    e2 = s.parts[2].max_coeff_diff(xxt)
    e6 = s.parts[6].max_coeff_diff((xxt ** 3).scale(-1.0 / 6.0))
    ok = e2 < 1e-6 and e6 < 1e-6
    rng = np.random.default_rng(11)
    radii = [0.5, 1.0, 2.0]
    sups = []
    for R in radii:
        sup = 0.0
        for _ in range(10):
            X = random_mattuple(1, 3, rng, norm=R)
            sup = max(sup, float(np.linalg.norm(eval_ncpoly(s.parts[6].to_ncpoly()
                      if hasattr(s.parts[6], "to_ncpoly") else s.parts[6], X), 2)))
        sups.append(sup)
    slope = float(np.polyfit(np.log(radii), np.log(sups), 1)[0])
    ok &= abs(slope - 6.0) < 0.2
    report(6, bool(ok), f"part errors {e2:.2e}/{e6:.2e}, growth slope {slope:.3f}")


def test_criterion_7a_pow_one_third_divergence():
    f = builtin_map("pow_xxt", m=3)
    quots = []
    for k in range(1, 7):
        h = 10.0 ** (-k)
        quots.append(float(np.linalg.norm(f(MatTuple([np.array([[h]])])).mats[0], 2)) / h)
    ok = all(b > a for a, b in zip(quots, quots[1:]))
    report("7a", ok, f"pow_xxt(1/3) quotient grows monotonically to {quots[-1]:.1f}")


def test_criterion_7b_pow_three_halves_first_differences_bounded():
    f = builtin_map("pow_xxt", alpha=1.5)
    quots = []
    for k in range(1, 7):
        h = 10.0 ** (-k)
        v = float(f(MatTuple([np.array([[h]])])).mats[0][0, 0])
        quots.append(abs(v) / h)
    ok = max(quots) < 1.0
    report("7b", ok, f"pow_xxt(3/2) first difference quotients bounded by {max(quots):.2e}")


def test_criterion_7c_pow_three_halves_second_differences_divergent():
    # literal criterion: DIVERGENT second difference quotients over the
    # same range.  The stated expectation is unattainable: f(hI) = |h|^3 I
    # at scalar level, so the quotient is 2|h| -> 0, and homogeneity rules
    # out divergence at any matrix level.  Kept red on purpose; the
    # demonstrable signature (divergent fourth-order quotients) is
    # asserted in test_oracle.py.
    f = builtin_map("pow_xxt", alpha=1.5)
    quots = []
    for k in range(1, 7):
        h = 10.0 ** (-k)
        vp = float(f(MatTuple([np.array([[h]])])).mats[0][0, 0])
        v0 = float(f(MatTuple([np.array([[0.0]])])).mats[0][0, 0])
        vm = float(f(MatTuple([np.array([[-h]])])).mats[0][0, 0])
        quots.append(abs(vp - 2 * v0 + vm) / h**2)
    diverges = all(b > a for a, b in zip(quots, quots[1:]))
    report("7c", diverges,
           f"pow_xxt(3/2) second difference quotients {quots[0]:.1e} -> {quots[-1]:.1e} "
           "(stated as divergent; mathematically they vanish like h, see decisions ledger)")


def test_criterion_8_inverse_suite():
    x1 = NCPoly.variable(1)
    F = FormalSeries.from_ncpoly(x1 - x1 * x1, 5)
    (H,) = formal_inverse([F])
    catalan = [1.0, 1.0, 2.0, 5.0, 14.0]
    coeff_err = max(
        abs(H.parts[m].coefficient(((1, False),) * m) - catalan[m - 1]) for m in range(1, 6)
    )
    comp_res = composition_residual([F], [H])
    ok = coeff_err < 1e-10 and comp_res < 1e-10

    p = ivar(1) + ivar(1) * ivar(1, True)
    f = oracle_from_ncpoly(p)
    rng = np.random.default_rng(13)
    worst_res, worst_eq = 0.0, 0.0
    for _ in range(10):
        Y = random_mattuple(1, 2, rng, norm=0.05)
        tr = newton_invert(f, Y, tol=1e-13)
        worst_res = max(worst_res, f(tr.X).max_diff(Y))
        u = random_group_element("O", 2, rng)
        trU = newton_invert(f, MatTuple([u @ Y.mats[0] @ u.T]), tol=1e-13)
        worst_eq = max(worst_eq, float(np.linalg.norm(trU.X.mats[0] - u @ tr.X.mats[0] @ u.T, 2)))
    ok &= worst_res < 1e-10 and worst_eq < 1e-7

    D = 3
    (H3,) = formal_inverse([FormalSeries.from_ncpoly(p, D)])
    h_poly = H3.to_ncpoly()
    direction = random_mattuple(1, 2, rng, norm=1.0)
    radii = [1e-1, 10 ** -1.5, 1e-2]
    gaps = []
    for r in radii:
        Yr = direction.scale(r)
        tr = newton_invert(f, Yr, tol=1e-14)
        gaps.append(float(np.linalg.norm(tr.X.mats[0] - eval_ncpoly(h_poly, Yr), 2)))
    slope = float(np.polyfit(np.log(radii), np.log(gaps), 1)[0])
    ok &= slope >= D + 0.5
    report(8, bool(ok),
           f"catalan {coeff_err:.1e}, composition {comp_res:.1e}, newton {worst_res:.1e}, "
           f"equivariance {worst_eq:.1e}, agreement slope {slope:.2f}")


def test_criterion_9_nonscalar_expansion():
    p = ivar(1) * ivar(1, True) + ivar(1)
    f = oracle_from_ncpoly(p)
    A = MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
    exp = expand_at_point(f, A, D=2, s_eval=3, seed=17)
    ok = max(exp.residuals) < 1e-6
    alg = generated_algebra(A, with_involution=True)
    coeff_res = 0.0
    for part in exp.parts:
        for gp in part:
            for t in gp.terms:
                for m in t.mats:
                    coeff_res = max(coeff_res, subspace_residual(np.asarray(m, dtype=float), alg))
    ok &= coeff_res < 1e-6
    rng = np.random.default_rng(19)
    worst = 0.0
    for s in (1, 2, 3):
        C = center_tuple(A, s)
        for _ in range(4):
            X = C + random_mattuple(1, 2 * s, rng, norm=0.05 * rng.uniform(0.2, 1.0))
            worst = max(worst, exp.eval_at(X).max_diff(f(X)))
    ok &= worst < 1e-5
    report(9, bool(ok),
           f"lsq residual {max(exp.residuals):.1e}, coeff residual {coeff_res:.1e}, "
           f"reassembly {worst:.1e} on 12 points")


def test_criterion_10_double_centralizer():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        g = int(rng.integers(1, 3))
        A = random_mattuple(g, n, rng)
        B = generated_algebra(A, with_involution=True)
        cc = centralizer(centralizer(B.mats, n).mats, n)
        for m in cc.mats:
            worst = max(worst, B.residual(m))
        for m in B.mats:
            worst = max(worst, cc.residual(m))
    ok = worst < 1e-8
    # GL case: the expansion's degree-0 part f(A) lies in C(C(F<A>))
    worst_gl = 0.0
    for t in range(5):
        n = int(rng.integers(2, 4))
        g = int(rng.integers(1, 3))
        A = random_mattuple(g, n, rng)
        p = random_ncpoly(g, 2, FREE, rng)
        f = oracle_from_ncpoly(p)
        algA = generated_algebra(A, with_involution=False)
        ccA = centralizer(centralizer(algA.mats, n).mats, n)
        worst_gl = max(worst_gl, subspace_residual(f(A).mats[0], ccA))
    ok &= worst_gl < 1e-8
    report(10, bool(ok), f"O-case span residual {worst:.1e}, GL-case f(A) residual {worst_gl:.1e}")
