from fractions import Fraction

import numpy as np
import pytest

from ncfun import (
    INV,
    MatTuple,
    NCPoly,
    TracePoly,
    eval_ncpoly,
    eval_poly,
    eval_standard,
    hk_degree,
    hk_eval,
    hk_poly,
    is_identity,
    nonuniform_scale,
    nonuniform_witness,
    parse_word,
    random_mattuple,
    standard_polynomial,
    z_poly,
)
from ncfun.identities import hk_arg_indices, random_int_tuple

from helpers import reference_eval, reference_is_identity


def test_standard_polynomial_s2():
    s2 = standard_polynomial(1)
    want = NCPoly.variable(1) * NCPoly.variable(2) - NCPoly.variable(2) * NCPoly.variable(1)
    assert s2 == want


def test_standard_polynomial_term_count_and_signs():
    s4 = standard_polynomial(2)
    assert len(s4.coeffs) == 24
    assert s4.coefficient(parse_word("x1 x2 x3 x4")) == 1
    assert s4.coefficient(parse_word("x2 x1 x3 x4")) == -1
    with pytest.raises(ValueError):
        standard_polynomial(7)


def test_eval_standard_matches_symbolic():
    # independent route: subset DP vs expanded polynomial
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        p = standard_polynomial(k)
        X = random_mattuple(2 * k, 3, rng)
        dp = eval_standard(list(X.mats))
        sym = eval_ncpoly(p, X)
        assert np.linalg.norm(dp - sym) < 1e-9 * max(1, np.linalg.norm(sym))
        # the same DP run in the free algebra rebuilds S_2k itself
        assert eval_standard([NCPoly.variable(i) for i in range(1, 2 * k + 1)]) == p
    with pytest.raises(ValueError, match="m >= 1"):
        eval_standard([])


def test_amitsur_levitzki_small():
    assert is_identity(standard_polynomial(1), 1, trials=20, seed=0, exact=True).is_identity
    assert is_identity(standard_polynomial(2), 2, trials=20, seed=1, exact=True).is_identity
    rep = is_identity(standard_polynomial(2), 3, trials=50, seed=2, exact=True)
    assert not rep.is_identity and rep.witness is not None
    val = eval_standard(list(rep.witness.mats))
    assert any(val[i, j] != 0 for i in range(3) for j in range(3))
    # an empty trial loop or level would otherwise report IDENTITY
    for n, trials in ((2, 0), (2, -3), (0, 5)):
        with pytest.raises(ValueError):
            is_identity(standard_polynomial(2), n, trials=trials)


def test_identity_failure_bound():
    # S_4 (degree 4): entries from {-4..4}, |S| = 9 > 2 * 4
    rep = is_identity(standard_polynomial(2), 2, trials=20, seed=1, exact=True)
    assert rep.is_identity and rep.failure_bound == (4 / 9) ** 20
    # S_6 (degree 6): the wider range {-6..6} reaches entries beyond 3
    wit = is_identity(standard_polynomial(3), 4, trials=5, seed=0, exact=True).witness
    entries = [abs(v) for m in wit.mats for row in m for v in row]
    assert max(entries) <= 6 and max(entries) > 3
    # no bound for a NON-IDENTITY verdict or for float trials
    assert is_identity(standard_polynomial(2), 3, trials=50, seed=2).failure_bound is None
    assert is_identity(standard_polynomial(2), 2, trials=5, seed=1, exact=False).failure_bound is None
    # degree <= 3 draws from {-3..3}, exactly as random_int_tuple's default
    x1, x2 = NCPoly.variable(1), NCPoly.variable(2)
    rep = is_identity(x1 * x2 * x1, 2, trials=1, seed=4, exact=True)
    want = random_int_tuple(2, 2, np.random.default_rng(4))
    assert all((a == b).all() for a, b in zip(rep.witness.mats, want.mats))


def test_trace_cyclicity_identity():
    t = TracePoly.trace_of_word(parse_word("x1 x2")) - TracePoly.trace_of_word(parse_word("x2 x1"))
    assert t.is_zero()  # merged symbolically by cyclic canonicalization
    raw = TracePoly(
        {((parse_word("x1 x2"),), ()): 1, ((parse_word("x2 x1"),), ()): -1}
    )
    for n in (2, 3):
        assert is_identity(raw, n, trials=10, seed=3, exact=True).is_identity


def test_z_poly_structure():
    for (i, j) in ((1, 1), (2, 3), (3, 2)):
        p = z_poly(i, j)
        assert p.is_homogeneous() and p.degree() == i + j
        assert len(p.coeffs) == 2


def test_hk_poly_vs_hk_eval_cross_route():
    rng = np.random.default_rng(4)
    for k in (1, 2):
        p = hk_poly(k)
        for _ in range(3):
            X = random_mattuple(3, 3, rng)
            assert np.linalg.norm(hk_eval(k, X) - eval_ncpoly(p, X)) < 1e-8


def test_hk_degree_formula():
    for k in (1, 2, 3):
        assert hk_degree(k) == 2 * k * k + 3 * k + 1
        h = hk_poly(k)
        assert h.degree() == hk_degree(k)
    assert len(h.coeffs) == 44064  # h_3, as the (2k)!-order expansion gave it
    for k in (0, 4):
        with pytest.raises(ValueError):
            hk_poly(k)
    assert len(hk_arg_indices(4)) == 8
    assert hk_degree(4) == 2 * 16 + 12 + 1


def test_nonuniform_witness_entries():
    # exact: Fraction ones and halves over int zeros in object arrays;
    # float: the same values in float64
    for n in range(1, 7):
        E, F = nonuniform_witness(n), nonuniform_witness(n, exact=False)
        up = np.eye(n + 1, k=1)
        x3 = np.eye(n + 1)
        x3[n - 1, n] = 0.5
        for a, b, want in zip(E.mats, F.mats, (up, up.T, x3)):
            assert a.dtype == object and b.dtype == np.float64 and a.shape == (n + 1, n + 1)
            assert all(type(v) is (Fraction if v else int) for v in a.ravel().tolist())
            assert np.array_equal(a.astype(float), want) and np.array_equal(b, want)


def test_nonuniform_witness_values_n3():
    X = nonuniform_witness(3)
    # z_ij = e_ij for i<j and z_ii = e_ii + e_{n,n+1}, exactly
    z22 = eval_ncpoly(z_poly(2, 2), X)
    want = np.zeros((4, 4), dtype=object)
    want[1, 1] = Fraction(1)
    want[2, 3] = Fraction(1)
    assert all(z22[i, j] == want[i, j] for i in range(4) for j in range(4))
    for k in (1, 2):
        h = hk_eval(k, X)
        assert all(h[i, j] == 0 for i in range(4) for j in range(4))
    h3 = hk_eval(3, X)
    for i in range(4):
        for j in range(4):
            assert h3[i, j] == (4 if (i, j) == (0, 3) else 0)


def test_nonuniform_scale_equation():
    import math

    for n in (3, 4):
        r2 = nonuniform_scale(n)
        assert math.factorial(n + 1) * r2 ** hk_degree(n) == pytest.approx(np.pi / 2, rel=1e-12)


def test_random_int_tuple_exact():
    rng = np.random.default_rng(5)
    X = random_int_tuple(2, 3, rng)
    assert X.mats[0].dtype == object
    assert all(isinstance(v, int) for row in X.mats[0] for v in row)


def test_find_nonidentity_witness():
    assert is_identity(standard_polynomial(2), 2, trials=20, seed=6).witness is None
    assert is_identity(standard_polynomial(2), 3, trials=50, seed=6).witness is not None


X1, X2 = ((1, False),), ((2, False),)
# Cayley-Hamilton on M_2: x^2 - tr(x) x + (tr(x)^2 - tr(x^2)) / 2 = 0
CAYLEY_HAMILTON = TracePoly({((), X1 * 2): 1, ((X1,), X1): -1,
                             ((X1, X1), ()): Fraction(1, 2), ((X1 * 2,), ()): Fraction(-1, 2)})
S4 = standard_polynomial(2)


@pytest.mark.parametrize("p, n, trials, seed, exact", [
    *[(standard_polynomial(k), n, 12, 10 * k + n, True) for k in (2, 3) for n in (2, 3, 4)],
    (CAYLEY_HAMILTON, 2, 25, 1, True),
    (CAYLEY_HAMILTON, 3, 25, 2, True),
    # float coefficients: Python arithmetic on the stack of integer trials
    (NCPoly({X1 + X2: 0.5, X2 + X1: -0.5, X1 * 2: 1.5}), 2, 10, 3, True),
    (S4.scale(0.5), 2, 10, 4, True),
    # magnitude bounds past int64: the stacked walk runs on Python ints
    (NCPoly.variable(1) ** 30, 2, 5, 5, True),
    (S4.scale(2**80), 2, 10, 6, True),
    (S4.scale(Fraction(1, 3**45)) + NCPoly.variable(1) * NCPoly.variable(2), 2, 10, 7, True),
    # float trials: standard-normal tuples, Frobenius residuals
    *[(standard_polynomial(k), n, 12, 10 * k + n, False) for k in (2, 3) for n in (1, 2, 3)],
    (CAYLEY_HAMILTON, 2, 25, 1, False),
    (CAYLEY_HAMILTON, 3, 25, 2, False),
    (NCPoly({X1 + X2: 0.5, X2 + X1: -0.5, X1 * 2: 1.5}), 1, 10, 3, False),
], ids=["s4-m2", "s4-m3", "s4-m4", "s6-m2", "s6-m3", "s6-m4", "ch-m2", "ch-m3",
        "float-non-identity", "float-identity", "x1^30", "s4-times-2^80", "s4-over-3^45",
        "float-trials-s4-m1", "float-trials-s4-m2", "float-trials-s4-m3",
        "float-trials-s6-m1", "float-trials-s6-m2", "float-trials-s6-m3",
        "float-trials-ch-m2", "float-trials-ch-m3", "float-trials-commutative-m1"])
def test_is_identity_matches_per_trial_reference(p, n, trials, seed, exact):
    got = is_identity(p, n, trials=trials, seed=seed, exact=exact)
    want = reference_is_identity(p, n, trials, seed, exact)
    assert (got.is_identity, got.trials, got.level) == (want.is_identity, want.trials, want.level)
    assert got.max_residual == want.max_residual and got.failure_bound == want.failure_bound
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got.witness.mats, want.witness.mats))
        assert all(a.dtype == (object if exact else float) for a in got.witness.mats)


def test_exact_eval_with_mixed_denominators_matches_fraction_reference():
    h, t = Fraction(1, 2), Fraction(1, 3)
    X = MatTuple([np.array([[h, -t, 2], [0, t, -1], [5 * h, 1, -2 * t]], dtype=object),
                  np.array([[1, h, 0], [-t, 0, 3], [h, 4 * t, -1]], dtype=object)])
    p = NCPoly({(): Fraction(7, 4), X1: 2, ((1, False), (2, True)): Fraction(-5, 6),
                ((2, False), (1, True), (1, False)): 3, ((2, True),) * 4: Fraction(1, 9)}, INV)
    q = TracePoly({((X1 + X2,), X1): Fraction(2, 3), ((), X1): 5, ((X2, ((1, True),)), ()): -1,
                   ((), X2 * 3): h}, INV)
    for poly in (p, q):
        got, want = eval_poly(poly, X), reference_eval(poly, X)
        assert got.dtype == object and all(got[i, j] == want[i, j] for i in range(3) for j in range(3))
        assert any(isinstance(v, Fraction) and v.denominator > 1 for v in got.ravel())


def test_hk_eval_matches_expanded_hk_poly_exactly():
    rng = np.random.default_rng(8)
    Y = MatTuple([np.array([[Fraction(int(a), int(b)) for a, b in zip(r1, r2)] for r1, r2 in
                            zip(rng.integers(-4, 5, (3, 3)), rng.integers(1, 4, (3, 3)))], dtype=object)
                  for _ in range(3)])
    for X in (nonuniform_witness(3), Y):
        for k in (1, 2):
            got, want = hk_eval(k, X), eval_ncpoly(hk_poly(k), X)
            assert all(got[i, j] == want[i, j] for i in range(X.n) for j in range(X.n))
    assert hk_eval(2, Y).any()  # not a vacuous comparison of zeros


def test_eval_standard_exact_routes_match_reference():
    rng = np.random.default_rng(9)
    small = [rng.integers(-5, 6, (3, 3)).astype(object) for _ in range(4)]
    huge = [m * 10**6 + 1 for m in small]  # 4! 3^3 (5e6)^4 is past int64: Python ints
    thirds = [m * Fraction(1, 3) + Fraction(1, 2) for m in small]
    for mats in (small, huge, thirds):
        got, want = eval_standard(mats), reference_eval(S4, MatTuple(mats))
        assert got.dtype == object and all(got[i, j] == want[i, j] for i in range(3) for j in range(3))
        assert got.any()
