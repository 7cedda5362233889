from fractions import Fraction

import numpy as np
import pytest

from ncfun import (
    NCPoly,
    TracePoly,
    eval_ncpoly,
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
