import dataclasses
import itertools

import numpy as np
import pytest

from ncfun import (
    INV,
    GenPoly,
    MatTuple,
    NCPoly,
    builtin_map,
    coefficient_algebra,
    eval_genpoly,
    expand_at_point,
    oracle_from_ncpoly,
    random_group_element,
    random_mattuple,
    taylor_at_zero,
)
from ncfun.expand import center_tuple
from ncfun.mateval import _Walk
from ncfun.oracle import random_ncpoly
from ncfun.words import words_of_degree

from helpers import reference_expand_at_point


def ivar(k, starred=False):
    return NCPoly.variable(k, starred, mode=INV)


def e12():
    return MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_expand_o_mode_reference_case():
    # f = x1 x1^t + x1 about A = e12 with s_eval = 3: the coefficient
    # algebra F<A, A^t> is all of M_2
    p = ivar(1) * ivar(1, True) + ivar(1)
    f = oracle_from_ncpoly(p)
    A = e12()
    exp = expand_at_point(f, A, D=2, s_eval=3, seed=0)
    assert exp.basis.dim == 4
    assert max(exp.residuals) < 1e-6
    assert exp.coefficient_residual() < 1e-6
    assert exp.nullspace_dims == [0, 0, 0]
    # reassembled series matches f near the center at two levels
    rng = np.random.default_rng(1)
    for s in (1, 2):
        C = center_tuple(A, s)
        for _ in range(5):
            X = C + random_mattuple(1, 2 * s, rng, norm=0.05 * rng.uniform(0.2, 1.0))
            assert exp.eval_at(X).max_diff(f(X)) < 1e-5


def test_expand_degree1_part_matches_binomial():
    # f = x1^2: the degree-1 part at A is H -> A H + H A
    p = NCPoly.variable(1) ** 2
    f = oracle_from_ncpoly(p)
    rng = np.random.default_rng(2)
    A = random_mattuple(1, 2, rng)
    exp = expand_at_point(f, A, D=2, s_eval=3, seed=3)
    assert max(exp.residuals) < 1e-6
    s = 2
    C = center_tuple(A, s)
    for _ in range(5):
        H = random_mattuple(1, 2 * s, rng)
        got = eval_genpoly(exp.parts[1][0], H)
        want = C.mats[0] @ H.mats[0] + H.mats[0] @ C.mats[0]
        assert np.linalg.norm(got - want) < 1e-6 * max(1, np.linalg.norm(want))


def test_expand_scalar_center_reduces_to_taylor():
    p = random_ncpoly(1, 2, INV, seed=4, n_terms=4)
    f = oracle_from_ncpoly(p)
    A = MatTuple([np.zeros((1, 1))])
    exp = expand_at_point(f, A, D=2, s_eval=3, seed=5)
    tay = taylor_at_zero(f, 2)
    rng = np.random.default_rng(6)
    for m in range(3):
        for _ in range(3):
            H = random_mattuple(1, 3, rng)
            got = eval_genpoly(exp.parts[m][0], H)
            want = tay.series[0].parts[m](H)
            assert np.linalg.norm(got - want) < 1e-6 * max(1.0, np.linalg.norm(want))


def test_expand_equivariance_under_stabilizer():
    # sigma = I_n tensor q commutes with the center kron(A, I_s); the
    # extracted parts must be equivariant under it
    p = ivar(1) * ivar(1, True) + ivar(1)
    f = oracle_from_ncpoly(p)
    A = e12()
    s = 3
    exp = expand_at_point(f, A, D=2, s_eval=s, seed=7)
    rng = np.random.default_rng(8)
    q = random_group_element("O", s, rng)
    sigma = np.kron(np.eye(2), q)
    for m in range(3):
        for _ in range(3):
            H = random_mattuple(1, 2 * s, rng)
            Hc = MatTuple([sigma @ H.mats[0] @ sigma.T])
            lhs = eval_genpoly(exp.parts[m][0], Hc)
            rhs = sigma @ eval_genpoly(exp.parts[m][0], H) @ sigma.T
            assert np.linalg.norm(lhs - rhs) < 1e-6 * max(1.0, np.linalg.norm(rhs))


def test_expand_gl_mode_uses_double_centralizer():
    p = NCPoly.variable(1) ** 2 + NCPoly.variable(1).scale(0.5)
    f = oracle_from_ncpoly(p)
    rng = np.random.default_rng(9)
    A = random_mattuple(1, 2, rng)
    basis = coefficient_algebra("GL", A)
    # generic single matrix: F<A> = C(C(F<A>)) = polynomials in A (dim 2)
    assert basis.dim == 2
    exp = expand_at_point(f, A, D=2, s_eval=3, seed=10)
    assert max(exp.residuals) < 1e-6
    # degree-0 part evaluates to f(A) embedded at the evaluation level
    got = eval_genpoly(exp.parts[0][0], MatTuple([np.zeros((6, 6))]))
    want = np.kron(f(A).mats[0], np.eye(3))
    assert np.linalg.norm(got - want) < 1e-6


def test_expand_guards():
    p = ivar(1)
    f = oracle_from_ncpoly(p)
    A = e12()
    with pytest.raises(ValueError):
        expand_at_point(f, A, D=4, s_eval=5)
    with pytest.raises(ValueError):
        expand_at_point(f, A, D=2, s_eval=2)
    big = MatTuple([np.zeros((4, 4))])
    with pytest.raises(ValueError):
        expand_at_point(f, big, D=1, s_eval=2)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        expand_at_point(f, A, D=-1, s_eval=2)
    with pytest.raises(ValueError, match="center has 2 components, the map takes 1"):
        expand_at_point(f, MatTuple([A.mats[0], A.mats[0]]), D=1, s_eval=2)
    with pytest.raises(ValueError, match="complex center for a real map"):
        expand_at_point(f, MatTuple([A.mats[0] + 0j], "complex"), D=1, s_eval=2)
    assert f.calls == 0


def _diag_gl_center():
    return MatTuple([np.diag([0.9, -1.1]), np.diag([1.2, -0.7])])


def _complex_center():
    rng = np.random.default_rng(11)
    return MatTuple([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))], "complex")


def test_eval_at_needs_a_multiple_of_the_center_size():
    exp = expand_at_point(oracle_from_ncpoly(ivar(1) * ivar(1, True) + ivar(1)), e12(), D=1, s_eval=2, seed=0)
    for n in (1, 5):
        with pytest.raises(ValueError, match=f"size {n} is not a positive multiple of the center size 2"):
            exp.eval_at(random_mattuple(1, n, 0))
    assert exp.eval_at(center_tuple(e12(), 2)).n == 4


def test_eval_at_needs_the_center_arity():
    exp = expand_at_point(_e12_map(), e12(), D=1, s_eval=2, seed=0)
    with pytest.raises(ValueError, match="tuple has 2 components, the center 1"):
        exp.eval_at(MatTuple([np.zeros((2, 2))] * 2))


def test_expand_evaluations_are_the_oracle_calls():
    # a copy without polys evaluates every tuple through its evaluator, so
    # the calls can be counted from outside
    seen = []
    f = oracle_from_ncpoly(ivar(1) * ivar(1, True) + ivar(1))

    def evaluator(X, _ev=f.evaluator):
        seen.append(X.n)
        return _ev(X)

    f = dataclasses.replace(f, evaluator=evaluator, polys=None)
    exp = expand_at_point(f, e12(), D=2, s_eval=3, seed=0)
    assert exp.evaluations == len(seen) == f.calls > 0
    again = expand_at_point(f, e12(), D=1, s_eval=3, seed=1)
    assert again.evaluations == len(seen) - exp.evaluations > 0
    # a polynomial-backed oracle is expanded by substitution, with no call
    g = oracle_from_ncpoly(ivar(1) * ivar(1, True) + ivar(1))
    assert expand_at_point(g, e12(), D=2, s_eval=3, seed=0).evaluations == g.calls == 0


def _gl_g2_cubic():
    x1, x2 = NCPoly.variable(1), NCPoly.variable(2)
    return oracle_from_ncpoly(x1 * x2 * x1 + (x2 * x2).scale(-0.5) + x1.scale(0.7) + x2 * x1 * x1)


def _e12_map():
    return oracle_from_ncpoly(ivar(1) * ivar(1, True) + ivar(1))


def _fitted(make_f):
    """The map without polys, so that expand_at_point fits it as a black box."""
    return dataclasses.replace(make_f(), polys=None)


EXPANSION_CASES = [
    pytest.param(_gl_g2_cubic, _diag_gl_center(), 3, 4, id="free-gl-g2-diag-d3"),
    pytest.param(_e12_map, e12(), 2, 3, id="o-e12-d2"),
    pytest.param(lambda: builtin_map("sinxxt"), MatTuple([np.diag([0.2, 0.45])]), 2, 3, id="sinxxt-d2"),
    pytest.param(lambda: oracle_from_ncpoly(random_ncpoly(1, 2, INV, seed=3, n_terms=5, field="complex"),
                                            field="complex"), _complex_center(), 2, 3, id="u-complex-d2"),
]


@pytest.mark.parametrize("make_f, center, D, s_eval", EXPANSION_CASES)
def test_stacked_expansion_matches_the_per_sample_reference(make_f, center, D, s_eval):
    # one stacked scan about the center and the walk's columns, bit for bit
    # the per-sample reads through a shifted copy and per-term columns,
    # with the same oracle calls; polynomial maps as black boxes
    for seed in (0, 1):
        f, g = _fitted(make_f), _fitted(make_f)
        exp = expand_at_point(f, center, D=D, s_eval=s_eval, seed=seed)
        parts, residuals, nulldims, evaluations = reference_expand_at_point(g, center, D, s_eval, seed)
        assert (exp.residuals, exp.nullspace_dims, exp.evaluations) == (residuals, nulldims, evaluations)
        assert f.calls == g.calls == evaluations > 0
        for got, want in zip(exp.parts, parts, strict=True):
            for a, b in zip(got, want, strict=True):
                assert [t.letters for t in a.terms] == [t.letters for t in b.terms]
                assert all(np.array_equal(x, y) for s, t in zip(a.terms, b.terms) for x, y in zip(s.mats, t.mats))


@pytest.mark.parametrize("make_f, center, D, s_eval", EXPANSION_CASES)
def test_walk_columns_match_term_by_term(monkeypatch, make_f, center, D, s_eval):
    # the columns expand_at_point takes from its prefix walk, against one
    # eval_genpoly call per monomial and sample, bit for bit
    seen = []
    tails = _Walk.tails

    def spy(walk, letters):
        seen.append((letters, tails(walk, letters)))
        return seen[-1][1]

    monkeypatch.setattr(_Walk, "tails", spy)
    f = _fitted(make_f)
    expand_at_point(f, center, D=D, s_eval=s_eval, seed=0)
    ((letters, got),) = seen
    dt = complex if f.field == "complex" else float
    bas = [np.asarray(b, dtype=dt) for b in coefficient_algebra(f.group, center).mats]
    assert np.array_equal(letters[2][:, 0], np.stack([np.kron(b, np.eye(s_eval)) for b in bas]))
    monomials = [(I, K) for m in range(D + 1) for I in itertools.product(range(len(bas)), repeat=m + 1)
                 for K in words_of_degree(f.g, m, f.mode == INV)]
    H = letters[0]
    assert got.shape == (len(monomials),) + H.shape[1:] and got.dtype == dt
    for s in range(H.shape[1]):
        X = MatTuple(list(H[:, s]), f.field)
        want = np.stack([eval_genpoly(GenPoly.monomial([bas[i] for i in I], K), X) for I, K in monomials])
        assert got[:, s].tobytes() == want.tobytes()  # the signs of zeros too


@pytest.mark.parametrize(
    "make_f, center, D, s_eval, calls",
    [
        pytest.param(_gl_g2_cubic, _diag_gl_center(), 3, 4, 16, id="free-gl-g2-diag-d3"),
        pytest.param(_e12_map, e12(), 2, 3, 45, id="o-e12-d2"),
        pytest.param(lambda: builtin_map("sinxxt"), MatTuple([np.diag([0.2, 0.45])]), 2, 3, 26, id="sinxxt-d2"),
    ],
)
def test_one_scan_serves_every_degree(make_f, center, D, s_eval, calls):
    # the samples of degree D, read once: one node per degree of a
    # polynomial map, D + 1 + SCAN_EXTRA_NODES of any other per sample;
    # polynomial maps as black boxes
    f = _fitted(make_f)
    exp = expand_at_point(f, center, D=D, s_eval=s_eval, seed=0)
    assert exp.evaluations == f.calls == calls


def _e12_cubic():
    x = ivar(1)
    return oracle_from_ncpoly(x * ivar(1, True) * x + x * ivar(1, True) + x)


@pytest.mark.parametrize(
    "make_f, center, D, s_eval",
    [p for p in EXPANSION_CASES if p.id != "sinxxt-d2"]
    + [pytest.param(_e12_cubic, e12(), 3, 4, id="o-e12-cubic-d3")],
)
def test_substitution_matches_the_fitted_expansion(make_f, center, D, s_eval):
    # two independent routes on one polynomial: substitution with no call,
    # and the sampled fit of its black-box copy
    f = make_f()
    exp = expand_at_point(f, center, D=D, s_eval=s_eval, seed=0)
    fit = expand_at_point(_fitted(make_f), center, D=D, s_eval=s_eval, seed=0)
    assert exp.evaluations == f.calls == 0 < fit.evaluations
    assert exp.nullspace_dims == fit.nullspace_dims == [0] * (D + 1)
    assert max(exp.residuals) < 1e-14
    rng = np.random.default_rng(12)
    for got, want in zip(exp.parts, fit.parts, strict=True):
        for a, b in zip(got, want, strict=True):
            assert [t.letters for t in a.terms] == [t.letters for t in b.terms]
            for s in (1, 2):
                H = random_mattuple(f.g, center.n * s, rng, f.field)
                x, y = eval_genpoly(a, H), eval_genpoly(b, H)
                assert np.linalg.norm(x - y) <= 1e-12 * max(1.0, np.linalg.norm(y))


def test_substitution_reaches_degree_three_on_a_four_dimensional_algebra():
    f = _e12_cubic()
    exp = expand_at_point(f, e12(), D=3, s_eval=4, seed=0)
    assert exp.basis.dim == 4
    assert [len(part[0].terms) for part in exp.parts] == [2, 9, 20, 16]
    # the series is exact: it reassembles f away from the center too
    X = center_tuple(e12(), 2) + random_mattuple(1, 4, 13, norm=2.0)
    assert exp.eval_at(X).max_diff(f(X)) < 1e-12 * max(1.0, f(X).norm())
