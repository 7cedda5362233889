from fractions import Fraction

import numpy as np
import pytest

from ncfun import (
    INV,
    GenPoly,
    MatTuple,
    NCPoly,
    TracePoly,
    centralizer,
    conjugate,
    direct_sum,
    eval_genpoly,
    eval_ncpoly,
    eval_tracepoly,
    eval_word,
    generated_algebra,
    orthonormalize,
    parse_word,
    random_group_element,
    random_mattuple,
    subspace_residual,
    sym_matrix_function,
)
from ncfun.mateval import GROUPS, _group_block, group_block, matrix_units, scaled_to, standard_block, standard_mats
from ncfun.oracle import random_ncpoly
from ncfun.words import words_of_degree

from helpers import max_basis_diff, reference_centralizer, reference_eval


def e(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return m


def test_eval_word_examples():
    X = MatTuple([e(2, 1, 2)])
    assert np.array_equal(eval_word((), X), np.eye(2))
    assert np.array_equal(eval_word(parse_word("x1 x1*"), X), e(2, 1, 1))
    Y = MatTuple([e(3, 1, 2), e(3, 2, 3)])
    assert np.array_equal(eval_word(parse_word("x1 x2"), Y), e(3, 1, 3))


def test_eval_word_multiplicative():
    rng = np.random.default_rng(0)
    from ncfun.words import words_of_degree

    X = random_mattuple(2, 3, rng)
    ws = list(words_of_degree(2, 2, True))
    for u in ws[:6]:
        for v in ws[6:12]:
            lhs = eval_word(u + v, X)
            rhs = eval_word(u, X) @ eval_word(v, X)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1, np.linalg.norm(rhs))


def test_eval_word_involution_transpose():
    rng = np.random.default_rng(1)
    from ncfun.words import word_involution, words_of_degree

    X = random_mattuple(2, 3, rng)
    Z = random_mattuple(2, 3, rng, field="complex")
    for w in list(words_of_degree(2, 3, True))[:20]:
        assert np.linalg.norm(eval_word(word_involution(w), X) - eval_word(w, X).T) < 1e-12
        assert np.linalg.norm(eval_word(word_involution(w), Z) - eval_word(w, Z).conj().T) < 1e-12


def test_eval_ncpoly_examples():
    p = TracePoly({((parse_word("x1"),), ()): 1})
    X = MatTuple([np.diag([1.0, 2.0])])
    assert np.allclose(eval_tracepoly(p, X), 3 * np.eye(2))
    comm = NCPoly.variable(1) * NCPoly.variable(2) - NCPoly.variable(2) * NCPoly.variable(1)
    Y = MatTuple([np.diag([1.0, 2.0]), np.diag([3.0, -1.0])])
    assert np.allclose(eval_ncpoly(comm, Y), 0)
    q = TracePoly({((parse_word("x1 x1*"),), parse_word("x1")): 1}, INV)
    Z = MatTuple([e(2, 1, 2)])
    assert np.allclose(eval_tracepoly(q, Z), e(2, 1, 2))


def test_eval_similarity_covariance():
    rng = np.random.default_rng(2)
    p_free = NCPoly.variable(1) * NCPoly.variable(2) + NCPoly.variable(2).scale(0.5)
    p_inv = NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True) - NCPoly.variable(2, mode=INV)
    for _ in range(10):
        X = random_mattuple(2, 3, rng)
        s_gl = random_group_element("GL", 3, rng)
        lhs = eval_ncpoly(p_free, conjugate(X, s_gl))
        rhs = s_gl @ eval_ncpoly(p_free, X) @ np.linalg.inv(s_gl)
        assert np.linalg.norm(lhs - rhs) < 1e-8 * max(1, np.linalg.norm(rhs))
        s_o = random_group_element("O", 3, rng)
        lhs = eval_ncpoly(p_inv, conjugate(X, s_o, group="O"))
        rhs = s_o @ eval_ncpoly(p_inv, X) @ s_o.T
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_direct_sum_multiplicativity_and_trace_failure():
    rng = np.random.default_rng(3)
    p = NCPoly.variable(1) * NCPoly.variable(1) + NCPoly.variable(1).scale(2.0)
    X, Y = random_mattuple(1, 2, rng), random_mattuple(1, 3, rng)
    lhs = eval_ncpoly(p, direct_sum(X, Y))
    rhs = np.zeros((5, 5))
    rhs[:2, :2] = eval_ncpoly(p, X)
    rhs[2:, 2:] = eval_ncpoly(p, Y)
    assert np.linalg.norm(lhs - rhs) < 1e-12
    # trace polynomials are NOT direct-sum compatible: tr doubles under
    # block stacking, which is why free maps correspond to free
    # polynomials rather than trace polynomials
    t = TracePoly({((parse_word("x1"),), ()): 1})
    tl = eval_tracepoly(t, direct_sum(X, X))
    tr_ = np.zeros((4, 4))
    tr_[:2, :2] = eval_tracepoly(t, X)
    tr_[2:, 2:] = eval_tracepoly(t, X)
    assert np.linalg.norm(tl - tr_) > 0.1 * abs(np.trace(X.mats[0]))


def test_eval_genpoly_worked_block_example():
    rng = np.random.default_rng(4)
    A, B = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    p = GenPoly.monomial([e(2, 1, 1), e(2, 1, 2), e(2, 2, 2)], parse_word("x1 x2"))
    val = eval_genpoly(p, MatTuple([A, B]))
    # the displayed block computation: e_12 tensor A_11 B_22
    want = np.kron(e(2, 1, 2), A[:2, :2] @ B[2:, 2:])
    assert np.allclose(val, want)


def test_eval_genpoly_scalar_coefficients():
    rng = np.random.default_rng(5)
    X = random_mattuple(2, 4, rng)
    p = GenPoly.from_ncpoly(NCPoly.variable(1) * NCPoly.variable(2), 2).scale(1.5)
    assert np.allclose(eval_genpoly(p, X), 1.5 * X.mats[0] @ X.mats[1])


def test_eval_genpoly_keeps_a_later_complex_component():
    X = MatTuple([np.eye(2), 1j * np.eye(2)], "complex")
    p = GenPoly.monomial([np.eye(2), np.eye(2)], parse_word("x2"))
    assert np.array_equal(eval_genpoly(p, X), 1j * np.eye(2))


def test_eval_genpoly_uniqueness_oracle():
    rng = np.random.default_rng(6)
    mats = [rng.standard_normal((2, 2)) for _ in range(3)]
    p = GenPoly.monomial(mats, parse_word("x1 x1"))
    split = GenPoly.monomial([mats[0], 0.25 * mats[1], mats[2]], parse_word("x1 x1")) + \
        GenPoly.monomial([mats[0], 0.75 * mats[1], mats[2]], parse_word("x1 x1"))
    assert max_basis_diff(p, split) < 1e-12
    s = p.degree() + 1
    for _ in range(10):
        X = random_mattuple(1, 2 * s, rng)
        assert np.linalg.norm(eval_genpoly(p, X) - eval_genpoly(split, X)) < 1e-10


def test_direct_sum_and_conjugate_basics():
    rng = np.random.default_rng(7)
    X, Y = random_mattuple(2, 2, rng), random_mattuple(2, 3, rng)
    Z = direct_sum(X, Y)
    assert Z.n == 5 and Z.g == 2
    assert conjugate(X, np.eye(2)).max_diff(X) == 0
    P = np.zeros((3, 3))
    perm = [2, 0, 1]
    for i, j in enumerate(perm):
        P[i, j] = 1.0
    W = conjugate(Y, P, group="O")
    for k in range(2):
        for i in range(3):
            for j in range(3):
                assert W.mats[k][i, j] == pytest.approx(Y.mats[k][perm[i], perm[j]])


def test_conjugate_group_guards():
    X = random_mattuple(1, 2, 0)
    with pytest.raises(ValueError):
        conjugate(X, np.array([[1.0, 1.0], [0.0, 1.0]]), group="O")
    with pytest.raises(ValueError):
        conjugate(X, np.zeros((2, 2)))


def test_random_group_elements():
    for n in (1, 3, 5):
        q = random_group_element("O", n, seed=n)
        assert np.linalg.norm(q @ q.T - np.eye(n)) < 1e-12
        u = random_group_element("U", n, seed=n)
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-12
        g = random_group_element("GL", n, seed=n)
        assert abs(np.linalg.det(g)) > 0
        assert np.isfinite(np.linalg.cond(g))
    a = random_group_element("O", 4, seed=42)
    b = random_group_element("O", 4, seed=42)
    assert np.array_equal(a, b)


def parent_group_element(group, n, rng, field=None):
    """One group element drawn as before the stacked sampler: one
    generator call per matrix and one one-matrix QR or condition number."""
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


def parent_standard_mats(g, n, rng, field="real"):
    """One tuple drawn as before the stacked sampler, component by component."""
    mats = []
    for _ in range(g):
        m = rng.standard_normal((n, n))
        if field == "complex":
            m = (m + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        mats.append(m)
    return mats


@pytest.mark.parametrize("field", ["real", "complex"])
def test_single_draws_keep_the_per_draw_stream(field):
    for seed in range(4):
        for n in (1, 2, 3, 5):
            for group in GROUPS:
                want = parent_group_element(group, n, np.random.default_rng(seed), field)
                assert np.array_equal(random_group_element(group, n, seed, field), want)
            for g in (1, 3):
                want = parent_standard_mats(g, n, np.random.default_rng(seed), field)
                got = standard_mats(g, n, np.random.default_rng(seed), field)
                assert len(got) == g and all(map(np.array_equal, got, want))
                assert all(map(np.array_equal, random_mattuple(g, n, seed, field).mats, want))
                scaled = scaled_to(np.stack(want)[:, None], [0.3])[:, 0]
                assert all(map(np.array_equal, random_mattuple(g, n, seed, field, norm=0.3).mats, scaled))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_block_is_successive_single_draws(field):
    for seed in range(3):
        for n in (1, 2, 4):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for g in (1, 2, 3):
                A = standard_block(g, n, 5, rng, field)
                assert A.shape == (g, 5, n, n) and A.flags.c_contiguous
                for t in range(5):
                    assert all(map(np.array_equal, A[:, t], parent_standard_mats(g, n, ref, field)))
            for group in GROUPS:  # no GL element is rejected at these seeds
                S = group_block(group, n, 6, rng, field)
                assert S.shape == (6, n, n)
                for t in range(6):
                    assert np.array_equal(S[t], parent_group_element(group, n, ref, field))
            assert rng.standard_normal() == ref.standard_normal()


def test_orthogonal_and_unitary_blocks():
    rng = np.random.default_rng(3)
    for n in (1, 3, 6):
        Q = group_block("O", n, 10, rng)
        assert np.abs(Q @ Q.swapaxes(-1, -2) - np.eye(n)).max() < 1e-12
        U = group_block("U", n, 10, rng)
        assert np.abs(U @ U.conj().swapaxes(-1, -2) - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gl_block_redraws_only_the_rejected_element(monkeypatch, field):
    cond, sizes = np.linalg.cond, []

    def rejecting_the_third(S):
        c = cond(S)
        sizes.append(len(S))
        if len(sizes) == 1:
            c[2] = np.inf
        return c

    ref = np.random.default_rng(5)
    shape = (2, 3, 3) if field == "complex" else (3, 3)
    first, again = ref.standard_normal((5,) + shape), ref.standard_normal((1,) + shape)
    if field == "complex":
        first, again = (z[:, 0] + 1j * z[:, 1] for z in (first, again))
    monkeypatch.setattr(np.linalg, "cond", rejecting_the_third)
    S = group_block("GL", 3, 5, np.random.default_rng(5), field)
    assert sizes == [5, 1]  # one stacked condition number, then one for the redrawn element
    assert np.array_equal(S, np.concatenate([first[:2], again, first[3:]]))
    assert (cond(S) < 1e6).all()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gl_block_hands_back_the_condition_numbers_of_its_elements(monkeypatch, field):
    # those of the rejection test, the redrawn element's included, are the
    # ones a second stacked cond(S) of the block computes, bit for bit
    cond, sizes = np.linalg.cond, []

    def rejecting_the_third(S):
        c = cond(S)
        sizes.append(len(S))
        if len(sizes) == 1:
            c[2] = np.inf
        return c

    monkeypatch.setattr(np.linalg, "cond", rejecting_the_third)
    S, c = _group_block("GL", 3, 5, np.random.default_rng(5), field)
    assert sizes == [5, 1] and np.array_equal(c, cond(S))
    for group in ("O", "U"):
        assert _group_block(group, 3, 5, np.random.default_rng(5), field)[1] is None


def test_sym_matrix_function_values():
    # S = (pi/2)(e_1k + e_k1) satisfies S^3 = (pi/2)^2 S, so sin(S) = e_1k + e_k1
    for k in (2, 3):
        S = (np.pi / 2) * (e(3, 1, k) + e(3, k, 1))
        assert np.allclose(sym_matrix_function("sin", S), e(3, 1, k) + e(3, k, 1), atol=1e-12)
    assert np.allclose(sym_matrix_function(("pow", 0.5), np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(sym_matrix_function("cos", np.zeros((3, 3))), np.eye(3))


def test_sym_matrix_function_guards():
    with pytest.raises(ValueError):
        sym_matrix_function("sin", np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_matrix_function(("pow",  0.5), np.diag([1.0, -1.0]))
    herm = np.array([[1.0, 1j], [-1j, 2.0]])
    out = sym_matrix_function(("pow", 2.0), herm)
    assert np.allclose(out, herm @ herm)
    # the builtins skip the symmetry check; the public function keeps it
    for S in (np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[1.0, 1j], [1j, 2.0]])):
        with pytest.raises(ValueError, match="not symmetric/hermitian"):
            sym_matrix_function("sin", S)


def test_centralizer_examples():
    assert centralizer([], 3).dim == 9
    assert centralizer(matrix_units(2), 2).dim == 1
    c = centralizer([np.diag([1.0, 2.0])], 2)
    assert c.dim == 2
    assert c.residual(np.diag([3.0, -1.0])) < 1e-12
    assert c.residual(e(2, 1, 2)) == pytest.approx(1.0)


def _same_basis(V, W) -> bool:
    return V.n == W.n and V.dim == W.dim and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(V.mats, W.mats))


def test_centralizer_is_the_unit_by_unit_construction_bit_for_bit():
    # the Kronecker constraints kron(I, b^t) - kron(b, I) are the stacked
    # c b - b c over the matrix units c, so single and double centralizers
    # and the GL coefficient algebra come out bit for bit the same
    from ncfun.expand import coefficient_algebra

    rng = np.random.default_rng(24)
    for n in (1, 2, 3, 4):
        for field in ("real", "complex"):
            def draw():
                m = rng.standard_normal((n, n))
                return m + 1j * rng.standard_normal((n, n)) if field == "complex" else m

            for B in ([draw()], [draw(), draw()], [np.diag(np.diag(draw()))], [np.triu(draw())],
                      [2.5 * np.eye(n)], [np.eye(n), np.diag(np.arange(n, dtype=float))]):
                C, R = centralizer(B, n), reference_centralizer(B, n)
                assert _same_basis(C, R), (n, field)
                assert _same_basis(centralizer(C.mats, n), reference_centralizer(R.mats, n)), (n, field)
    for A in (MatTuple([e(2, 1, 2)]), MatTuple([np.diag([1.0, -0.5]), np.diag([0.25, 2.0])]),
              random_mattuple(1, 3, 24)):
        alg = generated_algebra(A, with_involution=False)
        assert _same_basis(coefficient_algebra("GL", A),
                           reference_centralizer(reference_centralizer(alg.mats, A.n).mats, A.n))


def test_orthonormalize_takes_any_iterable():
    mats = [np.eye(2), np.diag([1.0, -1.0]), e(2, 1, 2)]
    V, W = orthonormalize(mats, 2), orthonormalize(iter(mats), 2)
    assert V.dim == W.dim == 3 and _same_basis(V, W)
    assert orthonormalize(iter([np.eye(2), 1j * e(2, 1, 2)]), 2).mats[0].dtype == complex
    assert [m.tolist() for m in matrix_units(2)] == [e(2, i, j).tolist() for i in (1, 2) for j in (1, 2)]


def test_generated_algebra_examples():
    A = MatTuple([e(2, 1, 2)])
    assert generated_algebra(A, with_involution=False).dim == 2
    assert generated_algebra(A, with_involution=True).dim == 4
    Z = MatTuple([np.zeros((3, 3))])
    alg = generated_algebra(Z, with_involution=True)
    assert alg.dim == 1
    assert alg.residual(np.eye(3)) < 1e-12


def test_subspace_residual_values():
    V = orthonormalize([e(2, 1, 1), e(2, 1, 2)], 2)
    assert subspace_residual(e(2, 1, 1), V) < 1e-12
    M = e(2, 2, 1).__mul__(2.0)
    assert subspace_residual(M, V) == pytest.approx(np.linalg.norm(M))
    with pytest.raises(ValueError):
        V.residual(np.zeros((3, 3)))


def test_double_centralizer_tautology():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        A = random_mattuple(2, n, rng)
        alg = generated_algebra(A, with_involution=False)
        cc = centralizer(centralizer(alg.mats, n).mats, n)
        for m in A.mats:
            assert cc.residual(m) < 1e-10


def test_centralizer_inclusion_reversing():
    rng = np.random.default_rng(9)
    n = 3
    b1 = [rng.standard_normal((n, n))]
    b2 = b1 + [rng.standard_normal((n, n))]
    c1, c2 = centralizer(b1, n), centralizer(b2, n)
    for m in c2.mats:
        assert c1.residual(m) < 1e-10


def test_precento_double_centralizer_identity():
    # for a *-closed unital algebra B, C(C(B)) = B
    rng = np.random.default_rng(10)
    for n in (2, 3, 4, 5):
        A = random_mattuple(1 + n % 2, n, rng)
        B = generated_algebra(A, with_involution=True)
        cc = centralizer(centralizer(B.mats, n).mats, n)
        assert cc.dim == B.dim
        for m in cc.mats:
            assert B.residual(m) < 1e-8
        for m in B.mats:
            assert cc.residual(m) < 1e-8


def test_mattuple_guards():
    with pytest.raises(ValueError):
        MatTuple([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        MatTuple([np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        MatTuple([np.array([[np.inf, 0], [0, 0]])])
    with pytest.raises(ValueError):
        MatTuple([np.eye(2) * 1j], field="real")
    with pytest.raises(ValueError):
        eval_word(parse_word("x3"), MatTuple([np.eye(2)]))


def test_difference_of_tuples_of_different_arity_is_refused():
    with pytest.raises(ValueError, match="tuples differ in arity or size: g=2, n=2 and g=1, n=2"):
        random_mattuple(2, 2, 0) - random_mattuple(1, 2, 1)


def test_max_diff_of_tuples_of_different_arity_is_refused():
    with pytest.raises(ValueError, match="tuples differ in arity or size: g=2, n=2 and g=1, n=2"):
        random_mattuple(2, 2, 0).max_diff(random_mattuple(1, 2, 1))


def test_sum_of_tuples_of_different_size_is_refused():
    with pytest.raises(ValueError, match="tuples differ in arity or size: g=1, n=2 and g=1, n=1"):
        random_mattuple(1, 2, 0) + random_mattuple(1, 1, 1)


def test_zero_polynomials_keep_the_tuple_dtype():
    exact = MatTuple([np.array([[1, 2], [3, 4]], dtype=object)])
    mixed = MatTuple([np.array([[1.5, 2], [3, 4]], dtype=object)])  # a float entry: Python arithmetic
    floats = MatTuple([np.array([[1.0, 2.0], [3.0, 4.0]])])
    for X, dtype in ((exact, object), (mixed, object), (floats, np.float64)):
        for val in (eval_tracepoly(TracePoly({}), X), eval_ncpoly(NCPoly.zero(), X)):
            assert val.dtype == dtype and val.shape == (2, 2) and not val.any()


def test_exact_eval_sums_past_int64():
    # each term fits int64, their sum does not: the bound counts the sum
    one = np.array([[1]], dtype=object)
    p = NCPoly({((1, False),): 2**62, ((1, False),) * 2: 2**62})
    assert eval_ncpoly(p, MatTuple([one]))[0, 0] == 2**63
    assert eval_ncpoly(p.scale(-1), MatTuple([one]))[0, 0] == -(2**63)
    # clearing d = 2^40 weights the constant term by d^2 = 2^80
    tiny = MatTuple([np.array([[Fraction(1, 2**40)]], dtype=object)])
    assert eval_ncpoly(NCPoly({(): 1, ((1, False),) * 2: 1}), tiny)[0, 0] == 1 + Fraction(1, 2**80)


def test_lone_entry_sums_read_zero_without_its_sign():
    # -x1 at a zero tuple: a 1x1 block reads 0.0, as every larger one does,
    # and exact entries stay Python integers
    neg = NCPoly.variable(1).scale(-1)
    for dt, field in ((float, "real"), (complex, "complex")):
        for n in (1, 2):
            val = eval_ncpoly(neg, MatTuple([np.zeros((n, n), dtype=dt)], field))
            assert val.dtype == dt and not val.any() and not np.signbit(val.real).any()
    val = eval_ncpoly(neg, MatTuple([np.array([[3]], dtype=object)]))
    assert val.dtype == object and type(val[0, 0]) is int and val[0, 0] == -3


def _random_tracepoly(g, mode, field, rng):
    """A few terms c tr(u_1)...tr(u_k) tail with k <= 2 and short words."""
    inv = mode == INV
    words = [w for m in range(3) for w in words_of_degree(g, m, inv)]
    coeffs = {}
    for _ in range(5):
        pure = tuple(words[int(rng.integers(1, len(words)))] for _ in range(int(rng.integers(0, 3))))
        c = float(rng.uniform(-1, 1))
        coeffs[(pure, words[int(rng.integers(0, len(words)))])] = complex(c, 0.5) if field == "complex" else c
    return TracePoly(coeffs, mode, field)


def _fraction_tuple(g, n, rng):
    return MatTuple([np.array([[Fraction(int(a), int(b)) for a, b in zip(r1, r2)] for r1, r2 in
                               zip(rng.integers(-4, 5, (n, n)), rng.integers(1, 4, (n, n)))], dtype=object)
                     for _ in range(g)])


def test_eval_matches_the_plain_term_loop():
    # floats and complex numbers bit for bit, exact entries as numbers
    rng = np.random.default_rng(11)
    for seed in range(8):
        mode = INV if seed % 2 else "free"
        for field in ("real", "complex"):
            p = random_ncpoly(2, 4, mode, seed=seed, n_terms=6, field=field)
            t = _random_tracepoly(2, mode, field, rng)
            for n in (1, 2, 3, 5):
                X = random_mattuple(2, n, rng, field)
                for poly, ev in ((p, eval_ncpoly), (t, eval_tracepoly)):
                    got, want = ev(poly, X), reference_eval(poly, X)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
        q = NCPoly({w: Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for w in p.coeffs}, mode)
        tq = TracePoly({k: Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4))) for k in t.coeffs}, mode)
        for X in (_fraction_tuple(2, 3, rng), MatTuple([rng.integers(-4, 5, (3, 3)).astype(object)] * 2)):
            for poly, ev in ((q, eval_ncpoly), (tq, eval_tracepoly)):
                got, want = ev(poly, X), reference_eval(poly, X)
                assert got.dtype == object and all(got[i, j] == want[i, j] for i in range(3) for j in range(3))
