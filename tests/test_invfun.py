import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ncfun import (
    FREE,
    INV,
    FormalSeries,
    MatTuple,
    NCPoly,
    SingularLinearPartError,
    composition_residual,
    eval_ncpoly,
    formal_inverse,
    implicit_formal,
    implicit_numeric,
    implicit_residual,
    injectivity_check,
    linear_part,
    newton_invert,
    oracle_from_ncpoly,
    random_group_element,
    random_mattuple,
)
from ncfun.invfun import _unvec, _vec, assemble_jacobian
from ncfun.oracle import random_ncpoly

from helpers import (
    black_box,
    counted,
    reference_fd_jacobian,
    reference_formal_inverse,
    reference_horner_compose,
    reference_jacobian,
    reference_linear_part,
    reference_newton,
)

x1 = NCPoly.variable(1)


def ivar(k, starred=False):
    return NCPoly.variable(k, starred, mode=INV)


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def test_formal_inverse_catalan():
    F = FormalSeries.from_ncpoly(x1 - x1 * x1, 5)
    (H,) = formal_inverse([F])
    for m in range(1, 6):
        w = tuple(((1, False),) * m)
        assert H.parts[m].coefficient(w) == pytest.approx(catalan(m - 1))
    assert composition_residual([F], [H]) < 1e-10


def test_formal_inverse_identity():
    F = FormalSeries.from_ncpoly(x1, 4)
    (H,) = formal_inverse([F])
    assert H.to_ncpoly().max_coeff_diff(x1) == 0


def test_formal_inverse_involution_case():
    F = FormalSeries.from_ncpoly(ivar(1) + ivar(1) * ivar(1, True), 3)
    (H,) = formal_inverse([F])
    assert composition_residual([F], [H]) < 1e-10
    # the quadratic part is -y y^t
    assert H.parts[2].max_coeff_diff((ivar(1) * ivar(1, True)).scale(-1)) < 1e-12


def test_formal_inverse_two_sided_random():
    rng = np.random.default_rng(0)
    count = 0
    for trial in range(20):
        mode = INV if trial % 2 else FREE
        g = 1 + trial % 2
        D = 3 + trial % 3
        F = []
        for i in range(g):
            p = random_ncpoly(g, D, mode, rng, n_terms=4)
            p = p - NCPoly({(): p.coefficient(())}, mode)  # drop constant
            p = p - p.homogeneous_part(1)
            lin = NCPoly.variable(i + 1, mode=mode)  # invertible linear part
            if mode == INV and trial % 4 == 1:
                lin = lin + NCPoly.variable(i + 1, True).scale(0.5)
            F.append(FormalSeries.from_ncpoly(lin + p, D))
        H = formal_inverse(F)
        assert composition_residual(F, H) < 1e-10
        count += 1
    assert count == 20


def test_formal_inverse_mixed_complex_linear_part_g2():
    # the linear part mixes both letters and both stars, with complex
    # entries, so every entry of L^{-1} enters the substitution
    s1, s2 = ivar(1, True), ivar(2, True)
    F = [
        FormalSeries.from_ncpoly(ivar(1).scale(2 + 0.5j) + ivar(2).scale(0.5) + s1.scale(0.25j)
                                 + s2.scale(-0.4) + (ivar(1) * s2).scale(0.7), 4),
        FormalSeries.from_ncpoly(ivar(1).scale(-0.3j) + ivar(2).scale(1.5) + s1.scale(0.1)
                                 + s2.scale(0.2 - 0.1j) + (s1 * ivar(2)).scale(-0.45), 4),
    ]
    H = formal_inverse(F)
    assert composition_residual(F, H) < 1e-12


def test_involution_free_inputs_stay_involution_free():
    F = FormalSeries.from_ncpoly(x1 - x1 * x1 * x1, 4)
    (H,) = formal_inverse([F])
    assert H.mode == FREE


def test_formal_inverse_rejects_singular_linear_part():
    F = FormalSeries.from_ncpoly(x1 * x1, 3)
    with pytest.raises(SingularLinearPartError):
        formal_inverse([F])


def test_formal_inverse_and_residual_boundary_checks():
    F = FormalSeries.from_ncpoly(x1 - x1 * x1, 3)
    with pytest.raises(ValueError, match="above the order 3"):
        formal_inverse([F], 5)  # F's parts 4..5 are unknown
    with pytest.raises(ValueError, match="empty tuple F"):
        formal_inverse(())
    (H,) = formal_inverse([F], 3)
    with pytest.raises(ValueError, match="empty tuple F"):
        composition_residual((), [H])
    with pytest.raises(ValueError, match="empty tuple H"):
        composition_residual([F], ())


def test_formal_inverse_refuses_letters_beyond_g():
    # a 1-tuple in x1 and x2 has no inverse in x1 alone
    F = FormalSeries.from_ncpoly(x1 + NCPoly.variable(2), 3)
    with pytest.raises(ValueError, match="g = 1 components but uses x2"):
        formal_inverse([F])
    with pytest.raises(ValueError, match="g = 1 components but uses x2"):
        formal_inverse([FormalSeries.from_ncpoly(ivar(1) + ivar(2, True) * ivar(1), 3)])


def test_composition_residual_refuses_tuples_of_different_lengths():
    F = FormalSeries.from_ncpoly(x1 - x1 * x1, 3)
    with pytest.raises(ValueError, match="tuples of 1 and 2 series"):
        composition_residual([F], [F, F])


def _mixed_involution_g2(D):
    """An involution g=2 tuple whose linear part mixes x and x^t, with one
    quadratic and two cubic terms: its inverse is dense up to degree D."""
    return [
        FormalSeries.from_ncpoly(ivar(1) + ivar(1, True).scale(0.5) + ivar(2).scale(0.3)
                                 + (ivar(1) * ivar(2) * ivar(1, True)).scale(0.4)
                                 + (ivar(1) * ivar(2, True)).scale(0.25), D),
        FormalSeries.from_ncpoly(ivar(2) + ivar(2, True).scale(-0.4) + ivar(1).scale(0.2)
                                 + (ivar(2, True) * ivar(1) * ivar(2)).scale(0.7), D),
    ]


def test_formal_inverse_mixed_involution_g2_d5():
    F = _mixed_involution_g2(5)
    H = formal_inverse(F)
    assert sum(len(h.to_ncpoly().coeffs) for h in H) == 2 * sum(4**m for m in range(1, 6))  # every word of length 1..5
    assert composition_residual(F, H) <= 1e-14


def test_formal_inverse_order_d_steps_match_full_order_steps():
    # the degree-major walk reads each degree of G o H once; the reference
    # composes all of G o H at the full order for every step d, by the
    # recursive Horner's rule, and keeps its words of length d
    rng = np.random.default_rng(4)
    cases = [([FormalSeries.from_ncpoly(x1 - x1 * x1, 8)], 8), (_mixed_involution_g2(4), 4)]
    for mode in (FREE, INV):
        F = []
        for i in range(2):
            p = random_ncpoly(2, 4, mode, rng, n_terms=6)
            p = p - NCPoly({(): p.coefficient(())}, mode) - p.homogeneous_part(1)
            F.append(FormalSeries.from_ncpoly(NCPoly.variable(i + 1, mode=mode) + p, 4))
        cases.append((F, 4))
    for F, D in cases:
        got, want = formal_inverse(F, D), reference_formal_inverse(F, D)
        assert [list(h.to_ncpoly().coeffs.items()) for h in got] == [list(h.to_ncpoly().coeffs.items()) for h in want]


def _inverse_cases():
    """The Catalan series x - x^2 at orders 16 and 10, a g=2 involution
    tuple with quadratic tails at order 8, the mixed involution g=2 tuple
    at orders 5 and 6, and random g=2 FREE and INV tuples at order 6."""
    cases = [[FormalSeries.from_ncpoly(x1 - x1 * x1, 16)], [FormalSeries.from_ncpoly(x1 - x1 * x1, 10)],
             [FormalSeries.from_ncpoly(ivar(1) + (ivar(1) * ivar(1, True)).scale(0.7), 8),
              FormalSeries.from_ncpoly(ivar(2) + (ivar(2) * ivar(1)).scale(0.6), 8)],
             _mixed_involution_g2(5), _mixed_involution_g2(6)]
    rng = np.random.default_rng(6)
    for mode in (FREE, INV):
        F = []
        for i in range(2):
            p = random_ncpoly(2, 4, mode, rng, n_terms=6)
            p = p - NCPoly({(): p.coefficient(())}, mode) - p.homogeneous_part(1)
            F.append(FormalSeries.from_ncpoly(NCPoly.variable(i + 1, mode=mode) + p, 6))
        cases.append(F)
    return cases


def test_formal_inverse_truncates_bit_for_bit():
    # degree k of the inverse never reads the degrees above k, so the
    # inverse to degree D is the words of length <= D of the full inverse
    for F in _inverse_cases():
        order = F[0].order
        full = formal_inverse(F)
        for D in range(order):  # D = 0 and 1 included
            got = formal_inverse(F, D)
            want = [FormalSeries.from_ncpoly(h.poly, D) for h in full]
            assert [(h.order, list(h.poly.coeffs.items())) for h in got] == \
                [(h.order, list(h.poly.coeffs.items())) for h in want]


def test_implicit_formal_is_the_reference_inverse_of_the_augmented_map():
    # h = the y block of the inverse of (x, y) -> (x, f(x, y)), at y = 0
    x, y = ivar(1), ivar(2)
    maps = [oracle_from_ncpoly(NCPoly.variable(2) + (NCPoly.variable(2) * x1).scale(0.8) + x1),
            oracle_from_ncpoly(y + (y * x).scale(0.8) + x + (y * y.involution()).scale(0.5)
                               + (x * y * x.involution()).scale(-0.3))]
    for f, D in zip(maps, (8, 5)):
        h = implicit_formal(f, 1, D)
        mode = f.polys[0].mode
        ident = FormalSeries.identity_tuple(2, D, mode)
        aug = (ident[0], FormalSeries.from_ncpoly(f.polys[0], D))
        want = reference_horner_compose(reference_formal_inverse(aug, D)[1:], (ident[0], FormalSeries.zero(D, mode)))
        assert [(s.order, list(s.poly.coeffs.items())) for s in h] == \
            [(s.order, list(s.poly.coeffs.items())) for s in want]


def test_linear_part_structure():
    F = (
        FormalSeries.from_ncpoly(ivar(1) + ivar(2, True).scale(2.0), 2),
        FormalSeries.from_ncpoly(ivar(2).scale(3.0), 2),
    )
    lp = linear_part(F)
    assert lp.matrix.shape == (4, 4)
    # block [[A, B], [conj B, conj A]]
    assert lp.matrix[0, 0] == 1 and lp.matrix[0, 3] == 2 and lp.matrix[1, 1] == 3
    assert lp.matrix[2, 2] == 1 and lp.matrix[2, 1] == 2 and lp.matrix[3, 3] == 3


def test_linear_part_is_the_entrywise_construction_bit_for_bit():
    # one coefficient table: free mode keeps its g columns and refuses
    # complex coefficients, with involution it is stacked over its rolled
    # conjugate; values and dtype match the entry-by-entry blocks
    rng = np.random.default_rng(24)
    draws = {"float": lambda: float(rng.standard_normal()),
             "fraction": lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
             "int": lambda: int(rng.integers(-3, 4)),
             "complex": lambda: complex(*rng.standard_normal(2)),
             "complex, real values": lambda: complex(rng.standard_normal(), 0.0)}
    for mode in (FREE, INV):
        stars = (False, True) if mode == INV else (False,)
        for kind, draw in draws.items():
            for g in (1, 2, 3):
                F = tuple(FormalSeries.from_ncpoly(NCPoly(
                    {**{((j, st),): draw() for j in range(1, g + 1) for st in stars}, ((1, False),) * 2: draw()},
                    mode), 3) for _ in range(g))
                if mode == FREE and kind.startswith("complex"):
                    for build in (linear_part, reference_linear_part):
                        with pytest.raises(ValueError, match="complex coefficients"):
                            build(F)
                    continue
                got, want = linear_part(F).matrix, reference_linear_part(F)
                assert got.dtype == want.dtype and np.array_equal(got, want), (mode, kind, g)


def test_vec_unvec_round_trip():
    # _vec: entries row-major, component by component, real parts before
    # imaginary ones; _unvec inverts it in both fields
    for field in ("real", "complex"):
        X = random_mattuple(3, 4, 24, field)
        v = _vec(X)
        flat = np.concatenate([m.ravel() for m in X.mats])
        assert v.dtype == float and np.array_equal(v, np.concatenate([flat.real, flat.imag]) if field == "complex"
                                                   else flat)
        Y = _unvec(v, 3, 4, field)
        assert Y.field == field and all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(X.mats, Y.mats))
    exact = MatTuple([np.array([[Fraction(1, 3), 1], [0, -2]], dtype=object)])
    assert np.array_equal(_vec(exact), [1 / 3, 1.0, 0.0, -2.0])


def test_newton_identity_map_one_step():
    f = oracle_from_ncpoly(x1)
    Y = random_mattuple(1, 3, 1)
    tr = newton_invert(f, Y)
    assert tr.converged and len(tr.iterates) == 1
    assert tr.X.max_diff(Y) < 1e-14


def test_newton_evaluates_f_once_per_accepted_step():
    # x + x x^t has a symbolic derivative, so every oracle call is a value
    # of f: one at X0 and one per full Newton step, which is always accepted here
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True))
    tr = newton_invert(f, MatTuple([0.1 * np.eye(3) + 0.05 * np.tri(3)]))
    assert tr.converged and f.calls == 1 + len(tr.iterates)


@pytest.mark.parametrize("mode", [FREE, INV])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_jacobian_matches_reference_columns_bit_for_bit(mode, field):
    # n = 8 splits the stack of directions over several walks
    for seed in range(4):
        g = 1 + seed % 2
        polys = [random_ncpoly(g, 3, mode, seed=20 * seed + j, n_terms=5, field=field) for j in range(g)]
        f = oracle_from_ncpoly(polys, field=field)
        for n in (1, 2, 3, 8):
            X = random_mattuple(f.g, n, seed + n, field)
            got, want = assemble_jacobian(f, X), reference_jacobian(f, X)
            assert got.shape == want.shape and np.array_equal(got, want)


def test_newton_stop_reasons():
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True))
    # x + x x^t = Y has no solution here; the residual stalls near 0.157
    tr = newton_invert(f, MatTuple([0.1 * np.random.default_rng(3).standard_normal((8, 8))]), tol=1e-12)
    assert not tr.converged and tr.reason == "stagnated" and len(tr.iterates) <= 10
    assert tr.iterates[-1][0] > 0.1
    Y = MatTuple([0.1 * np.eye(3) + 0.05 * np.tri(3)])
    assert newton_invert(f, Y).reason == "converged"
    assert newton_invert(f, Y, maxit=1).reason == "maxit"


def test_newton_matches_formal_inverse():
    f = oracle_from_ncpoly(x1 - x1 * x1)
    Y = MatTuple([0.1 * np.eye(2)])
    tr = newton_invert(f, Y)
    assert tr.converged and f(tr.X).max_diff(Y) < 1e-12
    # Catalan coefficients grow like 4^m: degree 10 keeps the truncation
    # tail below 1e-6 at radius 0.1
    F = FormalSeries.from_ncpoly(x1 - x1 * x1, 10)
    (H,) = formal_inverse([F])
    approx = eval_ncpoly(H.to_ncpoly(), Y)
    assert np.linalg.norm(tr.X.mats[0] - approx, 2) < 1e-6


def test_newton_equivariance_and_agreement_slope():
    p = ivar(1) + ivar(1) * ivar(1, True)
    f = oracle_from_ncpoly(p)
    D = 3
    (H,) = formal_inverse([FormalSeries.from_ncpoly(p, D)])
    h_poly = H.to_ncpoly()
    rng = np.random.default_rng(2)
    # equivariance under the declared group
    Y = random_mattuple(1, 2, rng, norm=0.05)
    u = random_group_element("O", 2, rng)
    trY = newton_invert(f, Y)
    trU = newton_invert(f, MatTuple([u @ Y.mats[0] @ u.T]))
    assert np.linalg.norm(trU.X.mats[0] - u @ trY.X.mats[0] @ u.T, 2) < 1e-7
    # agreement with the truncated formal inverse: O(|Y|^{D+1})
    norms, gaps = [], []
    direction = random_mattuple(1, 2, rng, norm=1.0)
    for r in (1e-1, 10 ** -1.5, 1e-2):
        Yr = direction.scale(r)
        tr = newton_invert(f, Yr)
        gaps.append(np.linalg.norm(tr.X.mats[0] - eval_ncpoly(h_poly, Yr), 2))
        norms.append(r)
    slope = np.polyfit(np.log(norms), np.log(gaps), 1)[0]
    assert slope >= D + 0.5


def test_newton_reports_singular_jacobian():
    from ncfun.invfun import NewtonError

    f = oracle_from_ncpoly(x1 * x1)
    Y = MatTuple([0.1 * np.eye(2)])
    with pytest.raises(NewtonError):
        newton_invert(f, Y)  # Df(0) = 0


def test_implicit_explicit_case():
    # f(x, y) = y - x^2  ->  h(x) = x^2
    f = oracle_from_ncpoly(NCPoly.variable(2) - NCPoly.variable(1) ** 2)
    (h,) = implicit_formal(f, 1, 3)
    assert h.to_ncpoly().max_coeff_diff(x1 * x1) < 1e-12


def test_implicit_formal_composition_residual():
    # f(x, y) = y + y x + x
    f = oracle_from_ncpoly(
        NCPoly.variable(2) + NCPoly.variable(2) * NCPoly.variable(1) + NCPoly.variable(1)
    )
    h = implicit_formal(f, 1, 3)
    assert h[0].parts[1].max_coeff_diff(x1.scale(-1)) < 1e-12
    res = implicit_residual(f, 1, h)
    assert type(res) is float and res < 1e-10


def test_implicit_formal_black_box_route_matches_symbolic():
    # f(x, y) = y + 0.8 y x + x  ->  h(x) = sum_k (-1)^k 0.8^(k-1) x^k; an
    # oracle without ``polys`` is read through taylor_at_zero instead
    f = oracle_from_ncpoly(
        NCPoly.variable(2) + (NCPoly.variable(2) * NCPoly.variable(1)).scale(0.8) + NCPoly.variable(1)
    )
    box = dataclasses.replace(f, polys=None)
    (hb,) = implicit_formal(box, 1, 5)
    (hs,) = implicit_formal(f, 1, 5)
    assert box.calls > 0 and f.calls == 0
    assert hb.max_coeff_diff(hs) < 1e-12
    want = NCPoly({((1, False),) * k: (-1) ** k * 0.8 ** (k - 1) for k in range(1, 6)})
    assert hb.to_ncpoly().max_coeff_diff(want) < 1e-12
    assert implicit_residual(f, 1, (hb,)) < 1e-12


def test_implicit_numeric_case():
    # f(x, y) = y - x x^t at x = e12  ->  y = e11
    f = oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True))
    xhat = MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
    tr = implicit_numeric(f, 1, xhat)
    assert tr.converged
    assert np.linalg.norm(tr.X.mats[0] - np.array([[1.0, 0.0], [0.0, 0.0]])) < 1e-10


def test_injectivity_obstruction():
    f = oracle_from_ncpoly(x1 * x1)
    X1 = MatTuple([np.eye(2)])
    X2 = MatTuple([-np.eye(2)])
    rep = injectivity_check(f, X1, X2)
    assert rep.values_equal
    assert rep.offdiag_image_norm < 1e-10
    assert rep.min_singular_value < 1e-10

    rep2 = injectivity_check(f, X1, X1)
    assert rep2.values_equal and rep2.offdiag_image_norm < 1e-12

    inj = oracle_from_ncpoly(x1)
    rep3 = injectivity_check(inj, X1, X2)
    assert not rep3.values_equal and "no obstruction" in rep3.note


def test_newton_complex_unitary_map():
    # f(x) = x + x x^* over C is only R-linear in its derivative; the
    # Jacobian works in the real embedding with 2 g n^2 directions
    p = ivar(1) + ivar(1) * ivar(1, True)
    f = oracle_from_ncpoly(p, field="complex")
    assert f.group == "U"
    rng = np.random.default_rng(5)
    Y = random_mattuple(1, 2, rng, field="complex", norm=0.05)
    tr = newton_invert(f, Y, tol=1e-13)
    assert tr.converged and f(tr.X).max_diff(Y) < 1e-10
    u = random_group_element("U", 2, rng)
    trU = newton_invert(f, MatTuple([u @ Y.mats[0] @ u.conj().T], "complex"), tol=1e-13)
    gap = np.linalg.norm(trU.X.mats[0] - u @ tr.X.mats[0] @ u.conj().T, 2)
    assert gap < 1e-7


def test_newton_complex_map_promotes_a_real_target_or_start():
    # a real Y or X0 is taken into the map's complex field before the first
    # call: the solve then runs in the real embedding with 2 g n^2 directions
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True), field="complex")
    rng = np.random.default_rng(6)
    Y = random_mattuple(1, 2, rng, norm=0.05)
    Yc = random_mattuple(1, 2, rng, field="complex", norm=0.05)
    for target, start in ((Y, None), (Yc, MatTuple([np.zeros((2, 2))])), (Y, MatTuple([np.zeros((2, 2))]))):
        tr = newton_invert(f, target, start, tol=1e-13)
        assert tr.converged and tr.X.field == "complex"
        assert f(tr.X).max_diff(target) < 1e-12


def test_formal_inverse_pure_transpose_linear_part():
    # F = y^t has linear part [[0,1],[1,0]] on the letter space; its
    # inverse is y^t again
    F = FormalSeries.from_ncpoly(ivar(1, True), 3)
    (H,) = formal_inverse([F])
    assert H.to_ncpoly().max_coeff_diff(ivar(1, True)) < 1e-12
    assert composition_residual([F], [H]) < 1e-12
    # mixed invertible combinations keep a two-sided inverse; for the
    # second, L^{-1} L leaves a round-off degree-1 coefficient behind
    for g in (
        ivar(1) + ivar(1, True).scale(0.5) + ivar(1) * ivar(1, True),
        ivar(1).scale(3) + ivar(1, True).scale(0.7) + (ivar(1) * ivar(1)).scale(0.3),
    ):
        G = FormalSeries.from_ncpoly(g, 4)
        (K,) = formal_inverse([G])
        res = composition_residual([G], [K])
        assert type(res) is float and res < 1e-10


@pytest.mark.parametrize("g, field", [(2, "real"), (1, "complex")])
def test_black_box_jacobian_matches_the_per_direction_reference(g, field):
    # all directions as one stack, bit for bit the per-direction ray
    # reads, with 8 calls per direction
    rng = np.random.default_rng(31)
    for n in (2, 3):
        f, ref = black_box(g, field), black_box(g, field)
        X = random_mattuple(g, n, rng, field, norm=0.4)
        J = assemble_jacobian(f, X)
        assert np.array_equal(J, reference_fd_jacobian(ref, X))
        directions = g * n * n * (2 if field == "complex" else 1)
        assert J.shape == (directions, directions)
        assert f.calls == ref.calls == 8 * directions
        assert f.batches == 1


def test_newton_checks_its_inputs_before_calling_f():
    f = oracle_from_ncpoly([x1 + x1 * NCPoly.variable(2), NCPoly.variable(2)])
    Y = random_mattuple(2, 2, 0)
    cases = [
        (random_mattuple(1, 2, 0), None, "target Y has 1 components, the map has 2 outputs"),
        (Y, random_mattuple(1, 2, 1), r"start X0 has g=1, n=2; the map takes g=2 and the target Y has n=2"),
        (Y, random_mattuple(2, 3, 1), r"start X0 has g=2, n=3; the map takes g=2 and the target Y has n=2"),
    ]
    for target, X0, msg in cases:
        with pytest.raises(ValueError, match=msg):
            newton_invert(f, target, X0=X0)
    assert f.calls == 0


def test_newton_trace_counts_the_oracle_calls():
    f, seen = counted(oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True)))
    tr = newton_invert(f, MatTuple([0.1 * np.random.default_rng(4).standard_normal((2, 2))]))
    assert tr.converged and tr.evaluations == len(seen) == f.calls > 0
    f, seen = counted(oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True)))
    tr = implicit_numeric(f, 1, random_mattuple(1, 2, 5))
    assert tr.converged and tr.evaluations == len(seen) == f.calls > 0


def test_negative_maxit_is_refused_before_any_call():
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True))
    g = oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True))
    for solve in (lambda: newton_invert(f, random_mattuple(1, 2, 0), maxit=-3),
                  lambda: implicit_numeric(g, 1, random_mattuple(1, 2, 5), maxit=-1)):
        with pytest.raises(ValueError, match="maxit must be >= 0, got -"):
            solve()
    assert f.calls == g.calls == 0
    assert newton_invert(f, random_mattuple(1, 2, 0), maxit=0).evaluations == 1


# -- black-box solves: one ray-read Jacobian, then Broyden updates --


def x_plus_sin_xxt():
    """The O-free black box x -> x + sin(x x^t), sin by spectral calculus."""
    from ncfun import FreeMapOracle
    from ncfun.mateval import sym_matrix_function

    def ev(X):
        x = X.mats[0]
        return MatTuple([x + sym_matrix_function("sin", x @ x.T)])

    return FreeMapOracle(1, 1, ev, group="O", name="x + sin(x x^t)")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_black_box_copy_and_polynomial_oracle_reach_the_same_solution(n):
    # two routes to one X: the product-rule Jacobian at every iterate, and
    # one ray-read Jacobian kept by Broyden updates
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True))
    box = dataclasses.replace(f, polys=None)
    Y = random_mattuple(1, n, 7, norm=0.1)
    tp, tb = newton_invert(f, Y), newton_invert(box, Y)
    assert tp.converged and tb.converged
    assert tb.X.max_diff(tp.X) < 1e-10
    assert tp.jacobians == len(tp.iterates) == 4
    # the copy keeps the declared degree 2: 4 calls per direction
    assert tb.jacobians == 1 and tb.evaluations < 2 * 4 * n * n
    assert tb.evaluations == box.calls


def test_black_box_solve_assembles_one_jacobian():
    # a Jacobian per iterate took 4 iterations, 4 Jacobians and 293 calls
    f = x_plus_sin_xxt()
    Y = random_mattuple(1, 3, 5, norm=0.1)
    tr = newton_invert(f, Y, tol=1e-11)
    assert tr.converged and tr.reason == "converged"
    assert tr.jacobians == 1 and tr.evaluations <= 90
    assert tr.evaluations == f.calls == 8 * 9 + 1 + len(tr.iterates)
    assert f(tr.X).max_diff(Y) < 1e-11
    # the updates matter: keeping the first Jacobian unchanged (the chord
    # method) takes 38 iterations on this target
    tr = newton_invert(x_plus_sin_xxt(), random_mattuple(1, 2, 2, norm=0.2), tol=1e-11)
    assert tr.converged and tr.jacobians == 1 and len(tr.iterates) <= 12


def test_black_box_solve_is_equivariant():
    rng = np.random.default_rng(12)
    Y = random_mattuple(1, 3, rng, norm=0.1)
    u = random_group_element("O", 3, rng)
    tr = newton_invert(x_plus_sin_xxt(), Y, tol=1e-11)
    trU = newton_invert(x_plus_sin_xxt(), MatTuple([u @ Y.mats[0] @ u.T]), tol=1e-11)
    assert tr.converged and trU.converged
    assert np.linalg.norm(trU.X.mats[0] - u @ tr.X.mats[0] @ u.T, 2) < 1e-9


def test_damped_black_box_step_assembles_a_fresh_jacobian():
    # from X = 0 the full step toward this target is damped, so the
    # Jacobian is assembled again at the next iterate
    f = x_plus_sin_xxt()
    Y = random_mattuple(1, 2, 11, norm=0.3)
    tr = newton_invert(f, Y, tol=1e-11)
    assert tr.converged and tr.jacobians > 1
    assert f(tr.X).max_diff(Y) < 1e-11


def test_stalled_black_box_solve_runs_again_with_a_jacobian_per_iterate():
    # Broyden's path stalls here at residual 0.137 after 11 iterations (698
    # calls, 9 Jacobians); from the start, a Jacobian at every iterate
    # converges in 13 (974 calls, the start value among them)
    f = x_plus_sin_xxt()
    Y = random_mattuple(1, 3, 4, norm=0.5)
    tr = newton_invert(f, Y, tol=1e-11)
    assert tr.converged and tr.reason == "converged"
    assert f(tr.X).max_diff(Y) < 1e-11
    assert len(tr.iterates) == 11 + 13 and tr.jacobians == 9 + 13
    assert tr.evaluations == 698 + 974 - 1
    assert tr.iterates[11][0] > 0.2 > tr.iterates[10][0]  # the second run starts again from X = 0


@pytest.mark.parametrize("field", ["real", "complex"])
def test_polynomial_solves_match_the_per_iterate_reference(field):
    rng = np.random.default_rng(8)
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True), field=field)
    for n in (2, 3, 8):
        Y = random_mattuple(1, n, rng, field, norm=0.1)
        tr = newton_invert(f, Y, tol=1e-12)
        iterates, X, calls = reference_newton(f, Y, tol=1e-12)
        assert tr.iterates == iterates and tr.evaluations == calls
        assert all(np.array_equal(a, b) for a, b in zip(tr.X.mats, X.mats))
        assert tr.jacobians == len(tr.iterates) > 0


def test_newton_refuses_complex_inputs_for_a_real_map():
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True))
    Y, Z = random_mattuple(1, 2, 0), random_mattuple(1, 2, 1, "complex")
    with pytest.raises(ValueError, match="target Y is complex"):
        newton_invert(f, Z)
    with pytest.raises(ValueError, match="start X0 is complex"):
        newton_invert(f, Y, X0=Z)
    assert f.calls == 0


def test_implicit_numeric_checks_the_split_before_calling_f():
    f = oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True))
    cases = [
        (0, random_mattuple(1, 2, 0), r"split g1=0 must be in 1 \.\. 1"),
        (2, random_mattuple(2, 2, 0), r"split g1=2 must be in 1 \.\. 1"),
        (1, random_mattuple(2, 2, 0), "point xhat has g=2 components, the split is g1=1"),
    ]
    for g1, xhat, msg in cases:
        with pytest.raises(ValueError, match=msg):
            implicit_numeric(f, g1, xhat)
    assert f.calls == 0
    tr = implicit_numeric(f, 1, random_mattuple(1, 2, 5))
    assert tr.converged and tr.jacobians == 1


# -- implicit solves: Newton on f itself, the x block held fixed --


@pytest.mark.parametrize("field", ["real", "complex"])
def test_polynomial_implicit_solve_matches_its_black_box_copy(field):
    # f(x, y) = y + 1/2 y y^t x + 0.3 x is nonlinear in y: the product rule
    # at every iterate, against ray reads kept by Broyden updates
    x, y = ivar(1), ivar(2)
    p = y + (y * y.involution() * x).scale(0.5) + x.scale(0.3)
    for n in (2, 3):
        f = oracle_from_ncpoly(p, field=field)
        box = dataclasses.replace(f, polys=None)
        xhat = random_mattuple(1, n, 40 + n, field, norm=0.5)
        tp, tb = implicit_numeric(f, 1, xhat), implicit_numeric(box, 1, xhat)
        assert tp.converged and tb.converged and tp.X.field == tb.X.field == field
        assert tb.X.max_diff(tp.X) < 1e-10
        assert tp.evaluations == f.calls < 10 and tp.jacobians == len(tp.iterates)
        directions = n * n * (2 if field == "complex" else 1)
        assert tb.evaluations >= 5 * directions * tb.jacobians > 0  # declared degree 3: 5 calls


def test_implicit_formal_series_matches_the_newton_solution():
    # two routes to one y: the degree-8 series h of y + 0.8 y x + x + 1/2 y y^t,
    # evaluated at a small point, and the Newton solution of f(xhat, y) = 0
    x, y = ivar(1), ivar(2)
    f = oracle_from_ncpoly(y + (y * x).scale(0.8) + x + (y * y.involution()).scale(0.5))
    (h,) = implicit_formal(f, 1, 8)
    xhat = random_mattuple(1, 3, 17, norm=0.1)
    tr = implicit_numeric(f, 1, xhat)
    assert tr.converged and tr.evaluations < 10
    assert np.linalg.norm(tr.X.mats[0] - eval_ncpoly(h.to_ncpoly(), xhat), 2) < 1e-8


def test_black_box_implicit_solve_differences_stacks_of_f():
    # a Jacobian is one stack of f, not one call of f per node; the copy
    # keeps the declared degree 2, so 4 nodes per direction
    f = dataclasses.replace(oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True)), polys=None)
    tr = implicit_numeric(f, 1, random_mattuple(1, 3, 5))
    assert tr.converged and tr.jacobians >= 1
    assert f.batches == tr.jacobians
    assert tr.evaluations == f.calls == 4 * 9 * tr.jacobians + 1 + len(tr.iterates)


def test_implicit_numeric_checks_the_field_before_calling_f():
    f = oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True))
    with pytest.raises(ValueError, match="point xhat is complex but poly is a real map"):
        implicit_numeric(f, 1, random_mattuple(1, 2, 5, "complex"))
    assert f.calls == 0
    # a real point of a complex map is promoted
    fc = oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True), field="complex")
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    tr = implicit_numeric(fc, 1, MatTuple([e12]))
    assert tr.converged and tr.X.field == "complex" and tr.X.max_diff(MatTuple([e12 @ e12.T])) < 1e-14


def test_exact_inputs_are_solved_as_floats():
    # an exact tuple (as an MTX1 file of integers loads) solves as its floats
    e12 = np.array([[0, 1], [0, 0]])
    f = oracle_from_ncpoly(ivar(2) - ivar(1) * ivar(1, True))
    tr, exact = (implicit_numeric(f, 1, MatTuple([e12.astype(t)])) for t in (float, object))
    assert exact.converged and exact.iterates == tr.iterates and exact.X.max_diff(tr.X) == 0
    f = oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True))
    Y = random_mattuple(1, 2, 3, norm=0.1)
    tr, exact = (newton_invert(f, Y, X0=MatTuple([np.zeros((2, 2), t)])) for t in (float, object))
    assert exact.converged and exact.iterates == tr.iterates and exact.X.max_diff(tr.X) == 0
