import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ncfun import (
    FREE,
    INV,
    DomainError,
    FreeMapOracle,
    MatTuple,
    NCPoly,
    builtin_map,
    check_commutator_identity,
    check_did_block,
    check_direct_sums,
    check_similarity,
    check_triangular_identity,
    derivative,
    expand_at_point,
    newton_invert,
    oracle_from_ncpoly,
    random_mattuple,
    taylor_at_zero,
)
from ncfun.oracle import DEFAULT_LEVELS, random_ncpoly

from helpers import (
    CountingGenerator,
    black_box,
    counted,
    daleckii_krein_x_plus_sin_xxt,
    reference_derivative,
    reference_direct_sums,
    reference_did_residual,
    reference_directional_derivative,
    reference_second_derivative,
    reference_similarity,
    reference_smooth_nonanalytic,
    reference_triangular_residual,
    same_info,
    same_report,
)


def e(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return m


def ivar(k, starred=False):
    return NCPoly.variable(k, starred, mode=INV)


def test_oracle_from_ncpoly_basics():
    ident = oracle_from_ncpoly(NCPoly.variable(1))
    assert ident.group == "GL" and ident.smoothness == ("polynomial", 1)
    X = random_mattuple(1, 3, 0)
    assert ident(X).max_diff(X) == 0

    f = oracle_from_ncpoly(ivar(1) * ivar(1, True))
    assert f.group == "O"
    assert np.allclose(f(MatTuple([e(2, 1, 2)])).mats[0], e(2, 1, 1))

    comm = oracle_from_ncpoly(
        NCPoly.variable(1) * NCPoly.variable(2) - NCPoly.variable(2) * NCPoly.variable(1)
    )
    assert np.allclose(comm(MatTuple([np.array([[2.0]]), np.array([[-3.0]])])).mats[0], 0)


def test_builtin_values():
    p = builtin_map("pow_xxt", alpha=0.5)
    assert np.allclose(p(MatTuple([np.array([[-3.0]])])).mats[0], 3.0)
    s = builtin_map("sinxxt")
    X = MatTuple([np.diag([np.sqrt(np.pi / 2), 0.0])])
    assert np.allclose(s(X).mats[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert builtin_map("pow_xxt", m=3).smoothness == "continuous"
    assert builtin_map("pow_xxt", alpha=1.5).smoothness == ("Ck", 1)
    assert builtin_map("pow_xxt", alpha=2.0).smoothness == ("polynomial", 4)
    with pytest.raises(ValueError):
        builtin_map("pow_xxt", m=1)
    with pytest.raises(ValueError):
        builtin_map("nope")


def test_check_direct_sums():
    f = oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=1))
    rep = check_direct_sums(f, trials=10, tol=1e-10, seed=0)
    assert rep.passed and rep.max_violation < 1e-10

    def trace_eval(X):
        return MatTuple([np.trace(X.mats[0]) * np.eye(X.n)], X.field)

    tr_oracle = FreeMapOracle(1, 1, trace_eval, group="GL", smoothness=("polynomial", 1))
    rep2 = check_direct_sums(tr_oracle, trials=10, tol=1e-8, seed=0)
    assert not rep2.passed and rep2.witnesses
    # violation magnitude matches |tr Y| on a hand-checked witness
    X = MatTuple([np.eye(1)])
    Y = MatTuple([2 * np.eye(1)])
    from ncfun.mateval import direct_sum

    lhs = tr_oracle(direct_sum(X, Y)).mats[0]
    rhs = np.diag([1.0, 2.0])
    assert np.linalg.norm(lhs - rhs, 2) == pytest.approx(2.0)  # tr doubles

    rep3 = check_direct_sums(builtin_map("pow_xxt", m=3), trials=10, tol=1e-8, seed=0)
    assert rep3.passed


def test_check_similarity_groups():
    f = oracle_from_ncpoly(ivar(1) * ivar(1, True))
    assert check_similarity(f, "O", trials=10, tol=1e-8, seed=0).passed
    rep = check_similarity(f, "GL", trials=25, tol=1e-8, seed=0)
    assert not rep.passed
    assert rep.max_violation > 0.01  # transpose covariance breaks under GL
    g = oracle_from_ncpoly(NCPoly.variable(1) * NCPoly.variable(2))
    assert check_similarity(g, "GL", trials=10, tol=1e-8, seed=0).passed


def test_directional_derivative_values():
    rng = np.random.default_rng(2)
    X = random_mattuple(1, 3, rng)
    H = random_mattuple(1, 3, rng)
    f = oracle_from_ncpoly(NCPoly.variable(1) ** 2)
    want = X.mats[0] @ H.mats[0] + H.mats[0] @ X.mats[0]
    sym, err = derivative(f, X, H)
    assert np.linalg.norm(sym.mats[0] - want) < 1e-13 and err == 0.0
    est, err = derivative(dataclasses.replace(f, polys=None, smoothness="analytic"), X, H)
    assert np.linalg.norm(est.mats[0] - want) < 1e-8 and err < 1e-6

    const = oracle_from_ncpoly(NCPoly.one().scale(3.0))
    assert derivative(const, X, H)[0].max_diff(MatTuple([np.zeros((3, 3))])) == 0

    g = oracle_from_ncpoly(ivar(1) * ivar(1, True))
    want2 = X.mats[0] @ H.mats[0].T + H.mats[0] @ X.mats[0].T
    assert np.linalg.norm(derivative(g, X, H)[0].mats[0] - want2) < 1e-13
    est2, _ = derivative(dataclasses.replace(g, polys=None, smoothness="analytic"), X, H)
    assert np.linalg.norm(est2.mats[0] - want2) < 1e-8


@pytest.mark.parametrize("mode", ["free", "involution"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_symbolic_derivative_is_the_product_rule_bit_for_bit(mode, field):
    # the walk against a plain per-position product-rule loop
    for seed in range(6):
        g = 1 + seed % 2
        polys = [random_ncpoly(g, 4, mode, seed=10 * seed + j, n_terms=6, field=field) for j in range(g)]
        f = oracle_from_ncpoly(polys, field=field)
        for n in (1, 2, 3, 5):
            X = random_mattuple(f.g, n, seed + n, field)
            H = random_mattuple(f.g, n, seed + 50 + n, field)
            got, want = derivative(f, X, H)[0], reference_derivative(f, X, H)
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got.mats, want.mats))


def test_derivative_plans_are_kept_on_the_polynomials(monkeypatch):
    # the first derivative plans each polynomial's product rule once; later
    # calls, on the oracle or on a dataclasses.replace copy, plan nothing
    from ncfun import mateval
    from ncfun.invfun import assemble_jacobian

    f = oracle_from_ncpoly([random_ncpoly(2, 4, INV, seed=1, n_terms=8), random_ncpoly(2, 3, INV, seed=2)])
    X, H = random_mattuple(2, 3, 0), random_mattuple(2, 3, 1)
    first = derivative(f, X, H)[0]
    kept = [mateval._derivative_plan(p, 2) for p in f.polys]
    built = []
    init = mateval._PolyPlan.__init__
    monkeypatch.setattr(mateval._PolyPlan, "__init__", lambda self, p, g: built.append(g) or init(self, p, g))
    copy = dataclasses.replace(f, name="copy")
    for h in (f, copy):
        again = derivative(h, X, H)[0]
        assert all(np.array_equal(a, b) for a, b in zip(first.mats, again.mats))
    assemble_jacobian(copy, X)
    assert built == [] and all(mateval._derivative_plan(p, 2) is d for p, d in zip(copy.polys, kept))


def test_checks_record_the_level_they_ran_at():
    # X -> tr(X) I fails direct sums and both block identities, X -> diag(X)
    # fails similarity and the commutator identity; each witness keeps the
    # level its check ran at (m + n for a direct sum)
    tr_map = FreeMapOracle(1, 1, lambda X: MatTuple([np.trace(X.mats[0]) * np.eye(X.n)]), group="O")
    diag_map = FreeMapOracle(1, 1, lambda X: MatTuple([np.diag(np.diag(X.mats[0]))]), group="O")
    rng = np.random.default_rng(2)
    X, H = random_mattuple(1, 3, rng), random_mattuple(1, 3, rng)
    a = rng.standard_normal((3, 3))
    reports = [check_direct_sums(tr_map, [(1, 1)], trials=3), check_triangular_identity(tr_map, X, H),
               check_did_block(tr_map, X, H), check_similarity(diag_map, "O", levels=(2,), trials=3),
               check_commutator_identity(diag_map, X, a - a.T)]
    assert [r.passed for r in reports] == [False] * 5
    assert [r.witnesses[0][2] for r in reports] == [2, 3, 3, 2, 3]


def test_triangular_identity():
    rng = np.random.default_rng(3)
    X = random_mattuple(1, 2, rng)
    H = random_mattuple(1, 2, rng)
    assert check_triangular_identity(oracle_from_ncpoly(NCPoly.variable(1) ** 2), X, H).passed
    # f = x1: the (1,2) block is exactly H
    f1 = oracle_from_ncpoly(NCPoly.variable(1))
    from ncfun.mateval import block_tuple

    val = f1(block_tuple(X, H, None, X)).mats[0]
    assert np.array_equal(val[:2, 2:], H.mats[0])
    # f = x1^3 with H = I: derivative block is 3 X^2
    f3 = oracle_from_ncpoly(NCPoly.variable(1) ** 3)
    I = MatTuple([np.eye(2)])
    val3 = f3(block_tuple(X, I, None, X)).mats[0]
    assert np.linalg.norm(val3[:2, 2:] - 3 * np.linalg.matrix_power(X.mats[0], 2)) < 1e-12


def test_commutator_identity():
    rng = np.random.default_rng(4)
    X = random_mattuple(1, 3, rng)
    a = rng.standard_normal((3, 3))
    a = a - a.T
    f = oracle_from_ncpoly(ivar(1) * ivar(1, True))
    assert check_commutator_identity(f, X, a).passed
    assert check_commutator_identity(f, X, np.zeros((3, 3))).max_violation < 1e-14
    with pytest.raises(ValueError):
        check_commutator_identity(f, X, np.eye(3))
    # block instance with X1 = X2: off-diagonals vanish
    assert check_did_block(f, X, X).max_violation < 1e-10
    Y = random_mattuple(1, 3, rng)
    assert check_did_block(f, X, Y).passed


def test_every_builtin_passes_axioms():
    builtins = [
        builtin_map("pow_xxt", m=3),
        builtin_map("pow_xxt", alpha=1.5),
        builtin_map("sinxxt"),
        builtin_map("smooth_nonanalytic", J=20),
        builtin_map("nonuniform"),
    ]
    for f in builtins:
        assert check_direct_sums(f, DEFAULT_LEVELS, trials=25, tol=1e-7, seed=0).passed, f.name
        assert check_similarity(f, "O", levels=(1, 2, 3), trials=25, tol=1e-7, seed=0).passed, f.name


def test_pow_nondifferentiability_at_zero():
    # (x x^t)^(1/3): |f(h)|/h = h^(-1/3) grows through six decades
    f = builtin_map("pow_xxt", m=3)
    quots = []
    for k in range(1, 7):
        h = 10.0 ** (-k)
        quots.append(float(np.linalg.norm(f(MatTuple([np.array([[h]])])).mats[0], 2)) / h)
    assert all(b > a for a, b in zip(quots, quots[1:]))
    assert quots[-1] > 50


def test_pow_three_halves_quotient_scalings():
    # true behavior of (x x^t)^{3/2} = |x|^3 on scalar slices: first
    # quotients vanish, second quotients vanish (the map is C^{1,1}; its
    # failure to be C^2 is a derivative discontinuity, not a blow-up),
    # and only the fourth-order quotient diverges, like 8/h
    f = builtin_map("pow_xxt", alpha=1.5)

    def val(t):
        return float(f(MatTuple([np.array([[t]])])).mats[0][0, 0])

    first, second, fourth = [], [], []
    for k in range(1, 7):
        h = 10.0 ** (-k)
        first.append(abs(val(h) - val(0)) / h)
        second.append(abs(val(h) - 2 * val(0) + val(-h)) / h**2)
        fourth.append(
            abs(val(2 * h) - 4 * val(h) + 6 * val(0) - 4 * val(-h) + val(-2 * h)) / h**4
        )
    assert max(first) < 1.0
    assert all(b < a for a, b in zip(second, second[1:]))  # converges to 0
    assert all(b > a for a, b in zip(fourth, fourth[1:]))  # diverges
    assert fourth[0] == pytest.approx(8.0 / 0.1, rel=1e-6)


def test_smooth_nonanalytic_growth_sequence():
    vals = [
        math.exp(-math.sqrt(n) + n * math.log(n) - math.lgamma(n + 1)) for n in (4, 9, 16, 25)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_domain_radius_enforced():
    f = FreeMapOracle(
        1, 1, lambda X: X, group="GL", smoothness="analytic", radius=0.5
    )
    with pytest.raises(DomainError):
        f(MatTuple([np.eye(2)]))
    assert f(MatTuple([0.1 * np.eye(2)])).max_diff(MatTuple([0.1 * np.eye(2)])) == 0


def test_max_level_enforced_and_calls_counted():
    f = FreeMapOracle(1, 1, lambda X: X, group="GL", max_level=2)
    with pytest.raises(DomainError, match="level 3"):
        f(MatTuple([np.eye(3)]))
    f(MatTuple([np.eye(2)]))
    assert f.calls == 1  # the refused call never reached the evaluator
    assert dataclasses.replace(f).calls == 0
    # nonuniform refuses level 8 (~0.6 s a call) before evaluating
    with pytest.raises(DomainError):
        builtin_map("nonuniform")(random_mattuple(3, 8, 0, norm=0.1))


def test_oracle_from_ncpoly_needs_a_polynomial():
    with pytest.raises(ValueError, match="at least one polynomial"):
        oracle_from_ncpoly(())


def test_arity_guard():
    f = oracle_from_ncpoly(NCPoly.variable(1) * NCPoly.variable(2))
    with pytest.raises(ValueError):
        f(MatTuple([np.eye(2)]))


def test_unitary_mode_oracle():
    # complex scalars with conjugate-transpose involution: x1 x1^* is a
    # U-free map and passes the U-similarity check
    p = ivar(1) * ivar(1, True)
    f = oracle_from_ncpoly(p, field="complex")
    assert f.group == "U"
    rep = check_similarity(f, "U", levels=(1, 2, 3), trials=15, tol=1e-8, seed=0)
    assert rep.passed
    assert check_direct_sums(f, trials=10, tol=1e-10, seed=1).passed
    Z = random_mattuple(1, 2, 3, field="complex")
    val = f(Z).mats[0]
    assert np.allclose(val, Z.mats[0] @ Z.mats[0].conj().T)


def test_second_order_directional_derivative():
    # d^2/dt^2 (X + tH)^3 at t=0 equals 2(XHH + HXH + HHX): a ray read of
    # the cubic, exact with its spare node
    rng = np.random.default_rng(6)
    X = random_mattuple(1, 3, rng)
    H = random_mattuple(1, 3, rng)
    f = oracle_from_ncpoly(NCPoly.variable(1) ** 3)
    est, err = derivative(f, X, H, order=2)
    x, h = X.mats[0], H.mats[0]
    want = 2 * (x @ h @ h + h @ x @ h + h @ h @ x)
    assert np.linalg.norm(est.mats[0] - want) < 1e-12 * max(1, np.linalg.norm(want))
    assert err < 1e-12
    for order in (0, 3):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            derivative(f, X, H, order=order)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("mode", [FREE, INV])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_product_rule_and_ray_read_agree(order, mode, field):
    # two routes to one derivative: the product rule (at order 2 the plain
    # loop over pairs of positions) and the ray read of the polys=None copy
    for seed in range(4):
        g = 1 + seed % 2
        polys = [random_ncpoly(g, 4, mode, seed=20 * seed + j, n_terms=8, field=field) for j in range(g)]
        f = oracle_from_ncpoly(polys, field=field)
        box = dataclasses.replace(f, polys=None)
        for n in (2, 3):
            X = random_mattuple(g, n, seed + n, field, norm=0.8)
            H = random_mattuple(g, n, seed + 30 + n, field)
            want = derivative(f, X, H)[0] if order == 1 else reference_second_derivative(f, X, H)
            got, err = derivative(box, X, H, order=order)
            assert got.field == want.field
            assert got.max_diff(want) <= 1e-12 * max(1.0, want.norm()) and err <= 1e-12 * max(1.0, want.norm())


def test_x_plus_sin_xxt_against_daleckii_krein():
    # the ray read of x + sin(x x^t) against the closed-form derivative, at
    # most the error that central differences with Richardson steps had
    # (2.1e-12, 5.3e-12, 6.0e-12, 4.3e-12, 1.9e-11 at these norms)
    from ncfun.mateval import sym_matrix_function

    f = FreeMapOracle(1, 1, lambda X: MatTuple([X.mats[0] + sym_matrix_function("sin", X.mats[0] @ X.mats[0].T)]),
                      group="O")
    rng = np.random.default_rng(0)
    for norm, bar in ((0.25, 2.1e-12), (0.5, 5.3e-12), (1.0, 6.0e-12), (2.0, 4.3e-12), (3.0, 1.9e-11)):
        worst = 0.0
        for n in (2, 3, 5):
            for _ in range(3):
                X, H = random_mattuple(1, n, rng, norm=norm), random_mattuple(1, n, rng)
                got, _ = derivative(f, X, H)
                worst = max(worst, np.linalg.norm(got.mats[0] - daleckii_krein_x_plus_sin_xxt(X, H), 2))
        assert worst <= bar


def test_product_rule_keeps_complex_coefficients_in_the_real_field():
    # a real-field oracle with complex coefficients has complex values, and
    # its derivative is complex too, as the ray read of its black-box copy
    f = oracle_from_ncpoly(random_ncpoly(1, 3, FREE, seed=2, field="complex"))
    X, H = random_mattuple(1, 3, 0, norm=0.5), random_mattuple(1, 3, 1)
    sym, _ = derivative(f, X, H)
    ray, _ = derivative(dataclasses.replace(f, polys=None), X, H)
    assert f.field == "real" and sym.field == ray.field == "complex"
    assert np.abs(sym.mats[0].imag).max() > 0.1 and sym.max_diff(ray) <= 1e-12 * sym.norm()
    assert check_triangular_identity(f, X, H).passed


def _flaky(X):
    # raises on some level-3 tuples and returns inf on some level-2 ones
    if X.n == 3 and X.mats[0][0, 0] > 0:
        raise ArithmeticError("flaky")
    if X.n == 2 and X.mats[0][0, 1] > 0.2:
        return MatTuple([np.full((2, 2), np.inf)])
    return MatTuple([X.mats[0] @ X.mats[0]])


def _stacked_check_cases():
    tr_map = FreeMapOracle(1, 1, lambda X: MatTuple([np.trace(X.mats[0]) * np.eye(X.n)]), group="O")
    diag_map = FreeMapOracle(1, 1, lambda X: MatTuple([np.diag(np.diag(X.mats[0]))]), group="O")
    cases = [
        ("free_g2", oracle_from_ncpoly(random_ncpoly(2, 3, seed=1)), ("GL",)),
        ("inv_g2", oracle_from_ncpoly(random_ncpoly(2, 2, INV, seed=2)), ("O", "GL")),
        ("complex_u", oracle_from_ncpoly(random_ncpoly(2, 2, INV, seed=3, field="complex"), field="complex"),
         ("U", "GL")),
        ("sinxxt", builtin_map("sinxxt"), ("O",)),
        ("tr_map", tr_map, ("O",)),
        ("diag_map", diag_map, ("O",)),
        ("raising", FreeMapOracle(1, 1, _flaky, group="GL"), ("GL", "O")),
    ]
    return [pytest.param(f, groups, id=name) for name, f, groups in cases]


@pytest.mark.parametrize("f,groups", _stacked_check_cases())
def test_stacked_checks_match_the_per_trial_reference(f, groups):
    # the stacked checks draw every trial first and evaluate each level as
    # stacks; reports, witnesses and levels are bit for bit those of the
    # per-trial loop over f(...)
    pairs = [(1, 1), (1, 2), (2, 3), (3, 3)]
    for seed in (0, 1, 2):
        for tol in (1e-8, 1e-14):
            assert same_report(check_direct_sums(f, pairs, trials=6, tol=tol, seed=seed),
                               reference_direct_sums(f, pairs, 6, tol, seed))
            for group in groups:
                assert same_report(check_similarity(f, group, (1, 2, 3), trials=6, tol=tol, seed=seed),
                                   reference_similarity(f, group, (1, 2, 3), 6, tol, seed))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gl_similarity_takes_the_draws_condition_numbers(monkeypatch, field):
    # against the two-SVD construction (group_block, then cond(S) again):
    # samples, radii, residuals and verdicts bit for bit
    from ncfun import oracle
    from ncfun.mateval import group_block, scaled_block, stack_diffs

    maps = [oracle_from_ncpoly(random_ncpoly(2, 3, mode, seed=4, field=field), field=field) for mode in (FREE, INV)]

    def run():
        seen = []

        def scaled(*args):
            seen.append((args[-2], scaled_block(*args)))
            return seen[-1][1]

        def diffs(a, b):
            seen.append(stack_diffs(a, b))
            return seen[-1]

        monkeypatch.setattr(oracle, "scaled_block", scaled)
        monkeypatch.setattr(oracle, "stack_diffs", diffs)
        reports = [check_similarity(f, "GL", (1, 2, 3, 4), trials=25, tol=1e-8, seed=seed)
                   for f in maps for seed in (0, 1)]
        return reports, seen

    reports, seen = run()
    monkeypatch.setattr(oracle, "_group_block", lambda *args: (group_block(*args), None))
    two_svd, seen_two_svd = run()
    assert [r.passed for r in reports] == [True, True, False, False]
    assert all(map(same_report, reports, two_svd)) and len(seen) == len(seen_two_svd) == 2 * 2 * 4 * 2
    assert all(same_info(a, b) for a, b in zip(seen, seen_two_svd))


@pytest.mark.parametrize("polynomial", [True, False])
def test_checks_count_one_call_per_tuple_and_one_batch_per_stack(polynomial):
    f = oracle_from_ncpoly(random_ncpoly(2, 2, INV, seed=4)) if polynomial else builtin_map("sinxxt")
    check_direct_sums(f, DEFAULT_LEVELS, trials=7)
    assert (f.calls, f.batches) == (3 * 7 * len(DEFAULT_LEVELS), 3 * len(DEFAULT_LEVELS))
    f.calls = f.batches = 0
    check_similarity(f, levels=(1, 2, 3), trials=5)
    assert (f.calls, f.batches) == (2 * 5 * 3, 2 * 3)
    # no trials: nothing drawn, nothing evaluated
    assert check_direct_sums(f, trials=0).passed and check_similarity(f, trials=0).passed
    assert (f.calls, f.batches) == (2 * 5 * 3, 2 * 3)


def test_checks_draw_each_level_as_blocks():
    # a per-trial draw makes a generator call per trial and component: 300
    # for the similarity check below, where blocks make 3 per level
    f = oracle_from_ncpoly(random_ncpoly(2, 2, INV, seed=4))
    rng = CountingGenerator(0)
    rep = check_similarity(f, "O", levels=(1, 2, 3), trials=25, seed=rng)
    assert rng.draws <= 3 * 3 and same_report(rep, check_similarity(f, "O", levels=(1, 2, 3), trials=25, seed=0))
    rng = CountingGenerator(0)
    rep = check_direct_sums(f, DEFAULT_LEVELS, trials=25, seed=rng)
    assert rng.draws <= 4 * len(DEFAULT_LEVELS) and same_report(rep, check_direct_sums(f, DEFAULT_LEVELS, trials=25))


def test_stack_is_a_stack_of_calls():
    f = oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=5))
    A = np.stack([np.stack(random_mattuple(2, 3, s, norm=0.8).mats) for s in range(4)], axis=1)
    out = f.stack(A)
    assert out.shape == (1, 4, 3, 3) and (f.calls, f.batches) == (4, 1)
    for t in range(4):
        assert np.array_equal(out[:, t], np.stack(f(MatTuple(A[:, t])).mats))
    with pytest.raises(ValueError, match="stack of shape"):
        f.stack(A[:1])
    with pytest.raises(DomainError, match="level 3"):
        dataclasses.replace(f, max_level=2).stack(A)
    near = dataclasses.replace(f, radius=0.5)
    with pytest.raises(DomainError, match="input norm 0.8"):
        near.stack(A)
    assert near.calls == 0  # refused before any evaluation
    big = oracle_from_ncpoly(NCPoly({((1, False),) * 2: 1e300}))
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
        big.stack(1e10 * np.ones((1, 2, 2, 2)))


def test_stack_on_a_shifted_copy_uses_its_evaluator():
    # a copy with a new evaluator and polys=None must evaluate its stacks
    # through that evaluator, not through the stale polynomial
    f = oracle_from_ncpoly(ivar(1) * ivar(1, True) + ivar(1))
    C = MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
    shifted = dataclasses.replace(f, evaluator=lambda H: f(C + H), polys=None)
    H = np.stack([np.stack(random_mattuple(1, 2, s, norm=0.3).mats) for s in range(3)], axis=1)
    out = shifted.stack(H)
    assert np.array_equal(out, f.stack(H + np.stack(C.mats)[:, None]))
    assert not np.allclose(out, f.stack(H))
    assert (shifted.calls, shifted.batches) == (3, 1) and f.calls == 3 + 3 + 3


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("kind", ["black-box-g2", "complex-black-box", "polynomial"])
def test_directional_derivative_matches_the_per_call_reference(kind, order):
    # one stack of every node, bit for bit the per-call ray read (the
    # product rule for the polynomial at order 1)
    field = "complex" if kind == "complex-black-box" else "real"
    rng = np.random.default_rng(21)
    for n in (2, 3):
        if kind == "polynomial":
            f, g = (oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=n, n_terms=6)) for _ in range(2))
        else:
            f, g = (black_box(1 if field == "complex" else 2, field) for _ in range(2))
        X = random_mattuple(f.g, n, rng, field, norm=0.4)
        H = random_mattuple(f.g, n, rng, field)
        est, err = derivative(f, X, H, order=order)
        want, want_err = reference_directional_derivative(g, X, H, order=order)
        assert est.field == want.field and err == want_err
        assert all(np.array_equal(a, b) for a, b in zip(est.mats, want.mats, strict=True))
        assert f.calls == g.calls


def test_derivative_stays_inside_a_finite_radius():
    # x (1 - x)^-1 on ||x|| < 1: the ray keeps within (1 - ||X||) / 2 of X,
    # and reads (1 - X)^-1 H (1 - X)^-1; a point outside the radius is
    # refused before any call
    f = FreeMapOracle(1, 1, lambda X: MatTuple([X.mats[0] @ np.linalg.inv(np.eye(X.n) - X.mats[0])]),
                      group="GL", radius=1.0)
    H = random_mattuple(1, 3, 1)
    for norm in (0.5, 0.9):
        X = random_mattuple(1, 3, 0, norm=norm)
        R = np.linalg.inv(np.eye(3) - X.mats[0])
        got, err = derivative(f, X, H)
        assert np.linalg.norm(got.mats[0] - R @ H.mats[0] @ R, 2) <= 1e-9 * np.linalg.norm(R, 2) ** 2
    calls = f.calls
    with pytest.raises(DomainError, match="point norm 1.2 outside radius 1 at level 3"):
        derivative(f, random_mattuple(1, 3, 0, norm=1.2), H)
    assert f.calls == calls


# a derivative's calls per direction: RAY_NODES = 8 for a map not declared
# polynomial, max(order, d) + 2 for a declared degree d, 0 for the product
# rule; a derivative and a Jacobian (order 1, every direction) are one
# stack each, none for the product rule
DERIVATIVE_MAPS = {
    "black box": lambda: black_box(1),
    "degree-1 copy": lambda: dataclasses.replace(oracle_from_ncpoly(ivar(1) + ivar(1, True)), polys=None),
    "degree-4 copy": lambda: dataclasses.replace(oracle_from_ncpoly((ivar(1) * ivar(1, True)) ** 2 + ivar(1)),
                                                 polys=None),
    "degree-4 polynomial": lambda: oracle_from_ncpoly((ivar(1) * ivar(1, True)) ** 2 + ivar(1)),
}
DERIVATIVE_BUDGET = [
    # map, order, calls per direction
    ("black box", 1, 8),
    ("black box", 2, 8),
    ("degree-1 copy", 1, 3),
    ("degree-1 copy", 2, 4),
    ("degree-4 copy", 1, 6),
    ("degree-4 copy", 2, 6),
    ("degree-4 polynomial", 1, 0),
    ("degree-4 polynomial", 2, 6),
]


@pytest.mark.parametrize("name, order, calls", DERIVATIVE_BUDGET)
def test_derivative_call_budget(name, order, calls):
    from ncfun.invfun import assemble_jacobian

    f = DERIVATIVE_MAPS[name]()
    X, H = random_mattuple(1, 3, 0, norm=0.5), random_mattuple(1, 3, 1)
    derivative(f, X, H, order)
    assert (f.calls, f.batches) == (calls, int(calls > 0))
    if order == 1:
        f = DERIVATIVE_MAPS[name]()
        assemble_jacobian(f, X)
        assert (f.calls, f.batches) == (calls * 9, int(calls > 0))


def test_directions_are_checked_against_the_point():
    X = random_mattuple(1, 2, 0)
    for f in (black_box(1), oracle_from_ncpoly(ivar(1) * ivar(1, True) + ivar(1))):
        for H in (random_mattuple(2, 2, 1), random_mattuple(1, 3, 1)):
            msg = f"direction H has g={H.g}, n={H.n} but the point X has g=1, n=2"
            for order in (1, 2):
                with pytest.raises(ValueError, match=msg):
                    derivative(f, X, H, order)
        assert f.calls == 0


def test_evaluator_values_are_checked():
    # a value must be g' components of the input's size with finite
    # entries; otherwise f(X), f.stack and every pipeline refuse it, naming
    # the map, what it returned and what was expected
    X = random_mattuple(1, 2, 0, norm=0.5)
    short = FreeMapOracle(1, 2, lambda X: X, name="short")
    small = FreeMapOracle(1, 1, lambda X: MatTuple([np.ones((1, 1))]), name="small")
    nan = FreeMapOracle(1, 1, lambda X: [np.full((X.n, X.n), np.nan)], name="nan")
    for f, msg in ((short, "short returned components of shapes [(2, 2)] at level 2; expected 2 of shape (2, 2)"),
                   (small, "small returned components of shapes [(1, 1)] at level 2; expected 1 of shape (2, 2)"),
                   (nan, "nan returned non-finite entries at level 2")):
        for evaluate in (lambda: f(X), lambda: f.stack(np.array(X.mats)[:, None])):
            with pytest.raises(ValueError, match=re.escape(msg)):
                evaluate()
        with pytest.raises(ValueError, match=f"{f.name} returned"):
            taylor_at_zero(f, 2)
    with pytest.raises(ValueError, match="small returned"):
        newton_invert(small, MatTuple([0.1 * np.eye(2)]))
    # the axiom checks record the refusals as failed trials
    rep = check_direct_sums(short, [(1, 1)], trials=2)
    assert not rep.passed and "short returned" in rep.witnesses[0][0][1]


def _exact_tuple(g, n, seed):
    rng = np.random.default_rng(seed)
    return MatTuple([np.array([[Fraction(int(a), int(b)) for a, b in zip(ra, rb)]
                               for ra, rb in zip(rng.integers(-4, 5, (n, n)), rng.integers(1, 4, (n, n)))],
                              dtype=object) for _ in range(g)])


@pytest.mark.parametrize("mode,field,exact", [(FREE, "real", False), (INV, "real", False),
                                              (INV, "complex", False), (INV, "real", True)])
def test_call_is_the_evaluator_bit_for_bit(mode, field, exact):
    # f(X) reads the plans on polys as a stack of one; its values, dtypes
    # and field are the evaluator's, and those of a copy without polys
    for seed in range(4):
        polys = [random_ncpoly(2, 3, mode, seed=10 * seed + j, field=field) for j in range(2)]
        if exact:
            polys = [NCPoly({w: Fraction(round(8 * c), 3) for w, c in p.coeffs.items()}, mode) for p in polys]
        f = oracle_from_ncpoly(polys, field=field)
        copy = dataclasses.replace(f, polys=None)
        for n in (1, 2, 4):
            X = _exact_tuple(2, n, seed + n) if exact else random_mattuple(2, n, seed + n, field)
            got = f(X)
            for want in (f.evaluator(X), copy(X)):
                assert got.field == want.field
                assert all(a.dtype == b.dtype and np.array_equal(a, b)
                           for a, b in zip(got.mats, want.mats, strict=True))
        assert f.calls == copy.calls == 3 and f.batches == 0


@pytest.mark.parametrize("kind", ["sinxxt", "polynomial"])
def test_library_counts_match_outside_counts(kind):
    # each pipeline's evaluations are the calls the oracle counts, and on a
    # counting copy without polys also the tuples its evaluator sees
    def make():
        return builtin_map("sinxxt") if kind == "sinxxt" else oracle_from_ncpoly(ivar(1) + ivar(1) * ivar(1, True))

    # sin(x x^t) is invertible near a nonzero scalar, not at level 2
    Y, X0 = ((MatTuple([[[math.sin(0.36)]]]), MatTuple([[[0.5]]])) if kind == "sinxxt"
             else (MatTuple([0.1 * np.random.default_rng(4).standard_normal((2, 2))]), None))
    # (pipeline, whether it calls f): a polynomial map is expanded by
    # substitution, with no call, and its counting copy by a sampled fit
    pipelines = ((lambda f: taylor_at_zero(f, 3), True),
                 (lambda f: expand_at_point(f, MatTuple([np.diag([0.2, 0.45])]), 1, 2), kind == "sinxxt"),
                 (lambda f: newton_invert(f, Y, X0=X0), True))
    for run, calls in pipelines:
        f = make()
        assert run(f).evaluations == f.calls and (f.calls > 0) == calls
        copy, seen = counted(make())
        assert run(copy).evaluations == copy.calls == len(seen) > 0


def _identity_cases():
    # a real O map, a real GL polynomial, a complex O polynomial and a
    # complex black box
    x = NCPoly.variable(1)
    yield builtin_map("sinxxt")
    yield oracle_from_ncpoly([x * x - NCPoly.variable(2) * x, x])
    yield oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=4, field="complex"), field="complex")
    yield black_box(2, "complex")


@pytest.mark.parametrize("n", [2, 3])
def test_block_identities_match_the_per_block_norms(n):
    # one stack_norms call over the stacked block differences reads the
    # residual of the per-block np.linalg.norm loop, bit for bit
    for f in _identity_cases():
        for seed in range(5):
            X, H, Y = (random_mattuple(f.g, n, 10 * seed + k, f.field, norm=0.4) for k in range(3))
            assert check_triangular_identity(f, X, H).max_violation == reference_triangular_residual(f, X, H)
            assert check_did_block(f, X, Y).max_violation == reference_did_residual(f, X, Y)


def test_spectral_builtins_are_sym_matrix_function_on_their_s():
    # each builtin returns its one value matrix: the spectral function of
    # its symmetric S, bit for bit
    from ncfun.identities import hk_eval
    from ncfun.mateval import adjoint, sym_matrix_function

    for field in ("real", "complex"):
        for n in (1, 2, 4):
            X = random_mattuple(1, n, n, field, norm=0.8)
            S = X.mats[0] @ adjoint(X.mats[0], field)
            for f, tag in ((builtin_map("sinxxt"), "sin"), (builtin_map("pow_xxt", alpha=1 / 3), ("pow", 1 / 3)),
                           (builtin_map("pow_xxt", alpha=1.5), ("pow", 1.5))):
                assert f(X).mats[0].tobytes() == sym_matrix_function(tag, S).tobytes()
    for n in (1, 2, 3):
        X = random_mattuple(3, n, n, norm=0.8)
        S = np.zeros((n, n))
        for k in range(1, n):
            hk = np.asarray(hk_eval(k, X), dtype=float)
            S = S + math.factorial(k) * (hk + hk.T)
        assert builtin_map("nonuniform")(X).mats[0].tobytes() == sym_matrix_function("sin", S).tobytes()


@pytest.mark.parametrize("J", [5, 40])
def test_smooth_nonanalytic_is_the_term_by_term_sum(J):
    f = builtin_map("smooth_nonanalytic", J=J)
    for field in ("real", "complex"):
        for n in (1, 2, 5):
            X = random_mattuple(1, n, 3 * n, field, norm=1.5)
            want = reference_smooth_nonanalytic(J, X)
            assert np.linalg.norm(f(X).mats[0] - want, 2) <= 1e-14 * np.linalg.norm(want, 2)


def test_smooth_nonanalytic_takes_one_eigh_per_tuple(monkeypatch):
    # one decomposition of x + x^t serves the whole cosine sum (the
    # term-by-term sum takes one per positive weight: 20 at J = 40)
    calls = []
    eigh = np.linalg.eigh

    def counting(S, *args, **kwargs):
        calls.append(S.shape)
        return eigh(S, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    f = builtin_map("smooth_nonanalytic", J=40)
    f(random_mattuple(1, 3, 0))
    assert len(calls) == 1
    f.stack(np.stack([random_mattuple(1, 3, s).mats for s in range(4)], axis=1))
    assert len(calls) == 5
