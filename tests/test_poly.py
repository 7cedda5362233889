from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncfun import (
    FREE,
    INV,
    FormalSeries,
    GenPoly,
    GenTerm,
    MatTuple,
    NCPoly,
    TracePoly,
    eval_genpoly,
    eval_ncpoly,
    parse_word,
    random_mattuple,
    series_compose,
)
from ncfun.series import compose_tuple

from helpers import max_basis_diff, reference_compose, reference_expand_basis, reference_horner_compose

x1 = NCPoly.variable(1)
x2 = NCPoly.variable(2)


def ivar(k, starred=False):
    return NCPoly.variable(k, starred, mode=INV)


# integer-coefficient involution-mode polynomials in x1, x2 of degree <= 3
inv_words = st.lists(st.tuples(st.integers(1, 2), st.booleans()), max_size=3).map(tuple)
inv_polys = st.dictionaries(inv_words, st.integers(-3, 3), max_size=6).map(lambda d: NCPoly(d, INV))


def test_ncpoly_product_example():
    assert (x1 * x2).coeffs == {parse_word("x1 x2"): 1}


def test_mode_guard():
    with pytest.raises(ValueError):
        NCPoly({parse_word("x1*"): 1}, FREE)
    with pytest.raises(ValueError):
        x1 + ivar(1)


def test_degree_additive_for_monomials():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = tuple((int(rng.integers(1, 3)), bool(rng.integers(0, 2))) for _ in range(rng.integers(0, 4)))
        v = tuple((int(rng.integers(1, 3)), bool(rng.integers(0, 2))) for _ in range(rng.integers(0, 4)))
        p, q = NCPoly.from_word(u, 2.0, INV), NCPoly.from_word(v, -3.0, INV)
        assert (p * q).degree() == len(u) + len(v)


def test_involution_of_poly():
    p = ivar(1) * ivar(2) + ivar(1, True).scale(2)
    q = p.involution()
    assert q.coefficient(parse_word("x2* x1*")) == 1
    assert q.coefficient(parse_word("x1")) == 2
    assert q.involution() == p


def test_tracepoly_tail_concatenation():
    # tr(x1) x2 times x1 -> tr(x1) (x2 x1)
    t = TracePoly({((parse_word("x1"),), parse_word("x2")): 1})
    u = TracePoly.from_ncpoly(x1)
    prod = t * u
    assert prod.coeffs == {((parse_word("x1"),), parse_word("x2 x1")): 1}


def test_tracepoly_pure_multiset_union():
    a = TracePoly.trace_of_word(parse_word("x1"))
    b = TracePoly.trace_of_word(parse_word("x2"))
    ab = a * b
    ((pure, tail),) = ab.coeffs
    assert sorted(pure) == sorted((parse_word("x1"), parse_word("x2")))
    assert tail == ()
    assert all(t == () for _, t in ab.coeffs)


def test_tracepoly_cyclic_merge():
    # tr(x1 x2) and tr(x2 x1) are the same variable
    a = TracePoly.trace_of_word(parse_word("x1 x2"))
    b = TracePoly.trace_of_word(parse_word("x2 x1"))
    assert (a - b).is_zero()


def test_tracepoly_star_merge_real_only():
    a = TracePoly.trace_of_word(parse_word("x1 x2*"), mode=INV)
    b = TracePoly.trace_of_word(parse_word("x2 x1*"), mode=INV)  # involution of the first
    assert (a - b).is_zero()
    ac = TracePoly.trace_of_word(parse_word("x1 x2*"), mode=INV, field="complex")
    bc = TracePoly.trace_of_word(parse_word("x2 x1*"), mode=INV, field="complex")
    assert not (ac - bc).is_zero()  # tr(w^*) = conj tr(w) differs over C


def e(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return m


def test_genterm_boundary_merge():
    a, b, c, d = (np.random.default_rng(k).standard_normal((2, 2)) for k in range(4))
    p = GenPoly.monomial([a, b], parse_word("x1"))
    q = GenPoly.monomial([c, d], parse_word("x2"))
    prod = p * q
    direct = GenPoly.monomial([a, b @ c, d], parse_word("x1 x2"))
    assert max_basis_diff(prod, direct) < 1e-12


def test_genpoly_basis_expansion_worked_example():
    p = GenPoly.monomial([e(2, 1, 1), e(2, 1, 2), e(2, 2, 2)], parse_word("x1 x2"))
    exp = p.expand_basis()
    assert exp == {((1, 1, 2), (1, 2, 2), parse_word("x1 x2")): 1.0}
    assert GenPoly.zero(2).expand_basis() == {}


def test_genpoly_expansion_distributes():
    p = GenPoly.monomial([e(2, 1, 1) + e(2, 1, 2), e(2, 2, 1)], parse_word("x1"))
    exp = p.expand_basis()
    assert exp == {
        ((1, 2), (1, 1), parse_word("x1")): 1.0,
        ((1, 2), (2, 1), parse_word("x1")): 1.0,
    }


def test_genpoly_expansion_is_the_stack_walk():
    # itertools.product over each coefficient's nonzero entries gives the
    # stack walk's dict: same keys, values and value types
    rng = np.random.default_rng(24)
    sparse = lambda: rng.standard_normal((3, 3)) * (rng.random((3, 3)) < 0.5)
    exact = lambda: np.array([[Fraction(int(v), 4) for v in row] for row in rng.integers(-2, 3, (3, 3))], dtype=object)
    cplx = lambda: sparse() + 1j * sparse()
    for draw in (sparse, exact, cplx):
        for _ in range(4):
            terms = [GenTerm([draw() for _ in range(len(w) + 1)], w)
                     for w in (parse_word("x1 x2"), parse_word("x2"), (), parse_word("x1 x2"))]
            got, want = GenPoly(3, terms).expand_basis(), reference_expand_basis(GenPoly(3, terms))
            assert got == want and [type(got[k]) for k in want] == [type(v) for v in want.values()]


def test_genpoly_equality_iff_evaluations_agree():
    rng = np.random.default_rng(7)
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    p = GenPoly.monomial([a + b, c], parse_word("x1"))
    q = GenPoly.monomial([a, c], parse_word("x1")) + GenPoly.monomial([b, c], parse_word("x1"))
    assert max_basis_diff(p, q) < 1e-12
    s = p.degree() + 1
    for t in range(20):
        X = random_mattuple(1, 2 * s, rng)
        assert np.linalg.norm(eval_genpoly(p, X) - eval_genpoly(q, X)) < 1e-8
    r = q + GenPoly.monomial([0.5 * a, c], parse_word("x1"))
    assert max_basis_diff(r, p) > 1e-3
    diffs = [
        np.linalg.norm(eval_genpoly(p, random_mattuple(1, 2 * s, rng, norm=1.0))
                       - eval_genpoly(r, random_mattuple(1, 2 * s, rng, norm=1.0)))
        for _ in range(3)
    ]
    assert max(diffs) > 1e-3


def test_series_compose_examples():
    G = FormalSeries.from_ncpoly(x1 + x1 * x1, 3)
    # identity outer map
    F1 = FormalSeries.from_ncpoly(x1, 3)
    assert series_compose(F1, [G]).to_ncpoly() == (x1 + x1 * x1)
    # hand expansion of x1^2 o (x1 + x1^2) at order 3
    F2 = FormalSeries.from_ncpoly(x1 * x1, 3)
    got = series_compose(F2, [G]).to_ncpoly()
    want = x1 * x1 + (x1 * x1 * x1).scale(2)
    assert got.max_coeff_diff(want) == 0


def test_series_compose_involution_convention():
    # F = x1^t substitutes the involution of the series for x1
    Gp = ivar(1) + ivar(1) * ivar(1)
    F = FormalSeries.from_ncpoly(ivar(1, True), 3)
    G = FormalSeries.from_ncpoly(Gp, 3)
    comp = series_compose(F, [G]).to_ncpoly()
    assert comp == Gp.involution()
    # numeric check against matrix transposition on random 2x2 tuples
    rng = np.random.default_rng(1)
    for _ in range(5):
        X = random_mattuple(1, 2, rng)
        lhs = eval_ncpoly(comp, X)
        rhs = eval_ncpoly(Gp, X).T
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_series_compose_identity_laws():
    rng = np.random.default_rng(3)
    from ncfun.oracle import random_ncpoly

    for seed in range(5):
        p = random_ncpoly(2, 3, INV, rng)
        p = p - NCPoly({(): p.coefficient(())}, INV)  # zero constant part
        F = FormalSeries.from_ncpoly(p, 3)
        ident = FormalSeries.identity_tuple(2, 3, INV)
        assert series_compose(F, ident).max_coeff_diff(F) == 0
        for k in range(2):
            assert series_compose(ident[k], (F, F)).max_coeff_diff(F) == 0


@given(inv_polys, inv_polys, st.integers(0, 4))
def test_series_product_is_truncated_poly_product(a, b, D):
    got = (FormalSeries.from_ncpoly(a, D) * FormalSeries.from_ncpoly(b, D)).to_ncpoly()
    assert got == NCPoly({w: c for w, c in (a * b).coeffs.items() if len(w) <= D}, INV)


def _upto(p, D):
    return NCPoly({w: c for w, c in p.coeffs.items() if len(w) <= D}, p.mode)


def _substitute(p, G):
    """p with x_k -> G[k-1] and x_k^t -> G[k-1]^t, by untruncated NCPoly products."""
    out = NCPoly.zero(INV)
    for w, c in p.coeffs.items():
        term = NCPoly.one(INV).scale(c)
        for k, starred in w:
            term = term * (G[k - 1].involution() if starred else G[k - 1])
        out = out + term
    return out


@given(inv_polys, inv_polys, st.lists(inv_polys, min_size=2, max_size=2), st.integers(0, 4), st.integers(0, 4))
def test_series_operations_are_truncated_poly_operations(p, q, G, D, E):
    G = [g - NCPoly({(): g.coefficient(())}, INV) for g in G]  # zero constant part
    A, B = FormalSeries.from_ncpoly(p, D), FormalSeries.from_ncpoly(q, E)
    comp = series_compose(A, [FormalSeries.from_ncpoly(g, E) for g in G])
    results = [
        (comp, _substitute(p, G), min(D, E)),
        (A + B, p + q, min(D, E)),
        (A - B, p - q, min(D, E)),
        (A.scale(-2), p.scale(-2), D),
        (A.involution(), p.involution(), D),
    ]
    for s, want, order in results:
        assert s.order == order and s.to_ncpoly() == _upto(want, order)
        lengths = [len(w) for w in s.to_ncpoly().coeffs]
        assert lengths == sorted(lengths)  # words listed shortest first


@st.composite
def integer_series_on_nilpotent_tuple(draw):
    """F and G with integer coefficients in free mode, G without constant
    part, and a strictly upper-triangular integer tuple of size D + 1."""
    D, g = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    letters = [(k, False) for k in range(1, g + 1)]

    def series(min_degree):
        words = st.lists(st.sampled_from(letters), min_size=min_degree, max_size=D).map(tuple)
        return FormalSeries.from_ncpoly(NCPoly(draw(st.dictionaries(words, st.integers(-3, 3), max_size=5))), D)

    F, G = series(0), [series(1) for _ in range(g)]
    entries = st.lists(st.integers(-3, 3), min_size=(D + 1) ** 2, max_size=(D + 1) ** 2)
    X = MatTuple([np.triu(np.array(draw(entries)).reshape(D + 1, D + 1), 1).astype(object) for _ in range(g)])
    return F, G, X


@settings(max_examples=40, deadline=None)
@given(integer_series_on_nilpotent_tuple())
def test_series_compose_matches_evaluation_exactly(case):
    # words longer than D vanish on X and on every G_k(X), so truncating
    # the composition at D loses nothing: (F o G)(X) = F(G(X)) exactly
    F, G, X = case
    inner = MatTuple([Gk(X) for Gk in G])
    assert (series_compose(F, G)(X) == F(inner)).all()


def _random_series(rng, g, D, coeff, min_len=0, mode=INV):
    """A series of order D in x1, x1^t, ..., xg, xg^t (x1, ..., xg in
    FREE mode): 8 random words of lengths min_len..D with coefficients
    coeff(rng)."""
    stars = (False, True) if mode == INV else (False,)
    letters = [(k, starred) for k in range(1, g + 1) for starred in stars]
    coeffs = {}
    for _ in range(8):
        picks = rng.integers(0, len(letters), int(rng.integers(min_len, D + 1)))
        coeffs[tuple(letters[i] for i in picks)] = coeff(rng)
    return FormalSeries.from_ncpoly(NCPoly(coeffs, mode), D)


def _int(rng):
    return int(rng.integers(-3, 4))


def _fraction(rng):
    return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))


@pytest.mark.parametrize("coeff", [_int, _fraction])
def test_series_compose_matches_per_word_reference_exactly(coeff):
    rng = np.random.default_rng(5)
    for _ in range(40):
        g, DF, DG = int(rng.integers(1, 3)), int(rng.integers(0, 6)), int(rng.integers(1, 6))
        F = _random_series(rng, g, DF, coeff)
        G = [_random_series(rng, g, DG, coeff, min_len=1) for _ in range(g)]
        got, want = series_compose(F, G), reference_compose(F, G)
        assert got.order == want.order == min(DF, DG) and got == want


def _float(rng):
    return rng.uniform(-1, 1)


def _complex(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def test_series_compose_matches_per_word_reference_on_floats():
    # the Horner route multiplies in another order, so floats may differ by round-off
    rng = np.random.default_rng(6)
    for trial in range(40):
        D, coeff = int(rng.integers(1, 6)), _complex if trial % 2 else _float
        F = _random_series(rng, 2, D, coeff)
        G = [_random_series(rng, 2, D, coeff, min_len=1) for _ in range(2)]
        got, want = series_compose(F, G), reference_compose(F, G)
        scale = max((abs(c) for c in want.poly.coeffs.values()), default=0.0)
        assert got.max_coeff_diff(want) <= 1e-13 * scale


@pytest.mark.parametrize("mode", [FREE, INV])
@pytest.mark.parametrize("coeff", [_float, _complex])
def test_compose_tuple_is_the_recursive_horner_bit_for_bit(mode, coeff):
    # the degree-major walk sums every coefficient in the recursion's
    # order, so values and dict order are equal; F has a constant term,
    # one to three components, and an order from 0 to 6 about the
    # common order D of G, whose components have orders 1 to 5
    rng = np.random.default_rng(8)
    for trial in range(28):
        g = int(rng.integers(1, 3))
        G = [_random_series(rng, g, int(rng.integers(1, 6)), coeff, min_len=1, mode=mode) for _ in range(g)]
        F = [_random_series(rng, g, trial % 7, coeff, mode=mode) for _ in range(int(rng.integers(1, 4)))]
        got, want = compose_tuple(F, G), reference_horner_compose(F, G)
        assert [(s.order, list(s.poly.coeffs.items())) for s in got] == \
            [(s.order, list(s.poly.coeffs.items())) for s in want]
        one = series_compose(F[-1], G)
        assert (one.order, list(one.poly.coeffs.items())) == (want[-1].order, list(want[-1].poly.coeffs.items()))


def test_series_compose_checks_every_letter_of_F():
    # x2 x2 x2 x2 lies beyond the common order 3, but it still names x2
    G = [FormalSeries.from_ncpoly(x1, 3)]
    for w in ("x2", "x2 x2 x2 x2", "x1 x2 x1 x1 x1"):
        F = FormalSeries.from_ncpoly(NCPoly({parse_word("x1"): 1, parse_word(w): 2}), 5)
        with pytest.raises(ValueError, match="no series for x2 in a free tuple of 1"):
            series_compose(F, G)


def test_series_compose_rejects_constant_part():
    F = FormalSeries.from_ncpoly(x1, 2)
    G = FormalSeries.from_ncpoly(x1 + NCPoly.one(), 2)
    with pytest.raises(ValueError):
        series_compose(F, [G])


def test_formal_series_homogeneity_enforced():
    with pytest.raises(ValueError):
        FormalSeries([x1], 1)  # degree-1 poly in slot 0


def test_series_compose_associative_up_to_truncation():
    from ncfun.oracle import random_ncpoly

    rng = np.random.default_rng(11)
    D = 4
    for _ in range(5):
        def tail_series():
            p = random_ncpoly(1, D, INV, rng, n_terms=4)
            p = p - NCPoly({(): p.coefficient(())}, INV)
            return FormalSeries.from_ncpoly(p + ivar(1), D)

        F, G, H = tail_series(), tail_series(), tail_series()
        lhs = series_compose(F, compose_tuple([G], [H]))
        rhs = series_compose(series_compose(F, [G]), [H])
        assert lhs.max_coeff_diff(rhs) < 1e-10


def test_degree_additivity_trace_and_genpoly():
    rng = np.random.default_rng(12)
    # trace monomials: degree = |tail| + sum of trace-word lengths
    t1 = TracePoly({((parse_word("x1 x2"),), parse_word("x1")): 2.0})
    t2 = TracePoly({((parse_word("x2"),), parse_word("x2 x1")): -1.5})
    assert (t1 * t2).degree() == t1.degree() + t2.degree() == 3 + 3
    # generalized monomials: boundary merge preserves letter count
    a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
    g1 = GenPoly(2, GenPoly.monomial([a, b], parse_word("x1")).terms, INV)
    g2 = GenPoly.monomial([c, d], parse_word("x2*"), mode=INV)
    assert (g1 * g2).degree() == g1.degree() + g2.degree() == 2


def test_arithmetic_mode_and_size_guards():
    with pytest.raises(ValueError):
        TracePoly.trace_of_word(parse_word("x1")) * TracePoly.trace_of_word(
            parse_word("x1"), mode=INV
        )
    g1 = GenPoly.from_ncpoly(x1, 2)
    g2 = GenPoly.from_ncpoly(x1, 3)
    with pytest.raises(ValueError):
        g1 + g2
    with pytest.raises(ValueError):
        g1 * g2
