import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncfun import (
    FREE,
    INV,
    MatTuple,
    NCPoly,
    builtin_map,
    eval_ncpoly,
    homogeneous_part_eval,
    matenote_extract,
    matenote_plan,
    oracle_from_ncpoly,
    parse_word,
    random_mattuple,
    reconstruct_polynomial,
    taylor_at_zero,
)
from ncfun.oracle import FreeMapOracle, random_ncpoly
from ncfun.recon import TRIE_MAX_LEVEL

from helpers import CountingGenerator, counted


def ivar(k, starred=False):
    return NCPoly.variable(k, starred, mode=INV)


def sym_eval(p):
    return lambda X: MatTuple([eval_ncpoly(p, X)], X.field)


def e(n, i, j, exact=False):
    if exact:
        m = np.zeros((n, n), dtype=object)
        m[i - 1, j - 1] = Fraction(1)
        return m
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return m


def test_matenote_plan_shapes():
    a = matenote_plan(parse_word("x1 x2"), g=2)
    assert np.array_equal(a.mats[0], e(3, 1, 2))
    assert np.array_equal(a.mats[1], e(3, 2, 3))
    b = matenote_plan(parse_word("x1 x1*"), g=1)
    assert np.array_equal(b.mats[0], e(3, 1, 2) + e(3, 3, 2))


def test_matenote_micro_case_1():
    # f = x1 x2 + x2 x1, word x1 x2: read 1 at entry (1,3)
    p = NCPoly.variable(1) * NCPoly.variable(2) + NCPoly.variable(2) * NCPoly.variable(1)
    ext = matenote_extract(sym_eval(p), 2, 2, FREE, exact=True)
    assert ext.polys[0] == p
    a = matenote_plan(parse_word("x1 x2"), g=2, exact=True)
    val = eval_ncpoly(p, a)
    assert val[0, 2] == 1


def test_matenote_micro_case_2():
    p = NCPoly.variable(1)
    ext = matenote_extract(sym_eval(p), 1, 1, FREE, exact=True)
    assert ext.polys[0] == p
    a = matenote_plan(parse_word("x1"), g=1, exact=True)
    assert eval_ncpoly(p, a)[0, 1] == 1


def test_matenote_micro_case_3():
    # f = x1 x1^t: plan for w = x1 x1^t is a1 = e12 + e32; the entry (1,3)
    # of a1 a1^t is 1, while the plan for w' = x1^t x1 reads 0
    p = ivar(1) * ivar(1, True)
    a = matenote_plan(parse_word("x1 x1*"), g=1, exact=True)
    val = eval_ncpoly(p, a)
    assert val[0, 2] == 1
    aprime = matenote_plan(parse_word("x1* x1"), g=1, exact=True)
    assert eval_ncpoly(p, aprime)[0, 2] == 0
    ext = matenote_extract(sym_eval(p), 2, 1, INV, exact=True)
    assert ext.polys[0] == p
    assert ext.evaluations == 4  # (2g)^m


def test_matenote_top_degree_isolation():
    # lower-degree noise cannot reach entry (1, m+1): fewer than m shift
    # units never connect column 1 to column m+1
    rng = np.random.default_rng(0)
    for _ in range(5):
        p_hom = random_ncpoly(2, 3, INV, rng, n_terms=4)
        p_hom = p_hom.homogeneous_part(3)
        if p_hom.is_zero():
            p_hom = ivar(1) * ivar(2) * ivar(1, True)
        noise = NCPoly(
            {w: c for w, c in random_ncpoly(2, 2, INV, rng, n_terms=5).coeffs.items()}, INV
        )
        ext_clean = matenote_extract(sym_eval(p_hom), 3, 2, INV)
        ext_noisy = matenote_extract(sym_eval(p_hom + noise), 3, 2, INV)
        assert ext_clean.polys[0].max_coeff_diff(ext_noisy.polys[0]) < 1e-12


def test_matenote_level_sufficiency():
    rng = np.random.default_rng(1)
    for m in (1, 2, 3):
        p = random_ncpoly(2, m, INV, rng, n_terms=6).homogeneous_part(m)
        if p.is_zero():
            continue
        a = matenote_extract(sym_eval(p), m, 2, INV)
        b = matenote_extract(sym_eval(p), m, 2, INV, level=m + 2)
        assert a.polys[0].max_coeff_diff(b.polys[0]) < 1e-8


def test_homogeneous_part_eval_examples():
    f = oracle_from_ncpoly(NCPoly.variable(1) + NCPoly.variable(1) ** 2)
    X = MatTuple([e(2, 1, 2) + e(2, 2, 1)])
    part2 = homogeneous_part_eval(f, 2, X, 2)
    assert np.linalg.norm(part2.mats[0] - np.eye(2)) < 1e-10
    c = oracle_from_ncpoly(NCPoly.one().scale(2.5) + NCPoly.variable(1))
    part0 = homogeneous_part_eval(c, 0, X, 1)
    assert np.linalg.norm(part0.mats[0] - 2.5 * np.eye(2)) < 1e-10
    s = builtin_map("sinxxt")
    Y = random_mattuple(1, 3, 5, norm=0.9)
    part = homogeneous_part_eval(s, 2, Y, 4)
    assert np.linalg.norm(part.mats[0] - Y.mats[0] @ Y.mats[0].T) < 1e-6
    with pytest.raises(ValueError):
        homogeneous_part_eval(f, 3, X, 2)


def test_homogeneous_part_eval_of_a_complex_polynomial_in_the_real_field():
    # a real-field oracle with complex coefficients gives complex values,
    # so the part's field follows them, as FreeMapOracle.__call__ does
    p = random_ncpoly(2, 2, INV, seed=5, field="complex")
    f = oracle_from_ncpoly(p)
    X = random_mattuple(2, 3, 1, norm=0.5)
    assert f.field == "real" and f(X).field == "complex"
    for m in range(3):
        part = homogeneous_part_eval(f, m, X, 2)
        assert part.field == "complex"
        want = eval_ncpoly(p.homogeneous_part(m), X)
        assert np.abs(part.mats[0] - want).max() < 1e-12


def test_taylor_roundtrip_small():
    rng = np.random.default_rng(2)
    for t in range(10):
        mode = INV if t % 2 else FREE
        p = random_ncpoly(2, 3, mode, rng, n_terms=5)
        f = oracle_from_ncpoly(p)
        tay = taylor_at_zero(f, max(p.degree(), 0))
        assert tay.series[0].to_ncpoly().max_coeff_diff(p) < 1e-7
        assert tay.residual < 1e-7


def test_taylor_zero_map():
    f = oracle_from_ncpoly(NCPoly.zero(FREE))
    tay = taylor_at_zero(f, 2)
    assert all(p.is_zero() for p in tay.series[0].parts)


def test_taylor_cross_check_flags_clean_for_polynomials():
    p = random_ncpoly(2, 2, FREE, seed=3)
    tay = taylor_at_zero(oracle_from_ncpoly(p), 2, cross_check=True)
    assert tay.flags == []


def test_sinxxt_parts():
    f = builtin_map("sinxxt")
    tay = taylor_at_zero(f, 6)
    s = tay.series[0]
    xxt = NCPoly.from_word(parse_word("x1 x1*"))
    assert s.parts[2].max_coeff_diff(xxt) < 1e-6
    assert s.parts[6].max_coeff_diff((xxt ** 3).scale(-1.0 / 6.0)) < 1e-6
    for m in (0, 1, 3, 4, 5):
        assert s.parts[m].max_coeff_diff(NCPoly.zero(INV)) < 1e-7


def test_reconstruct_polynomial_roundtrip_and_certificate():
    p = ivar(1) * ivar(2) * ivar(1, True)
    rec = reconstruct_polynomial(oracle_from_ncpoly(p), 3)
    assert rec.ok and rec.polys[0].max_coeff_diff(p) < 1e-8

    c = oracle_from_ncpoly(NCPoly.one().scale(-1.25))
    rec0 = reconstruct_polynomial(c, 0)
    assert rec0.ok and rec0.polys[0].coefficient(()) == pytest.approx(-1.25)

    def trace_eval(X):
        return MatTuple([np.trace(X.mats[0]) * np.eye(X.n)], X.field)

    g = FreeMapOracle(1, 1, trace_eval, group="GL", smoothness=("polynomial", 1))
    bad = reconstruct_polynomial(g, 1)
    assert not bad.ok and bad.witness is not None
    assert bad.certificate > 0.01


def test_gprime_two_components():
    p1 = NCPoly.variable(1) * NCPoly.variable(2)
    p2 = NCPoly.variable(2).scale(2.0)
    f = oracle_from_ncpoly((p1, p2))
    tay = taylor_at_zero(f, 2)
    assert tay.series[0].to_ncpoly().max_coeff_diff(p1) < 1e-8
    assert tay.series[1].to_ncpoly().max_coeff_diff(p2) < 1e-8


def test_taylor_roundtrip_complex_unitary_mode():
    # complex coefficients with conjugate-transpose involution (U group)
    rng = np.random.default_rng(7)
    p = random_ncpoly(2, 2, INV, rng, n_terms=4, field="complex")
    f = oracle_from_ncpoly(p, field="complex")
    assert f.group == "U"
    tay = taylor_at_zero(f, 2)
    assert tay.series[0].to_ncpoly().max_coeff_diff(p) < 1e-7
    assert tay.residual < 1e-7


def test_matenote_isolation_property_exact():
    # the core mechanism as an exact property: for a single scaled word
    # c*w, the corner read returns exactly {w: c} and zero on every
    # other word of the same degree, including words with repeated
    # letters and mixed stars
    from ncfun.words import words_of_degree

    rng = np.random.default_rng(9)
    for m in (1, 2, 3, 4):
        all_words = list(words_of_degree(2, m, True))
        for w in rng.choice(len(all_words), size=min(6, len(all_words)), replace=False):
            w = all_words[int(w)]
            p = NCPoly({w: 3}, INV)
            ext = matenote_extract(sym_eval(p), m, 2, INV, exact=True)
            assert ext.polys[0].coeffs == {w: 3}


# -- word-trie reads against the matenote route ------------------------


def matenote_parts(f, D):
    """Per-degree matenote reads (level m+1) of every output slot, each
    through the Chebyshev scan of :func:`homogeneous_part_eval`."""
    parts = [
        matenote_extract(lambda X, m=m: homogeneous_part_eval(f, m, X, D), m, f.g, f.mode,
                         field=f.field).polys
        for m in range(D + 1)
    ]
    return [sum((parts[m][j] for m in range(D + 1)), NCPoly.zero(f.mode)) for j in range(f.gprime)]


def rounded(p):
    return NCPoly({w: complex(round(c.real), round(c.imag)) if isinstance(c, complex) else round(c)
                   for w, c in p.coeffs.items()}, p.mode)


@st.composite
def integer_poly_maps(draw):
    inv = draw(st.booleans())
    field = draw(st.sampled_from(["real", "complex"]))
    g = draw(st.integers(1, 3))
    letters = [(k, s) for k in range(1, g + 1) for s in ((False, True) if inv else (False,))]
    # (letters)^D <= 256 keeps the per-word matenote route under a second
    D = draw(st.integers(0, 4).filter(lambda D: len(letters) ** D <= 256))
    ints = st.integers(-3, 3)
    coeff = st.builds(complex, ints, ints) if field == "complex" else ints
    words = st.lists(st.sampled_from(letters), max_size=D).map(tuple)
    p = NCPoly(draw(st.dictionaries(words, coeff, max_size=6)), INV if inv else FREE)
    return p, D, field


@settings(max_examples=30, deadline=None)
@given(integer_poly_maps())
def test_trie_and_matenote_agree_on_integer_polynomials(case):
    p, D, field = case
    f = oracle_from_ncpoly(p, field=field)
    trie = taylor_at_zero(f, D).series[0].to_ncpoly()
    mate = matenote_parts(f, D)[0]
    assert trie.max_coeff_diff(mate) < 1e-9
    assert rounded(trie) == rounded(mate) == p
    if f.mode == FREE:
        # the trie tuple is nilpotent: one evaluation at h = 1 is exact
        assert trie == p


def test_trie_and_matenote_agree_on_sinxxt():
    f = builtin_map("sinxxt")
    trie = taylor_at_zero(f, 6).series[0].to_ncpoly()
    xxt = parse_word("x1 x1*")
    closed = NCPoly({xxt: 1.0, xxt * 3: -1.0 / 6.0}, INV)
    assert trie.max_coeff_diff(closed) < 1e-9
    assert trie.max_coeff_diff(matenote_parts(f, 6)[0]) < 1e-8
    # both routes scan at the same radius, so the cross-check stays quiet
    assert taylor_at_zero(f, 6, tol=1e-8, cross_check=True).flags == []


def trie_signature(f, D=3):
    """The first sub-trie tuple of f's alphabet, as a stack (g, n, n), and
    its depth signature: the diagonal of J = diag((-1)^|u|)."""
    from ncfun.recon import _trie_nodes, _trie_stack
    from ncfun.words import words_of_degree

    alphabet = [w[0] for w in words_of_degree(f.g, 1, f.mode == INV)]
    nodes = _trie_nodes(tuple(alphabet[:1]), D, alphabet)
    return _trie_stack([nodes], f.g, f.field)[:, 0], np.array([(-1.0) ** len(u) for u in nodes])


def involution_maps(field):
    group = "U" if field == "complex" else "O"
    return [dataclasses.replace(builtin_map("sinxxt"), field=field, group=group),
            dataclasses.replace(builtin_map("pow_xxt", alpha=0.5), field=field, group=group),
            oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=5, field=field, n_terms=8), field=field)]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_maps_with_involution_mirror_through_the_depth_signature(field):
    # J is orthogonal and J T J = -T (a trie tuple is bipartite by word
    # length); a map with involution respects orthogonal and unitary
    # similarity, so f(-tT) = J f(tT) J, at a complex t too in the U field
    t = 0.3 if field == "real" else 0.3 * np.exp(0.7j)
    for f in involution_maps(field):
        A, s = trie_signature(f)
        J = np.outer(s, s)
        assert all(np.array_equal(J * a, -a) for a in A)
        plus, minus = f.stack((t * A)[:, None]), f.stack((-t * A)[:, None])
        assert np.abs(minus - J * plus).max() <= 1e-15 * max(1.0, np.abs(plus).max()), f.name
        if f.polys is not None:  # sign flips round exactly: the polynomial mirrors bit for bit
            assert np.array_equal(minus, J * plus)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("D", [1, 3, 4])
def test_signed_scan_is_the_full_symmetric_read(field, D):
    from ncfun.oracle import _part_scan

    from helpers import reference_symmetric_scan

    f = involution_maps(field)[2]
    A, s = trie_signature(f, D)
    A = A[:, None]
    full = dataclasses.replace(f)  # a copy with its own call count
    signed = _part_scan(f, A, D, row0=True, signs=s)[:, 0]
    assert np.array_equal(signed, reference_symmetric_scan(full, A, D))
    # half the nodes read: N = deg f + 1 = 4 nodes, or D + 1 rounded up to even
    N = max(D, 3) + 1
    assert (f.calls, full.calls) == ((N + N % 2) // 2, N + N % 2)


def test_cross_check_stays_quiet_on_mirrored_reads():
    # the matenote route reads each degree's plans in one unmirrored scan
    for f, D in ((builtin_map("sinxxt"), 6), (oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=5, n_terms=8)), 3)):
        assert taylor_at_zero(f, D, tol=1e-8, cross_check=True).flags == [], f.name


def test_taylor_evaluations_are_the_oracle_calls():
    for cross_check in (False, True):
        f, seen = counted(builtin_map("sinxxt"))
        tay = taylor_at_zero(f, 6, cross_check=cross_check)
        assert tay.evaluations == len(seen) == f.calls
    f, seen = counted(builtin_map("sinxxt"))
    tay = taylor_at_zero(f, 6)
    # two sub-tries (one per first letter) of 64 nodes, each a scan of 18
    # nodes that reads 9 and mirrors 9, plus the 8 residual samples
    assert tay.evaluations == 26 and seen.count(TRIE_MAX_LEVEL) == 18 and max(seen) == TRIE_MAX_LEVEL


def nonuniform_stand_in():
    """nonuniform's plan (g=3, max_level 7) on a cheap zero evaluator."""
    return dataclasses.replace(builtin_map("nonuniform"),
                               evaluator=lambda X: MatTuple([np.zeros((X.n, X.n))], X.field))


def test_taylor_keeps_to_the_oracle_max_level():
    # nonuniform declares max_level 7, so no sub-trie outgrows a chain
    # (D=2 with j=1 would be level 8, D=3 level 44)
    for f, D in ((builtin_map("nonuniform"), 2), (nonuniform_stand_in(), 3)):
        f, seen = counted(f)
        tay = taylor_at_zero(f, D)
        assert max(seen) == D + 1 <= f.max_level
        assert all(p.is_zero() for p in tay.series[0].parts)  # deg h_1 = 6


INV_GENERATOR = ivar(1) * ivar(2) * ivar(1, True) + ivar(2, True).scale(0.5) - NCPoly.one(INV).scale(0.25)
FREE_GENERATOR = NCPoly.variable(1) * NCPoly.variable(2) + NCPoly.variable(2).scale(2.0)
BUDGET_MAPS = {
    "sinxxt": lambda: builtin_map("sinxxt"),
    "nonuniform": lambda: builtin_map("nonuniform"),
    "nonuniform_stand_in": nonuniform_stand_in,
    "inv_g2_d3": lambda: oracle_from_ncpoly(INV_GENERATOR),
    "free_g2_d2": lambda: oracle_from_ncpoly(FREE_GENERATOR),
}

# (pipeline, map, D, oracle calls, largest level, stacks), residual samples
# and certificate samples included.  A with-involution sub-trie takes one
# scan of N nodes, N even, of which it reads N/2 and mirrors the rest:
# N = D + 11 rounded up for a map that is not polynomial, deg f + 1 rounded
# up for a polynomial one.  A FREE sub-trie takes one call.  The sub-tries
# are read together, in stacks of at most 2^16 entries per component
# (sub-tries x nodes read x level^2); the residual and certificate samples
# take one stack per level.
CALL_BUDGET = [
    # 2 sub-tries of level 2^D in one stack (level 64: 36,864 entries each,
    # so one stack per sub-trie), then 8 residual samples in 2 stacks
    *[("taylor", "sinxxt", D, 2 * math.ceil((D + 11) / 2) + 8, 2**D, (2 if D == 6 else 1) + 2) for D in range(2, 7)],
    # 6^D chains of level D + 1 in one stack (was 36 x 13 + 8 = 476 and 6^3 x 14 + 8)
    ("taylor", "nonuniform", 2, 6**2 * 7 + 8, 3, 1 + 2),
    ("taylor", "nonuniform_stand_in", 3, 6**3 * 7 + 8, 4, 1 + 2),
    # 4 sub-tries of level 22 read 2 of 4 nodes each in one stack, 8 residual
    # and 10 certificate samples in 2 stacks each (was 4 x 4 + 18 = 34)
    ("reconstruct", "inv_g2_d3", 3, 4 * 2 + 18, 22, 1 + 2 + 2),
    # 2 sub-tries of level 4, one call each, in one stack
    ("reconstruct", "free_g2_d2", 2, 2 + 18, 4, 1 + 2 + 2),
]


@pytest.mark.parametrize("pipeline,name,D,calls,level,batches", CALL_BUDGET,
                         ids=["-".join(map(str, row[:5])) for row in CALL_BUDGET])
def test_call_budget(pipeline, name, D, calls, level, batches):
    f, seen = counted(BUDGET_MAPS[name]())
    if pipeline == "taylor":
        tay = taylor_at_zero(f, D)
        assert (tay.evaluations, tay.batches) == (calls, batches)
    else:
        rec = reconstruct_polynomial(f, D)
        generator = INV_GENERATOR if name.startswith("inv") else FREE_GENERATOR
        assert rec.ok and rec.polys[0].max_coeff_diff(generator) <= 1e-12
        assert rec.taylor.batches == batches - 2  # the certificate's 2 stacks follow the Taylor read
    assert (len(seen), max(seen), f.batches) == (f.calls, level, batches) == (calls, level, batches)


@pytest.mark.parametrize("D", [1, 2])
def test_scans_below_the_degree_of_a_polynomial_do_not_alias(D):
    # x x^t x + x read to degree 1 or 2: a node per degree of the map keeps
    # the cubic part out of the x coefficient
    x = ivar(1)
    tay = taylor_at_zero(oracle_from_ncpoly(x * ivar(1, True) * x + x), D)
    assert tay.series[0].to_ncpoly().max_coeff_diff(x) <= 1e-12


def test_homogeneous_parts_below_the_degree_of_a_polynomial_vanish():
    # (x x^t)^2 has no part of degree <= 2
    f, X = builtin_map("pow_xxt", alpha=2.0), random_mattuple(1, 3, 5, norm=0.5)
    for m in range(3):
        assert np.abs(homogeneous_part_eval(f, m, X, 2).mats[0]).max() <= 1e-12


@pytest.mark.parametrize("D", range(2, 7))
def test_sinxxt_taylor_against_the_closed_form(D):
    # sin(x x^t) = x x^t - (x x^t)^3 / 6 + ...: one mirrored scan per
    # sub-trie (its calls are in CALL_BUDGET)
    tay = taylor_at_zero(builtin_map("sinxxt"), D)
    xxt = NCPoly.from_word(parse_word("x1 x1*"))
    want = xxt + (xxt**3).scale(-1.0 / 6.0) if D >= 6 else xxt
    assert tay.series[0].to_ncpoly().max_coeff_diff(want) <= 5e-10


def test_taylor_finite_radius():
    def geometric(X):
        x = X.mats[0]
        return MatTuple([x @ np.linalg.inv(np.eye(X.n) - x)], X.field)

    f = FreeMapOracle(1, 1, geometric, group="GL", radius=1.0)
    s = taylor_at_zero(f, 6).series[0].to_ncpoly()
    want = NCPoly({((1, False),) * k: 1.0 for k in range(1, 7)})
    assert s.max_coeff_diff(want) < 1e-12

    def resolvent(X):
        x = X.mats[0]
        return MatTuple([np.linalg.inv(np.eye(X.n) - x @ x.T) - np.eye(X.n)], X.field)

    f = FreeMapOracle(1, 1, resolvent, group="O", radius=1.0)
    s = taylor_at_zero(f, 6).series[0].to_ncpoly()
    xxt = parse_word("x1 x1*")
    want = NCPoly({xxt * k: 1.0 for k in range(1, 4)}, INV)
    assert s.max_coeff_diff(want) < 1e-7


@pytest.mark.parametrize("mode,field", [(FREE, "real"), (INV, "real"), (INV, "complex")])
def test_probe_matches_the_per_sample_reference(mode, field):
    from ncfun.recon import _probe

    from helpers import reference_probe, same_info

    f = oracle_from_ncpoly(random_ncpoly(2, 3, mode, seed=6, field=field), field=field)
    near = tuple(p + NCPoly({((1, False),): 1e-6}, mode) for p in f.polys)
    for polys in (f.polys, near):
        for seed in (0, 1):
            args = (f, polys, (1, 2, 4), 5, lambda n: min(1.0, f.radius_at(n) / 2.0), seed)
            worst, witness = _probe(*args)
            ref_worst, ref_witness = reference_probe(*args)
            assert worst == ref_worst and same_info(witness, ref_witness)
    assert witness is not None  # the perturbed polynomials deviate
    calls, batches = f.calls, f.batches
    _probe(f, f.polys, (1, 2), 4, lambda n: 0.3, 0)
    assert (f.calls - calls, f.batches - batches) == (8, 2)


def test_probe_draws_each_level_as_blocks():
    from ncfun.recon import _probe

    from helpers import same_info

    # two generator calls per level, the norm factors and the tuples,
    # where a per-sample draw makes one per sample and component
    f = oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=6))
    near = tuple(p + NCPoly({((1, False),): 1e-6}, INV) for p in f.polys)
    rng = CountingGenerator(1)
    worst, witness = _probe(f, near, (1, 2, 4), 25, lambda n: 0.3, rng)
    want_worst, want_witness = _probe(f, near, (1, 2, 4), 25, lambda n: 0.3, 1)
    assert rng.draws <= 2 * 3 and worst == want_worst > 0 and same_info(witness, want_witness)


def test_part_scan_reads_one_stack():
    # one stack of D + 1 + SCAN_EXTRA_NODES nodes for an analytic map, and
    # a polynomial map's one stack through its plans is bit for bit the
    # per-node calls its evaluator makes on a copy without polys
    f = builtin_map("sinxxt")
    homogeneous_part_eval(f, 3, random_mattuple(1, 3, 6, norm=0.5), 5)
    assert (f.calls, f.batches) == (16, 1)
    from ncfun.oracle import _part_scan

    f = oracle_from_ncpoly(random_ncpoly(2, 3, INV, seed=7))
    A = np.array(random_mattuple(2, 3, 6, norm=0.5).mats)[:, None]
    via_stack = _part_scan(f, A, 3)
    assert (f.calls, f.batches) == (4, 1)
    per_call = dataclasses.replace(f, polys=None)
    via_calls = _part_scan(per_call, A, 3)
    assert per_call.calls == 4 and np.array_equal(via_stack, via_calls)


def test_negative_degrees_are_refused():
    f = oracle_from_ncpoly(ivar(1) * ivar(1, True))
    for read in (lambda: taylor_at_zero(f, -1), lambda: reconstruct_polynomial(f, -1),
                 lambda: matenote_extract(f, -1, 1, INV),
                 lambda: homogeneous_part_eval(f, -1, random_mattuple(1, 2, 0), 2)):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            read()
    assert f.calls == 0


def test_certificate_continues_the_residual_probe_stream(monkeypatch):
    # with an integer seed, the certificate draws where the Taylor residual
    # probe stopped, rather than restarting that probe's stream; the
    # Taylor result is the one of the seed alone
    import copy

    from ncfun import recon
    from ncfun.mateval import scaled_block

    probe, states = recon._probe, []

    def spy(f, polys, levels, samples, radius, seed):
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        states.append(copy.deepcopy(rng.bit_generator.state))
        return probe(f, polys, levels, samples, radius, rng)

    monkeypatch.setattr(recon, "_probe", spy)
    f = oracle_from_ncpoly(random_ncpoly(2, 2, INV, seed=3))
    rec = reconstruct_polynomial(f, 2, seed=11)
    residual, certificate = states
    assert residual == np.random.default_rng(11).bit_generator.state
    rng = np.random.default_rng(11)
    for n in recon.RESIDUAL_LEVELS:
        scaled_block(f.g, n, recon.RESIDUAL_SAMPLES, rng, f.field, 1.0, 0.1)
    assert certificate == rng.bit_generator.state != residual
    monkeypatch.setattr(recon, "_probe", probe)
    tay = taylor_at_zero(f, 2, tol=recon.RECON_TOL, seed=11)
    assert (rec.taylor.residual, rec.taylor.evaluations) == (tay.residual, tay.evaluations)


# -- stacked reads against one read per sub-trie or plan ---------------


def same_coeffs(a, b):
    """Word -> coefficient maps equal in order, type and bits."""
    return [[(w, type(c), c) for w, c in m.items()] for m in a] == [[(w, type(c), c) for w, c in m.items()] for m in b]


def geometric(X):
    x = X.mats[0]
    return MatTuple([x @ np.linalg.inv(np.eye(X.n) - x)], X.field)


def trie_read_maps():
    """GL and involution maps, real and complex: polynomial oracles and
    their polys=None copies, the sinxxt black box and a finite-radius map."""
    maps = []
    for field in ("real", "complex"):
        for mode in (FREE, INV):
            f = oracle_from_ncpoly(random_ncpoly(2, 3, mode, seed=8, field=field, n_terms=8), field=field)
            maps += [f, dataclasses.replace(f, polys=None)]
    # at radius 0.3 the scan radius h = 0.15 is no power of two, so 1/h^m rounds
    return maps + [builtin_map("sinxxt")] + [FreeMapOracle(1, 1, geometric, field, "GL", radius=0.3, name="geometric")
                                             for field in ("real", "complex")]


@pytest.mark.parametrize("D", [2, 3])
def test_stacked_trie_reads_match_one_read_per_sub_trie(D):
    from ncfun.recon import _trie_reads

    from helpers import reference_trie_reads

    for f in trie_read_maps():
        ref = dataclasses.replace(f)  # a copy with its own counts
        assert same_coeffs(_trie_reads(f, D), reference_trie_reads(ref, D)), f.name
        assert f.calls == ref.calls and f.batches == 1, f.name


def test_a_read_above_the_entry_budget_is_split_into_stacks():
    # a g=2 involution polynomial read to D=6: 256 sub-tries of level 25,
    # each scanned at 4 of 8 nodes: 2,500 entries per component, so 26
    # sub-tries to a stack of at most 2^16 entries, and 10 stacks
    from ncfun.recon import _trie_reads

    from helpers import reference_trie_reads

    f = oracle_from_ncpoly(random_ncpoly(2, 6, INV, seed=4, n_terms=8))
    ref = dataclasses.replace(f)
    assert same_coeffs(_trie_reads(f, 6), reference_trie_reads(ref, 6))
    assert (f.calls, f.batches) == (ref.calls, 10) == (256 * 4, 10)


@pytest.mark.parametrize("field,exact,extra,black_box", [
    ("real", False, 0, False), ("complex", False, 0, False), ("real", True, 0, False),
    ("real", False, 2, False), ("complex", False, 0, True),
])
def test_stacked_matenote_matches_per_plan_calls(field, exact, extra, black_box):
    from helpers import reference_matenote_extract

    p = random_ncpoly(2, 3, INV, seed=2, field=field, n_terms=12).homogeneous_part(3)
    if exact:
        p = NCPoly({w: Fraction(c).limit_denominator(9) for w, c in p.coeffs.items()}, INV)
    f = oracle_from_ncpoly(p, field=field)
    if black_box:
        f = dataclasses.replace(f, polys=None)
    ref = dataclasses.replace(f)
    level = 4 + extra if extra else None
    ext = matenote_extract(f, 3, 2, INV, level=level, exact=exact, field=field)
    want, calls = reference_matenote_extract(ref, 3, 2, INV, level=level, exact=exact, field=field)
    assert same_coeffs([q.coeffs for q in ext.polys], [q.coeffs for q in want])
    assert ext.polys[0].max_coeff_diff(p) <= (0 if exact else 1e-12)
    assert (ext.evaluations, ext.batches, f.calls, f.batches) == (calls, 1, ref.calls, 1) == (64, 1, 64, 1)


def test_matenote_on_a_callable_calls_it_once_per_plan():
    p = random_ncpoly(2, 2, INV, seed=3, n_terms=8).homogeneous_part(2)
    seen = []

    def f_hom(X):
        seen.append(X)
        return sym_eval(p)(X)

    ext = matenote_extract(f_hom, 2, 2, INV)
    assert (ext.evaluations, ext.batches, len(seen)) == (16, 0, 16)
    assert all(isinstance(X, MatTuple) and X.n == 3 for X in seen) and ext.polys[0].max_coeff_diff(p) <= 1e-12


def test_declared_non_analytic_maps_are_flagged():
    # pow_xxt(1/2) is declared continuous and pow_xxt(3/2) C^1: no Taylor
    # part above degree 0 or 1; the flag moves no coefficient or count
    flagged = {0.5: ["declared smoothness continuous: degrees 1..2 undefined at 0"],
               1.5: ["declared smoothness C^1: degree 2 undefined at 0"]}
    for alpha, flags in flagged.items():
        f = builtin_map("pow_xxt", alpha=alpha)
        analytic = dataclasses.replace(f, smoothness="analytic")
        tay, want = taylor_at_zero(f, 2), taylor_at_zero(analytic, 2)
        assert tay.flags == flags and want.flags == []
        assert [s.to_ncpoly().coeffs for s in tay.series] == [s.to_ncpoly().coeffs for s in want.series]
        assert (tay.evaluations, tay.batches) == (want.evaluations, want.batches)
    assert taylor_at_zero(builtin_map("pow_xxt", alpha=1.5), 1).flags == []
    for f in (builtin_map("sinxxt"), builtin_map("pow_xxt", alpha=2.0), builtin_map("smooth_nonanalytic", J=5),
              oracle_from_ncpoly(INV_GENERATOR), oracle_from_ncpoly(FREE_GENERATOR)):
        assert taylor_at_zero(f, 2).flags == [], f.name
