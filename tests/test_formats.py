from fractions import Fraction

import numpy as np
import pytest

from ncfun import (
    FREE,
    INV,
    FormatError,
    GenPoly,
    MatTuple,
    NCPoly,
    TracePoly,
    dump_genpoly,
    dump_mattuple,
    dump_ncpolys,
    dump_tracepoly,
    load_genpoly,
    load_mattuple,
    load_ncpolys,
    load_tracepoly,
    random_mattuple,
)
from ncfun.oracle import random_ncpoly
from ncfun.words import words_of_degree

from helpers import max_basis_diff


def test_ncpoly_roundtrip_random():
    rng = np.random.default_rng(0)
    for t in range(100):
        mode = INV if t % 2 else FREE
        polys = [random_ncpoly(3, 3, mode, rng, n_terms=5) for _ in range(1 + t % 3)]
        text = dump_ncpolys(polys)
        back = load_ncpolys(text)
        assert len(back) == len(polys)
        for p, q in zip(polys, back):
            assert p.max_coeff_diff(q) == 0
        assert dump_ncpolys(back) == text  # print o parse o print is stable


def test_ncpoly_unit_word_and_ints():
    p = NCPoly({(): 2, ((1, False),): Fraction(1, 3)})
    text = dump_ncpolys([p])
    assert "2 : 1" in text
    assert "1/3 : x1" in text
    q = load_ncpolys(text)[0]
    assert q.coefficient(()) == 2
    assert q.coefficient(((1, False),)) == Fraction(1, 3)


def test_tracepoly_roundtrip_random():
    rng = np.random.default_rng(1)
    words = list(words_of_degree(2, 2, True)) + list(words_of_degree(2, 1, True))
    for t in range(100):
        coeffs = {}
        for _ in range(4):
            pure = tuple(words[rng.integers(0, len(words))] for _ in range(rng.integers(0, 3)))
            tail = words[rng.integers(0, len(words))] if rng.integers(0, 2) else ()
            coeffs[(pure, tail)] = float(rng.standard_normal())
        p = TracePoly(coeffs, INV)
        text = dump_tracepoly(p)
        q = load_tracepoly(text)
        assert (p - q).cleanup(1e-15).is_zero()
        assert dump_tracepoly(q) == text


def test_mattuple_roundtrip_random():
    rng = np.random.default_rng(2)
    for t in range(100):
        field = "complex" if t % 3 == 0 else "real"
        X = random_mattuple(1 + t % 3, 1 + t % 4, rng, field)
        text = dump_mattuple(X)
        Y = load_mattuple(text)
        assert Y.field == field and Y.g == X.g and Y.n == X.n
        assert X.max_diff(Y) == 0
        assert dump_mattuple(Y) == text


def test_mattuple_exact_entries():
    X = MatTuple([np.array([[Fraction(1, 2), 0], [0, 2]], dtype=object)])
    text = dump_mattuple(X)
    assert "1/2" in text
    Y = load_mattuple(text)
    assert Y.mats[0][0, 0] == Fraction(1, 2)
    # exact only when every entry is an int or a Fraction; a float entry
    # anywhere in the tuple makes it float (or complex) throughout
    exact = load_mattuple("MTX1 n=2 g=2 field=real\n1 1/2\n0 1\n2 0\n0 -1\n")
    assert all(m.dtype == object for m in exact.mats)
    mixed = load_mattuple("MTX1 n=2 g=2 field=real\n1 0.5\n0 1\n2 0\n0 -1\n")
    assert all(m.dtype == np.float64 for m in mixed.mats)
    assert mixed.mats[1].tolist() == [[2.0, 0.0], [0.0, -1.0]]
    cplx = load_mattuple("MTX1 n=1 g=1 field=complex\n1/2\n")
    assert cplx.mats[0].dtype == object
    cplx = load_mattuple("MTX1 n=1 g=2 field=complex\n1/2\n1+2i\n")
    assert cplx.mats[0].dtype == np.complex128 and cplx.mats[0][0, 0] == 0.5


def test_genpoly_roundtrip_random():
    rng = np.random.default_rng(3)
    words = list(words_of_degree(2, 1, True)) + list(words_of_degree(2, 2, True))
    for t in range(100):
        n = 1 + t % 2
        terms = []
        from ncfun.genpoly import GenTerm

        for _ in range(1 + t % 3):
            w = words[rng.integers(0, len(words))]
            mats = [rng.standard_normal((n, n)) for _ in range(len(w) + 1)]
            terms.append(GenTerm(mats, w))
        p = GenPoly(n, terms, INV)
        text = dump_genpoly(p)
        q = load_genpoly(text)
        assert max_basis_diff(p, q) < 1e-14
        assert dump_genpoly(q) == text


def test_complex_literals():
    X = MatTuple([np.array([[1 + 2j, 0], [0.5 - 1j, -3 + 0j]])], "complex")
    text = dump_mattuple(X)
    assert "i" in text and "j" not in text.splitlines()[1]
    Y = load_mattuple(text)
    assert X.max_diff(Y) == 0


def test_parse_errors_carry_location():
    with pytest.raises(FormatError) as ei:
        load_ncpolys("NCPOLY1 mode=free polys=1\nterms=1\noops x1\n")
    assert "line 3" in str(ei.value)
    with pytest.raises(FormatError) as ei:
        load_mattuple("MTX1 n=2 g=1 field=real\n1 0\n1\n")
    assert "line 3" in str(ei.value)
    with pytest.raises(FormatError):
        load_mattuple("bogus\n")
    with pytest.raises(FormatError) as ei:
        load_ncpolys("NCPOLY1 mode=free polys=1\nterms=1\n1 : x1 y2\n")
    assert "line 3" in str(ei.value)
    with pytest.raises(FormatError):
        load_genpoly("GENPOLY1 n=2 mode=free terms=1\ndeg=1 1 0; 0 1 x1 1 0\n")
    # non-finite literals are rejected where they stand, also when an
    # integer token would make the tuple exact
    with pytest.raises(FormatError) as ei:
        load_mattuple("MTX1 n=2 g=1 field=real\n1 nan\n0 1\n")
    assert "line 2, column 3" in str(ei.value)
    with pytest.raises(FormatError) as ei:
        load_mattuple("MTX1 n=1 g=2 field=complex\n1.0\n\n  inf+1i\n")
    assert "line 4, column 3" in str(ei.value)
    with pytest.raises(FormatError) as ei:
        load_genpoly("GENPOLY1 n=2 mode=free terms=1\ndeg=1 1 0; 0 1 x1 1 0; 0 -inf\n")
    assert "line 2, column 26" in str(ei.value)
    with pytest.raises(FormatError) as ei:
        load_ncpolys("NCPOLY1 mode=free polys=1\nterms=1\nnan : x1\n")
    assert "line 3" in str(ei.value)
    # a complex literal has no place in a field=real tuple
    with pytest.raises(FormatError) as ei:
        load_mattuple("MTX1 n=1 g=1 field=real\n1+2i\n")
    assert "line 2, column 1" in str(ei.value) and "field=real" in str(ei.value)
    with pytest.raises(FormatError) as ei:
        load_mattuple("MTX1 n=2 g=1 field=real\n1 0\n0  3-1i\n")
    assert "line 3, column 4" in str(ei.value)
    # header fields: checked where they are read, at line 1 and their column
    for load, text, where in (
        (load_genpoly, "GENPOLY1 mode=free terms=1\ndeg=0 1\n", "line 1, column 1"),
        (load_genpoly, "GENPOLY1 n=x mode=free terms=0\n", "line 1, column 10"),
        (load_genpoly, "GENPOLY1 n=1 mode=bogus terms=0\n", "line 1, column 14"),
        (load_genpoly, "GENPOLY1 n=1 mode=free terms=-1\n", "line 1, column 24"),
        (load_ncpolys, "NCPOLY1 mode=free polys=two\nterms=1\n1 : x1\n", "line 1, column 19"),
        (load_ncpolys, "NCPOLY1 mode=free polys=0\n", "line 1, column 19"),
        (load_ncpolys, "NCPOLY1 mode=bogus polys=1\nterms=0\n", "line 1, column 9"),
        (load_ncpolys, "NCPOLY1 mode=free oops\nterms=0\n", "line 1, column 19"),
        (load_tracepoly, "TRPOLY1 mode=bogus field=real\n1 : x1\n", "line 1, column 9"),
        (load_tracepoly, "TRPOLY1 mode=free field=quaternion\n1 : x1\n", "line 1, column 19"),
        (load_mattuple, "MTX1 n=1 g=1 field=quaternion\n1\n", "line 1, column 14"),
        (load_mattuple, "MTX1 g=1 field=real\n1\n", "line 1, column 1"),
        (load_mattuple, "MTX1 n=1 g=0 field=real\n", "line 1, column 10"),
        (load_mattuple, "MTX1 n=2.5 g=1 field=real\n1 0\n0 1\n", "line 1, column 6"),
    ):
        with pytest.raises(FormatError) as ei:
            load(text)
        assert str(ei.value).startswith(where + ":"), text
    # a zero generalized polynomial has no terms
    assert load_genpoly("GENPOLY1 n=1 mode=free terms=0\n").terms == []
