import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncfun import (
    INV,
    MatTuple,
    NCPoly,
    dump_mattuple,
    dump_ncpolys,
    load_mattuple,
    load_ncpolys,
    random_mattuple,
)
from ncfun.cli import main
from ncfun.oracle import random_ncpoly

FAIL_RE = re.compile(r"^FAIL \S+ level=\d+ residual=\S+$")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canon_example(capsys):
    code, out, _ = run(capsys, "canon", "--cyclic", "x2 x1")
    assert code == 0 and out.strip() == "x1 x2"
    code, out, _ = run(capsys, "canon", "--involution", "x1 x2")
    assert out.strip() == "x2* x1*"
    code, out, _ = run(capsys, "canon", "--cyclic", "--star", "x1 x2*")
    code2, out2, _ = run(capsys, "canon", "--cyclic", "--star", "x2 x1*")
    assert out == out2


def test_identity_examples(capsys):
    code, out, _ = run(capsys, "identity", "--standard", "4", "--n", "2", "--exact")
    assert code == 0 and out.strip().startswith("IDENTITY")
    code, out, _ = run(capsys, "identity", "--standard", "4", "--n", "3", "--exact", "--trials", "50")
    assert code == 0 and out.strip().startswith("NON-IDENTITY")


def test_eval_roundtrip(tmp_path, capsys):
    p = NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
    poly_file = tmp_path / "p.ncpoly"
    poly_file.write_text(dump_ncpolys([p]))
    X = MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
    tup_file = tmp_path / "x.mtx"
    tup_file.write_text(dump_mattuple(X))
    out_file = tmp_path / "out.mtx"
    code, _, _ = run(capsys, "eval", "--poly", str(poly_file), "--tuple", str(tup_file), "-o", str(out_file))
    assert code == 0
    Y = load_mattuple(out_file.read_text())
    assert np.allclose(Y.mats[0], np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_check_pass_and_fail_grammar(capsys):
    code, out, _ = run(capsys, "check", "--map", "sinxxt", "--trials", "5")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())
    # forcing the wrong group produces FAIL lines with the fixed grammar
    code, out, _ = run(capsys, "check", "--map", "pow_xxt:0.5", "--group", "GL", "--trials", "5")
    assert code == 2
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert fails and all(FAIL_RE.match(ln) for ln in fails)


def test_check_passes_a_complex_polynomial_in_the_real_field(tmp_path, capsys):
    # poly: of a complex .ncpoly is a real-field oracle with complex values;
    # the product rule keeps the imaginary part of its derivative, so the
    # triangular identity holds (it failed at residual 0.0517 without it)
    f = tmp_path / "c.ncpoly"
    f.write_text(dump_ncpolys([random_ncpoly(1, 3, "free", seed=2, field="complex")]))
    code, out, _ = run(capsys, "check", "--map", f"poly:{f}", "--trials", "3")
    assert code == 0 and [ln.split()[:2] for ln in out.splitlines()] == [
        ["PASS", "direct_sums"], ["PASS", "similarity[GL]"], ["PASS", "triangular_identity"]]


def test_check_fail_lines_give_the_level_each_check_ran_at(capsys):
    # the derivative identities run at the first level >= 2 of --levels
    code, out, _ = run(capsys, "check", "--map", "smooth_nonanalytic:5", "--group", "GL", "--levels", "2",
                       "--trials", "3")
    assert code == 2
    assert [ln.rsplit(" ", 1)[0] for ln in out.splitlines()] == [
        "PASS direct_sums", "FAIL similarity[GL] level=2", "FAIL triangular_identity level=2"]


def test_check_output_sorted(capsys):
    code, out, _ = run(capsys, "check", "--map", "sinxxt", "--trials", "3")
    names = [ln.split()[1] for ln in out.strip().splitlines()]
    assert names == sorted(names)


def test_taylor_and_extract(tmp_path, capsys):
    p = random_ncpoly(2, 2, INV, seed=5)
    f = tmp_path / "p.ncpoly"
    f.write_text(dump_ncpolys([p]))
    out_file = tmp_path / "rec.ncpoly"
    code, out, _ = run(capsys, "taylor", "--map", f"poly:{f}", "--degree", "2", "-o", str(out_file))
    assert code == 0
    rec = load_ncpolys(out_file.read_text())[0]
    assert rec.max_coeff_diff(p) < 1e-7
    assert re.search(r"degree=\d+ residual=\S+ level=\d+", out)

    hom = p.homogeneous_part(2)
    f2 = tmp_path / "hom.ncpoly"
    f2.write_text(dump_ncpolys([hom]))
    out2 = tmp_path / "ext.ncpoly"
    code, _, _ = run(capsys, "extract", "--map", f"poly:{f2}", "--degree", "2", "-o", str(out2))
    assert code == 0
    assert load_ncpolys(out2.read_text())[0].max_coeff_diff(hom) < 1e-9

    # sin(x x^t) is not homogeneous: the probe fails instead of printing
    # a wrong coefficient (0.4546 for the true 1 of x x^t)
    out3 = tmp_path / "sin.ncpoly"
    code, out, _ = run(capsys, "extract", "--map", "sinxxt", "--degree", "2", "-o", str(out3))
    assert code == 2 and not out3.exists()
    assert FAIL_RE.match(out.strip()) and out.startswith("FAIL extract_homogeneity level=3 ")


def test_taylor_stop_line(tmp_path, capsys, monkeypatch):
    import json

    import ncfun.cli as cli

    maps = []  # the oracle the command loads, to read its calls
    monkeypatch.setattr(cli, "load_map", lambda spec, load=cli.load_map: maps.append(load(spec)) or maps[-1])
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([random_ncpoly(2, 2, INV, seed=5)]))
    argv = ["taylor", "--map", f"poly:{pf}", "--degree", "2", "-o", str(tmp_path / "rec.ncpoly")]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and [ln.split()[0] for ln in lines[:3]] == ["degree=0", "degree=1", "degree=2"]
    assert lines[3:] == [f"taylor evaluations={maps[0].calls}"] and maps[0].calls > 0
    code, out, _ = run(capsys, *argv, "--json")
    stop = json.loads(out.splitlines()[3])
    assert stop == {"text": lines[3], "kind": "taylor_stop", "evaluations": maps[1].calls}
    # the stop line follows the last degree's FAIL line, and the calls of
    # the trie reads and the certificate scans of a black box
    code, out, _ = run(capsys, "taylor", "--map", "sinxxt", "--degree", "3", "--tol", "0", "-o",
                       str(tmp_path / "sin.ncpoly"))
    lines = out.splitlines()
    assert code == 2 and lines[-3].startswith("degree=3 ") and lines[-2].startswith("FAIL taylor_degree level=5 ")
    assert lines[-1] == f"taylor evaluations={maps[2].calls}"


def test_taylor_below_the_degree_of_a_polynomial_map(tmp_path, capsys):
    # (x x^t)^2 read to degree 2 has no terms and passes every per-degree
    # certificate; only the truncation residual fails
    out_file = tmp_path / "p.ncpoly"
    code, out, _ = run(capsys, "taylor", "--map", "pow_xxt:2", "--degree", "2", "-o", str(out_file))
    fails = [ln.split()[1] for ln in out.splitlines() if ln.startswith("FAIL")]
    assert code == 2 and fails == ["taylor_residual"]
    assert "terms=0" in out_file.read_text().splitlines()


def test_taylor_flags_declared_non_analytic_maps(tmp_path, capsys):
    # pow_xxt(1/2) is declared continuous, pow_xxt(3/2) C^1: each gets one
    # flag line naming the degrees it leaves undefined; sinxxt gets none
    out_file = str(tmp_path / "p.ncpoly")
    for spec, flags in (("pow_xxt:1/2", ["flag: declared smoothness continuous: degrees 1..2 undefined at 0"]),
                        ("pow_xxt:3/2", ["flag: declared smoothness C^1: degree 2 undefined at 0"]),
                        ("sinxxt", [])):
        _, out, _ = run(capsys, "taylor", "--map", spec, "--degree", "2", "-o", out_file)
        assert [ln for ln in out.splitlines() if ln.startswith("flag:")] == flags, spec

def test_invert_formal_cli(tmp_path, capsys):
    x1 = NCPoly.variable(1)
    f = tmp_path / "f.ncpoly"
    f.write_text(dump_ncpolys([x1 - x1 * x1]))
    out_file = tmp_path / "h.ncpoly"
    code, out, _ = run(capsys, "invert", "--formal", "--degree", "5", "--poly", str(f),
                       "-o", str(out_file), "--tol", "1e-10")
    assert code == 0
    h = load_ncpolys(out_file.read_text())[0]
    assert h.coefficient(((1, False),) * 5) == pytest.approx(14.0)

    # the residual token is a plain float literal, on the report and the FAIL line
    y, yt = NCPoly.variable(1, mode=INV), NCPoly.variable(1, True)
    f.write_text(dump_ncpolys([y.scale(2) + yt.scale(0.5) + (y * y).scale(0.3)]))
    code, out, _ = run(capsys, "invert", "--formal", "--poly", str(f), "-o", str(out_file),
                       "--tol", "1e-20")
    report, fail = out.splitlines()
    assert code == 2 and FAIL_RE.match(fail)
    res = float(re.fullmatch(r"degree=5 residual=(\S+) level=0", report).group(1))
    assert 0 < res < 1e-12 and float(fail.split("residual=")[1]) == res

    # 3 y + 0.7 y^t + 0.3 y^2: the normalized linear part carries round-off
    f.write_text(dump_ncpolys([y.scale(3) + yt.scale(0.7) + (y * y).scale(0.3)]))
    code, out, _ = run(capsys, "invert", "--formal", "--poly", str(f), "-o", str(out_file))
    assert code == 0
    assert float(re.fullmatch(r"degree=5 residual=(\S+) level=0\n", out).group(1)) < 1e-12


def test_invert_newton_cli(tmp_path, capsys):
    p = NCPoly.variable(1, mode=INV) + NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([p]))
    Y = random_mattuple(1, 2, 3, norm=0.05)
    yf = tmp_path / "y.mtx"
    yf.write_text(dump_mattuple(Y))
    sol = tmp_path / "sol.mtx"
    code, out, _ = run(capsys, "invert", "--newton", "--map", f"poly:{pf}",
                       "--target", str(yf), "-o", str(sol), "--tol", "1e-12")
    assert code == 0
    assert re.search(r"iter=0 res=\S+ step=\S+", out)
    X = load_mattuple(sol.read_text())
    val = X.mats[0] + X.mats[0] @ X.mats[0].T
    assert np.linalg.norm(val - Y.mats[0]) < 1e-10


def test_implicit_cli(tmp_path, capsys):
    # f(x, y) = y - x x^t, numeric at x = e12
    p = NCPoly.variable(2, mode=INV) - NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([p]))
    xf = tmp_path / "x.mtx"
    xf.write_text(dump_mattuple(MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])))
    sol = tmp_path / "y.mtx"
    code, _, _ = run(capsys, "implicit", "--map", f"poly:{pf}", "--split", "1",
                     "--numeric", "--at", str(xf), "-o", str(sol), "--tol", "1e-12")
    assert code == 0
    Y = load_mattuple(sol.read_text())
    assert np.linalg.norm(Y.mats[0] - np.array([[1.0, 0.0], [0.0, 0.0]])) < 1e-10

    # f(x, y) = y y + x has a singular y-Jacobian at y = 0: a FAIL line, not a traceback
    q = NCPoly.variable(2) * NCPoly.variable(2) + NCPoly.variable(1)
    qf = tmp_path / "q.ncpoly"
    qf.write_text(dump_ncpolys([q]))
    xf.write_text(dump_mattuple(MatTuple([0.5 * np.eye(2)])))
    code, out, _ = run(capsys, "implicit", "--map", f"poly:{qf}", "--split", "1",
                       "--numeric", "--at", str(xf))
    assert code == 2
    assert out.splitlines()[0] == "FAIL implicit_newton_jacobian level=2 residual=inf"
    assert "singular derivative" in out


def test_newton_stop_line(tmp_path, capsys):
    import json

    p = NCPoly.variable(1, mode=INV) + NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([p]))
    yf = tmp_path / "y.mtx"
    yf.write_text(dump_mattuple(random_mattuple(1, 2, 3, norm=0.05)))
    sol = tmp_path / "sol.mtx"
    argv = ["invert", "--newton", "--map", f"poly:{pf}", "--target", str(yf), "--tol", "1e-12", "-o", str(sol)]
    # converged: the stop line follows the iterate lines; a polynomial map
    # assembles its Jacobian at every iterate
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and all(ln.startswith(f"iter={i} ") for i, ln in enumerate(lines[:-1]))
    k = len(lines) - 1
    assert lines[-1] == f"newton reason=converged iterations={k} evaluations={k + 1} jacobians={k} level=2"
    code, out, _ = run(capsys, *argv, "--json")
    stop = json.loads(out.splitlines()[-1])
    assert stop == {"text": lines[-1], "kind": "newton_stop", "reason": "converged", "iterations": k,
                    "evaluations": k + 1, "jacobians": k, "level": 2}
    # stagnated (x + x x^t = Y has no solution; see test_newton_stop_reasons):
    # the stop line comes before the FAIL line
    yf.write_text(dump_mattuple(MatTuple([0.1 * np.random.default_rng(3).standard_normal((8, 8))])))
    code, out, _ = run(capsys, *argv)
    *_, stop_line, fail = out.splitlines()
    assert code == 2 and FAIL_RE.match(fail) and fail.startswith("FAIL invert_newton level=8 ")
    assert re.fullmatch(r"newton reason=stagnated iterations=(\d+) evaluations=\d+ jacobians=\1 level=8", stop_line)
    # implicit --numeric on y - x x^t: one product-rule Jacobian, and two
    # values of f, at y = 0 and at the solution
    q = NCPoly.variable(2, mode=INV) - NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
    qf = tmp_path / "q.ncpoly"
    qf.write_text(dump_ncpolys([q]))
    xf = tmp_path / "x.mtx"
    xf.write_text(dump_mattuple(MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])))
    code, out, _ = run(capsys, "implicit", "--map", f"poly:{qf}", "--split", "1", "--numeric", "--at", str(xf),
                       "-o", str(sol))
    assert code == 0
    assert out.splitlines()[-1] == "newton reason=converged iterations=1 evaluations=2 jacobians=1 level=2"


def test_implicit_formal_cli(tmp_path, capsys):
    # f(x, y) = y + 0.8 y x + x  ->  h(x) = sum_k (-1)^k 0.8^(k-1) x^k
    x, y = NCPoly.variable(1), NCPoly.variable(2)
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([y + (y * x).scale(0.8) + x]))
    hf = tmp_path / "h.ncpoly"
    code, out, _ = run(capsys, "implicit", "--map", f"poly:{pf}", "--split", "1",
                       "--formal", "--degree", "5", "-o", str(hf))
    assert code == 0
    assert re.fullmatch(r"degree=5 residual=\S+ level=0\n", out)
    assert float(out.split()[1].split("=")[1]) < 1e-12
    (h,) = load_ncpolys(hf.read_text())
    want = NCPoly({((1, False),) * k: (-1) ** k * 0.8 ** (k - 1) for k in range(1, 6)})
    assert h.max_coeff_diff(want) < 1e-12


def test_expand_at_cli(tmp_path, capsys):
    p = NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True) + NCPoly.variable(1, mode=INV)
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([p]))
    cf = tmp_path / "a.mtx"
    cf.write_text(dump_mattuple(MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])))
    out_file = tmp_path / "exp.genpoly"
    code, out, _ = run(capsys, "expand-at", "--map", f"poly:{pf}", "--center", str(cf),
                       "--degree", "2", "--s-eval", "3", "-o", str(out_file), "--tol", "1e-6")
    assert code == 0
    assert re.search(r"degree=0 residual=\S+ level=6", out)
    assert out_file.read_text().count("GENPOLY1") == 3


def test_expand_at_stop_line(tmp_path, capsys):
    import json

    p = NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True) + NCPoly.variable(1, mode=INV)
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([p]))
    cf = tmp_path / "a.mtx"
    cf.write_text(dump_mattuple(MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])))
    argv = ["expand-at", "--map", f"poly:{pf}", "--center", str(cf), "--degree", "2", "--s-eval", "3",
            "--tol", "1e-6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # the stop line follows the residual lines: a polynomial map is expanded
    # with no oracle call, a black box by its sampled fit
    lines = out.splitlines()
    assert all(re.fullmatch(rf"degree={m} residual=\S+ level=6", ln) for m, ln in enumerate(lines[:-1]))
    assert len(lines) == 4 and lines[-1] == "expand evaluations=0 level=6"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    stop = json.loads(out.splitlines()[-1])
    assert stop == {"text": lines[-1], "kind": "expand_stop", "evaluations": 0, "level": 6}
    cf.write_text(dump_mattuple(MatTuple([np.diag([0.2, 0.45])])))
    argv = ["expand-at", "--map", "sinxxt", "--center", str(cf), "--degree", "2", "--s-eval", "3"]
    code, out, _ = run(capsys, *argv, "--tol", "1e-6")
    assert code == 0 and out.splitlines()[-1] == "expand evaluations=26 level=6"
    # FAIL lines come after the stop line, as for Newton solves
    code, out, _ = run(capsys, *argv, "--tol", "0")
    lines = out.splitlines()
    assert code == 2 and lines[3] == "expand evaluations=26 level=6"
    assert [ln.split()[:2] for ln in lines[4:]] == [["FAIL", "expand_at_degree"]] * 3


def test_determinism_byte_identical(tmp_path, capsys):
    p = random_ncpoly(2, 3, INV, seed=9)
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([p]))
    outs = []
    for name in ("a", "b"):
        of = tmp_path / f"{name}.ncpoly"
        code, out, _ = run(capsys, "taylor", "--map", f"poly:{pf}", "--degree", "3",
                           "--seed", "7", "-o", str(of))
        assert code == 0
        outs.append(of.read_bytes() + out.encode())
    assert outs[0] == outs[1]


def test_json_mirror(capsys):
    import json

    code, out, _ = run(capsys, "check", "--map", "sinxxt", "--trials", "3", "--json")
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert "text" in obj


def test_usage_and_io_errors(tmp_path, capsys):
    code, _, err = run(capsys, "identity", "--n", "2")
    assert code == 1
    # a parameter on a map that takes none is refused, not ignored
    for spec in ("sinxxt:3", "nonuniform:zzz"):
        code, out, err = run(capsys, "check", "--map", spec, "--levels", "1")
        assert code == 1 and out == "" and err.startswith("error: ") and spec in err
    code, _, err = run(capsys, "eval", "--poly", str(tmp_path / "missing"), "--tuple", "x")
    assert code == 1
    bad = tmp_path / "bad.mtx"
    bad.write_text("MTX1 n=2 g=1 field=real\n1 0\n1\n")
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([NCPoly.variable(1)]))
    code, _, err = run(capsys, "eval", "--poly", str(pf), "--tuple", str(bad))
    assert code == 1 and "line" in err
    nan = tmp_path / "nan.mtx"
    nan.write_text("MTX1 n=2 g=1 field=real\n1 nan\n0 1\n")
    code, out, err = run(capsys, "eval", "--poly", str(pf), "--tuple", str(nan))
    assert code == 1 and out == "" and "line 2, column 3" in err
    cplx = tmp_path / "cplx.mtx"
    cplx.write_text("MTX1 n=1 g=1 field=real\n1+2i\n")
    code, out, err = run(capsys, "eval", "--poly", str(pf), "--tuple", str(cplx))
    assert code == 1 and out == "" and "line 2, column 1" in err and "Traceback" not in err
    for extra in (["--trials", "0"], ["--trials", "-3"], ["--n", "0"]):
        code, out, _ = run(capsys, "identity", "--standard", "4", "--n", "1", *extra)
        assert code == 1 and "IDENTITY" not in out
    # a generalized polynomial is not a format identity testing takes
    gp = tmp_path / "g.genpoly"
    gp.write_text("GENPOLY1 n=1 mode=free terms=1\ndeg=1 1 x1 1\n")
    code, out, err = run(capsys, "identity", "--poly", str(gp), "--n", "2", "--exact")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "NCPOLY1" in err and "TRPOLY1" in err
    # expand-at checks degree, component count and field before any oracle call
    e12 = tmp_path / "e12.mtx"
    e12.write_text("MTX1 n=2 g=1 field=real\n0 1\n0 0\n")
    two = tmp_path / "two.mtx"
    two.write_text("MTX1 n=2 g=2 field=real\n0 1\n0 0\n1 0\n0 1\n")
    ce12 = tmp_path / "ce12.mtx"
    ce12.write_text("MTX1 n=2 g=1 field=complex\n0 1+1i\n0 0\n")
    for center, degree, msg in ((e12, "-1", "degree must be >= 0"),
                                (two, "1", "center has 2 components, the map takes 1"),
                                (ce12, "1", "complex center for a real map")):
        code, out, err = run(capsys, "expand-at", "--map", f"poly:{pf}", "--center", str(center),
                             "--degree", degree, "--s-eval", "3")
        assert code == 1 and out == "" and msg in err and "Traceback" not in err
    # every header field is checked where it is read, with its column
    one = tmp_path / "one.mtx"
    one.write_text("MTX1 n=1 g=1 field=real\n1\n")
    for name, text, cmd, where in (
        ("nog.genpoly", "GENPOLY1 mode=free terms=1\ndeg=0 1\n", "eval", "line 1, column 1"),
        ("n.genpoly", "GENPOLY1 n=x mode=free terms=0\n", "eval", "line 1, column 10"),
        ("two.ncpoly", "NCPOLY1 mode=free polys=two\nterms=1\n1 : x1\n", "eval", "line 1, column 19"),
        ("bogus.trpoly", "TRPOLY1 mode=bogus field=real\n1 : x1\n", "eval", "line 1, column 9"),
        ("q.trpoly", "TRPOLY1 mode=free field=quaternion\n1 : x1\n", "eval", "line 1, column 19"),
        ("zero.ncpoly", "NCPOLY1 mode=free polys=0\n", "taylor", "line 1, column 19"),
    ):
        f = tmp_path / name
        f.write_text(text)
        argv = (["eval", "--poly", str(f), "--tuple", str(one)] if cmd == "eval"
                else ["taylor", "--map", f"poly:{f}", "--degree", "2"])
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and where in err and "Traceback" not in err, (name, err)
    quat = tmp_path / "quat.mtx"
    quat.write_text("MTX1 n=1 g=1 field=quaternion\n1\n")
    code, out, err = run(capsys, "eval", "--poly", str(pf), "--tuple", str(quat))
    assert code == 1 and out == "" and "line 1, column 14" in err


def test_map_parameters_are_checked(capsys):
    # a malformed map parameter exits 1 naming the map and the form it takes
    forms = {"smooth_nonanalytic": "an integer J >= 0", "pow_xxt": "a finite exponent > 0"}
    for spec in ("smooth_nonanalytic:abc", "smooth_nonanalytic:-1", "pow_xxt:x", "pow_xxt:nan",
                 "pow_xxt:1/0", "pow_xxt:inf", "pow_xxt:1e400", "pow_xxt:0"):
        code, out, err = run(capsys, "check", "--map", spec, "--levels", "1", "--trials", "2")
        name, _, param = spec.partition(":")
        assert code == 1 and out == "" and err.startswith(f"error: {name}: expected {forms[name]}"), spec
        assert err.endswith(f"got {param!r}\n") and "Traceback" not in err
    # J past the last nonzero weight adds nothing (2.0**1024 overflowed before)
    outs = [run(capsys, "check", "--map", f"smooth_nonanalytic:{J}", "--levels", "2", "--trials", "3") for J in (40, 2000)]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_check_determinism_across_runs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "check", "--map", "pow_xxt:1.5", "--trials", "6", "--seed", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_tol_must_be_finite_and_nonnegative(capsys):
    # no residual exceeds nan, and every one exceeds a negative tol: both
    # are usage errors, refused before any check runs
    for tol in ("nan", "-1", "inf", "-inf", "1e-8x"):
        code, out, err = run(capsys, "check", "--map", "sinxxt", "--trials", "2", "--tol", tol)
        assert code == 1 and out == "" and "--tol" in err and "Traceback" not in err, tol
    # tol 0 is allowed: round-off then fails similarity, with a FAIL line
    code, out, err = run(capsys, "check", "--map", "sinxxt", "--trials", "2", "--tol", "0")
    assert code == 2 and err == "" and any(FAIL_RE.match(ln) for ln in out.splitlines())


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "ncfun", "check", "--map", "sinxxt", "--trials", "2"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith("PASS ")


def test_empty_or_negative_work_is_refused(tmp_path, capsys):
    # no trial, no level, a level < 1, a negative degree or iteration limit:
    # exit 1 with a message and nothing written, not a PASS or a late error
    for extra in (["--trials", "0"], ["--trials", "-1"], ["--levels", ","], ["--levels", "0"], ["--levels", "-2"]):
        code, out, err = run(capsys, "check", "--map", "sinxxt", *extra)
        assert code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err, extra
    for cmd in ("taylor", "extract"):
        code, out, err = run(capsys, cmd, "--map", "sinxxt", "--degree", "-1")
        assert code == 1 and out == "" and "degree must be >= 0, got -1" in err
    p = NCPoly.variable(1, mode=INV) + NCPoly.variable(1, mode=INV) * NCPoly.variable(1, True)
    pf, yf, sol = tmp_path / "p.ncpoly", tmp_path / "y.mtx", tmp_path / "sol.mtx"
    pf.write_text(dump_ncpolys([p]))
    yf.write_text(dump_mattuple(random_mattuple(1, 2, 3, norm=0.05)))
    code, out, err = run(capsys, "invert", "--newton", "--map", f"poly:{pf}", "--target", str(yf),
                         "--maxit", "-3", "-o", str(sol))
    assert code == 1 and out == "" and "maxit must be >= 0, got -3" in err and not sol.exists()


def test_mode_flags_are_mutually_exclusive(tmp_path, capsys):
    pf = tmp_path / "p.ncpoly"
    pf.write_text(dump_ncpolys([NCPoly.variable(2) + NCPoly.variable(1)]))
    for argv in (["invert", "--formal", "--newton", "--poly", str(pf)],
                 ["implicit", "--map", f"poly:{pf}", "--split", "1", "--formal", "--numeric"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "not allowed with argument --formal" in err


def test_json_records_carry_every_text_field(tmp_path, capsys):
    # the --json record of each report line holds every key=value token of
    # its text, with the printed value
    import json

    x, y = NCPoly.variable(1), NCPoly.variable(2)
    hom, imp, inv = tmp_path / "hom.ncpoly", tmp_path / "imp.ncpoly", tmp_path / "inv.ncpoly"
    hom.write_text(dump_ncpolys([x * y - (y * x).scale(0.5)]))
    imp.write_text(dump_ncpolys([y + (y * x).scale(0.8) + x]))
    inv.write_text(dump_ncpolys([x - x * x]))
    center = tmp_path / "a.mtx"
    center.write_text(dump_mattuple(MatTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])))
    target, at = tmp_path / "y.mtx", tmp_path / "x.mtx"
    target.write_text(dump_mattuple(random_mattuple(1, 3, 1, norm=0.2)))
    at.write_text(dump_mattuple(random_mattuple(1, 3, 2, norm=0.3)))
    out = str(tmp_path / "out")
    commands = ((["extract", "--map", f"poly:{hom}", "--degree", "2"], 0),
                (["extract", "--map", f"poly:{hom}", "--degree", "2", "--level", "4"], 0),
                (["expand-at", "--map", "sinxxt", "--center", str(center), "--degree", "1", "--s-eval", "2"], 0),
                (["invert", "--formal", "--poly", str(inv), "--degree", "4"], 0),
                (["implicit", "--map", f"poly:{imp}", "--split", "1", "--formal", "--degree", "3"], 0),
                # PASS lines, and FAIL lines of an O map checked as a GL map
                (["check", "--map", "sinxxt", "--levels", "1,2", "--trials", "3"], 0),
                (["check", "--map", "sinxxt", "--group", "GL", "--levels", "2", "--trials", "3"], 2),
                (["taylor", "--map", "sinxxt", "--degree", "2"], 0),
                (["invert", "--newton", "--map", f"poly:{inv}", "--target", str(target)], 0),
                (["implicit", "--map", f"poly:{imp}", "--split", "1", "--numeric", "--at", str(at)], 0))
    for argv, want in commands:
        code, text, _ = run(capsys, *argv, "-o", out)
        code_json, lines, _ = run(capsys, *argv, "-o", out, "--json")
        records = [json.loads(line) for line in lines.splitlines()]
        assert code == code_json == want and [r["text"] for r in records] == text.splitlines()
        for r in records:
            for token in r["text"].split():
                if "=" in token:
                    key, value = token.split("=")
                    assert key in r and str(r[key]) == value, (argv[0], key, r)
