"""Golden CLI outputs: the exact stdout and ``-o`` bytes of commands whose
output does not depend on the platform (word and trace canonicalization,
exact integer arithmetic, and a series inversion whose coefficients are
exactly representable), and one ``expand-at`` file whose substituted
coefficients are compared to 1e-12.  A change to any of these bytes
changes the CLI's output format or a result, so it has to be made here on
purpose.
"""

import re

import numpy as np
import pytest

from ncfun.cli import main

INPUTS = {
    "t.trpoly": (
        "TRPOLY1 mode=free field=real\n"
        "1 : tr(x2 x1) x1\n"
        "3 : tr(x1 x2) x1\n"
        "1/2 : tr(x2 x2 x1) tr(x1) x2\n"
        "-1 : tr(x1 x2 x2) tr(x1) x2\n"
    ),
    "p.ncpoly": (
        "NCPOLY1 mode=involution polys=2\n"
        "terms=3\n2 : x1 x2*\n-1 : x2\n3 : 1\n"
        "terms=2\n1 : x1 x1\n-2 : x2* x1\n"
    ),
    "x.mtx": "MTX1 n=2 g=2 field=real\n1 2\n0 -1\n3 0\n1 1\n",
    # one float entry makes the whole tuple float (not exact)
    "m.mtx": "MTX1 n=2 g=2 field=real\n1 0.5\n0 1\n3 0\n1 1\n",
    "f.ncpoly": "NCPOLY1 mode=free polys=1\nterms=2\n1 : x1\n-1 : x1 x1\n",
    # g=2 involution tuple whose linear part mixes x2 and x2^t; its inverse
    # has integer entries, so the series coefficients are exact
    "q.ncpoly": (
        "NCPOLY1 mode=involution polys=2\n"
        "terms=4\n1 : x1\n1 : x2\n1 : x2*\n1 : x1 x1*\n"
        "terms=2\n1 : x2\n1 : x2 x1\n"
    ),
    # f(x, y) = y + x + y x^t, so h(x) = -x (1 + x^t)^-1
    "i.ncpoly": "NCPOLY1 mode=involution polys=1\nterms=3\n1 : x2\n1 : x1\n1 : x2 x1*\n",
}

# (argv, stdout, bytes written to -o OUT or None); file names refer to INPUTS
CASES = [
    pytest.param(
        ["canon", "--cyclic", "x2 x1"],
        "x1 x2\n",
        None,
        id="canon-cyclic",
    ),
    pytest.param(
        ["canon", "--involution", "x1 x2* x3"],
        "x3* x2 x1*\n",
        None,
        id="canon-involution",
    ),
    pytest.param(
        ["canon", "--cyclic", "--star", "x2 x1*"],
        "x1 x2*\n",
        None,
        id="canon-cyclic-star",
    ),
    pytest.param(
        ["canon", "--cyclic", "--involution", "x3 x1 x2"],
        "x1* x3* x2*\n",
        None,
        id="canon-cyclic-involution",
    ),
    pytest.param(
        ["canon", "--trpoly", "t.trpoly"],
        (
            "TRPOLY1 mode=free field=real\n"
            "4 : tr(x1 x2) x1\n"
            "-1/2 : tr(x1) tr(x1 x2 x2) x2\n"
        ),
        None,
        id="canon-trpoly",
    ),
    pytest.param(
        ["canon", "--trpoly", "t.trpoly", "-o", "OUT"],
        "",
        (
            b"TRPOLY1 mode=free field=real\n"
            b"4 : tr(x1 x2) x1\n"
            b"-1/2 : tr(x1) tr(x1 x2 x2) x2\n"
        ),
        id="canon-trpoly-o",
    ),
    pytest.param(
        ["identity", "--standard", "4", "--n", "2", "--exact"],
        "IDENTITY\n",
        None,
        id="identity-s4-m2",
    ),
    pytest.param(
        ["identity", "--standard", "4", "--n", "3", "--exact", "-o", "OUT"],
        "NON-IDENTITY\n",
        (
            b"MTX1 n=3 g=4 field=real\n"
            b"3.0 1.0 0.0\n"
            b"-2.0 -2.0 -4.0\n"
            b"-4.0 -4.0 -3.0\n"
            b"3.0 1.0 4.0\n"
            b"0.0 1.0 4.0\n"
            b"2.0 1.0 0.0\n"
            b"1.0 4.0 -2.0\n"
            b"3.0 2.0 -4.0\n"
            b"-1.0 3.0 0.0\n"
            b"-4.0 2.0 2.0\n"
            b"3.0 -3.0 -4.0\n"
            b"3.0 -4.0 0.0\n"
        ),
        id="identity-s4-m3-witness",
    ),
    pytest.param(
        ["identity", "--standard", "6", "--n", "3", "--exact"],
        "IDENTITY\n",
        None,
        id="identity-s6-m3",
    ),
    pytest.param(
        ["identity", "--standard", "6", "--n", "4", "--exact", "--trials", "5", "-o", "OUT"],
        "NON-IDENTITY\n",
        (
            b"MTX1 n=4 g=6 field=real\n"
            b"5.0 2.0 0.0 -3.0\n"
            b"-2.0 -6.0 -6.0 -6.0\n"
            b"-4.0 4.0 2.0 5.0\n"
            b"0.0 1.0 6.0 3.0\n"
            b"2.0 1.0 1.0 6.0\n"
            b"-3.0 4.0 2.0 -6.0\n"
            b"-1.0 5.0 1.0 -6.0\n"
            b"3.0 3.0 5.0 -4.0\n"
            b"-5.0 5.0 -6.0 1.0\n"
            b"-5.0 -3.0 0.0 -1.0\n"
            b"-1.0 -6.0 -6.0 -5.0\n"
            b"-6.0 2.0 0.0 2.0\n"
            b"-3.0 2.0 3.0 -2.0\n"
            b"-1.0 6.0 4.0 6.0\n"
            b"-2.0 2.0 6.0 2.0\n"
            b"4.0 2.0 3.0 -1.0\n"
            b"5.0 -5.0 1.0 3.0\n"
            b"4.0 0.0 -2.0 -2.0\n"
            b"-1.0 0.0 3.0 5.0\n"
            b"-6.0 6.0 0.0 -2.0\n"
            b"2.0 1.0 -3.0 -2.0\n"
            b"3.0 1.0 0.0 -2.0\n"
            b"3.0 -1.0 -2.0 5.0\n"
            b"-3.0 -4.0 3.0 2.0\n"
        ),
        id="identity-s6-m4-witness",
    ),
    pytest.param(
        ["identity", "--standard", "6", "--n", "3", "--exact", "--json"],
        (
            '{"failure_bound": 4.029001711923104e-09, "kind": "verdict", "n": 3, "text": "IDENTITY", "trials": 25, "verdict": "IDENTITY"}\n'
        ),
        None,
        id="identity-s6-m3-json",
    ),
    pytest.param(
        ["invert", "--formal", "--poly", "f.ncpoly", "--degree", "8"],
        (
            "NCPOLY1 mode=free polys=1\n"
            "terms=8\n"
            "1.0 : x1\n"
            "1.0 : x1 x1\n"
            "2.0 : x1 x1 x1\n"
            "5.0 : x1 x1 x1 x1\n"
            "14.0 : x1 x1 x1 x1 x1\n"
            "42.0 : x1 x1 x1 x1 x1 x1\n"
            "132.0 : x1 x1 x1 x1 x1 x1 x1\n"
            "429.0 : x1 x1 x1 x1 x1 x1 x1 x1\n"
            "degree=8 residual=0.0 level=0\n"
        ),
        None,
        id="invert-formal-d8",
    ),
    pytest.param(
        ["invert", "--formal", "--poly", "f.ncpoly", "-o", "OUT"],
        "degree=5 residual=0.0 level=0\n",
        (
            b"NCPOLY1 mode=free polys=1\n"
            b"terms=5\n"
            b"1.0 : x1\n"
            b"1.0 : x1 x1\n"
            b"2.0 : x1 x1 x1\n"
            b"5.0 : x1 x1 x1 x1\n"
            b"14.0 : x1 x1 x1 x1 x1\n"
        ),
        id="invert-formal-o",
    ),
    pytest.param(
        ["invert", "--formal", "--poly", "q.ncpoly", "--degree", "2"],
        (
            "NCPOLY1 mode=involution polys=2\n"
            "terms=14\n"
            "1.0 : x1\n"
            "-1.0 : x2\n"
            "-1.0 : x2*\n"
            "-1.0 : x1 x1*\n"
            "1.0 : x1 x2\n"
            "1.0 : x1 x2*\n"
            "1.0 : x1* x2*\n"
            "1.0 : x2 x1\n"
            "1.0 : x2 x1*\n"
            "-2.0 : x2 x2\n"
            "-3.0 : x2 x2*\n"
            "1.0 : x2* x1*\n"
            "-1.0 : x2* x2\n"
            "-2.0 : x2* x2*\n"
            "terms=4\n"
            "1.0 : x2\n"
            "-1.0 : x2 x1\n"
            "1.0 : x2 x2\n"
            "1.0 : x2 x2*\n"
            "degree=2 residual=0.0 level=0\n"
        ),
        None,
        id="invert-formal-involution-g2",
    ),
    pytest.param(
        ["implicit", "--formal", "--map", "poly:i.ncpoly", "--split", "1", "--degree", "4"],
        (
            "NCPOLY1 mode=involution polys=1\n"
            "terms=4\n"
            "-1.0 : x1\n"
            "1.0 : x1 x1*\n"
            "-1.0 : x1 x1* x1*\n"
            "1.0 : x1 x1* x1* x1*\n"
            "degree=4 residual=0.0 level=0\n"
        ),
        None,
        id="implicit-formal",
    ),
    pytest.param(
        ["eval", "--poly", "p.ncpoly", "--tuple", "x.mtx"],
        (
            "MTX1 n=2 g=2 field=real\n"
            "6 6\n"
            "-1 0\n"
            "-5 -10\n"
            "0 3\n"
        ),
        None,
        id="eval-exact",
    ),
    pytest.param(
        ["eval", "--poly", "p.ncpoly", "--tuple", "x.mtx", "-o", "OUT"],
        "",
        (
            b"MTX1 n=2 g=2 field=real\n"
            b"6 6\n"
            b"-1 0\n"
            b"-5 -10\n"
            b"0 3\n"
        ),
        id="eval-exact-o",
    ),
    pytest.param(
        ["eval", "--poly", "p.ncpoly", "--tuple", "m.mtx"],
        (
            "MTX1 n=2 g=2 field=real\n"
            "6.0 3.0\n"
            "-1.0 4.0\n"
            "-5.0 -4.0\n"
            "0.0 -1.0\n"
        ),
        None,
        id="eval-mixed",
    ),
]


@pytest.mark.parametrize("argv, stdout, written", CASES)
def test_cli_golden(argv, stdout, written, tmp_path, capsys, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)  # map specs such as poly:i.ncpoly name a file in tmp_path
    out = tmp_path / "OUT"
    args = [str(tmp_path / a) if a in INPUTS or a == "OUT" else a for a in argv]
    assert main(args) == 0
    assert capsys.readouterr().out == stdout
    if written is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == written


# expand-at substitutes X = A + H into the poly: map's words, and the
# last digits of its coefficients are round-off of their coordinates on
# the basis of the coefficient algebra (1e-15 here), so the -o file is
# compared token by token, every number within 1e-12 of these bytes and
# all else exact
EXPAND_AT_OUT = (
    b"GENPOLY1 n=2 mode=involution terms=2\n"
    b"deg=0 0.0 1.0000000000000002; 0.0 0.0\n"
    b"deg=0 0.9999999999999998 0.0; 0.0 0.0\n"
    b"GENPOLY1 n=2 mode=involution terms=8\n"
    b"deg=1 0.0 0.0; 0.0 1.0000000000000013 x1 0.0 0.0; 0.0 1.0\n"
    b"deg=1 -0.0 -0.0; -0.0 -1.000000000000001 x1 -0.0 -0.0; -1.0 -0.0\n"
    b"deg=1 0.0 0.0; 0.0 1.0000000000000002 x1 1.0 0.0; 0.0 0.0\n"
    b"deg=1 0.0 1.0000000000000002; 0.0 0.0 x1* 0.0 0.0; 0.0 1.0\n"
    b"deg=1 0.0 1.0000000000000018; 0.0 0.0 x1* 1.0 0.0; 0.0 0.0\n"
    b"deg=1 1.0 0.0; 0.0 0.0 x1 0.0 0.0; 0.0 1.0\n"
    b"deg=1 -0.9999999999999988 -0.0; -0.0 -0.0 x1 -0.0 -0.0; -1.0 -0.0\n"
    b"deg=1 0.9999999999999998 0.0; 0.0 0.0 x1 1.0 0.0; 0.0 0.0\n"
    b"GENPOLY1 n=2 mode=involution terms=8\n"
    b"deg=2 0.0 0.0; 0.0 0.9999999999999996 x1 0.0 0.0; 0.0 1.0 x1* 0.0 0.0; 0.0 1.0\n"
    b"deg=2 0.0 0.0; 0.0 1.0000000000000053 x1 0.0 0.0; 0.0 1.0 x1* 1.0 0.0; 0.0 0.0\n"
    b"deg=2 0.0 0.0; 0.0 0.9999999999999988 x1 1.0 0.0; 0.0 0.0 x1* 0.0 0.0; 0.0 1.0\n"
    b"deg=2 0.0 0.0; 0.0 0.9999999999999969 x1 1.0 0.0; 0.0 0.0 x1* 1.0 0.0; 0.0 0.0\n"
    b"deg=2 0.9999999999999987 0.0; 0.0 0.0 x1 0.0 0.0; 0.0 1.0 x1* 0.0 0.0; 0.0 1.0\n"
    b"deg=2 0.9999999999999987 0.0; 0.0 0.0 x1 0.0 0.0; 0.0 1.0 x1* 1.0 0.0; 0.0 0.0\n"
    b"deg=2 1.0000000000000016 0.0; 0.0 0.0 x1 1.0 0.0; 0.0 0.0 x1* 0.0 0.0; 0.0 1.0\n"
    b"deg=2 1.0000000000000004 0.0; 0.0 0.0 x1 1.0 0.0; 0.0 0.0 x1* 1.0 0.0; 0.0 0.0\n"
)
_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def test_cli_golden_expand_at(tmp_path, capsys):
    fp = tmp_path / "f.ncpoly"
    fp.write_text("NCPOLY1 mode=involution polys=1\nterms=2\n1 : x1 x1*\n1 : x1\n")
    cp = tmp_path / "e12.mtx"
    cp.write_text("MTX1 n=2 g=1 field=real\n0 1\n0 0\n")
    out = tmp_path / "OUT"
    argv = ["expand-at", "--map", f"poly:{fp}", "--center", str(cp),
            "--degree", "2", "--s-eval", "3", "--seed", "5", "-o", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    got, want = out.read_text(), EXPAND_AT_OUT.decode()
    assert _FLOAT.sub("#", got) == _FLOAT.sub("#", want)
    diffs = np.subtract([float(v) for v in _FLOAT.findall(got)],
                        [float(v) for v in _FLOAT.findall(want)])
    assert np.abs(diffs).max() <= 1e-12
