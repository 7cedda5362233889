"""Line-oriented text formats: NCPOLY1, TRPOLY1, GENPOLY1, MTX1.

All four are deterministic (terms sorted graded-lexicographically,
shortest round-trip float formatting) so identical data prints to
byte-identical files.  Complex entries use a+bi / a-bi literals.
Parse errors carry 1-based line and column numbers.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .genpoly import GenPoly, GenTerm
from .mateval import MatTuple
from .poly import FREE, INV, NCPoly, TracePoly
from .words import Word, parse_word, word_str

_LETTER_RE = re.compile(r"^x\d+\*?$")
_TOKEN_RE = re.compile(r"\S+")


class FormatError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


def _fmt_scalar(c) -> str:
    if isinstance(c, np.generic):
        c = c.item()
    if isinstance(c, complex):
        re_, im = float(c.real), float(c.imag)
        sign = "+" if im >= 0 else "-"
        return f"{re_!r}{sign}{abs(im)!r}i"
    if isinstance(c, float):
        return repr(float(c))
    return str(c)


def _parse_scalar(tok: str, line: int, col: int = 1):
    t = tok.strip()
    try:
        if t.endswith("i"):
            v = complex(t[:-1].replace(" ", "") + "j")
        elif "/" in t:
            return Fraction(t)
        elif re.fullmatch(r"[+-]?\d+", t):
            return int(t)
        else:
            v = float(t)
    except ValueError:
        raise FormatError(f"bad numeric literal {tok!r}", line, col) from None
    if not cmath.isfinite(v):
        raise FormatError(f"non-finite numeric literal {tok!r}", line, col)
    return v


def _header(text: str, tag: str) -> Tuple[List[str], dict]:
    """The lines of ``text`` and the ``key=value`` fields of its ``tag``
    header line, as key -> (value, column)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(tag):
        raise FormatError(f"missing {tag} header", 1)
    fields = {}
    for tok in list(_TOKEN_RE.finditer(lines[0]))[1:]:
        if "=" not in tok.group():
            raise FormatError(f"bad header field {tok.group()!r}", 1, tok.start() + 1)
        k, v = tok.group().split("=", 1)
        fields[k] = (v, tok.start() + 1)
    return lines, fields


def _header_count(fields: dict, key: str, default: int | None = None, least: int = 1) -> int:
    """Header field ``key`` as an integer >= ``least``; required unless it
    has a default."""
    v, col = fields.get(key, (default, 1))
    if v is None:
        raise FormatError(f"header needs {key}=<integer>", 1)
    if not re.fullmatch(r"\d+", str(v)) or int(v) < least:
        raise FormatError(f"header field {key}={v} must be an integer >= {least}", 1, col)
    return int(v)


def _header_choice(fields: dict, key: str, choices: Tuple[str, ...]) -> str:
    """Header field ``key``, one of ``choices`` (the first by default)."""
    v, col = fields.get(key, (choices[0], 1))
    if v not in choices:
        raise FormatError(f"header field {key}={v} must be one of {', '.join(choices)}", 1, col)
    return v


# -- NCPOLY1 ----------------------------------------------------------


def dump_ncpolys(polys: Sequence[NCPoly]) -> str:
    polys = list(polys)
    mode = polys[0].mode if polys else FREE
    lines = [f"NCPOLY1 mode={mode} polys={len(polys)}"]
    for p in polys:
        terms = p.sorted_terms()
        lines.append(f"terms={len(terms)}")
        for w, c in terms:
            lines.append(f"{_fmt_scalar(c)} : {word_str(w)}")
    return "\n".join(lines) + "\n"


def load_ncpolys(text: str) -> List[NCPoly]:
    lines, hdr = _header(text, "NCPOLY1")
    mode = _header_choice(hdr, "mode", (FREE, INV))
    count = _header_count(hdr, "polys", 1)
    polys = []
    i = 1
    for _ in range(count):
        if i >= len(lines):
            raise FormatError("unexpected end of file", len(lines) + 1)
        m = re.fullmatch(r"terms=(\d+)", lines[i].strip())
        if not m:
            raise FormatError(f"expected terms=<count>, got {lines[i]!r}", i + 1)
        nterms = int(m.group(1))
        i += 1
        coeffs = {}
        for _ in range(nterms):
            if i >= len(lines):
                raise FormatError("unexpected end of file", len(lines) + 1)
            raw = lines[i]
            if ":" not in raw:
                raise FormatError("term line needs '<coeff> : <word>'", i + 1, 1)
            cpart, wpart = raw.split(":", 1)
            c = _parse_scalar(cpart, i + 1)
            try:
                w = parse_word(wpart)
            except ValueError as e:
                raise FormatError(str(e), i + 1, len(cpart) + 2) from None
            coeffs[w] = coeffs.get(w, 0) + c
            i += 1
        polys.append(NCPoly(coeffs, mode))
    return polys


# -- TRPOLY1 ----------------------------------------------------------


def dump_tracepoly(p: TracePoly) -> str:
    lines = [f"TRPOLY1 mode={p.mode} field={p.field}"]
    lines += [f"{_fmt_scalar(c)} : {p.monomial_str(k)}" for k, c in p.sorted_terms()]
    return "\n".join(lines) + "\n"


_TR_RE = re.compile(r"tr\(([^)]*)\)")


def load_tracepoly(text: str) -> TracePoly:
    lines, hdr = _header(text, "TRPOLY1")
    mode = _header_choice(hdr, "mode", (FREE, INV))
    field = _header_choice(hdr, "field", ("real", "complex"))
    coeffs = {}
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise FormatError("term line needs '<coeff> : <factors>'", i)
        cpart, rest = raw.split(":", 1)
        c = _parse_scalar(cpart, i)
        pure = tuple(parse_word(m.group(1)) for m in _TR_RE.finditer(rest))
        tail_text = _TR_RE.sub("", rest).strip()
        try:
            tail = parse_word(tail_text) if tail_text else ()
        except ValueError as e:
            raise FormatError(str(e), i, len(cpart) + 2) from None
        key = (pure, tail)
        coeffs[key] = coeffs.get(key, 0) + c
    return TracePoly(coeffs, mode, field)


# -- MTX1 -------------------------------------------------------------


def _fmt_rows(m: np.ndarray, cplx: bool = False) -> List[str]:
    """The rows of a matrix, each its entries' literals joined by spaces;
    every entry a complex literal when ``cplx``."""
    return [" ".join(_fmt_scalar(complex(v) if cplx else v) for v in row) for row in np.asarray(m).tolist()]


def dump_mattuple(X: MatTuple) -> str:
    lines = [f"MTX1 n={X.n} g={X.g} field={X.field}"]
    for m in X.mats:
        lines += _fmt_rows(m, X.field == "complex")
    return "\n".join(lines) + "\n"


def load_mattuple(text: str) -> MatTuple:
    lines, hdr = _header(text, "MTX1")
    n, g = _header_count(hdr, "n"), _header_count(hdr, "g")
    field = _header_choice(hdr, "field", ("real", "complex"))
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != g * n:
        raise FormatError(f"expected {g * n} matrix rows, found {len(body)}", len(lines))
    rows = []
    for lineno, raw in body:
        toks = list(_TOKEN_RE.finditer(raw))
        if len(toks) != n:
            raise FormatError(f"expected {n} entries, found {len(toks)}", lineno)
        row = [_parse_scalar(t.group(), lineno, t.start() + 1) for t in toks]
        for t, v in zip(toks, row):
            if isinstance(v, complex) and field != "complex":
                raise FormatError(f"complex literal {t.group()!r} in a field={field} tuple",
                                  lineno, t.start() + 1)
        rows.append(row)
    # exact (object dtype) arithmetic only when no entry is a float or complex
    exact = all(isinstance(v, (int, Fraction)) for row in rows for v in row)
    dtype = object if exact else complex if field == "complex" else float
    return MatTuple([np.array(rows[k * n : (k + 1) * n], dtype=dtype) for k in range(g)], field)


# -- GENPOLY1 ---------------------------------------------------------


def dump_genpoly(p: GenPoly) -> str:
    lines = [f"GENPOLY1 n={p.n} mode={p.mode} terms={len(p.terms)}"]
    for t in p.terms:
        toks = ["; ".join(_fmt_rows(t.mats[0]))]
        for let, m in zip(t.letters, t.mats[1:]):
            toks += [word_str((let,)), "; ".join(_fmt_rows(m))]
        lines.append(f"deg={t.degree()} " + " ".join(toks))
    return "\n".join(lines) + "\n"


def _parse_matrix(chunk: str, n: int, lineno: int, col: int) -> np.ndarray:
    """Parse 'a b; c d'; ``col`` is the 1-based column of chunk[0] in its line."""
    rows = []
    for r in re.finditer(r"[^;]+", chunk):
        toks = [(t.group(), col + r.start() + t.start()) for t in _TOKEN_RE.finditer(r.group())]
        if toks:
            rows.append(toks)
    if len(rows) != n:
        raise FormatError(f"matrix needs {n} rows, found {len(rows)}", lineno, col)
    out = []
    for toks in rows:
        if len(toks) != n:
            raise FormatError(f"matrix row needs {n} entries, found {len(toks)}", lineno, toks[0][1])
        out.append([_parse_scalar(t, lineno, c) for t, c in toks])
    if any(not isinstance(v, (float, complex, int)) for row in out for v in row):
        return np.array(out, dtype=object)
    if any(isinstance(v, complex) for row in out for v in row):
        return np.array(out, dtype=complex)
    return np.array(out, dtype=float)


def load_genpoly(text: str) -> GenPoly:
    lines, hdr = _header(text, "GENPOLY1")
    n = _header_count(hdr, "n")
    mode = _header_choice(hdr, "mode", (FREE, INV))
    nterms = _header_count(hdr, "terms", 0, least=0)
    terms = []
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != nterms:
        raise FormatError(f"expected {nterms} term lines, found {len(body)}", len(lines))
    for lineno, raw in body:
        m = re.match(r"\s*deg=(\d+)\s*(.*)$", raw)
        if not m:
            raise FormatError("term line must start with deg=<l>", lineno)
        ell = int(m.group(1))
        # split the line at letter tokens into (matrix text, start index) chunks
        chunks: List[Tuple[str, int]] = []
        letters: List[str] = []
        start = m.start(2)
        for tok in _TOKEN_RE.finditer(raw, m.start(2)):
            if _LETTER_RE.match(tok.group()):
                chunks.append((raw[start : tok.start()], start))
                letters.append(tok.group())
                start = tok.end()
        chunks.append((raw[start:], start))
        if len(letters) != ell or len(chunks) != ell + 1:
            raise FormatError(
                f"term of degree {ell} needs {ell} letters and {ell + 1} matrices", lineno
            )
        mats = [_parse_matrix(c, n, lineno, i + 1) for c, i in chunks]
        w: Word = parse_word(" ".join(letters))
        terms.append(GenTerm(mats, w))
    return GenPoly(n, terms, mode)
