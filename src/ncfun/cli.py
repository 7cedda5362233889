"""Command-line surface.

Exit codes: 0 success, 1 usage/IO error, 2 verification failure (a
machine-readable line ``FAIL <check> level=<n> residual=<r>`` is
printed for scripting).  With ``--json`` every report line is mirrored
as one JSON object per line.  Identical argv + seed produce
byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import formats
from .expand import expand_at_point
from .genpoly import GenPoly
from .identities import is_identity, standard_polynomial
from .invfun import (
    NewtonError,
    SingularLinearPartError,
    composition_residual,
    formal_inverse,
    implicit_formal,
    implicit_numeric,
    implicit_residual,
    newton_invert,
)
from .mateval import MatTuple, eval_poly, eval_stack, random_mattuple, scaled_to, stack_diffs, standard_block
from .oracle import (
    FreeMapOracle,
    _part_scan,
    builtin_map,
    check_commutator_identity,
    check_did_block,
    check_direct_sums,
    check_similarity,
    check_triangular_identity,
    oracle_from_ncpoly,
)
from .recon import matenote_extract, taylor_at_zero
from .series import FormalSeries
from .words import cyclic_canonical, parse_word, word_involution, word_str

USAGE_ERROR, VERIFY_ERROR = 1, 2


class CliError(Exception):
    """Usage or IO error (exit 1)."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class Emitter:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.failed = False

    def line(self, text: str, **fields):
        if self.as_json:
            obj = {"text": text}
            obj.update(fields)
            print(json.dumps(obj, sort_keys=True, default=str))
        else:
            print(text)

    def record(self, kind: str, head: str = "", record_only: Optional[dict] = None, **fields):
        """The line ``[head] key=value ...`` of ``fields``, whose --json
        record holds the same fields and those of ``record_only``."""
        pairs = [f"{k}={v}" for k, v in fields.items()]
        self.line(" ".join([head] + pairs if head else pairs), kind=kind, **(record_only or {}), **fields)

    def fail(self, check: str, level: int, residual: float):
        self.failed = True
        self.record("fail", f"FAIL {check}", {"check": check}, level=level, residual=residual)

    def report(self, rep):
        if rep.passed:
            self.record("pass", f"PASS {rep.name}", {"check": rep.name, "residual": rep.max_violation},
                        max_residual=rep.max_violation)
        else:
            # the level the first violation ran at
            self.fail(rep.name, rep.witnesses[0][2], rep.max_violation)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _write(path: Optional[str], text: str):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(f"cannot write {path}: {e}") from None
    else:
        sys.stdout.write(text)


def _map_param(name: str, text: str, parse, ok, form: str):
    """The parameter ``text`` of map ``name`` read by ``parse`` and kept
    when ``ok``; anything else is refused as ``<name>: expected <form>``."""
    try:
        value = parse(text)
    except (ValueError, ArithmeticError):  # 1/0, or a value too large for a float
        value = None
    if value is None or not ok(value):
        raise CliError(f"{name}: expected {form}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0 (no residual exceeds nan, and
    every residual exceeds a negative tol)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


def load_map(spec: str) -> FreeMapOracle:
    """Registry: pow_xxt:<alpha>, sinxxt, smooth_nonanalytic[:J],
    nonuniform, poly:<ncpoly1 file>."""
    name, colon, param = spec.partition(":")
    if name == "pow_xxt":
        if not param:
            raise CliError("pow_xxt needs an exponent, e.g. pow_xxt:1/3")
        alpha = _map_param(name, param, lambda t: float(Fraction(t)), lambda a: 0 < a < math.inf,
                           "a finite exponent > 0, e.g. pow_xxt:1/3")
        return builtin_map("pow_xxt", alpha=alpha)
    if name in ("sinxxt", "nonuniform"):
        if colon:
            raise CliError(f"{name} takes no parameter, got {spec!r}")
        return builtin_map(name)
    if name == "smooth_nonanalytic":
        J = _map_param(name, param or "40", int, lambda j: j >= 0, "an integer J >= 0, e.g. smooth_nonanalytic:40")
        return builtin_map("smooth_nonanalytic", J=J)
    if name == "poly":
        if not param:
            raise CliError("poly:<file> needs a path")
        polys = formats.load_ncpolys(_read(param))
        return oracle_from_ncpoly(tuple(polys), name=f"poly:{param}")
    raise CliError(f"unknown map {spec!r}")


def _load_poly_any(path: str):
    text = _read(path)
    head = text.splitlines()[0] if text else ""
    if head.startswith("NCPOLY1"):
        return formats.load_ncpolys(text)
    if head.startswith("TRPOLY1"):
        return [formats.load_tracepoly(text)]
    if head.startswith("GENPOLY1"):
        return [formats.load_genpoly(text)]
    raise CliError(f"{path}: unrecognized polynomial format")


# -- subcommands -------------------------------------------------------


def cmd_canon(args, emit: Emitter) -> int:
    if args.trpoly:
        tp = formats.load_tracepoly(_read(args.trpoly))
        _write(args.output, formats.dump_tracepoly(tp))
        return 0
    if args.word is None:
        raise CliError("canon needs a word or --trpoly FILE")
    w = parse_word(args.word)
    if args.involution:
        w = word_involution(w)
    if args.cyclic:
        w = cyclic_canonical(w, star_mode=args.star)
    emit.line(word_str(w), kind="word", word=word_str(w))
    return 0


def cmd_eval(args, emit: Emitter) -> int:
    polys = _load_poly_any(args.poly)
    X = formats.load_mattuple(_read(args.tuple))
    vals = [np.asarray(eval_poly(p, X)) for p in polys]
    field = "complex" if X.field == "complex" or any(np.iscomplexobj(v) for v in vals) else "real"
    _write(args.output, formats.dump_mattuple(MatTuple(vals, field)))
    return 0


def _check_levels(arg: str) -> List[int]:
    try:
        levels = [int(t) for t in arg.split(",") if t]
    except ValueError:
        raise CliError(f"bad levels {arg!r}") from None
    if not levels or min(levels) < 1:
        raise CliError(f"--levels needs one or more levels >= 1, got {arg!r}")
    return levels


def cmd_check(args, emit: Emitter) -> int:
    if args.trials < 1:  # the library reports no trials as a pass
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    f = load_map(args.map)
    levels = _check_levels(args.levels)
    pair_levels = [(m, n) for i, m in enumerate(levels) for n in levels[i:]]
    reports = []
    reports.append(check_direct_sums(f, pair_levels, trials=args.trials, tol=args.tol, seed=args.seed))
    group = args.group or f.group
    reports.append(check_similarity(f, group, levels, trials=args.trials, tol=args.tol, seed=args.seed))
    differentiable = f.smoothness not in ("continuous",)
    if differentiable:
        rng = np.random.default_rng(args.seed + 1)
        for n in levels:
            if n < 2:
                continue
            X = random_mattuple(f.g, n, rng, f.field, norm=0.4)
            H = random_mattuple(f.g, n, rng, f.field, norm=0.4)
            if group == "GL":
                reports.append(check_triangular_identity(f, X, H, tol=max(args.tol, 1e-6)))
            else:
                a = rng.standard_normal((n, n))
                a = a - a.T
                reports.append(check_commutator_identity(f, X, a, tol=max(args.tol, 1e-6)))
                Y = random_mattuple(f.g, n, rng, f.field, norm=0.4)
                reports.append(check_did_block(f, X, Y, tol=max(args.tol, 1e-6)))
            break  # one representative level keeps output canonical and fast
    for rep in sorted(reports, key=lambda r: r.name):
        emit.report(rep)
    return VERIFY_ERROR if emit.failed else 0


def cmd_extract(args, emit: Emitter) -> int:
    if args.degree < 0:  # the homogeneity probe runs before matenote_extract checks it
        raise CliError(f"degree must be >= 0, got {args.degree}")
    f = load_map(args.map)
    # matenote reads assume f is homogeneous of this degree: probe
    # f(X) = 2^m f(X/2) at one random point first
    level = args.degree + 1
    X = random_mattuple(f.g, level, np.random.default_rng(args.seed), f.field,
                        norm=min(0.5, f.radius_at(level) / 4.0))
    fx = f(X)
    r = fx.max_diff(f(X.scale(0.5)).scale(2.0**args.degree)) / max(1.0, fx.norm())
    if r > args.tol:
        emit.fail("extract_homogeneity", level, r)
        return VERIFY_ERROR
    ext = matenote_extract(f, args.degree, f.g, f.mode, level=args.level, field=f.field)
    _write(args.output, formats.dump_ncpolys(list(ext.polys)))
    emit.record("extract", degree=args.degree, evaluations=ext.evaluations, level=args.level or level)
    return 0


def cmd_taylor(args, emit: Emitter) -> int:
    f = load_map(args.map)
    tay = taylor_at_zero(f, args.degree, tol=args.tol, seed=args.seed, cross_check=args.cross_check)
    polys = [s.to_ncpoly() for s in tay.series]
    _write(args.output, formats.dump_ncpolys(polys))
    # per-degree certificate: recovered part vs a fresh homogeneous-part
    # evaluation at three random probes one level above the extraction
    # level, read as one stacked scan
    rng = np.random.default_rng(args.seed + 1)
    for m in range(args.degree + 1):
        level = m + 2
        A = scaled_to(standard_block(f.g, level, 3, rng, f.field), np.full(3, min(0.5, f.radius_at(level) / 4.0)))
        want = _part_scan(f, A, args.degree)[:, :, m]
        got = eval_stack([p.homogeneous_part(m) for p in polys], A, f.field)
        r = float(stack_diffs(got, want.reshape(got.shape)).max())
        emit.record("taylor", degree=m, residual=r, level=level)
        if r > args.tol:
            emit.fail("taylor_degree", level, r)
    emit.record("taylor_stop", "taylor", evaluations=f.calls)
    for fl in tay.flags:
        emit.line(f"flag: {fl}", kind="flag")
    if tay.residual > args.tol and f.is_polynomial():
        emit.fail("taylor_residual", 1, tay.residual)
    return VERIFY_ERROR if emit.failed else 0


def cmd_expand_at(args, emit: Emitter) -> int:
    """One residual line per degree, the stop line ``expand
    evaluations=<N> level=<n>`` (the oracle calls made, 0 for a polynomial
    map), then ``FAIL expand_at_degree`` for each residual above --tol."""
    f = load_map(args.map)
    A = formats.load_mattuple(_read(args.center))
    exp = expand_at_point(f, A, args.degree, args.s_eval, seed=args.seed)
    level = A.n * args.s_eval
    for m, r in enumerate(exp.residuals):
        emit.record("expand", degree=m, residual=r, level=level)
    emit.record("expand_stop", "expand", evaluations=exp.evaluations, level=level)
    for r in exp.residuals:
        if r > args.tol:
            emit.fail("expand_at_degree", level, r)
    if args.output:
        chunks = []
        for m in range(exp.order + 1):
            for j in range(exp.gprime):
                chunks.append(formats.dump_genpoly(exp.parts[m][j]))
        _write(args.output, "".join(chunks))
    return VERIFY_ERROR if emit.failed else 0


def cmd_identity(args, emit: Emitter) -> int:
    if args.standard:
        if args.standard % 2:
            raise CliError("--standard takes the even degree 2k")
        p = standard_polynomial(args.standard // 2)
    elif args.poly:
        p = _load_poly_any(args.poly)[0]
        if isinstance(p, GenPoly):
            raise CliError(f"{args.poly}: identity takes an NCPOLY1 or TRPOLY1 file, not GENPOLY1")
    else:
        raise CliError("identity needs --standard 2K or --poly FILE")
    rep = is_identity(p, args.n, trials=args.trials, seed=args.seed, exact=args.exact)
    emit.line(rep.verdict, kind="verdict", verdict=rep.verdict, n=args.n, trials=rep.trials,
              failure_bound=rep.failure_bound)
    if rep.witness is not None and args.output:
        W = MatTuple([np.asarray(m, dtype=float) for m in rep.witness.mats], "real")
        _write(args.output, formats.dump_mattuple(W))
    return 0


def _report_newton(solve, check: str, level: int, output: Optional[str], emit: Emitter) -> int:
    """Run a Newton solve and report it: ``FAIL <check>_jacobian`` on a
    singular Jacobian, one line per iterate, the stop line ``newton
    reason=<r> iterations=<k> evaluations=<N> jacobians=<K> level=<n>``,
    the last iterate to output, and ``FAIL <check>`` if it did not
    converge."""
    try:
        trace = solve()
    except NewtonError as e:
        emit.fail(f"{check}_jacobian", level, math.inf)
        emit.line(str(e), kind="error")
        return VERIFY_ERROR
    for i, (res, step) in enumerate(trace.iterates):
        emit.record("newton", iter=i, res=res, step=step)
    emit.record("newton_stop", "newton", reason=trace.reason, iterations=len(trace.iterates),
                evaluations=trace.evaluations, jacobians=trace.jacobians, level=level)
    if trace.X is not None:
        _write(output, formats.dump_mattuple(trace.X))
    if not trace.converged:
        emit.fail(check, level, trace.iterates[-1][0] if trace.iterates else math.inf)
        return VERIFY_ERROR
    return 0


def cmd_invert(args, emit: Emitter) -> int:
    if args.formal:
        if not args.poly:
            raise CliError("--formal needs --poly FILE with the series tuple")
        polys = formats.load_ncpolys(_read(args.poly))
        D = args.degree
        F = [FormalSeries.from_ncpoly(p, D) for p in polys]
        try:
            H = formal_inverse(F, D)
        except SingularLinearPartError as e:
            emit.fail("invert_formal_linear_part", 1, math.inf)
            emit.line(str(e), kind="error")
            return VERIFY_ERROR
        res = composition_residual(F, H)
        _write(args.output, formats.dump_ncpolys([h.to_ncpoly() for h in H]))
        emit.record("invert", degree=D, residual=res, level=0)
        if res > args.tol:
            emit.fail("invert_formal_composition", 0, res)
            return VERIFY_ERROR
        return 0
    # newton
    if not args.map or not args.target:
        raise CliError("--newton needs --map SPEC and --target FILE")
    f = load_map(args.map)
    Y = formats.load_mattuple(_read(args.target))
    X0 = formats.load_mattuple(_read(args.x0)) if args.x0 else None
    return _report_newton(
        lambda: newton_invert(f, Y, X0=X0, tol=args.tol, maxit=args.maxit),
        "invert_newton", Y.n, args.output, emit,
    )


def cmd_implicit(args, emit: Emitter) -> int:
    f = load_map(args.map)
    if args.formal:
        h = implicit_formal(f, args.split, args.degree, tol=args.tol)
        _write(args.output, formats.dump_ncpolys([s.to_ncpoly() for s in h]))
        if f.polys is not None:
            res = implicit_residual(f, args.split, h)
            emit.record("implicit", degree=args.degree, residual=res, level=0)
            if res > args.tol:
                emit.fail("implicit_formal_composition", 0, res)
                return VERIFY_ERROR
        return 0
    if not args.at:
        raise CliError("implicit numeric mode needs --at FILE (MTX1 for the x block)")
    xhat = formats.load_mattuple(_read(args.at))
    return _report_newton(
        lambda: implicit_numeric(f, args.split, xhat, tol=args.tol, maxit=args.maxit),
        "implicit_newton", xhat.n, args.output, emit,
    )


# -- parser ------------------------------------------------------------


def build_parser() -> Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=_tolerance, default=1e-8)
    common.add_argument("--json", action="store_true", help="mirror reports as JSON lines")
    common.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = Parser(prog="ncfun", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("canon", parents=[common], help="word/trace canonicalization")
    pc.add_argument("word", nargs="?", help="word like 'x2 x1'")
    pc.add_argument("--cyclic", action="store_true", help="least cyclic rotation")
    pc.add_argument("--star", action="store_true", help="also minimize over the involuted word")
    pc.add_argument("--involution", action="store_true", help="apply the involution first")
    pc.add_argument("--trpoly", help="canonicalize a TRPOLY1 file instead")
    pc.set_defaults(func=cmd_canon)

    pe = sub.add_parser("eval", parents=[common], help="evaluate a polynomial file on an MTX1 tuple")
    pe.add_argument("--poly", required=True)
    pe.add_argument("--tuple", required=True)
    pe.set_defaults(func=cmd_eval)

    pk = sub.add_parser("check", parents=[common], help="free-map axioms and derivative identities")
    pk.add_argument("--map", required=True)
    pk.add_argument("--levels", default="1,2,3")
    pk.add_argument("--trials", type=int, default=25)
    pk.add_argument("--group", default=None, choices=["GL", "O", "U"])
    pk.set_defaults(func=cmd_check)

    px = sub.add_parser("extract", parents=[common], help="matenote coefficients of a homogeneous map")
    px.add_argument("--map", required=True)
    px.add_argument("--degree", type=int, required=True)
    px.add_argument("--level", type=int, default=None)
    px.set_defaults(func=cmd_extract)

    pt = sub.add_parser("taylor", parents=[common], help="power series at 0 from word-trie reads")
    pt.add_argument("--map", required=True)
    pt.add_argument("--degree", type=int, required=True)
    pt.add_argument("--cross-check", action="store_true",
                    help="re-read every coefficient per word on matenote plans at level m+1 "
                         "and flag where they differ from the word-trie reads by more than --tol")
    pt.set_defaults(func=cmd_taylor)

    pa = sub.add_parser("expand-at", parents=[common], help="generalized series at a non-scalar center")
    pa.add_argument("--map", required=True)
    pa.add_argument("--center", required=True, help="MTX1 file with the center tuple")
    pa.add_argument("--degree", type=int, required=True)
    pa.add_argument("--s-eval", type=int, required=True, dest="s_eval")
    pa.set_defaults(func=cmd_expand_at)

    pi = sub.add_parser("identity", parents=[common], help="standard/trace identity testing")
    pi.add_argument("--standard", type=int, default=None, help="even degree 2k of S_2k")
    pi.add_argument("--poly", default=None)
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--exact", action="store_true", help="exact integer arithmetic")
    pi.add_argument("--trials", type=int, default=25)
    pi.set_defaults(func=cmd_identity)

    pv = sub.add_parser("invert", parents=[common], help="formal or Newton inversion")
    pv_mode = pv.add_mutually_exclusive_group()
    pv_mode.add_argument("--formal", action="store_true")
    pv_mode.add_argument("--newton", action="store_true", help="the default")
    pv.add_argument("--degree", type=int, default=5)
    pv.add_argument("--poly", default=None, help="NCPOLY1 tuple for --formal")
    pv.add_argument("--map", default=None, help="map spec for --newton")
    pv.add_argument("--target", default=None, help="MTX1 target for --newton")
    pv.add_argument("--x0", default=None, help="MTX1 initial iterate")
    pv.add_argument("--maxit", type=int, default=50)
    pv.set_defaults(func=cmd_invert)

    pm = sub.add_parser("implicit", parents=[common], help="implicit function solve")
    pm.add_argument("--map", required=True)
    pm.add_argument("--split", type=int, required=True, help="number of x components g1")
    pm_mode = pm.add_mutually_exclusive_group()
    pm_mode.add_argument("--formal", action="store_true")
    pm_mode.add_argument("--numeric", action="store_true", help="the default")
    pm.add_argument("--degree", type=int, default=3)
    pm.add_argument("--at", default=None, help="MTX1 x block for --numeric")
    pm.add_argument("--maxit", type=int, default=50)
    pm.set_defaults(func=cmd_implicit)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        emit = Emitter(args.json)
        return args.func(args, emit)
    except (CliError, ValueError, OSError) as e:  # formats.FormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
