"""Outside-in accounting for the benchmark: oracle meters, span tracing
around the public functions of ``ncfun``, and per-layer metrics.

Nothing here edits the library's source.  Oracles are counted by handing
the library ``dataclasses.replace(f, evaluator=...)`` copies; spans come
from wrappers that the tracer installs on module namespaces (including
names a module rebinds with ``from .x import y``) and on a few methods,
and removes again after each traced pass.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

perf = time.perf_counter

# span record fields
NAME, START, END, PARENT, PASS, JOB, INFO = range(7)


class OracleMeter:
    """Counts black-box evaluations made through accounted oracle copies."""

    def __init__(self):
        self.tracer: Optional["Tracer"] = None
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.max_level = 0
        self.level3_sum = 0
        self.eval_s = 0.0

    def wrap(self, f):
        """Copy of the oracle ``f`` whose evaluator is counted and timed."""
        inner = f.evaluator

        def evaluator(X):
            n = X.n
            tracer = self.tracer
            t0 = perf()
            out = inner(X) if tracer is None else tracer.call("oracle.evaluator", n, inner, (X,))
            self.eval_s += perf() - t0
            self.calls += 1
            self.level3_sum += n**3
            if n > self.max_level:
                self.max_level = n
            return out

        return dataclasses.replace(f, evaluator=evaluator)

    def snapshot(self) -> Dict[str, float]:
        return {"calls": self.calls, "max_level": self.max_level,
                "level3_sum": self.level3_sum, "eval_s": self.eval_s}


# -- tracing --------------------------------------------------------------

# called too often for a span each: counted only
COUNT_ONLY = {"mateval.eval_word"}
# trivial helpers whose wrappers would cost more than they measure
SKIP_LAYERS = {"words"}
SKIP_NAMES = {"mateval.adjoint", "mateval.eye_like"}

EVAL = {"mateval.eval_ncpoly", "mateval.eval_tracepoly", "mateval.eval_genpoly", "mateval.eval_poly"}


def _exact_arg(args) -> Optional[str]:
    X = args[1] if len(args) > 1 else None
    mats = getattr(X, "mats", None)
    return "exact" if mats and getattr(mats[0], "dtype", None) == object else None


def _taylor_coeffs(args, kwargs, res) -> int:
    inv = res.series[0].mode == "involution"
    letters = args[0].g * (2 if inv else 1)
    return res.gprime * sum(letters**m for m in range(res.order + 1))


def _expand_unknowns(args, kwargs, res) -> int:
    letters = args[0].g * (2 if res.mode == "involution" else 1)
    return sum(res.basis.dim ** (m + 1) * letters**m for m in range(res.order + 1))


FORMATS_LOAD = {"formats.load_ncpolys", "formats.load_tracepoly", "formats.load_mattuple", "formats.load_genpoly"}
FORMATS_DUMP = {"formats.dump_ncpolys", "formats.dump_tracepoly", "formats.dump_mattuple", "formats.dump_genpoly"}

# name -> info computed from the arguments when the span opens
INFO_AT_CALL: Dict[str, Callable] = {name: _exact_arg for name in EVAL}
INFO_AT_CALL.update({name: lambda args: len(args[0]) for name in FORMATS_LOAD})

# name -> info computed from the result when the span closes
INFO_AT_RETURN: Dict[str, Callable] = {
    "recon.taylor_at_zero": _taylor_coeffs,
    "recon.matenote_extract": lambda a, k, res: res.evaluations * len(res.polys),
    "expand.expand_at_point": _expand_unknowns,
    "invfun.newton_invert": lambda a, k, res: len(res.iterates),
}
INFO_AT_RETURN.update({name: lambda a, k, res: len(res) for name in FORMATS_DUMP})

# (module, class, method) boundaries traced besides module-level functions
METHOD_SPANS = (
    ("poly", "NCPoly", ("__mul__",)),
    ("poly", "TracePoly", ("__mul__",)),
    ("series", "FormalSeries", ("__mul__",)),
    ("oracle", "FreeMapOracle", ("__call__",)),
    ("mateval", "SubspaceBasis", ("project", "residual")),
)
CTOR_COUNTS = (("poly", "NCPoly"), ("poly", "TracePoly"))


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, pass, job, info]``; ``parent``
    indexes ``spans`` (-1 at top level).  Count-only boundaries add to
    ``counts[(pass, name)]``.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.pass_idx = -1
        self.job_idx = -1
        self._patches: List[tuple] = []

    def call(self, name: str, info, fn: Callable, args: tuple, kwargs: Optional[dict] = None,
             at_return: Optional[Callable] = None):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_idx, self.job_idx, info]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            rec[END] = perf()
            stack.pop()
        if at_return is not None:
            rec[INFO] = at_return(args, kwargs, out)
        return out

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        at_call = INFO_AT_CALL.get(name)
        at_return = INFO_AT_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, at_call(args) if at_call else None, fn, args, kwargs, at_return)

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.pass_idx, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def ctor_wrapper(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(obj, coeffs=None, *args, **kwargs):
            counts[(self.pass_idx, "poly.ctor_calls")] += 1
            counts[(self.pass_idx, "poly.ctor_terms")] += len(coeffs) if coeffs else 0
            return fn(obj, coeffs, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public functions of every ``package`` module, plus the
        methods in METHOD_SPANS and the constructors in CTOR_COUNTS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [package] + [m for m in vars(package).values()
                               if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith(package.__name__ + "."):
                    continue
                name = f"{origin.rsplit('.', 1)[1]}.{obj.__name__}"
                if name.split(".")[0] in SKIP_LAYERS or name in SKIP_NAMES:
                    continue
                wrap = self.count_wrapper if name in COUNT_ONLY else self.span_wrapper
                self._patch(mod, attr, wrap(name, obj))
        for layer, cls_name, methods in METHOD_SPANS:
            cls = getattr(getattr(package, layer), cls_name)
            for meth in methods:
                self._patch(cls, meth, self.span_wrapper(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
        for layer, cls_name in CTOR_COUNTS:
            cls = getattr(getattr(package, layer), cls_name)
            self._patch(cls, "__init__", self.ctor_wrapper(cls.__dict__["__init__"]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


# -- span analysis --------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Sequence[list], first: int = 0, last: Optional[int] = None) -> List[float]:
    """Duration of each span in ``spans[first:last]`` minus the part of its
    interval that its direct children cover (overlaps counted once)."""
    last = len(spans) if last is None else last
    kids: Dict[int, List[tuple]] = {}
    for i in range(first, last):
        p = spans[i][PARENT]
        if p >= first:
            kids.setdefault(p, []).append((spans[i][START], spans[i][END]))
    out = []
    for i in range(first, last):
        s0, s1 = spans[i][START], spans[i][END]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, s0), min(b, s1)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append(s1 - s0 - covered)
    return out


class PassView:
    """Spans of one traced pass with ancestor queries."""

    def __init__(self, spans: Sequence[list], first: int, last: int):
        self.spans, self.first, self.last = spans, first, last
        self.self_s = self_times(spans, first, last)

    def idx(self) -> range:
        return range(self.first, self.last)

    def under(self, names: Set[str]) -> List[bool]:
        """For each span: whether some proper ancestor is named in ``names``."""
        flag: Dict[int, bool] = {}
        out = []
        for i in self.idx():
            p = self.spans[i][PARENT]
            f = p >= self.first and (flag[p] or self.spans[p][NAME] in names)
            flag[i] = f
            out.append(f)
        return out

    def select(self, pred: Callable[[list], bool]) -> List[int]:
        return [i for i in self.idx() if pred(self.spans[i])]

    def outermost(self, names: Set[str], pred: Callable[[list], bool] = lambda s: True) -> List[int]:
        under = self.under(names)
        return [i for i in self.idx() if self.spans[i][NAME] in names and pred(self.spans[i])
                and not under[i - self.first]]

    def busy(self, names: Set[str], pred: Callable[[list], bool] = lambda s: True) -> float:
        """Time covered by spans named in ``names`` (nested ones counted once)."""
        return sum(self.spans[i][END] - self.spans[i][START] for i in self.outermost(names, pred))

    def count(self, names: Set[str]) -> int:
        return sum(1 for i in self.idx() if self.spans[i][NAME] in names)

    def layer_self(self, layer: str) -> float:
        return sum(self.self_s[i - self.first] for i in self.idx() if layer_of(self.spans[i][NAME]) == layer)


CHECKS = {"oracle.check_direct_sums", "oracle.check_similarity", "oracle.check_triangular_identity",
          "oracle.check_commutator_identity", "oracle.check_did_block"}
SUBSPACE = {"mateval.centralizer", "mateval.generated_algebra", "mateval.orthonormalize",
            "mateval.subspace_residual", "mateval.SubspaceBasis.project", "mateval.SubspaceBasis.residual"}
RECON_PIPELINES = {"recon.taylor_at_zero", "recon.matenote_extract"}
FORMAL = {"invfun.formal_inverse", "invfun.composition_residual", "invfun.implicit_formal",
          "invfun.implicit_residual"}
NEWTON = {"invfun.newton_invert", "invfun.implicit_numeric"}
MUL = {"poly.NCPoly.__mul__", "poly.TracePoly.__mul__"}
COMPOSE = {"series.series_compose", "series.compose_tuple"}
ORACLE = {"oracle.evaluator"}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return {"oracle.max_level": "n", "recon.coeffs_per_call": "ratio", "formats.bytes": "bytes",
            "trace.overhead_frac": "ratio"}.get(name, "count")


def pass_metrics(v: PassView, counts: Counter, pass_idx: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see the table in README.md)."""
    sp = v.spans
    evals = v.select(lambda s: s[NAME] == "oracle.evaluator")
    levels = [sp[i][INFO] for i in evals]
    under_dd = v.under({"oracle.directional_derivative"})
    under_recon = v.under(RECON_PIPELINES)
    recon_calls = sum(1 for i in evals if under_recon[i - v.first])
    recon_coeffs = sum(sp[i][INFO] for i in v.outermost(RECON_PIPELINES))
    is_exact = lambda s: s[INFO] == "exact"  # noqa: E731
    trials_parent = {i for i in v.idx() if sp[i][NAME] == "identities.is_identity"}
    formats = FORMATS_LOAD | FORMATS_DUMP
    return {
        "oracle.calls": len(evals),
        "oracle.max_level": max(levels, default=0),
        "oracle.level3_sum": sum(n**3 for n in levels),
        "oracle.eval_s": v.busy(ORACLE),
        "oracle.check_s": v.busy(CHECKS),
        "oracle.fd_calls": sum(1 for i in evals if under_dd[i - v.first]),
        "recon.hpe_calls": v.count({"recon.homogeneous_part_eval"}),
        "recon.hpe_s": v.busy({"recon.homogeneous_part_eval"}),
        "recon.self_s": v.layer_self("recon"),
        "recon.coeffs_per_call": recon_coeffs / recon_calls if recon_calls else 0.0,
        "mateval.eval_calls": len(v.outermost(EVAL)),
        "mateval.eval_s": v.busy(EVAL, lambda s: not is_exact(s)),
        "mateval.exact_eval_s": v.busy(EVAL, is_exact),
        "mateval.word_calls": counts[(pass_idx, "mateval.eval_word")],
        "mateval.symfn_calls": v.count({"mateval.sym_matrix_function"}),
        "mateval.symfn_s": v.busy({"mateval.sym_matrix_function"}),
        "mateval.subspace_s": v.busy(SUBSPACE),
        "expand.unknowns": sum(sp[i][INFO] for i in v.select(lambda s: s[NAME] == "expand.expand_at_point")),
        "expand.s": v.busy({"expand.expand_at_point"}),
        "expand.self_s": v.layer_self("expand"),
        "invfun.formal_s": v.busy(FORMAL),
        "invfun.newton_iters": sum(sp[i][INFO] for i in v.select(lambda s: s[NAME] == "invfun.newton_invert")),
        "invfun.jacobian_calls": v.count({"invfun.assemble_jacobian"}),
        "invfun.jacobian_s": v.busy({"invfun.assemble_jacobian"}),
        "invfun.newton_self_s": sum(v.self_s[i - v.first] for i in v.select(lambda s: s[NAME] in NEWTON)),
        "poly.ctor_calls": counts[(pass_idx, "poly.ctor_calls")],
        "poly.ctor_terms": counts[(pass_idx, "poly.ctor_terms")],
        "poly.mul_calls": v.count(MUL),
        "poly.mul_s": v.busy(MUL),
        "series.compose_calls": v.count({"series.series_compose"}),
        "series.compose_s": v.busy(COMPOSE),
        "series.self_s": v.layer_self("series"),
        "identities.hk_poly_s": v.busy({"identities.hk_poly"}),
        "identities.is_identity_s": v.busy({"identities.is_identity"}),
        "identities.eval_standard_s": v.busy({"identities.eval_standard"}),
        "identities.trials": sum(1 for i in v.idx() if sp[i][NAME] in EVAL and sp[i][PARENT] in trials_parent),
        "formats.s": v.busy(formats),
        "formats.bytes": sum(sp[i][INFO] for i in v.select(lambda s: s[NAME] in formats)),
        "cli.s": v.busy({"cli.main"}),
        "cli.self_s": v.layer_self("cli"),
    }


def pass_views(spans: Sequence[list]) -> List[PassView]:
    """One view per traced pass; a pass's spans are contiguous."""
    cuts = [i for i in range(1, len(spans)) if spans[i][PASS] != spans[i - 1][PASS]]
    return [PassView(spans, a, b) for a, b in zip([0] + cuts, cuts + [len(spans)])]


def median_metrics(per_pass: Iterable[Dict[str, float]]) -> Dict[str, float]:
    per_pass = list(per_pass)
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


PER_LAYER_NAMES = (
    "oracle.calls", "oracle.max_level", "oracle.level3_sum", "oracle.eval_s", "oracle.check_s", "oracle.fd_calls",
    "recon.hpe_calls", "recon.hpe_s", "recon.self_s", "recon.coeffs_per_call",
    "mateval.eval_calls", "mateval.eval_s", "mateval.exact_eval_s", "mateval.word_calls", "mateval.symfn_calls",
    "mateval.symfn_s", "mateval.subspace_s",
    "expand.unknowns", "expand.s", "expand.self_s",
    "invfun.formal_s", "invfun.newton_iters", "invfun.jacobian_calls", "invfun.jacobian_s", "invfun.newton_self_s",
    "poly.ctor_calls", "poly.ctor_terms", "poly.mul_calls", "poly.mul_s",
    "series.compose_calls", "series.compose_s", "series.self_s",
    "identities.hk_poly_s", "identities.is_identity_s", "identities.eval_standard_s", "identities.trials",
    "formats.s", "formats.bytes", "cli.s", "cli.self_s",
    "trace.overhead_frac",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}
