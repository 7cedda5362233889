"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import ncfun as nc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import OracleMeter, PassView, Tracer, pass_metrics, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_shortest_run_emits_every_declared_metric(workload, trace):
    proc = subprocess.run([sys.executable, *DECLARED["command"][1:], "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if workload == "algebra" and trace:
        assert last["metrics"]["oracle.calls"]["value"] == 0


def test_perturbed_reference_fails_the_run(monkeypatch, capsys):
    # a wrong Catalan table must fail the Catalan jobs, be counted in
    # fail_frac, be named on stderr and make the command exit nonzero
    monkeypatch.setattr(workloads, "catalan", lambda m: workloads.math.comb(2 * m, m) // (m + 1) + 1)
    code = run.main(["--workload", "algebra", "--seed", "5", "--seconds", "0", "--trace", "0"])
    out, err = capsys.readouterr()
    last = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] > 0
    assert "FAILED JOB formal_inverse_catalan_d16" in err
    assert "FAILED JOB cli_invert_formal_catalan_d10" in err
    assert "fail_frac 0 " not in out


def test_self_times_of_a_synthetic_span_tree():
    S = spans
    tree = [
        ["root", 0.0, 10.0, -1, 0, 0, None],
        ["a", 1.0, 4.0, 0, 0, 0, None],
        ["leaf", 2.0, 3.0, 1, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, 0, None],  # overlaps a: the root loses [1, 6] once
        ["a", 7.0, 8.0, 0, 0, 0, None],
    ]
    assert self_times(tree) == [4.0, 2.0, 1.0, 3.0, 1.0]
    v = PassView(tree, 0, len(tree))
    assert v.busy({"a"}) == 4.0
    assert v.busy({"root", "a"}) == 10.0
    assert v.count({"a"}) == 2
    assert v.outermost({"a", "leaf"}) == [1, 4]
    assert v.under({"a"}) == [False, False, True, False, False]
    assert S.layer_of("poly.NCPoly.__mul__") == "poly"


def test_oracle_accounting_matches_known_sinxxt_counts():
    # TaylorResult.evaluations reports 127 homogeneous-part reads; the
    # black box itself runs (D+1)(refine+1) = 28 times per read, plus the
    # 8 residual samples
    meter = OracleMeter()
    f = meter.wrap(nc.builtin_map("sinxxt"))
    res = nc.taylor_at_zero(f, 6)
    assert res.evaluations == 127
    assert (meter.calls, meter.max_level) == (3564, 7)

    meter.reset()
    tracer = Tracer()
    tracer.pass_idx = tracer.job_idx = 0
    tracer.install(nc)
    meter.tracer = tracer
    try:
        nc.taylor_at_zero(f, 6)
    finally:
        meter.tracer = None
        tracer.uninstall()
    m = pass_metrics(PassView(tracer.spans, 0, len(tracer.spans)), tracer.counts, 0)
    assert (m["oracle.calls"], m["oracle.max_level"], m["recon.hpe_calls"]) == (3564, 7, 127)
    assert m["recon.coeffs_per_call"] == pytest.approx(127 / 3564)
    assert m["oracle.fd_calls"] == 0
    assert meter.calls == 3564


def test_tracer_uninstall_restores_the_library():
    before = {mod.__name__: dict(vars(mod)) for mod in (nc, nc.recon, nc.mateval, nc.expand, nc.invfun)}
    init = nc.NCPoly.__dict__["__init__"]
    tracer = Tracer()
    tracer.install(nc)
    assert nc.recon.eval_ncpoly is not before["ncfun.recon"]["eval_ncpoly"]
    assert nc.expand.homogeneous_part_eval is not before["ncfun.expand"]["homogeneous_part_eval"]
    tracer.uninstall()
    for mod in (nc, nc.recon, nc.mateval, nc.expand, nc.invfun):
        assert dict(vars(mod)) == before[mod.__name__]
    assert nc.NCPoly.__dict__["__init__"] is init


def test_same_seed_same_inputs():
    a = workloads.build("blackbox", 7, "w", lambda f: f)
    b = workloads.build("blackbox", 7, "w", lambda f: f)
    assert a.files == b.files and [j.name for j in a.jobs] == [j.name for j in b.jobs]
    assert workloads.build("blackbox", 8, "w", lambda f: f).files != a.files
