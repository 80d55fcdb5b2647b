"""Tests of the benchmark itself: answer checking, span arithmetic and
workload generation.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_jss()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jss.model import Belief, Instance, Journal, dump_instance  # noqa: E402


def _identical(n: int) -> dict:
    j = Journal("J", 3, Fraction(2, 5), Fraction(1, 4), Fraction(1, 8))
    inst = Instance(tuple(Journal(f"J{k + 1}", j.u, j.a, j.q, j.c) for k in range(n)),
                    Belief(Fraction(1, 2)))
    return dump_instance(inst)


def _workload(doc: dict, expect=None):
    exact, flt = workloads._solve_pair("x", expect)
    return workloads.Workload("test", 0, {"x": doc}, ((exact, flt),), flt)


@pytest.fixture
def runner(tmp_path):
    wl = _workload(_identical(3))
    wl.write(tmp_path)
    return run.Runner(wl, tmp_path, None)


def _answers(runner):
    exact, flt = runner.wl.cycles[0]
    out = {}
    for op in (exact, flt):
        rc, _, text = runner.call(op.argv(runner.workdir))
        out[op.kind] = (op, json.loads(text))
    return out


def _summary(op, doc):
    return checks.summarize(op.kind, 0, json.dumps(doc))


def test_true_answers_pass(runner):
    ans = _answers(runner)
    (eop, edoc), (fop, fdoc) = ans["solve_exact"], ans["solve_float"]
    inst = runner.wl.instance("x")
    exact = _summary(eop, edoc)
    assert exact["argmax_len"] == 6
    gold = checks.golden_view(eop.kind, exact)
    assert checks.check(eop, exact, inst, golden=gold) == []
    assert checks.check(fop, _summary(fop, fdoc), inst, twin=exact) == []


def test_corrupted_best_value_fails(runner):
    ans = _answers(runner)
    (eop, edoc), (fop, fdoc) = ans["solve_exact"], ans["solve_float"]
    inst = runner.wl.instance("x")
    true_exact = _summary(eop, edoc)
    gold = checks.golden_view(eop.kind, true_exact)
    edoc["best_value"] = str(Fraction(edoc["best_value"]) + Fraction(1, 1000))
    bad = _summary(eop, edoc)
    assert checks.check(eop, bad, inst)              # cross-route re-evaluation
    assert checks.check(eop, bad, inst, golden=gold)
    fdoc["best_value"] = fdoc["best_value"] * (1 + 1e-6)
    assert checks.check(fop, _summary(fop, fdoc), inst, twin=true_exact)


def test_dropped_argmax_order_fails(runner):
    ans = _answers(runner)
    (eop, edoc), (fop, fdoc) = ans["solve_exact"], ans["solve_float"]
    inst = runner.wl.instance("x")
    gold = checks.golden_view(eop.kind, _summary(eop, edoc))
    edoc["argmax"].pop()
    dropped = _summary(eop, edoc)
    assert checks.check(eop, dropped, inst, golden=gold)
    # on other seeds the float call on the same input catches it
    assert checks.check(fop, _summary(fop, fdoc), inst, twin=dropped)


@pytest.mark.parametrize("corrupt", ["value", "argmax"])
def test_runner_counts_wrong_answers_as_failed(tmp_path, corrupt):
    wl = _workload(_identical(3), {"argmax_size": 6})
    wl.write(tmp_path)
    runner = run.Runner(wl, tmp_path, None)
    real = runner.cli.main

    def main(argv):
        rc = real(argv)
        if "exact" in argv:
            doc = json.loads(sys.stdout.getvalue())
            if corrupt == "value":
                doc["best_value"] = "12345"
            else:
                doc["argmax"].pop()
            sys.stdout.seek(0)
            sys.stdout.truncate()
            print(json.dumps(doc))
        return rc

    runner.cli = types.SimpleNamespace(main=main)
    runner.run_cycles(0, 1e-9)
    assert runner.attempted == 2
    assert len(runner.failures) >= 1
    assert runner.failures[0][0] == "x/solve/exact"


def test_self_time_on_synthetic_tree():
    S = tracing.Span
    spans = [
        S(0, -1, "root", 0, 0, 100),
        S(1, 0, "a", 0, 10, 30),
        S(2, 0, "b", 0, 20, 50),     # overlaps a: the union 10..50 is covered
        S(3, 0, "c", 0, 90, 120),    # clipped to the parent's end
        S(4, 1, "d", 0, 15, 25),
        S(5, -1, "other", 1, 200, 260),
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 10, 2: 30, 3: 30, 4: 10, 5: 60}


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import jss.cli
    import jss.solver
    import jss.verify
    wl = _workload(_identical(3))
    wl.write(tmp_path)
    tracer = tracing.Tracer()
    runner = run.Runner(wl, tmp_path, None, tracer)
    originals = (jss.solver.evaluate, jss.verify.brute_force_optimal,
                 jss.cli.brute_force_optimal, jss.verify.SUITES["counterexamples"])
    with tracer.installed():
        assert isinstance(jss.solver.evaluate, tracing.Traced)
        assert isinstance(jss.cli.brute_force_optimal, tracing.Traced)
        assert jss.verify.brute_force_optimal is jss.cli.brute_force_optimal
        runner.run_op(wl.cycles[0][0])
    assert (jss.solver.evaluate, jss.verify.brute_force_optimal,
            jss.cli.brute_force_optimal, jss.verify.SUITES["counterexamples"]) == originals
    names = {s.id: s.name for s in tracer.spans}
    parents = {(names.get(s.parent), s.name) for s in tracer.spans}
    assert {(None, "cli.main"), ("cli.main", "model.load_instance"),
            ("cli.main", "solver.brute_force_optimal"),
            ("solver.brute_force_optimal", "engine.best_orders")} <= parents
    solve = next(s for s in tracer.spans if s.name == "solver.brute_force_optimal")
    best = jss.solver.brute_force_optimal(wl.instance("x")).best_value
    assert solve.counters == {"nodes": 3 + 3 * 2 + 3 * 2 * 1, "argmax": 6, "mode": "exact",
                              "bits": best.denominator.bit_length()}
    assert {s.op for s in tracer.spans} == {0}
    assert runner.failures == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_instances_not_operations(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert a.docs != b.docs
    assert a.docs == workloads.build(name, 1).docs

    def shape(wl):
        return [[(op.kind, op.args[0], op.instance) for op in c] for c in wl.cycles]

    assert shape(a) == shape(b)
    assert (a.warmup.kind, a.warmup.key) == (b.warmup.kind, b.warmup.key)


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail(list(range(30)))
    assert (value, n) == (19, 30)
    assert sum(x > value for x in range(30)) == run.TAIL_BEYOND
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
