"""Tests of the benchmark itself: generation, the correctness gate and the
trace wrappers.  Run with ``python -m pytest perfbench/tests``."""

import itertools
import json
import random
from fractions import Fraction

import pytest

import layertrace
import ops
import workloads
from shapovalov import construct, exact_algebra, pbw, verma


def _rounds(name, seed, count):
    return list(itertools.islice(workloads.WORKLOADS[name].rounds(seed), count))


def _round(name, seed=3):
    return _rounds(name, seed, 1)[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(name):
    first = json.dumps(_rounds(name, 11, 3), sort_keys=True)
    assert first == json.dumps(_rounds(name, 11, 3), sort_keys=True)
    assert first != json.dumps(_rounds(name, 12, 3), sort_keys=True)


def test_rounds_keep_the_same_kinds():
    for name in workloads.WORKLOADS:
        kinds = [sorted(op["kind"] for op in rnd) for seed in (1, 2)
                 for rnd in _rounds(name, seed, 2)]
        assert all(k == kinds[0] for k in kinds), name


def test_points_are_on_and_off_the_hyperplane():
    for op in _round("cartan-products"):
        if op["kind"] in ("power", "power-control"):
            eta = workloads.root_vector(op["m"], 1, op["m"])
            lam = [Fraction(c) for c in op["lam"]]
            on = workloads.on_hyperplane(op["m"], 0, lam, eta, op["p"])
            assert on == (op["kind"] == "power")


def _run(op_list):
    memo = {}
    return [ops.execute(op, memo)[2] for op in op_list]


def test_seed_answers_pass_the_gate():
    round_ = _round("verify-mix")
    assert _run(round_) == [None] * len(round_)


def test_golden_expansions_match_in_all_orderings():
    for order in workloads.ODD_ORDERS:
        op = {"kind": "cli-theta-golden", "order": order, "argv": [
            "theta", "--algebra", "2,2", "--root", "e1-d2", "--order", order, "--format", "json"]}
        assert _run([op]) == [None]
    wrong = {"kind": "cli-theta-golden", "order": "middle", "argv": [
        "theta", "--algebra", "2,2", "--root", "e1-d2", "--order", "bform", "--format", "json"]}
    assert _run([wrong]) != [None]


def test_always_passing_verdict_trips_the_controls(monkeypatch):
    controls = [op for op in _round("verify-mix") if op.get("control")]
    assert controls
    monkeypatch.setattr(verma, "is_highest_weight", lambda v, raising=None: True)
    assert all(err for err in _run(controls))


def test_zero_action_trips_the_positive_checks(monkeypatch):
    positives = [op for op in _round("verify-mix")
                 if op["kind"] == "cli-verify"]
    lam, _ = workloads.hyperplane_point(random.Random(0), 4, 0, workloads.root_vector(4, 1, 4))
    power = [{"kind": "power", "m": 4, "p": 1, "memo": "p", "lam": [str(c) for c in lam]}]
    assert _run(power) == [None]

    def zero(x, v):
        return verma.VermaVector(v.alg, v.lam, order=v.order)

    for module in (verma, construct):
        monkeypatch.setattr(module, "act", zero)
    assert all(err for err in _run(positives + power))


def _snapshot():
    return {id(ns): (ns, dict(vars(ns))) for ns in layertrace._namespaces()}


def test_trace_wraps_every_binding_and_restores_them():
    before = _snapshot()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        Poly = exact_algebra.Poly
        assert Poly.__rmul__ is Poly.__mul__
        assert Poly.__mul__ is not before[id(Poly)][1]["__mul__"]
        assert verma._nf_atoms is pbw._nf_atoms
        assert construct.act is verma.act
        assert construct.eval_at is exact_algebra.eval_at
        tracer.op = "test"
        errors = _run([op for op in _round("verify-mix") if op["kind"] == "cli-det"])
    finally:
        tracer.restore()
    assert errors == [None]
    assert tracer.calls["hessenberg.det_lr"] == 1
    assert tracer.calls["pbw.nf"] > 0 and tracer.calls["exact_algebra.mul"] > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (ns, attrs) in before.items():
        now = dict(vars(ns))
        assert now.keys() == attrs.keys(), ns
        assert all(now[a] is attrs[a] for a in attrs), ns


def test_missing_trace_targets_are_reported_or_fail(monkeypatch):
    monkeypatch.setitem(layertrace.SPANS, "verma.act",
                        layertrace.SPANS["verma.act"] + [("verma", "no_such_function")])
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.missing == ["shapovalov.verma.no_such_function"]
    monkeypatch.setitem(layertrace.SPANS, "verma.gone", [("verma", "no_such_function")])
    with pytest.raises(LookupError):
        layertrace.Tracer().install()


def test_layer_without_calls_is_reported():
    import run

    traced, plain = run.Run(), run.Run()
    summary = {"calls": {"pbw.nf": 3}, "busy": {}, "self": {}, "algebra_in": {}, "nf": {},
               "algebra_busy": 0.0, "spans": 3, "cache_sized": False, "cache_entries": None,
               "missing_targets": []}
    traced.ends.append({"wall_s": 2.0, "cal_median": run.calibration.REF_S, "trace": summary})
    plain.ends.append({"wall_s": 1.0, "cal_median": run.calibration.REF_S})
    values, notes = run.per_layer(workloads.WORKLOADS["large-rank"], traced, plain)
    assert "pbw.nf" not in notes["layers_without_calls"]
    assert "hessenberg.det_lr" in notes["layers_without_calls"]
    assert values["pbw.nf.cache_hits"] is None
    assert values["trace.overhead_s"] == 1.0
