"""Tests of the benchmark itself: oracle, output checks and tracer."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
import twobeam.cli  # noqa: E402,F401  (loaded first, so binding snapshots cover it)
from twobeam import JonesVector, StokesVector, circuit, evaluate, parse, states  # noqa: E402

R3 = math.sqrt(3.0) / 2.0


@pytest.mark.parametrize(
    "stages, s_in, want",
    [
        ([("rotate", (math.pi / 3,))], (1, 1, 0, 0), (1, 0.5, R3, 0)),
        # README example: rotate(theta=60 deg); decohere(lambda=0.5)
        ([("rotate", (math.pi / 3,)), ("decohere", (0.5,))], (1, 1, 0, 0),
         (1, 0.5, R3 * math.exp(-1.0), 0)),
        # a quarter of beam 1's intensity stays in beam 1
        ([("split", (0.25,))], (1, 1, 0, 0), (1, -0.5, -R3, 0)),
        ([("phase", (math.pi / 2,))], (1, 0, 1, 0), (1, 0, 0, -1)),
        ([("squeeze", (0.3,))], (1, 0, 0, 0), (math.cosh(0.3), math.sinh(0.3), 0, 0)),
        # beam 2 amplitude times e^-0.1: s11 = 1/2, s22 = e^-0.2 / 2, s12 = e^-0.1 / 2
        ([("atten", (0.0, 0.1))], (1, 0, 1, 0),
         (0.5 * (1 + math.exp(-0.2)), 0.5 * (1 - math.exp(-0.2)), math.exp(-0.1), 0)),
    ],
)
def test_oracle_hand_cases(stages, s_in, want):
    got = wl.oracle_stokes(stages, s_in)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-15
    folded = wl.oracle_matrix(stages) @ s_in
    assert max(abs(g - w) for g, w in zip(folded, want)) < 1e-15


def test_oracle_matches_readme_example():
    report = evaluate(parse("rotate(theta=60 deg); decohere(lambda=0.5)"), JonesVector(1.0, 0.0))
    want = wl.oracle_stokes([("rotate", (math.pi / 3,)), ("decohere", (0.5,))], (1, 1, 0, 0))
    assert wl.stokes_error(report.final_stokes, want, report.final_classification.tag,
                           wl.oracle_tag(want)) is None
    assert wl.oracle_tag(want) == "impure"


def _long_chain(tmp_path):
    w = wl.LongChain(7, tmp_path, stages=40)
    case = w.make_input(0)
    return w, case, w.op(case)


def test_corrupted_long_chain_result_fails(tmp_path):
    w, case, report = _long_chain(tmp_path)
    assert w.check(case, report) is None
    s = report.final_stokes
    nudged = StokesVector(s.s0, s.s1, s.s2 + 1e-6 * s.s0, s.s3)
    assert w.check(case, dataclasses.replace(report, final_stokes=nudged)) is not None
    relabeled = dataclasses.replace(report.final_classification, tag="impure")
    assert w.check(case, dataclasses.replace(report, final_classification=relabeled)) is not None


def test_failed_operations_are_counted(tmp_path):
    w, case, report = _long_chain(tmp_path)
    s = report.final_stokes
    wrong = dataclasses.replace(report, final_stokes=StokesVector(2 * s.s0, s.s1, s.s2, s.s3))

    def raises(_):
        raise circuit.CircuitSemanticError("overflow", 1, 1)

    tally = run.Tally()
    tally.add(*run.attempt(w, case, w.op))
    tally.add(*run.attempt(w, case, lambda _: wrong))
    tally.add(*run.attempt(w, case, raises))
    assert tally.attempted == 3
    assert len(tally.latencies) == 1
    assert [kind for kind, _ in tally.failures] == ["wrong", "raised"]
    assert tally.wrong() == 1


def test_untraced_run_attempts_a_fixed_count(tmp_path):
    w = wl.LongChain(7, tmp_path, stages=30)
    assert run.run_ops(w, 0.0) == run.MIN_OPS
    assert run.run_ops(w, 100.0) == round(100 * w.ops_per_second)
    assert run.measure(w, 5).attempted == 5


def test_warm_up_survives_a_refusal(tmp_path, capsys):
    w = wl.LongChain(1, tmp_path, stages=5)

    def refuse(_):
        raise circuit.CircuitSemanticError("refused", 1, 1)

    w.op = refuse
    w.setup()
    assert "warm-up operation failed" in capsys.readouterr().err


def test_corrupted_standard_form_fails(tmp_path):
    w = wl.StateSweep(3, tmp_path)
    w.setup()
    case = w.make_input(1)
    report, cls, std = w.op(case)
    assert w.check(case, (report, cls, std)) is None
    tilted = StokesVector(std.s0, std.s1 + 1e-6 * std.s0, std.s2, std.s3)
    assert w.check(case, (report, cls, tilted)) is not None


def test_corrupted_cli_output_fails(tmp_path):
    w = wl.CliMix(1, tmp_path)
    w.final_stokes = [1.0, 0.5, 0.25, 0.125]
    doc = {"schema_version": "report-v1", "command": "simulate",
           "results": {"final_stokes": w.final_stokes}}
    good = (json.dumps(doc) + "\n").encode()
    w.reference = [good]
    case = wl.CliCase(0, ("simulate", "c.txt", "--in=jones:1,0,0,0", "--format=json"))
    assert w.check(case, (0, good)) is None
    assert w.check(case, (3, good)) is not None
    assert w.check(case, (0, good.replace(b"0.125", b"0.126"))) is not None
    off = dict(doc, results={"final_stokes": [1.0, 0.5, 0.25, 0.12500000000000003]})
    w.reference = [(json.dumps(off) + "\n").encode()]
    assert w.check(case, (0, w.reference[0])) is not None
    v2 = dict(doc, schema_version="report-v2")
    w.reference = [(json.dumps(v2) + "\n").encode()]
    assert w.check(case, (0, w.reference[0])) is not None


def _bindings():
    glob = {(m.__name__, k): v for m in tracer._package_modules() for k, v in vars(m).items()}
    hooks = {c: getattr(states, c).__dict__["__post_init__"] for c in tracer.VALIDATORS}
    return glob, hooks


def test_tracer_restores_every_binding():
    before = _bindings()
    original = states.conjugate
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        assert circuit.conjugate is not original
        assert circuit.conjugate.__wrapped__ is original
        evaluate(parse("rotate(theta=0.5)"), JonesVector(1.0, 0.0))
    recorded = len(spans.start)
    assert recorded > 0
    after = _bindings()
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert all(after[1][c] is v for c, v in before[1].items())
    evaluate(parse("rotate(theta=0.5)"), JonesVector(1.0, 0.0))
    assert len(spans.start) == recorded


def _traced_calls(seed, tmp_path):
    w = wl.LongChain(seed, tmp_path, stages=30)
    spans = tracer.Tracer()
    plain, traced = run.trace_pair(w, 3, spans)
    assert plain.failures == traced.failures == []
    metrics = run.layer_metrics(spans, 3)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_traced_calls_per_op_repeat(tmp_path):
    first = _traced_calls(11, tmp_path)
    assert first == _traced_calls(11, tmp_path)
    assert first["circuit.evaluate.calls_per_op"] == 1.0


def test_self_time_subtracts_child_spans():
    spans = tracer.Tracer()
    # op [0, 10] holds a [1, 6] (which holds b [2, 4]) and b [7, 8]
    spans.absorb(["op", "a", "b"], [0, 1, 2, 7], [10, 6, 4, 8], [0, 1, 2, 2], [-1, 0, 1, 0], 0)
    totals = spans.totals()
    assert totals["op"] == (1, 4.0)
    assert totals["a"] == (1, 3.0)
    assert totals["b"] == (2, 3.0)
