import math
import random
import sys

import numpy as np
import pytest

from twobeam import (
    CIRCUIT_FORMAT,
    CircuitAst,
    CircuitError,
    CircuitSemanticError,
    CircuitSyntaxError,
    JonesVector,
    PhysicsError,
    Stage,
    StokesVector,
    coherency_from_stokes,
    evaluate,
    minkowski_norm,
    parse,
    split_angle,
    stokes_from_coherency,
    unparse,
)
from twobeam import circuit

GOLDEN = [
    "rotate(theta=0.5)",
    "rotate(theta=90 deg)",
    "rotate(theta=-45 deg)",
    "phase(phi=0.25)",
    "phase(phi=180 deg)",
    "squeeze(eta=0.3)",
    "squeeze(eta=-0.7)",
    "atten(eta1=0.1, eta2=0.4)",
    "atten(eta1=0, eta2=0)",
    "decohere(lambda=0.5)",
    "decohere(lambda=0)",
    "split(ratio=0.5)",
    "split(ratio=0.25)",
    "split(theta=1.2)",
    "rotate(theta=0.1); phase(phi=0.2)",
    "rotate(theta=90 deg); phase(phi=0.5)",
    "split(ratio=0.5); phase(phi=0.3); rotate(theta=-0.4)",
    "rotate(theta=1); decohere(lambda=2); rotate(theta=-1)",
    "squeeze(eta=0.2); atten(eta1=0.3, eta2=0.1); phase(phi=1.0)",
    "rotate(theta=0.7);",
    "  rotate ( theta = 0.7 )  ;  phase(phi=+0.1)",
    "# comment only preamble\nrotate(theta=0.5) # trailing note\n; phase(phi=1e-2)",
]

MALFORMED = [
    ("", 1, 1),
    ("   \n\t ", 2, 3),
    ("rotate", 1, 7),
    ("rotate(", 1, 8),
    ("rotate theta=1", 1, 8),
    ("spin(theta=1)", 1, 1),
    ("rotate(theta)", 1, 13),
    ("rotate(theta=)", 1, 14),
    ("rotate(theta=1", 1, 15),
    ("rotate(theta=1))", 1, 16),
    ("rotate(theta=1) phase(phi=2)", 1, 17),
    ("rotate(theta=1);;", 1, 17),
    ("rotate(theta=1 rad)", 1, 16),
    ("rotate(theta=1)!", 1, 16),
    ("rotate(theta=0.5,)", 1, 18),
]


def test_golden_round_trip():
    """Contract: unparse's canonical text parses back to the AST, through
    the stage scanner (hook: circuit._scan, which must accept it), and is
    a fixed point of unparse(parse(...))."""
    for text in GOLDEN:
        ast = parse(text)
        canonical = unparse(ast)
        assert parse(canonical) == ast, text
        # canonical text takes the stage scanner's path
        assert circuit._scan(canonical) == ast, text
        # unparse of a parse of canonical text is a fixed point
        assert unparse(parse(canonical)) == canonical


def test_canonicalization_pinned():
    assert unparse(parse("rotate(theta=90 deg)")) == "rotate(theta=1.5707963267948966)"
    assert unparse(parse("split(ratio=0.5)")) == "split(theta=-1.5707963267948966)"
    assert unparse(parse("decohere(lambda=0.5)")) == "decohere(lambda=0.5)"


def test_parse_structure():
    ast = parse("rotate(theta=90 deg); phase(phi=0.5)")
    assert len(ast.stages) == 2
    assert ast.stages[0].name == "rotate"
    assert abs(ast.stages[0].arg("theta") - math.pi / 2) < 1e-15
    assert ast.stages[1] == Stage("phase", (("phi", 0.5),))
    assert ast.stages[0].line == 1 and ast.stages[0].col == 1
    assert ast.stages[1].col == 23


def test_stage_equality_ignores_layout():
    a = parse("rotate(theta=1); phase(phi=2)")
    b = parse("rotate( theta = 1 )\n  ;\nphase(phi=2.0)")
    assert a == b


def test_split_normalization():
    ast = parse("split(ratio=0.5)")
    assert ast.stages[0].params == (("theta", -math.pi / 2),)
    # intensity check: ratio r leaves fraction r in beam 1
    for r in (0.1, 0.5, 0.9):
        rep = evaluate(parse(f"split(ratio={r})"), JonesVector(1, 0))
        assert abs(abs(rep.final_jones.psi1) ** 2 - r) < 1e-12


def test_canonical_stages_skip_the_general_validator(monkeypatch):
    """Contract: every valid stage, its arguments in any order or split's
    ratio, is checked in place by the stage scanner; only rejected text
    reaches the token parser's validator (hook: circuit._validate_stage,
    recording its calls)."""
    calls = []
    validate = circuit._validate_stage
    monkeypatch.setattr(circuit, "_validate_stage", lambda *a: calls.append(a) or validate(*a))
    text = (
        "rotate(theta=30 deg); split(ratio=0.25); split(theta=-45deg);\n"
        "phase(phi=0.5); atten(eta1=0.1, eta2=0.2); squeeze(eta=-0.3); decohere(lambda=0.4)"
    )
    ast = parse(text)
    assert calls == []
    assert {s.name for s in ast.stages} == set(circuit.STAGES)
    assert ast.stages[0].params == (("theta", math.radians(30.0)),)
    assert ast.stages[1].params == (("theta", split_angle(0.25)),)
    assert ast.stages[2].params == (("theta", math.radians(-45.0)),)
    assert [(s.line, s.col) for s in ast.stages] == [
        (1, 1), (1, 23), (1, 42), (2, 1), (2, 17), (2, 44), (2, 63)
    ]
    assert repr(parse("atten(eta2=0.2, eta1=0.1)")) == repr(parse("atten(eta1=0.1, eta2=0.2)"))
    assert parse("squeeze(eta=1);\n atten(eta2=0.2,eta1=0.1)").stages[1].col == 2
    assert calls == []
    with pytest.raises(CircuitSemanticError):
        parse("atten(eta2=-0.2, eta1=0.1)")
    assert len(calls) == 1


def test_malformed_located():
    for text, line, col in MALFORMED:
        with pytest.raises(CircuitSyntaxError) as err:
            parse(text)
        assert err.value.line == line, text
        assert err.value.col == col, text
        assert f"{line}:{col}:" in str(err.value)
    with pytest.raises(CircuitSyntaxError) as err:
        parse("rotate(theta=٣)")  # numbers take ASCII digits only
    assert (err.value.message, err.value.line, err.value.col) == ("unexpected character '٣'", 1, 14)


def test_semantic_errors():
    with pytest.raises(CircuitSemanticError) as err:
        parse("decohere(lambda=-1)")
    assert err.value.message == "lambda must be nonnegative"
    assert (err.value.line, err.value.col) == (1, 10)
    with pytest.raises(CircuitSemanticError):
        parse("atten(eta1=-0.1, eta2=0)")
    with pytest.raises(CircuitSemanticError):
        parse("rotate(theta=1, theta=2)")
    with pytest.raises(CircuitSemanticError):
        parse("rotate(phi=1)")
    with pytest.raises(CircuitSemanticError):
        parse("rotate()")
    with pytest.raises(CircuitSemanticError):
        parse("split(theta=1, ratio=0.5)")
    with pytest.raises(CircuitSemanticError):
        parse("split()")
    with pytest.raises(CircuitSemanticError):
        parse("split(ratio=1.5)")
    with pytest.raises(CircuitSemanticError):
        parse("squeeze(eta=1 deg)")
    with pytest.raises(CircuitSemanticError):
        parse("rotate(theta=1e999)")
    with pytest.raises(CircuitSemanticError):
        parse("atten(eta1=0.1)")


def test_parser_totality_quick_fuzz():
    rng = np.random.default_rng(99)
    alphabet = "rotate splnqz()=;,.0123456789-+#\n\t edg\x00\xe9"
    for _ in range(2000):
        n = int(rng.integers(0, 30))
        text = "".join(rng.choice(list(alphabet)) for _ in range(n))
        try:
            parse(text)
        except CircuitError as err:
            assert err.line >= 1 and err.col >= 1


def test_evaluate_pinned_rotation():
    rep = evaluate(parse("rotate(theta=90 deg)"), JonesVector(1, 0))
    assert np.allclose(
        [rep.final_jones.psi1, rep.final_jones.psi2],
        [1 / math.sqrt(2), 1 / math.sqrt(2)],
        atol=1e-15,
    )
    assert np.allclose(rep.final_stokes.as_array(), [1, 0, 1, 0], atol=1e-15)
    assert rep.final_classification.tag == "pure"
    assert rep.circuit_format == CIRCUIT_FORMAT


def test_evaluate_empty_circuit_echoes_input():
    rep = evaluate(CircuitAst(()), JonesVector(0.6, 0.8j))
    assert rep.stages == ()
    assert rep.final_jones == JonesVector(0.6, 0.8j)
    assert np.abs(rep.final_stokes.as_array() - rep.input_stokes.as_array()).max() == 0.0
    s = StokesVector(1, 0.2, 0.1, 0)
    rep = evaluate(CircuitAst(()), s)
    assert rep.final_jones is None
    assert np.abs(rep.final_stokes.as_array() - s.as_array()).max() < 1e-15


def test_evaluate_stage_records_consistent():
    text = "rotate(theta=0.4); phase(phi=1.1); squeeze(eta=0.5); atten(eta1=0.2, eta2=0.1); decohere(lambda=0.3)"
    rep = evaluate(parse(text), JonesVector(0.8, 0.6j))
    assert len(rep.stages) == 5
    for rec in rep.stages:
        # stokes entries must match the coherency matrix at every stage
        back = stokes_from_coherency(rec.coherency_after).as_array()
        assert np.abs(back - rec.stokes_after.as_array()).max() < 1e-12
    # chaining: each stage starts where the previous ended
    for prev, cur in zip(rep.stages, rep.stages[1:]):
        assert prev.stokes_after == cur.stokes_before


def test_jones_track_follows_coherency():
    # the tracked amplitudes must reproduce the conjugated coherency
    # matrix exactly, including through phase stages
    text = "rotate(theta=0.9); phase(phi=0.7); squeeze(eta=-0.3)"
    rep = evaluate(parse(text), JonesVector(0.7, 0.3 + 0.4j))
    j = rep.final_jones
    c = rep.final_coherency
    assert abs(abs(j.psi1) ** 2 - c.s11) < 1e-14
    assert abs(abs(j.psi2) ** 2 - c.s22) < 1e-14
    assert abs(np.conj(j.psi1) * j.psi2 - c.s12) < 1e-14


def test_decohere_drops_jones_track():
    rep = evaluate(parse("rotate(theta=0.3); decohere(lambda=0.1)"), JonesVector(1, 0))
    assert rep.final_jones is None
    assert rep.input_jones == JonesVector(1, 0)
    rep = evaluate(parse("decohere(lambda=0); rotate(theta=0.3)"), JonesVector(1, 0))
    assert rep.final_jones is None  # dropped even at lambda = 0


def test_intensity_bookkeeping():
    rng = np.random.default_rng(50)
    for _ in range(30):
        theta, phi, r = rng.uniform(-math.pi, math.pi, size=3)
        ratio = (r + math.pi) / (2 * math.pi)
        text = f"rotate(theta={theta}); phase(phi={phi}); split(ratio={ratio})"
        rep = evaluate(parse(text), JonesVector(0.8, 0.6))
        assert abs(rep.final_stokes.s0 - 1.0) < 1e-12
    # attenuation scales intensity by the overall square
    rep = evaluate(parse("atten(eta1=0.5, eta2=0.5)"), JonesVector(1, 0))
    assert abs(rep.final_stokes.s0 - math.exp(-1.0)) < 1e-14


def test_coherent_chain_keeps_purity():
    rng = np.random.default_rng(54)
    names = ["rotate(theta={})", "phase(phi={})", "squeeze(eta={})"]
    for _ in range(20):
        stages = [
            names[int(rng.integers(0, 3))].format(rng.uniform(-0.5, 0.5)) for _ in range(10)
        ]
        rep = evaluate(parse("; ".join(stages)), JonesVector(1, 1j))
        assert rep.final_coherency.det < 1e-9
        assert rep.final_classification.tag == "pure"
        assert abs(minkowski_norm(rep.final_stokes)) < 1e-9 * rep.final_stokes.s0**2


def test_decoherence_reduction_pinned():
    chi = 2.0 * math.pi / 3.0
    rep = evaluate(parse(f"rotate(theta={chi}); decohere(lambda=20)"), JonesVector(1, 0))
    assert rep.final_classification.tag == "impure"
    expected = 0.5 * math.log((1 + math.cos(chi)) / (1 - math.cos(chi)))
    assert expected < 0  # chi beyond pi/2 lands on the negative-s1 side
    assert abs(rep.final_classification.eta_to_standard - expected) < 1e-6


def test_evaluate_input_validation():
    ast = parse("rotate(theta=0.1)")
    with pytest.raises(PhysicsError):
        evaluate(ast, StokesVector(1, 2, 0, 0))
    with pytest.raises(PhysicsError):
        evaluate(ast, JonesVector(0, 0))
    with pytest.raises(TypeError):
        evaluate(ast, [1, 0, 0, 0])


def test_evaluate_stage_failure_located():
    ast = parse("rotate(theta=0.1); squeeze(eta=1e300)")
    with pytest.raises(CircuitSemanticError) as err:
        evaluate(ast, JonesVector(1, 0))
    assert err.value.line == 1 and err.value.col == 20
    assert "squeeze" in err.value.message
    # a coherent run whose product underflows to zero compiles, and the stage loop locates it
    ast = parse("rotate(theta=0.1); atten(eta1=800, eta2=800)")
    for inp in (JonesVector(1, 0), StokesVector(1, 0.2, 0.1, 0)):
        with pytest.raises(CircuitSemanticError) as err:
            evaluate(ast, inp)
        assert str(err.value) == "1:20: stage atten: beam attenuated to zero intensity (underflow)"


def test_hand_built_ast_checks_values_at_construction():
    # A hand-built CircuitAst rejects, at the stage and in the parser's
    # words, what the parser rejects in text: an unknown name, a value out
    # of the float range, and a negative one where its kind forbids it; so
    # the stage actions check nothing.
    def rejection(name, params):
        stages = (Stage("rotate", (("theta", 0.1),), 1, 1), Stage(name, params, 2, 5))
        with pytest.raises(CircuitSemanticError) as err:
            CircuitAst(stages)
        assert isinstance(err.value, CircuitError) and err.value.exit_code == 3
        return str(err.value)

    out_of_range = (math.inf, -math.inf, math.nan, 10**400, -10**400)
    for name in ("atten", "decohere"):
        keys = circuit.STAGES[name].params
        for i, key in enumerate(keys):
            for bad in out_of_range:
                params = tuple((k, bad if j == i else 0.5) for j, k in enumerate(keys))
                assert rejection(name, params) == "2:5: number out of range"
            params = tuple((k, -0.1 if j == i else 0.5) for j, k in enumerate(keys))
            assert rejection(name, params) == f"2:5: {key} must be nonnegative"
    # as the parser, a value out of range is reported before a negative one
    assert rejection("atten", (("eta1", -0.1), ("eta2", math.inf))) == "2:5: number out of range"
    for name in ("rotate", "split", "phase", "squeeze"):
        for bad in out_of_range:
            assert rejection(name, ((circuit.STAGES[name].params[0], bad),)) == "2:5: number out of range"
        CircuitAst((Stage(name, ((circuit.STAGES[name].params[0], -0.1),)),))  # no sign rule
    assert rejection("mirror", (("theta", 0.1),)) == (
        "2:5: unknown element 'mirror' (one of rotate, split, phase, atten, squeeze, decohere)")


def stage_values(rng):
    """Seeded values that circuit text can spell, as repr writes them."""
    top = int(sys.float_info.max)
    edges = (0.0, -0.0, 5e-324, -1.5, 10**400, -10**400, 2**1024, top, -top, top + 2**969, 2**1024 - 2**970, 7, -3)
    while True:
        if rng.random() < 0.4:
            yield rng.choice(edges)
        else:
            yield rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-320.0, 308.0)


def test_hand_built_ast_rejects_what_parse_rejects():
    """Contract: a hand-built one-stage CircuitAst raises exactly when
    parse of the same stage's text raises a CircuitSemanticError, with
    the same message, and otherwise unparses to the parsed text."""
    rng = random.Random(41)
    values = stage_values(rng)
    for _ in range(400):
        name = rng.choice(list(circuit.STAGES))
        params = tuple((key, next(values)) for key in circuit.STAGES[name].params)
        text = f"{name}({', '.join(f'{key}={value!r}' for key, value in params)})"
        outcomes = []
        for build in (lambda: CircuitAst((Stage(name, params, 1, 1),)), lambda: parse(text)):
            try:
                outcomes.append(unparse(build()))
            except CircuitSemanticError as err:
                outcomes.append(err.message)
        assert outcomes[0] == outcomes[1], text


@pytest.mark.parametrize("inp", [JonesVector(1, 0), StokesVector(1, 0.2, 0.1, 0)])
@pytest.mark.parametrize("params, message", [
    ((("eta2", 0.5), ("eta1", 0.0)), "atten takes eta1, eta2"),
    ((("phi", 1.0),), "rotate takes theta"),
    ((), "rotate takes theta"),
    ((("lam", 0.1),), "decohere takes lambda"),
    ((("theta", "1"),), "rotate theta must be a real number"),
    ((("theta", True),), "rotate theta must be a real number"),
    ((("phi", None),), "phase phi must be a real number"),
    ((("eta", 1 + 2j),), "squeeze eta must be a real number"),
    ((("eta1", 0.1), ("eta2", None)), "atten eta2 must be a real number"),
    ((("lambda", "0.1"),), "decohere lambda must be a real number"),
], ids=["atten-reversed", "rotate-misnamed", "rotate-empty", "decohere-misnamed", "rotate-str",
        "rotate-bool", "phase-none", "squeeze-complex", "atten-none", "decohere-str"])
def test_hand_built_stage_names_its_parameters_in_order(params, message, inp):
    # Stages read their values by position, so a hand-built stage of a known
    # kind must name its kind's parameters in order, or it would run as
    # another stage: atten with eta2 first as atten(eta1=0.5, eta2=0). Each
    # value must be an int or a float, not a bool: a string or True would
    # run as its float, and None or a complex would fail unlocated, inside
    # the arithmetic.
    name = message.split()[0]
    stages = (Stage("phase", (("phi", 0.2),), 1, 1), Stage(name, params, 3, 7))
    with pytest.raises(CircuitSemanticError) as err:
        evaluate(CircuitAst(stages), inp)
    assert str(err.value) == f"3:7: {message}"
    assert isinstance(err.value, CircuitError) and err.value.exit_code == 3
    # The parser takes either order and builds the canonical stage.
    parsed = parse("atten(eta2=0.5, eta1=0.0)")
    ast = CircuitAst((Stage("atten", (("eta1", 0.0), ("eta2", 0.5))),))
    assert ast == parsed and evaluate(ast, inp) == evaluate(parsed, inp)
    # An int is a real number, and runs as its float.
    ast = CircuitAst((Stage("rotate", (("theta", 1),)),))
    assert evaluate(ast, inp) == evaluate(parse("rotate(theta=1)"), inp)


def test_parse_and_report_reject_what_they_do_not_hold():
    with pytest.raises(TypeError, match="^circuit text must be str$"):
        parse(b"rotate(theta=1)")
    report = evaluate(parse("rotate(theta=1)"), JonesVector(1, 0))
    with pytest.raises(AttributeError, match="^'SimulationReport' object has no attribute 'stage'$"):
        report.stage


def test_ast_validation():
    with pytest.raises(TypeError):
        CircuitAst(("rotate",))
