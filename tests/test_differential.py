"""Differential tests of circuit evaluation and parsing.

evaluate is checked against a closed-form fold of 4x4 Stokes matrices
written here from the conventions in the README, sharing no code with
the package. parse's stage scanner is checked against the token parser,
the reference, which parse runs only on text the scanner rejects.
"""

import dataclasses
import math
import random
import re
import sys
from itertools import repeat
from pathlib import Path

import mpmath
import numpy as np
import pytest

from twobeam import (
    CircuitError,
    CircuitSemanticError,
    CoherencyMatrix,
    JonesVector,
    PhysicsError,
    SimulationReport,
    StokesVector,
    classify,
    evaluate,
    parse,
    purity_report,
    stokes_from_coherency,
    unparse,
)
from twobeam import circuit, cli, decoherence, states
from twobeam.circuit import _parse_tokens, _scan

import test_fold_accuracy

DATA = Path(__file__).resolve().parent / "data"


def stage_matrix(stage):
    """Closed-form Stokes matrix of one parsed stage (canonical radians)."""
    p = dict(stage.params)
    if stage.name in ("rotate", "split"):
        c, s = math.cos(p["theta"]), math.sin(p["theta"])
        return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]], float)
    if stage.name == "phase":
        c, s = math.cos(p["phi"]), math.sin(p["phi"])
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, s], [0, 0, -s, c]], float)
    if stage.name == "squeeze":
        eta, k = p["eta"], 1.0
    elif stage.name == "atten":
        eta, k = p["eta2"] - p["eta1"], math.exp(-(p["eta1"] + p["eta2"]))
    else:
        d = math.exp(-2.0 * p["lambda"])
        return np.diag([1.0, 1.0, d, d])
    ch, sh = math.cosh(eta), math.sinh(eta)
    return k * np.array([[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], float)


def fold(ast, s):
    s = np.asarray(s, dtype=float)
    for stage in ast.stages:
        s = stage_matrix(stage) @ s
    return s


def jones_stokes(j):
    i1, i2, s12 = abs(j.psi1) ** 2, abs(j.psi2) ** 2, j.psi1.conjugate() * j.psi2
    return [i1 + i2, i1 - i2, 2.0 * s12.real, 2.0 * s12.imag]


def vec(s):
    return np.array([s.s0, s.s1, s.s2, s.s3])


def relative_error(got, want):
    return float(np.abs(vec(got) - want).max() / want[0])


def test_long_boost_chain_stays_pure():
    # Fails at the parent design, which conjugated the coherency matrix
    # at every stage and rounded it out of the positive semidefinite cone.
    text = (DATA / "psd_rounding_chain.txt").read_text()
    header = next(line for line in text.splitlines() if line.startswith("# jones:"))
    r1, i1, r2, i2 = (float(x) for x in header.split(":")[1].split())
    jones = JonesVector(complex(r1, i1), complex(r2, i2))
    ast = parse(text)
    report = evaluate(ast, jones)
    assert report.final_classification.tag == "pure"
    assert relative_error(report.final_stokes, fold(ast, jones_stokes(jones))) < 1e-9


def first_squeeze_above_float_max(pairs):
    """The 1-based squeeze of pairs x "squeeze(eta=5); rotate(theta=0.3)" after
    which a 60-digit Jones track from (1, 0) first has an intensity above
    the largest float."""
    mp = mpmath.mp.clone()
    mp.dps = 60
    top, gain = mp.mpf(sys.float_info.max), mp.exp(mp.mpf(5) / 2)
    c, s = mp.cos(mp.mpf(0.3) / 2), mp.sin(mp.mpf(0.3) / 2)
    p1, p2 = mp.mpf(1), mp.mpf(0)
    for k in range(1, pairs + 1):
        p1, p2 = gain * p1, p2 / gain
        if p1 * p1 + p2 * p2 > top:
            return k
        p1, p2 = c * p1 - s * p2, s * p1 + c * p2
    raise AssertionError("the chain does not overflow")


def test_overflow_is_located_and_plain():
    # Elements are built by evaluate, not parse, and a failed build is not
    # kept, so every evaluation of one AST raises the same located error.
    # In the chain, the squeeze after which the exact intensity first
    # exceeds the largest float is where it overflows: the state checks
    # are scale-free, so nothing fails earlier. In the last case the
    # amplitude itself becomes infinite inside the stage (e^700 * 1e70).
    chain = ";".join(["squeeze(eta=5); rotate(theta=0.3)"] * 200)
    unit = (JonesVector(1.0, 0.0), StokesVector(1.0, 0.5, 0.5, 0.0))
    pair = len("squeeze(eta=5); rotate(theta=0.3);")
    col = 1 + pair * (first_squeeze_above_float_max(200) - 1)
    for text, where, inputs in (
        ("squeeze(eta=2000)", "1:1", unit),
        (chain, f"1:{col}", unit),
        ("rotate(theta=0.1);\nsqueeze(eta=1400)", "2:1", (JonesVector(1e70, 0.0),)),
    ):
        ast = parse(text)
        for inp in inputs * 2:
            try:
                evaluate(ast, inp)
            except CircuitSemanticError as err:
                assert str(err) == f"{where}: stage squeeze: beam intensity overflowed"
            else:
                raise AssertionError("overflow not reported")


def test_underflow_is_located_and_plain():
    # e^-1e308 is 0, so a beam-1 input underflows where atten's factored
    # form, with squeezer(-1e308), overflowed.
    beam1 = (JonesVector(1.0, 0.0), StokesVector(1.0, 1.0, 0.0, 0.0))
    for text, where, inputs in (
        ("rotate(theta=0.2);\natten(eta1=400, eta2=400)", (2, 1),
         (JonesVector(1.0, 0.0), StokesVector(1.0, 0.5, 0.5, 0.0))),
        ("atten(eta1=1e308, eta2=0)", (1, 1), beam1),
    ):
        for inp in inputs:
            try:
                evaluate(parse(text), inp)
            except CircuitSemanticError as err:
                assert err.message == "stage atten: beam attenuated to zero intensity (underflow)"
                assert (err.line, err.col) == where
            else:
                raise AssertionError("underflow not reported")


def within_bound(ast, inp, got):
    """Each component of got, a StokesVector, is within the running bound of the exact result."""
    want, bounds = test_fold_accuracy.reference(ast, inp, exact=True)
    return all(abs(mpmath.mpf(g) - w) <= bound for g, w, bound in zip(vec(got), want, bounds))


def test_an_identity_beyond_the_float_range_returns_its_input(tmp_path, capsys):
    """Contract: an intermediate state beyond the float range costs the fold
    nothing. squeeze(eta=800); squeeze(eta=-800) is the identity; evaluate
    returns each input within the bound, while reading its records, which
    holds every intermediate state, and the command line's simulate, which
    prints them, raise the stage loop's located overflow."""
    text = "squeeze(eta=800); squeeze(eta=-800)"
    path = tmp_path / "identity.circ"
    path.write_text(text + "\n")
    for inp, spec in ((JonesVector(1, 0), "jones:1,0,0,0"), (StokesVector(1, 1, 0, 0), "stokes:1,1,0,0"),
                      (StokesVector(1, 0.3, 0.2, 0.1), "stokes:1,0.3,0.2,0.1")):
        report = evaluate(parse(text), inp)
        assert within_bound(parse(text), inp, report.final_stokes)
        with pytest.raises(CircuitSemanticError) as err:
            report.stages
        assert str(err.value) == "1:1: stage squeeze: beam intensity overflowed"
        assert cli.main(["simulate", str(path), "--in", spec]) == 3
        assert capsys.readouterr().err == "error: 1:1: stage squeeze: beam intensity overflowed\n"


def test_a_product_that_would_be_subnormal_keeps_its_precision():
    """Contract: a segment's product keeps every column in the normal range.
    Two atten(370, 370) make the prefix product e^-740, which is subnormal,
    and squeeze(eta=1400) brings beam 1 back to e^-40: s0 = e^-80 within the
    bound, from the product's columns rescaled by powers of two. So does
    atten(360, 360); squeeze(eta=100), to s0 = e^-620, while reading its
    records, which hold the subnormal state e^-720 after atten, raises the
    stage loop's located underflow."""
    ast, inp = parse("atten(eta1=370, eta2=370); atten(eta1=370, eta2=370); squeeze(eta=1400)"), JonesVector(1, 0)
    report = evaluate(ast, inp)
    assert within_bound(ast, inp, report.final_stokes)
    assert abs(report.final_stokes.s0 - math.exp(-80)) <= 1e-14 * math.exp(-80)
    ast, inp = parse("atten(eta1=360, eta2=360); squeeze(eta=100)"), StokesVector(1, 1, 0, 0)
    report = evaluate(ast, inp)
    assert within_bound(ast, inp, report.final_stokes) and report.final_stokes.s0 == 5.462874456123501e-270
    with pytest.raises(CircuitSemanticError) as err:
        report.stages
    assert str(err.value) == "1:1: stage atten: beam attenuated to zero intensity (underflow)"


def test_a_jones_input_folds_its_amplitudes(monkeypatch):
    """Contract: a Jones input through a circuit with no decohere folds its
    amplitudes through the circuit's one segment and never runs the stage
    loop (hook: circuit._walk, counted) unless the fold declines (hook:
    circuit._fold forced to None); final_coherency is the outer product of
    final_jones, field for field, so a pure state stays pure; and the empty
    circuit returns the input as final_jones."""
    walked = []
    walk = circuit._walk
    monkeypatch.setattr(circuit, "_walk", lambda *args: walked.append(args) or walk(*args))
    rng = random.Random(4404)
    for _ in range(40):
        ast = parse("; ".join(s for s in (random_stage(rng, 20.0, 5.0) for _ in range(rng.randint(1, 30)))
                              if not s.startswith("decohere")) or "phase(phi=0.1)")
        jones = random_inputs(rng)[0]
        report = evaluate(ast, jones)
        assert report.final_coherency == states.coherency_from_jones(report.final_jones)
        assert vars(report.final_coherency) == vars(states.coherency_from_jones(report.final_jones))
        assert report.final_classification.tag == "pure"
    assert walked == []
    monkeypatch.setattr(circuit, "_fold", lambda *args: None)
    assert evaluate(ast, jones).final_jones is None and len(walked) == 1
    monkeypatch.undo()
    jones = JonesVector(0.6, 0.8j)
    assert evaluate(circuit.CircuitAst(()), jones).final_jones == jones


def test_an_input_whose_intensity_underflows_is_named():
    # |1e-200|^2 and 5e-324 / 2 round to 0: the input is not dark, yet its
    # coherency trace is 0. 1e-310 and |1e-160|^2 are not 0 but below the
    # normal floats, where evaluate accepts no state. A dark input keeps the
    # plain message.
    ast = parse("rotate(theta=0.3)")
    message = "evaluation requires positive input intensity"
    for inp, said in (
        (JonesVector(1e-200, 0.0), f"{message} (it underflows to zero)"),
        (JonesVector(0.0, 1e-170j), f"{message} (it underflows to zero)"),
        (StokesVector(5e-324, 0.0, 0.0, 0.0), f"{message} (it underflows to zero)"),
        (StokesVector(1e-310, 0.0, 0.0, 0.0), f"{message} (it underflows to zero)"),
        (JonesVector(1e-160, 0.0), f"{message} (it underflows to zero)"),
        (JonesVector(0.0, 0.0), message),
        (StokesVector(0.0, 0.0, 0.0, 0.0), message),
    ):
        with pytest.raises(PhysicsError) as err:
            evaluate(ast, inp)
        assert err.type is PhysicsError and str(err.value) == said


def test_tiny_intensity_evaluates_like_unit_intensity():
    # Scaling the input by 2^-700 scales every linear stage exactly, while
    # s0^2 underflows to 0; the per-stage figures must not notice.
    rng = random.Random(17)
    scale = 2.0**-700
    for _ in range(40):
        ast = parse("; ".join(random_stage(rng) for _ in range(rng.randint(1, 12))))
        jones, pure, mixed = random_inputs(rng)
        for unit, tiny in (
            (jones, JonesVector(2.0**-350 * jones.psi1, 2.0**-350 * jones.psi2)),
            (mixed, StokesVector(*(scale * x for x in vec(mixed)))),
        ):
            want, got = evaluate(ast, unit), evaluate(ast, tiny)
            for w, g in zip(want.stages, got.stages):
                assert g.classification_after.tag == w.classification_after.tag
                assert np.allclose(g.purity_after[1:], w.purity_after[1:], rtol=0.0, atol=1e-12)
            assert np.abs(vec(got.final_stokes) - scale * vec(want.final_stokes)).max() <= (
                1e-14 * scale * want.final_stokes.s0
            )


def random_stage(rng, eta=1.0, atten=0.5, lam=1.0):
    """Stage text of a random kind; squeeze's |eta|, atten's exponents and
    decohere's lambda are at most eta, atten and lam."""
    kind = rng.choice(("rotate", "split", "phase", "squeeze", "atten", "decohere"))
    if kind in ("rotate", "phase"):
        arg = "theta" if kind == "rotate" else "phi"
        return f"{kind}({arg}={rng.uniform(-math.pi, math.pi)!r})"
    if kind == "split":
        return f"split(ratio={rng.random()!r})"
    if kind == "squeeze":
        return f"squeeze(eta={rng.uniform(-eta, eta)!r})"
    if kind == "atten":
        return f"atten(eta1={rng.uniform(0.0, atten)!r}, eta2={rng.uniform(0.0, atten)!r})"
    return f"decohere(lambda={rng.uniform(0.0, lam)!r})"


def random_inputs(rng):
    psi = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2)]
    x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
    s0 = rng.uniform(0.5, 2.0)
    pure = s0 / math.sqrt(x * x + y * y + z * z)
    mixed = pure * rng.random()
    return (
        JonesVector(*psi),
        StokesVector(s0, pure * x, pure * y, pure * z),
        StokesVector(s0, mixed * x, mixed * y, mixed * z),
    )


def test_evaluate_matches_closed_form_fold():
    rng = random.Random(2000)
    for _ in range(150):
        ast = parse("; ".join(random_stage(rng) for _ in range(rng.randint(1, 50))))
        for inp in random_inputs(rng):
            report = evaluate(ast, inp)
            start = jones_stokes(inp) if isinstance(inp, JonesVector) else vec(inp)
            assert relative_error(report.final_stokes, fold(ast, start)) <= 1e-12
            befores = [r.stokes_before for r in report.stages] + [report.final_stokes]
            afters = [report.input_stokes] + [r.stokes_after for r in report.stages]
            assert befores == afters
            for r in report.stages:
                back = vec(stokes_from_coherency(r.coherency_after))
                assert np.abs(back - vec(r.stokes_after)).max() <= 1e-15 * r.stokes_after.s0
            decohered = any(s.name == "decohere" for s in ast.stages)
            assert (report.final_jones is not None) == (
                isinstance(inp, JonesVector) and not decohered
            )


def token_parse(text):
    return _parse_tokens(text)


def outcome(parser, text):
    """The AST with stage locations, or the error class, message and location."""
    try:
        ast = parser(text)
    except CircuitError as err:
        return type(err), err.message, err.line, err.col
    return ast, [(s.line, s.col) for s in ast.stages]


GAPS = ("", "", " ", "  ", "\t", "\n", " \n  ", "\r\n", "\f", "\v", "# note\n",
        " # a; b(c=1)=#\n\t", "\n# two\n# lines\n")


def formatted_stage(rng):
    """A valid stage with random spacing, comments, number forms and deg."""

    def gap():
        return rng.choice(GAPS)

    def number(x):
        return rng.choice((repr(x), f"{x:.3e}", f"{x:+.6f}", f"{x:.0f}", f"{x:.2f}"))

    kind = rng.choice(("rotate", "split", "phase", "squeeze", "atten", "decohere"))
    if kind == "split" and rng.random() < 0.5:
        args = [("ratio", number(rng.random()))]
    elif kind in ("rotate", "split", "phase"):
        key = "phi" if kind == "phase" else "theta"
        if rng.random() < 0.5:
            args = [(key, number(rng.uniform(-180.0, 180.0)) + gap() + "deg")]
        else:
            args = [(key, number(rng.uniform(-math.pi, math.pi)))]
    elif kind == "atten":
        args = [("eta1", number(rng.uniform(0.0, 2.0))), ("eta2", number(rng.uniform(0.0, 2.0)))]
        rng.shuffle(args)
    elif kind == "squeeze":
        args = [("eta", number(rng.uniform(-2.0, 2.0)))]
    else:
        args = [("lambda", number(rng.uniform(0.0, 2.0)))]
    inner = f"{gap()},{gap()}".join(f"{k}{gap()}={gap()}{v}" for k, v in args)
    return f"{kind}{gap()}({gap()}{inner}{gap()})"


def formatted_circuit(rng):
    text = rng.choice(GAPS)
    for i in range(rng.randint(1, 8)):
        text += (";" if i else "") + rng.choice(GAPS) + formatted_stage(rng) + rng.choice(GAPS)
    if rng.random() < 0.3:
        text += ";" + rng.choice(GAPS)
    if rng.random() < 0.2:
        text += "# trailing comment without newline"
    return text


def mutated(rng, text):
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + text[i + 1:]
    piece = rng.choice(";(),=#\n -.e9xdeg٣")
    return text[:i] + piece + text[i + (op == 2):]


def fuzz_corpus():
    """The strings of the parser fuzz tests in test_circuit and test_acceptance."""
    rng = np.random.default_rng(99)
    alphabet = "rotate splnqz()=;,.0123456789-+#\n\t edg\x00\xe9"
    for _ in range(2000):
        n = int(rng.integers(0, 30))
        yield "".join(rng.choice(list(alphabet)) for _ in range(n))
    rng = np.random.default_rng(110)
    for _ in range(20_000):
        length = int(rng.integers(0, 41))
        yield bytes(rng.integers(0, 256, size=length, dtype=np.uint8)).decode("latin-1")


def test_scanner_agrees_with_token_parser_on_fuzz_corpus():
    """Contract: parse gives the token parser's AST or error on any text,
    and the stage scanner (hook: circuit._scan) takes exactly the valid
    text. The token parser, circuit._parse_tokens, is the reference."""
    for text in fuzz_corpus():
        want = outcome(token_parse, text)
        assert outcome(parse, text) == want, repr(text)
        # The scanner takes exactly the valid text.
        assert (_scan(text) is None) == isinstance(want[0], type), repr(text)


def formatted_corpus():
    """600 seeded formatted circuits, each with four mutations of it."""
    rng = random.Random(31)
    for _ in range(600):
        text = formatted_circuit(rng)
        yield text, [mutated(rng, text) for _ in range(4)]


def test_scanner_agrees_with_token_parser_on_formatted_circuits():
    """Contract: the stage scanner (hook: circuit._scan) takes every valid
    text, atten's arguments in either order, and a mutation of it exactly
    when it is still valid; parse agrees with the token parser,
    circuit._parse_tokens, the reference."""
    for text, mutations in formatted_corpus():
        assert _scan(text) is not None, repr(text)
        want = outcome(token_parse, text)
        assert not isinstance(want[0], type), repr(text)
        assert outcome(parse, text) == want, repr(text)
        for bad in mutations:
            want = outcome(token_parse, bad)
            assert outcome(parse, bad) == want, repr(bad)
            assert (_scan(bad) is None) == isinstance(want[0], type), repr(bad)


def test_scanner_ends_where_the_token_parser_does():
    """Contract: the stage scanner (hook: circuit._scan) ends a text where
    the token parser, circuit._parse_tokens, does. It tests for the end
    only where no stage matches after a ";". A trailing comment may hold
    stage text; ";;" and text that is all gap are rejected, the token
    parser locating why."""
    texts = ("rotate(theta=1); # rotate(theta=2)", "rotate(theta=1);# rotate(theta=2)\n  ",
             "rotate(theta=1); # a\n# rotate(theta=2);", "rotate(theta=1);;", ";;",
             "rotate(theta=1);; phase(phi=2)", "rotate(theta=1); ;", "", " \t\n", "# rotate(theta=1)",
             "\n# two\n# lines\n", ";", " ; # x")
    for text in texts:
        want = outcome(token_parse, text)
        assert outcome(parse, text) == want, repr(text)
        assert (_scan(text) is None) == isinstance(want[0], type), repr(text)
    ast, locations = outcome(_scan, "rotate(theta=1); # rotate(theta=2)")
    assert [s.name for s in ast.stages] == ["rotate"] and locations == [(1, 1)]
    assert outcome(token_parse, "rotate(theta=1);;")[1:] == ("expected stage name", 1, 17)
    assert outcome(token_parse, " \t\n")[1:] == ("expected stage name", 2, 1)


# _GAP as it was before its quantifiers were made possessive, the
# reference for the gap language. The scanner and the token parser share
# _GAP, so their differential cannot see a change to it.
BACKTRACKING_GAP = r"[ \t\n\r\f\v]*(?:#[^\n]*(?![^\n])[ \t\n\r\f\v]*)*"


def test_possessive_gap_matches_like_the_backtracking_gap():
    """Contract: the parser's possessive gap quantifiers match as the
    backtracking gap would, span for span and group for group. Hooks: the
    lexical patterns circuit._GAP, _STAGE_RE, _END_RE and _TOKEN."""
    texts = list(fuzz_corpus())
    for text, mutations in formatted_corpus():
        texts += [text, *mutations]
    for pattern in (circuit._STAGE_RE.pattern, circuit._END_RE.pattern, circuit._TOKEN):
        reference = re.compile(pattern.replace(circuit._GAP, BACKTRACKING_GAP))
        assert reference.pattern != pattern
        new = re.compile(pattern)
        for text in texts:
            # Every start position: the span of the match and of each group.
            starts = range(len(text) + 1)
            want = [m and m.regs for m in map(reference.match, repeat(text), starts)]
            got = [m and m.regs for m in map(new.match, repeat(text), starts)]
            assert got == want, repr(text)


def decohering_circuit(rng):
    """Random stage text with at least one decohere."""
    stages = [random_stage(rng) for _ in range(rng.randint(1, 20))]
    stages.insert(rng.randrange(len(stages) + 1), f"decohere(lambda={rng.random()!r})")
    return "; ".join(stages)


def test_stage_diagnostics_are_those_of_the_recorded_state():
    # purity_after and classification_after are computed on access; they
    # must be those of the record's own state, under the tol given to
    # evaluate. tol = 0.05 classes nearly pure states as pure, so a record
    # that ignored it would show.
    rng = random.Random(808)
    moved = 0
    for _ in range(60):
        ast = parse(decohering_circuit(rng))
        for inp in random_inputs(rng):
            for tol in (1e-9, 0.05):
                report = evaluate(ast, inp, tol)
                for r in report.stages:
                    assert r.tol == tol
                    assert r.purity_after == purity_report(r.coherency_after)
                    assert r.classification_after == classify(r.stokes_after, tol)
                    moved += tol != 1e-9 and r.classification_after != classify(r.stokes_after)
                last = report.stages[-1]
                assert report.final_purity == last.purity_after
                assert report.final_classification == last.classification_after
    assert moved > 0


def test_repeated_evaluation_rebuilds_only_amplitude_elements(monkeypatch):
    """Contracts: a report depends only on the circuit, the input and tol,
    not on what the AST evaluated before; a reused AST compiles once,
    whatever its inputs and however often its records are read; and no
    evaluate or records read goes through an Element2's entries or the
    public decohere_channel. Hooks: circuit._compile, recording the stage
    tuples it compiles; states._entries2 and decoherence.decohere_channel,
    recording their calls."""
    compiled, compile_, public = [], circuit._compile, []
    monkeypatch.setattr(circuit, "_compile", lambda stages: compiled.append(stages) or compile_(stages))
    for module, name in ((states, "_entries2"), (decoherence, "decohere_channel")):
        monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name): public.append(a) or f(*a))
    rng = random.Random(909)
    fixed = ["rotate(theta=0.3); phase(phi=0.2); squeeze(eta=0.1); atten(eta1=0.1, eta2=0.2)",
             "rotate(theta=0.4); decohere(lambda=0.5); squeeze(eta=0.2); decohere(lambda=30)"]
    for k in range(42):
        text = decohering_circuit(rng) if k < 40 else fixed[k - 40]
        ast = parse(text)
        for inp in random_inputs(rng):
            assert evaluate(ast, inp) == evaluate(ast, inp) == evaluate(parse(text), inp)
        assert sum(stages is ast.stages for stages in compiled) == 1
    assert public == []


def test_evaluate_carries_one_state(monkeypatch):
    """Contract: evaluate builds no record per stage. It carries the state
    as numbers, so the Stokes, Jones and coherency records whose checks it
    runs (hook: each class's __post_init__, counted) are as many for 200
    stages as for one, from a Jones input folding its amplitudes and from
    a Stokes input through decohere stages."""
    built = []
    for cls in (StokesVector, JonesVector, CoherencyMatrix):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: built.append(type(self)) or check(self))
    rng = random.Random(1010)
    coherent = [s for s in (random_stage(rng) for _ in range(400)) if "decohere" not in s][:200]
    decohering = [random_stage(rng) if i % 3 else "decohere(lambda=0.01)" for i in range(200)]
    jones, _, mixed = random_inputs(rng)

    def made(stages, inp):
        ast = parse("; ".join(stages))
        del built[:]
        evaluate(ast, inp)
        return sorted(cls.__name__ for cls in built)

    assert len(coherent) == 200 and made(coherent, jones) == made(coherent[:1], jones)
    assert made(decohering, mixed) == made(decohering[:1], mixed)


def test_evaluate_builds_records_on_first_read():
    """Contract: a report's records, and its final_purity, are built on
    their first read and kept, observed through vars() of the report. The
    records run from the input's matrix to final_coherency itself, each
    record's matrix after is the next one's before, and every matrix
    passes CoherencyMatrix's checks. A report whose records were never
    read behaves as one built eagerly."""
    rng = random.Random(1111)
    for _ in range(10):
        ast = parse(decohering_circuit(rng))
        for inp in random_inputs(rng):
            report = evaluate(ast, inp)
            assert "stages" not in vars(report) and "final_purity" not in vars(report)
            stages = report.stages
            assert vars(report)["stages"] is stages is report.stages and len(stages) == len(ast.stages)
            first = states.coherency_from_jones if isinstance(inp, JonesVector) else states.coherency_from_stokes
            assert stages[0].coherency_before == first(inp)
            assert stages[-1].coherency_after is report.final_coherency
            assert all(a.coherency_after is b.coherency_before for a, b in zip(stages, stages[1:]))
            for c in [r.coherency_after for r in stages]:
                assert CoherencyMatrix(c.s11, c.s22, c.s12) == c
            assert report.final_purity is vars(report)["final_purity"] is report.final_purity
    ast, inp = parse(decohering_circuit(rng)), random_inputs(rng)[2]
    fields = [f.name for f in dataclasses.fields(SimulationReport)]
    assert tuple(fields) == SimulationReport.__match_args__
    assert fields[3] == "stages"
    eager = SimulationReport(*(getattr(evaluate(ast, inp), f) for f in fields))
    assert "stages" in vars(eager)
    assert evaluate(ast, inp) == eager and eager == evaluate(ast, inp)
    assert hash(evaluate(ast, inp)) == hash(eager)
    assert repr(evaluate(ast, inp)) == repr(eager)
    assert dataclasses.replace(evaluate(ast, inp)) == eager
    assert dataclasses.asdict(evaluate(ast, inp)) == dataclasses.asdict(eager)
    match evaluate(ast, inp):
        case SimulationReport(_, _, _, stages):
            pass
    assert stages == eager.stages


def test_a_failing_fold_step_defers_to_the_stage_loop(monkeypatch):
    """Contract: where the fold's gate rejects a segment's entries, as a
    spurious rejection would, evaluate returns the stage loop's report,
    record for record, or raises its located error, at the first stage
    whose gate fails. Hook: circuit._check_coherency, made to fail on its
    first call, the fold's for a Stokes input, or on every call."""
    check, calls, everywhere = states._check_coherency, [], False

    def gate(*entries):
        calls.append(entries)
        if len(calls) == 1 or everywhere:
            raise PhysicsError("coherency matrix must be positive semidefinite: det = -1")
        return check(*entries)

    monkeypatch.setattr(circuit, "_check_coherency", gate)
    ast = parse("decohere(lambda=0.2); rotate(theta=0.3); squeeze(eta=0.5); phase(phi=0.4)")
    inp = StokesVector(1.0, 0.3, 0.2, 0.1)
    report = evaluate(ast, inp)
    coh, want = states.coherency_from_stokes(inp), []
    for stage in ast.stages:
        values = [value for _, value in stage.params]
        if stage.name == "decohere":
            coh = decoherence.decohere_channel(coh, *values)
        else:
            a, b, c, d = circuit.STAGES[stage.name].action(*values)
            coh = states.conjugate(coh, ((a, b), (c, d)))
        want.append(coh)
    assert [r.coherency_after for r in report.stages] == want
    assert report.final_coherency == want[-1]
    everywhere = True
    with pytest.raises(CircuitSemanticError) as err:
        evaluate(ast, inp)
    assert (err.value.line, err.value.col) == (1, 23)
    assert err.value.message == "stage rotate: coherency matrix must be positive semidefinite: det = -1"


def test_records_do_not_depend_on_the_path_evaluate_took(monkeypatch):
    """Contract: a report's records are the stage loop's from the input,
    whether the fold vouched for the result or evaluate ran the stage
    loop instead; only the last record holds the final state, the fold's
    where it ran. Hook: circuit._fold, recording whether it declined, then
    forced to decline. The input scaled by 2^-520 folds as the unit one
    does, its power of two carried beside its entries; through the stage
    loop a power of two scales every entry exactly."""
    fold, declined = circuit._fold, []
    monkeypatch.setattr(circuit, "_fold", lambda *args: (out := fold(*args), declined.append(out is None))[0])
    ast = parse("rotate(theta=0.3); squeeze(eta=0.7); phase(phi=1.1); decohere(lambda=0.2); "
                "rotate(theta=-0.9); squeeze(eta=-0.4); atten(eta1=0.1, eta2=0.3); "
                "decohere(lambda=0.1); phase(phi=0.5)")
    values = (1.0, 0.3, -0.5, 0.6)
    folded = evaluate(ast, StokesVector(*values))
    small_folded = evaluate(ast, StokesVector(*(math.ldexp(x, -520) for x in values)))
    assert declined == [False, False]

    def rescaled(c, n):
        return math.ldexp(c.s11, n), math.ldexp(c.s22, n), complex(math.ldexp(c.s12.real, n),
                                                                    math.ldexp(c.s12.imag, n))

    def entries(report, n=0):
        return [(r.stage, r.params, r.tol, rescaled(r.coherency_before, n), rescaled(r.coherency_after, n))
                for r in report.stages]

    # The small input with the fold declined: the stage loop runs from it.
    monkeypatch.setattr(circuit, "_fold", lambda *args: None)
    small = evaluate(ast, StokesVector(*(math.ldexp(x, -520) for x in values)))
    assert len(folded.stages) == len(small.stages) == len(small_folded.stages) == 9
    assert entries(small, 520)[:-1] == entries(folded)[:-1]
    assert entries(small, 520)[-1][3] == entries(folded)[-1][3]
    assert entries(small_folded)[:-1] == entries(small)[:-1]
    assert entries(small_folded, 520)[-1][4] == entries(folded)[-1][4]
    for report in (folded, small, small_folded):
        assert report.stages[-1].coherency_after is report.final_coherency
    # The unit input with the fold declined: every record but the last is
    # the folded report's.
    fallback = evaluate(ast, StokesVector(*values))
    assert fallback.stages[:-1] == folded.stages[:-1]
    assert fallback.stages[-1].coherency_before == folded.stages[-1].coherency_before
    assert fallback.stages[-1].coherency_after is fallback.final_coherency


def test_repeat_evaluate_computes_no_constants_and_purity_on_read(monkeypatch):
    """Contracts: an AST compiled by a Stokes-input evaluate compiles no
    more, whether a later Jones input folds through it, a repeat
    evaluates it or records are read; and each report's final_purity is
    purity_report(final_coherency), built on its first read and kept.
    Hook: circuit._compile, recording the stage tuples it compiles."""
    compiled, compile_ = [], circuit._compile
    monkeypatch.setattr(circuit, "_compile", lambda stages: compiled.append(stages) or compile_(stages))
    ast = parse("rotate(theta=0.3); atten(eta1=0.1, eta2=0.2); squeeze(eta=0.4); decohere(lambda=0.2); "
                "phase(phi=0.5); split(ratio=0.3)")
    stokes, jones = StokesVector(1.0, 0.2, 0.3, 0.1), JonesVector(1 + 1j, 0.5)
    fresh = {inp: evaluate(parse(unparse(ast)), inp) for inp in (stokes, jones)}
    del compiled[:]
    reports = [evaluate(ast, inp) for inp in (stokes, jones, stokes, jones)]
    assert reports == [fresh[inp] for inp in (stokes, jones, stokes, jones)]
    assert compiled == [ast.stages] and compiled[0] is ast.stages
    for report in (evaluate(ast, stokes), evaluate(ast, jones)):
        assert "final_purity" not in vars(report)
        purity = report.final_purity
        assert purity == purity_report(report.final_coherency)
        assert report.final_purity is purity is vars(report)["final_purity"]


# Stage parameters no parse gives: beyond the float range, not finite,
# negative where they must not be, or large enough to overflow.
HOSTILE = (10**400, -10**400, math.inf, -math.inf, math.nan, -1.0, -1e308, 2000.0, 1e308, 0.5)


def test_evaluate_raises_only_located_circuit_errors_or_physics_errors():
    """Invariant: building a CircuitAst by hand, evaluating it from a
    Jones or a Stokes input and reading the report's records raise only
    CircuitError or PhysicsError subclasses, and a CircuitError carries
    the line:col of a stage of the circuit, the stage its message names
    where it names one."""
    rng = random.Random(3600)
    inputs = (JonesVector(1, 0.5j), StokesVector(1.0, 0.3, 0.2, 0.1), StokesVector(1e-160, 0, 5e-161, 0))
    for _ in range(300):
        stages = []
        for line in range(1, rng.randint(2, 6)):
            name = rng.choice(list(circuit.STAGES))
            params = tuple((key, rng.choice(HOSTILE) if rng.random() < 0.4 else rng.uniform(-1.0, 1.0))
                           for key in circuit.STAGES[name].params)
            stages.append(circuit.Stage(name, params, line, rng.randint(1, 80)))
        located = {(st.line, st.col): st.name for st in stages}
        for inp in inputs:
            try:
                report = evaluate(circuit.CircuitAst(tuple(stages)), inp)
                report.stages, report.final_purity
            except CircuitError as err:
                assert (err.line, err.col) in located, err
                named = re.match(r"stage (\w+): ", err.message)
                assert named is None or named[1] == located[err.line, err.col], err
            except PhysicsError:
                pass


def test_the_fold_rejects_what_the_stage_loop_rejects(monkeypatch):
    """Contract: the fold rejects only what the stage loop rejects, and as
    it does. On extreme circuits from Stokes inputs, some scaled by a
    power of two, evaluate accepts where the stage loop accepts; where
    evaluate rejects, it raises the loop's class, message, line and col;
    and where evaluate accepts and the loop rejects, an intermediate state
    beyond the float range, its result agrees with the exact one within
    the running bound of test_fold_accuracy. Hook: circuit._fold forced
    to None, which runs the stage loop from the input. Final bits are not
    compared where both accept: a coherent run of two or more stages folds
    to different last bits by design."""
    fold = circuit._fold

    def outcome(ast, inp, through):
        monkeypatch.setattr(circuit, "_fold", through)
        try:
            return evaluate(ast, inp).final_stokes
        except (CircuitError, PhysicsError) as err:
            return type(err), str(err)

    rng = random.Random(36)
    beyond = 0
    for _ in range(150):
        ast = parse("; ".join(random_stage(rng, 800.0, 700.0, 5.0) for _ in range(rng.randint(1, 8))))
        _, _, mixed = random_inputs(rng)
        for n in (0, rng.randint(-1000, 1000)):
            inp = StokesVector(*(math.ldexp(x, n) for x in vec(mixed)))
            got, loop = outcome(ast, inp, fold), outcome(ast, inp, lambda *args: None)
            if isinstance(got, tuple):
                assert got == loop, (unparse(ast), inp)
            elif isinstance(loop, tuple):
                beyond += 1
                want, bounds = test_fold_accuracy.reference(ast, inp, exact=True)
                for g, w, bound in zip(vec(got), want, bounds):
                    assert abs(mpmath.mpf(g) - w) <= bound, (unparse(ast), inp)
    assert beyond > 0
