"""Differential tests of circuit evaluation and parsing.

evaluate is checked against a closed-form fold of 4x4 Stokes matrices
written here from the conventions in the README, sharing no code with
the package. parse is checked against the token parser, which it falls
back to for any text its stage scanner does not accept.
"""

import math
import random
import re
from itertools import repeat
from pathlib import Path

import numpy as np

from twobeam import (
    CircuitError,
    CircuitSemanticError,
    JonesVector,
    StokesVector,
    classify,
    evaluate,
    parse,
    purity_report,
    stokes_from_coherency,
)
from twobeam import circuit
from twobeam.circuit import _parse_tokens, _scan

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


def test_overflow_is_located_and_plain():
    # Elements are built by evaluate, not parse, and a failed build is not
    # kept, so every evaluation of one AST raises the same located error.
    # In the chain, the 72nd squeeze is where s0 first becomes too large
    # to square; in the last case the amplitude itself becomes infinite
    # inside the stage (e^700 * 1e70).
    chain = ";".join(["squeeze(eta=5); rotate(theta=0.3)"] * 200)
    unit = (JonesVector(1.0, 0.0), StokesVector(1.0, 0.5, 0.5, 0.0))
    for text, where, inputs in (
        ("squeeze(eta=2000)", "1:1", unit),
        (chain, "1:2415", unit),
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
    text = "rotate(theta=0.2);\natten(eta1=400, eta2=400)"
    for inp in (JonesVector(1.0, 0.0), StokesVector(1.0, 0.5, 0.5, 0.0)):
        try:
            evaluate(parse(text), inp)
        except CircuitSemanticError as err:
            assert err.message == "stage atten: beam attenuated to zero intensity (underflow)"
            assert (err.line, err.col) == (2, 1)
        else:
            raise AssertionError("underflow not reported")


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


def random_stage(rng):
    kind = rng.choice(("rotate", "split", "phase", "squeeze", "atten", "decohere"))
    if kind in ("rotate", "phase"):
        arg = "theta" if kind == "rotate" else "phi"
        return f"{kind}({arg}={rng.uniform(-math.pi, math.pi)!r})"
    if kind == "split":
        return f"split(ratio={rng.random()!r})"
    if kind == "squeeze":
        return f"squeeze(eta={rng.uniform(-1.0, 1.0)!r})"
    if kind == "atten":
        return f"atten(eta1={rng.uniform(0.0, 0.5)!r}, eta2={rng.uniform(0.0, 0.5)!r})"
    return f"decohere(lambda={rng.uniform(0.0, 1.0)!r})"


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
    for text in fuzz_corpus():
        assert outcome(parse, text) == outcome(token_parse, text), repr(text)


def formatted_corpus():
    """600 seeded formatted circuits, each with four mutations of it."""
    rng = random.Random(31)
    for _ in range(600):
        text = formatted_circuit(rng)
        yield text, [mutated(rng, text) for _ in range(4)]


def test_scanner_agrees_with_token_parser_on_formatted_circuits():
    for text, mutations in formatted_corpus():
        assert _scan(text) is not None, repr(text)
        want = outcome(token_parse, text)
        assert not isinstance(want[0], type), repr(text)
        assert outcome(parse, text) == want, repr(text)
        for bad in mutations:
            assert outcome(parse, bad) == outcome(token_parse, bad), repr(bad)


# _GAP as it was before its quantifiers were made possessive, the
# reference for the gap language. The scanner and the token parser share
# _GAP, so their differential cannot see a change to it.
BACKTRACKING_GAP = r"[ \t\n\r\f\v]*(?:#[^\n]*(?![^\n])[ \t\n\r\f\v]*)*"


def test_possessive_gap_matches_like_the_backtracking_gap():
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


def test_repeated_evaluation_builds_each_element_once(monkeypatch):
    rng = random.Random(909)
    for _ in range(40):
        text = decohering_circuit(rng)
        ast = parse(text)
        for inp in random_inputs(rng):
            assert evaluate(ast, inp) == evaluate(ast, inp) == evaluate(parse(text), inp)
    built = []
    for name in ("rotator", "phase_shifter", "squeezer", "attenuator"):
        make = getattr(circuit, name)
        monkeypatch.setattr(circuit, name, lambda *a, make=make: built.append(a) or make(*a))
    ast = parse("rotate(theta=0.3); phase(phi=0.2); squeeze(eta=0.1); atten(eta1=0.1, eta2=0.2)")
    jones, _, mixed = random_inputs(rng)
    first = evaluate(ast, jones)
    assert len(built) == 4
    assert evaluate(ast, jones) == first
    evaluate(ast, mixed)
    assert len(built) == 4


def test_evaluate_carries_one_state(monkeypatch):
    # The coherency matrix is the state; Stokes vectors are taken only for
    # the report's input and final entries, not once per stage, and the
    # amplitudes are carried as numbers: one JonesVector, for final_jones.
    rng = random.Random(1010)
    coherent = [s for s in (random_stage(rng) for _ in range(400)) if "decohere" not in s]
    jones_case = (parse("; ".join(coherent[:200])), random_inputs(rng)[0])
    assert len(jones_case[0].stages) == 200
    mixed_case = (parse(decohering_circuit(rng)), random_inputs(rng)[2])
    built, amplitudes = [], []
    check, check_jones = StokesVector.__post_init__, JonesVector.__post_init__
    monkeypatch.setattr(StokesVector, "__post_init__", lambda s: built.append(s) or check(s))
    monkeypatch.setattr(JonesVector, "__post_init__", lambda j: amplitudes.append(j) or check_jones(j))
    for (ast, inp), jones_built in ((jones_case, 1), (mixed_case, 0)):
        del built[:], amplitudes[:]
        report = evaluate(ast, inp)
        assert built == [report.input_stokes, report.final_stokes]
        assert len(amplitudes) == jones_built
        assert all(j is report.final_jones for j in amplitudes)
