"""Differential tests of circuit evaluation and parsing.

evaluate is checked against a closed-form fold of 4x4 Stokes matrices
written here from the conventions in the README, sharing no code with
the package. parse is checked against the token parser, which it falls
back to for any text its stage scanner does not accept.
"""

import math
import random
from pathlib import Path

import numpy as np

from twobeam import (
    CircuitError,
    CircuitSemanticError,
    JonesVector,
    StokesVector,
    evaluate,
    parse,
    stokes_from_coherency,
)
from twobeam.circuit import _Parser, _scan, _tokenize

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
    text = "; ".join(["squeeze(eta=5); rotate(theta=0.3)"] * 200)
    for inp in (JonesVector(1.0, 0.0), StokesVector(1.0, 0.5, 0.5, 0.0)):
        try:
            evaluate(parse(text), inp)
        except CircuitSemanticError as err:
            assert err.message == "stage squeeze: beam intensity overflowed"
            assert err.line == 1 and err.col > 1
            assert "out of range" not in str(err)
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
    return _Parser(_tokenize(text)).circuit()


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


def test_scanner_agrees_with_token_parser_on_formatted_circuits():
    rng = random.Random(31)
    for _ in range(600):
        text = formatted_circuit(rng)
        assert _scan(text) is not None, repr(text)
        want = outcome(token_parse, text)
        assert not isinstance(want[0], type), repr(text)
        assert outcome(parse, text) == want, repr(text)
        for _ in range(4):
            bad = mutated(rng, text)
            assert outcome(parse, bad) == outcome(token_parse, bad), repr(bad)
