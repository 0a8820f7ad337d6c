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
from itertools import groupby, repeat
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
from twobeam import circuit, decoherence, states
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


def test_an_input_whose_intensity_underflows_is_named():
    # |1e-200|^2 and 5e-324 / 2 round to 0: the input is not dark, yet its
    # coherency trace is 0. A dark input keeps the plain message.
    ast = parse("rotate(theta=0.3)")
    message = "evaluation requires positive input intensity"
    for inp, said in (
        (JonesVector(1e-200, 0.0), f"{message} (it underflows to zero)"),
        (JonesVector(0.0, 1e-170j), f"{message} (it underflows to zero)"),
        (StokesVector(5e-324, 0.0, 0.0, 0.0), f"{message} (it underflows to zero)"),
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
    for text, mutations in formatted_corpus():
        # Every valid text is scanned, atten's arguments in either order;
        # the scanner takes a mutation exactly when it is still valid.
        assert _scan(text) is not None, repr(text)
        want = outcome(token_parse, text)
        assert not isinstance(want[0], type), repr(text)
        assert outcome(parse, text) == want, repr(text)
        for bad in mutations:
            want = outcome(token_parse, bad)
            assert outcome(parse, bad) == want, repr(bad)
            assert (_scan(bad) is None) == isinstance(want[0], type), repr(bad)


def test_scanner_ends_where_the_token_parser_does():
    # The scanner tests for the end of the text only where no stage
    # matches after a ";". A trailing comment may hold stage text; ";;" and
    # text that is all gap are rejected, the token parser locating why.
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
    rng = random.Random(909)
    for _ in range(40):
        text = decohering_circuit(rng)
        ast = parse(text)
        for inp in random_inputs(rng):
            assert evaluate(ast, inp) == evaluate(ast, inp) == evaluate(parse(text), inp)
    # Each call of a STAGES action computes one stage's entries.
    built = []
    for name, kind in circuit.STAGES.items():
        if kind.action:
            counted = lambda *a, make=kind.action: built.append(a) or make(*a)
            monkeypatch.setitem(circuit.STAGES, name, kind._replace(action=counted))
    ast = parse("rotate(theta=0.3); phase(phi=0.2); squeeze(eta=0.1); atten(eta1=0.1, eta2=0.2)")
    jones, _, mixed = random_inputs(rng)
    first = evaluate(ast, jones)
    assert len(built) == 4
    # The amplitude track keeps nothing, so a repeat computes its entries again.
    assert evaluate(ast, jones) == first
    assert len(built) == 8
    second = evaluate(ast, mixed)
    assert len(built) == 12
    # The first Stokes-input evaluation compiles the segments, each stage's
    # entries once, and keeps them on the AST. A read of records runs the
    # stage loop over the segment's stages but its last, and a stage keeps
    # nothing, so each such read computes those three stages' entries. A
    # later evaluation calls no action; == reads both reports' stages,
    # the new report's for the first time: three more. No path reads
    # element entries.
    assert len(second.stages) == 4 and len(built) == 15
    read = []
    entries2 = states._entries2
    monkeypatch.setattr(states, "_entries2", lambda *a: read.append(a) or entries2(*a))
    assert evaluate(ast, mixed) == second
    assert len(built) == 18 and read == []
    # The segments keep each decohere run's e^-2 lambda: a second
    # Stokes-input evaluation computes no constant, and no stage calls
    # decohere_channel. The first Jones-input one computes rotate's entries
    # on the amplitude track and the first decohere's e^-2 lambda, where
    # that track stops, and then compiles the segments, each stage's
    # entries or e^-2 lambda once; a repeat computes again what it meets
    # before its first decohere, that decohere's e^-2 lambda too. Every
    # segment is a run of one, so a read of records walks no stage.
    decays, channel = [], []
    decay = decoherence._decay
    monkeypatch.setattr(decoherence, "_decay", lambda *a: decays.append(a) or decay(*a))
    monkeypatch.setattr(decoherence, "decohere_channel", lambda *a: channel.append(a))
    ast = parse("rotate(theta=0.4); decohere(lambda=0.5); squeeze(eta=0.2); decohere(lambda=30)")
    first = [evaluate(ast, inp) for inp in (jones, mixed)]
    assert len(built) == 21 and decays == [(0.5,), (0.5,), (30.0,)]
    del read[:]
    assert evaluate(ast, mixed) == first[1]
    assert len(built) == 21 and len(decays) == 3 and read == [] and channel == []
    assert evaluate(ast, jones) == first[0]
    assert len(built) == 22 and decays[3:] == [(0.5,)] and channel == []


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


def test_evaluate_builds_records_on_first_read(monkeypatch):
    # evaluate carries plain entries and gates each at most once: it runs
    # the coherency checks once for the input and once per coherent
    # segment it folds, after the segment's last stage, and builds one
    # checked matrix, the input's. On the amplitude track, before the first
    # decohere, an outer product whose size is in the gate's plain range
    # is not gated, since it always passes; nor is a decohere segment's
    # output, which passes wherever its input did. Reading .stages builds
    # the records, and the matrices between stages, once: within each
    # folded coherent segment it gates the state after each stage but the
    # last, walked from the fold's state before the segment, and checks
    # nothing else again.
    rng = random.Random(1111)
    built, checked = [], []
    post_init, check = CoherencyMatrix.__post_init__, states._check_coherency
    monkeypatch.setattr(CoherencyMatrix, "__post_init__", lambda c: built.append(c) or post_init(c))

    def counted(*entries):
        checked.append(entries)
        return check(*entries)

    monkeypatch.setattr(states, "_check_coherency", counted)
    monkeypatch.setattr(circuit, "_check_coherency", counted)
    for _ in range(10):
        ast = parse(decohering_circuit(rng))
        names = [st.name for st in ast.stages]
        # Stages the amplitude track runs: those before the first decohere.
        coherent = names.index("decohere")
        # The segments, as indices into the matrices, the input's first.
        runs = [list(run) for _, run in groupby(range(1, len(names) + 1),
                                                lambda i: names[i - 1] == "decohere")]
        for inp in random_inputs(rng):
            skipped = coherent if isinstance(inp, JonesVector) else 0
            folded = [run for run in runs if run[0] > skipped and names[run[0] - 1] != "decohere"]
            gates = [0] + [run[-1] for run in folded]
            walked = [i for run in folded for i in run[:-1]]
            del built[:], checked[:]
            report = evaluate(ast, inp)
            assert len(checked) == len(gates) and len(built) == 1
            stages = report.stages
            assert len(stages) == len(ast.stages)
            assert len(checked) == len(gates) + len(walked) and len(built) == 1
            assert built[0] is stages[0].coherency_before
            assert stages[-1].coherency_after is report.final_coherency
            assert all(a.coherency_after is b.coherency_before for a, b in zip(stages, stages[1:]))
            assert report.stages is stages and len(checked) == len(gates) + len(walked)
            matrices = [built[0], *(r.coherency_after for r in stages)]
            entries = [(c.s11, c.s22, c.s12) for c in matrices]
            assert [entries[i] for i in gates + walked] == checked
            for s11, s22, s12 in entries[1:1 + skipped]:
                assert states._SQUARE_MIN <= s11 + s22 <= states._SQUARE_MAX
            for i in set(range(len(entries))) - set(gates) - set(walked):
                check(*entries[i])
    monkeypatch.undo()
    # A report whose stages were never read behaves as one built eagerly.
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
    # A gate that rejects the fold's entries, as a spurious rejection
    # would, sends evaluate to the stage loop from the input: the report is
    # the loop's, record for record, and a rejection is the loop's located
    # error, at the first stage whose gate fails.
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
    assert report.final_coherency == want[-1] and len(calls) == 4  # the fold's, then the loop's three
    everywhere = True
    with pytest.raises(CircuitSemanticError) as err:
        evaluate(ast, inp)
    assert (err.value.line, err.value.col) == (1, 23)
    assert err.value.message == "stage rotate: coherency matrix must be positive semidefinite: det = -1"


def test_repeat_evaluate_computes_no_constants_and_purity_on_read(monkeypatch):
    # The AST keeps its segments, each coherent one's conjugation constants
    # computed once: after a Stokes-input evaluate, a Jones-input one of the
    # same AST computes no conjugation constants, whether its stages run on
    # amplitudes (before decohere) or in the fold (after it); nor does any
    # repeat. The amplitudes read conj(M)'s entries alone, and no stage
    # keeps anything, whichever path runs it: the AST keeps its segments
    # alone.
    computed = []
    conjugation = states._conjugation

    def counted(g):
        computed.append(g)
        return conjugation(g)

    monkeypatch.setattr(states, "_conjugation", counted)
    monkeypatch.setattr(circuit, "_conjugation", counted)
    ast = parse("rotate(theta=0.3); atten(eta1=0.1, eta2=0.2); squeeze(eta=0.4); decohere(lambda=0.2); "
                "phase(phi=0.5); split(ratio=0.3)")
    stokes, jones = StokesVector(1.0, 0.2, 0.3, 0.1), JonesVector(1 + 1j, 0.5)
    fresh = {inp: evaluate(parse(unparse(ast)), inp) for inp in (stokes, jones)}
    assert all(len(report.stages) == 6 for report in fresh.values())
    jones_ast = parse(unparse(ast))
    evaluate(jones_ast, jones)
    assert [list(vars(st))[4:] for st in jones_ast.stages] == [[]] * 6
    assert list(vars(jones_ast)) == ["stages", "_segments"]
    del computed[:]
    first = evaluate(ast, stokes)
    assert len(computed) == 2
    del computed[:]
    reports = [evaluate(ast, inp) for inp in (jones, stokes, jones)]
    assert computed == []
    # A read of records runs the stage loop over each folded segment's
    # stages but its last and computes their constants again: a Stokes
    # input's read walks rotate, atten and phase (3), a Jones input's, whose
    # amplitudes ran the first segment, phase alone (1). == reads the stages
    # of both reports, and the fresh ones' were read above: 1 + 3 + 1 + 3.
    assert reports == [fresh[inp] for inp in (jones, stokes, jones)] and first == fresh[stokes]
    assert len(computed) == 8
    assert evaluate(ast, stokes).stages == first.stages and len(computed) == 11
    # final_purity is built on its first read, and kept.
    for inp in (stokes, jones):
        report = evaluate(ast, inp)
        assert "final_purity" not in vars(report)
        purity = report.final_purity
        assert purity == purity_report(report.final_coherency)
        assert report.final_purity is purity is vars(report)["final_purity"]
