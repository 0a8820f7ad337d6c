"""Text format for interferometer chains, with parser and evaluator.

Grammar:

    circuit  := stage { ";" stage } [ ";" ]
    stage    := name "(" [ arg { "," arg } ] ")"
    name     := "rotate" | "split" | "phase" | "atten"
              | "squeeze" | "decohere"
    arg      := ident "=" number [ "deg" ]

The stage names, their parameters and what each stage does come from
one table, STAGES; the grammar above lists its keys.

"#" starts a comment running to end of line; whitespace is
insignificant. Numbers are plain decimal floats with ASCII digits;
"deg" on an angle converts to radians at parse time. Stage order in
the text is the order the beam meets the elements.

Parsing normalizes every stage to a fixed set of radian-valued
parameters (split's ratio becomes the equivalent mixer angle), so
unparse emits a canonical text and parse(unparse(ast)) == ast. All
rejections carry a 1-based line:column location; no input text can
crash the parser. The format is versioned as "circuit-v1".

A stage scanner parses every valid text, one stage at a time. It looks
each stage up by its signature, the name and argument names in either
order, in a table built from STAGES, and checks the stage in place.
Rejected text goes whole to a token parser, which locates the error; it
gives the same AST for valid text, and tests use it as the reference.
"""

import functools
import itertools
import math
import operator
import re
from typing import NamedTuple

from . import decoherence, littlegroup
from .states import (
    CoherencyMatrix,
    JonesVector,
    NonFiniteError,
    PhysicsError,
    StokesVector,
    CLASSIFY_TOL,
    _Record,
    _SQUARE_MAX,
    _SQUARE_MIN,
    _check_coherency,
    _conjugated,
    _conjugation,
    _mul2,
    _outer,
    coherency_from_jones,
    coherency_from_stokes,
    conjugate,  # noqa: F401  perfbench's tracer rebinds conjugate here and asserts it is wrapped
    purity_report,
    stokes_from_coherency,
)
from .elements import _attenuator, _phase_shifter, _rotator, _squeezer, split_angle

__all__ = [
    "CIRCUIT_FORMAT",
    "CircuitError",
    "CircuitSyntaxError",
    "CircuitSemanticError",
    "StageKind",
    "STAGES",
    "Stage",
    "CircuitAst",
    "StageRecord",
    "SimulationReport",
    "parse",
    "unparse",
    "evaluate",
]

CIRCUIT_FORMAT = "circuit-v1"


class CircuitError(ValueError):
    """A located rejection of circuit text or stage parameters."""

    def __init__(self, message, line, col):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class CircuitSyntaxError(CircuitError):
    """The text does not match the grammar."""


class CircuitSemanticError(CircuitError):
    """Grammatical text with a bad parameter or stage failure."""

    exit_code = 3  # the command line's code for a semantic error


class StageKind(NamedTuple):
    """The vocabulary entry of one stage name.

    params are the canonical parameter names in order; angles take an
    optional "deg"; nonnegative must not be negative. alias is an
    optional (name, convert) pair: the stage also accepts that
    parameter in place of params[0] and converts its value to it.
    action maps the canonical values to the row-major complex entries
    (alpha, beta, gamma, delta) of the stage's Jones matrix M: those the
    elements module's constructor of the kind wraps in an Element2, or
    atten's unfactored diag(e^-eta1, e^-eta2); a channel, which has no
    such form, has action None.
    """

    params: tuple
    angles: tuple = ()
    nonnegative: tuple = ()
    alias: tuple | None = None
    action: object = None


# Each action is the elements module's entries function of its kind, the
# one its public constructor wraps (attenuator runs only its checks);
# evaluate and the command line's lift call it and build no Element2. So a
# tracer that wraps rotator and friends counts no calls from evaluate: the
# records are not built, and the entries' arithmetic counts in evaluate's time.
STAGES = {
    "rotate": StageKind(("theta",), angles=("theta",), action=_rotator),
    "split": StageKind(("theta",), angles=("theta",), alias=("ratio", split_angle), action=_rotator),
    "phase": StageKind(("phi",), angles=("phi",), action=_phase_shifter),
    "atten": StageKind(("eta1", "eta2"), nonnegative=("eta1", "eta2"), action=_attenuator),
    "squeeze": StageKind(("eta",), action=_squeezer),
    "decohere": StageKind(("lambda",), nonnegative=("lambda",)),
}

# A stage parameter's value, read from its (name, value) pair.
_value = operator.itemgetter(1)


def _unknown_element(name):
    return f"unknown element '{name}' (one of {', '.join(STAGES)})"


class Stage(_Record, compare=("name", "params")):
    """One element of a circuit, with canonical radian parameters.

    Locations take no part in equality, so structurally identical
    circuits compare equal regardless of layout. A stage keeps nothing
    else: evaluate reads its numbers through _action.
    """

    name: str
    params: tuple
    line: int = 0
    col: int = 0

    def arg(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


class CircuitAst(_Record):
    """A parsed circuit, its stages in beam order. evaluate keeps the
    circuit's compiled segments in the instance __dict__, outside the
    compared field: the circuit's one memo.

    A stage of a known kind must name its kind's parameters, in order;
    else a located CircuitSemanticError. The parser builds through
    _checked, so no parse runs this; an unknown stage name fails at
    evaluate."""

    stages: tuple

    def __post_init__(self):
        vars(self)["stages"] = tuple(self.stages)
        for stage in self.stages:
            if not isinstance(stage, Stage):
                raise TypeError("CircuitAst stages must be Stage instances")
            kind = STAGES.get(stage.name)
            if kind and tuple(key for key, _ in stage.params) != kind.params:
                message = f"{stage.name} takes {', '.join(kind.params)}"
                raise CircuitSemanticError(message, stage.line, stage.col)


class _Arg(NamedTuple):
    name: str
    value: float
    line: int
    col: int
    deg: bool


def _validate_stage(name, args, line, col):
    kind = STAGES[name]
    alias, convert = kind.alias or (None, None)
    seen = {}
    for a in args:
        if a.name in seen:
            raise CircuitSemanticError(f"duplicate argument '{a.name}'", a.line, a.col)
        seen[a.name] = a
    for a in args:
        if a.name not in kind.params and a.name != alias:
            raise CircuitSemanticError(f"unknown argument '{a.name}' for {name}", a.line, a.col)
        if a.deg and a.name not in kind.angles:
            raise CircuitSemanticError(f"'deg' does not apply to {a.name}", a.line, a.col)

    first = kind.params[0]
    if alias in seen:
        if first in seen:
            raise CircuitSemanticError(f"{name} takes {first} or {alias}, not both", line, col)
        a = seen[alias]
        try:
            seen[first] = a._replace(name=first, value=convert(a.value))
        except PhysicsError as err:
            raise CircuitSemanticError(str(err), a.line, a.col) from None

    params = []
    for key in kind.params:
        a = seen.get(key)
        if a is None:
            either = f" or {alias}" if alias and key == first else ""
            raise CircuitSemanticError(f"{name} requires {key}{either}", line, col)
        if a.value < 0.0 and key in kind.nonnegative:
            raise CircuitSemanticError(f"{key} must be nonnegative", a.line, a.col)
        params.append((key, math.radians(a.value) if a.deg else a.value))
    return tuple(params)


# The lexical rules, each written once for the stage scanner and the
# tokenizer. _GAP is whitespace and comments. A comment runs to the end of
# its line, so a gap splits into whitespace and comments one way only and
# its quantifiers can be possessive: a failed match never backtracks into
# a gap, because nothing that may follow one starts with whitespace or "#".
_GAP = r"[ \t\n\r\f\v]*+(?:#[^\n]*+[ \t\n\r\f\v]*+)*+"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NUM = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

# The stage scanner: one match per well-formed stage, including the
# separator after it. A stage has at most two arguments; anything else is
# left to the token parser.
_SCAN_ARG = rf"({_IDENT}){_GAP}={_GAP}({_NUM})(?:{_GAP}(deg))?{_GAP}"
_STAGE_RE = re.compile(
    rf"{_GAP}({_IDENT}){_GAP}\({_GAP}"
    rf"(?:{_SCAN_ARG}(?:,{_GAP}{_SCAN_ARG})?)?\){_GAP}(;|\Z)"
)
_END_RE = re.compile(rf"{_GAP}\Z")

# The tokenizer, one alternative per token kind. _GAP can match empty, so
# it comes after the kinds that need a character; where nothing starts,
# finditer takes its empty match and then, at the same place, "bad".
_TOKEN = rf"(?P<ident>{_IDENT})|(?P<number>{_NUM})|(?P<sym>[;(),=])|(?P<gap>{_GAP})|(?P<bad>.)"


@functools.cache
def _token_re():
    # Only rejected text is tokenized, so the pattern compiles on first use.
    return re.compile(_TOKEN)


def _signatures():
    """{(name, first argument, second argument): per-argument checks}.

    One entry per order of each argument-name set a kind takes: its
    parameters, and its alias in place of the first; with at most two
    parameters, a set and its reverse. An argument's check is (canonical
    position, canonical name, takes deg, must be nonnegative, convert or
    None), read from the StageKind fields that _validate_stage reads; a
    missing second argument is None. A kind with more parameters gets
    longer keys, which no stage _STAGE_RE matches can hit.
    """
    table = {}
    for name, kind in STAGES.items():
        first = kind.params[0]
        check = {key: (i, key, key in kind.angles, key in kind.nonnegative, None)
                 for i, key in enumerate(kind.params)}
        names = [kind.params]
        if kind.alias:
            alias, convert = kind.alias
            check[alias] = (0, first, alias in kind.angles, first in kind.nonnegative, convert)
            names.append((alias, *kind.params[1:]))
        for keys in names:
            for order in itertools.permutations(keys):
                table[(name, *order) + (None,) * (2 - len(order))] = tuple(map(check.get, order))
    return table


_SIGNATURES = _signatures()


def _scan(text):
    """The AST of valid text, else None.

    Every stage's argument names must be a signature in _SIGNATURES (its
    kind's parameters, or its alias for the first, in either order); the
    stage is checked in place and each value goes to its canonical
    position. Arguments carry no location, so rejected text returns None
    and the token parser locates its error. After a ";" the text may end
    in a gap, which is tested for only where no stage matches. The
    records are built through _checked: their fields have exact types by
    construction.
    """
    stages = []
    pos = mark = 0
    line, line_start = 1, -1
    while True:
        m = _STAGE_RE.match(text, pos)
        if m is None:  # after at least one stage, and so after a ";"
            return CircuitAst._checked(tuple(stages)) if stages and _END_RE.match(text, pos) else None
        name, n1, v1, d1, n2, v2, d2, sep = m.groups()
        start = m.start(1)
        line += text.count("\n", mark, start)
        newline = text.rfind("\n", mark, start)
        if newline >= 0:
            line_start = newline
        mark = start
        col = start - line_start
        checks = _SIGNATURES.get((name, n1, n2))
        if checks is None:
            return None
        params = [None] * len(checks)
        number, deg = v1, d1
        for i, key, angle, nonnegative, convert in checks:
            value = float(number)
            if not math.isfinite(value) or deg and not angle:
                return None
            if convert:
                try:
                    value = convert(value)
                except PhysicsError:
                    return None
            if nonnegative and value < 0.0:
                return None
            params[i] = (key, math.radians(value) if deg else value)
            number, deg = v2, d2  # the next check is the second argument's
        stages.append(Stage._checked(name, tuple(params), line, col))
        if not sep:
            return CircuitAst._checked(tuple(stages))
        pos = m.end()


def _parse_tokens(text):
    """The AST of text parsed token by token; the located error if rejected.

    The whole text is tokenized first, so an unexpected character is
    reported before any grammar error. Tokens are (kind, text, line, col).
    """
    tokens = []
    line, line_start = 1, -1
    for m in _token_re().finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind == "gap":
            line += text.count("\n", start, m.end())
            line_start = max(line_start, text.rfind("\n", start, m.end()))
        elif kind == "bad":
            raise CircuitSyntaxError(f"unexpected character {m.group()!r}", line, start - line_start)
        else:
            tokens.append((kind, m.group(), line, start - line_start))
    tokens.append(("end", "", line, len(text) - line_start))
    pos = 0

    def take(kind, texts=None, message=None):
        # The next token if it is a kind (with a text in texts); else
        # raise message at it, or return None when there is none.
        nonlocal pos
        tok = tokens[pos]
        if tok[0] == kind and (texts is None or tok[1] in texts):
            pos += 1
            return tok
        if message:
            raise CircuitSyntaxError(message, *tok[2:])
        return None

    def arg():
        _, name, line, col = take("ident", None, "expected argument name")
        take("sym", "=", "expected '='")
        number = take("number", None, "expected a number")
        unit = take("ident")
        if unit and unit[1] != "deg":
            raise CircuitSyntaxError("expected 'deg', ',' or ')'", *unit[2:])
        value = float(number[1])
        if not math.isfinite(value):
            raise CircuitSemanticError("number out of range", *number[2:])
        return _Arg(name, value, line, col, unit is not None)

    stages = []
    while True:
        _, name, line, col = take("ident", None, "expected stage name")
        if name not in STAGES:
            raise CircuitSyntaxError(_unknown_element(name), line, col)
        take("sym", "(", "expected '('")
        args = []
        if not take("sym", ")"):
            args.append(arg())
            while take("sym", ",)", "expected ',' or ')'")[1] == ",":
                args.append(arg())
        stages.append(Stage(name, _validate_stage(name, args, line, col), line, col))
        if take("end") or take("sym", ";", "expected ';' or end of input") and take("end"):
            return CircuitAst(tuple(stages))


def parse(text) -> CircuitAst:
    """Parse circuit text; raise a located CircuitError on rejection.

    Valid text is matched stage by stage with one regular expression and
    checked from the signature table. Rejected text is parsed again by
    the token parser, which locates the error.
    """
    if not isinstance(text, str):
        raise TypeError("circuit text must be str")
    ast = _scan(text)
    if ast is None:
        ast = _parse_tokens(text)
    return ast


def unparse(ast: CircuitAst) -> str:
    """Canonical text of an AST; parse(unparse(ast)) == ast."""
    parts = []
    for stage in ast.stages:
        inner = ", ".join(f"{key}={float(value)!r}" for key, value in stage.params)
        parts.append(f"{stage.name}({inner})")
    return "; ".join(parts)


class StageRecord(NamedTuple):
    """One stage of an evaluation: the coherency matrices before and after it.

    evaluate builds a report's records when its stages are first read.
    stokes_before, stokes_after, purity_after and classification_after
    are computed when read, with the tol given to evaluate.
    """

    stage: str
    params: tuple
    coherency_before: CoherencyMatrix
    coherency_after: CoherencyMatrix
    tol: float

    @property
    def stokes_before(self):
        return stokes_from_coherency(self.coherency_before)

    @property
    def stokes_after(self):
        return stokes_from_coherency(self.coherency_after)

    @property
    def purity_after(self):
        return purity_report(self.coherency_after)

    @property
    def classification_after(self):
        return littlegroup.classify(self.stokes_after, self.tol)


class SimulationReport(_Record):
    """Stage-by-stage history of a circuit evaluation.

    final_jones is populated only when the input carried amplitudes
    and no decoherence stage ran; a mixed state has no amplitude
    representation, so the track is dropped at the first decohere.
    A report evaluate returns holds the entries it carried: after each
    stage the stage loop ran, and after each segment the fold ran. Its
    stages, and final_purity, are built from them on the first read and
    kept (see evaluate).
    """

    circuit_format: str
    input_stokes: StokesVector
    input_jones: JonesVector | None
    stages: tuple
    final_stokes: StokesVector
    final_coherency: CoherencyMatrix
    final_jones: JonesVector | None
    final_purity: tuple
    final_classification: object

    def __getattr__(self, name):  # only where normal lookup fails
        trail = vars(self).get("_trail") if name in ("stages", "final_purity") else None
        if trail is None:
            raise AttributeError(f"'SimulationReport' object has no attribute {name!r}")
        stages, tol, first, entries, last, fold = trail
        if name == "final_purity":
            return vars(self).setdefault(name, purity_report(last))
        if fold:
            entries = _between(stages, first, entries, fold)
        matrices = [first, *(CoherencyMatrix._checked(*e) for e in entries[:-1]), last]
        steps = zip(stages, matrices, matrices[1:])
        records = tuple(StageRecord(st.name, st.params, c0, c1, tol) for st, c0, c1 in steps)
        return vars(self).setdefault("stages", records)  # the first stored, if two threads race


def evaluate(ast: CircuitAst, inp, tol=CLASSIFY_TOL) -> SimulationReport:
    """Push a state through the circuit, segment by segment; its stage records are built when read.

    The state is the coherency matrix, carried as its entries. Every stage
    is linear, so the circuit is compiled once, by the first evaluate that
    needs it, into alternating segments kept on the AST (_segments). A
    maximal run of coherent stages is one Jones matrix M = M_k ... M_1,
    the product of its stages' STAGES actions (a run of one is its
    stage's action): the state goes through conjugate's formula,
    C -> M C M+, and the new entries pass the CoherencyMatrix checks, its
    gate, and the underflow test, once per segment. A run of decohere
    stages scales s12 by each stage's e^-2 lambda in turn, as the stage
    loop does, with no gate: s11 and s22 stay, and with e^-2 lambda in
    [0, 1] no rounded part of s12 grows, so entries that passed the gate
    pass it again.

    A Jones input first runs the stage loop on its amplitudes, up to its
    first decohere: psi -> conj(M) psi per stage, the entries their outer
    product, so a pure state stays pure to rounding however long the
    chain. An outer product whose size s11 + s22 lies in [_SQUARE_MIN,
    _SQUARE_MAX] always passes the gate, which is not run there; any other
    size takes the gate and the underflow test. Without a decohere that is
    the whole evaluation, and one JonesVector is built from the amplitudes
    for the report; with one, the state joins the fold at its segment.

    The range guard: a coherent segment keeps bounds on the gain in size
    over the products P of its first j actions, max |P|_F^2 and
    min |det P|^2 / |P|_F^2. Where the size before it times both stays in
    [_SQUARE_MIN, _SQUARE_MAX], none of its stages overflows or
    underflows. Where the size leaves that range, or the gate or the
    underflow test fails after a segment, evaluate runs the stage loop
    instead, from where the fold began, and returns or raises exactly
    what that loop does from the input: a stage failure re-raises as a
    located CircuitSemanticError, and overflow and an intensity that
    underflows to zero say so. A final class that overflows is located at
    the last stage. The result depends only on the circuit, the input and
    tol.

    The StageRecords, and the matrices between stages, are built on the
    first read of the report's stages, and final_purity on its first
    read. Within each folded segment the stage loop runs again, with its
    gates, from the fold's state before the segment, and the segment's
    last record holds the fold's state after it, so
    stages[-1].coherency_after is final_coherency; a gate that fails there
    raises its located error from the read. The segments are the only
    memo: the stage loop reads each stage's numbers again through
    _action, on the amplitude track and on a records read alike, and
    builds no Element2.
    """
    if isinstance(inp, JonesVector):
        p1, p2 = inp.psi1, inp.psi2
        first = coherency_from_jones(inp)
        input_jones = inp
    elif isinstance(inp, StokesVector):
        p1 = p2 = input_jones = None
        first = coherency_from_stokes(inp, tol)
    else:
        raise TypeError("input must be a JonesVector or StokesVector")
    input_stokes = stokes_from_coherency(first)
    if first.trace <= 0.0:
        dark = not (inp.psi1 or inp.psi2) if input_jones else inp.s0 == 0.0
        underflow = "" if dark else " (it underflows to zero)"
        raise PhysicsError(f"evaluation requires positive input intensity{underflow}")
    stages, trail, fold = ast.stages, [], None
    s11, s22, s12 = first.s11, first.s22, first.s12
    if p1 is not None:
        s11, s22, s12, p1, p2 = _walk(stages, trail, s11, s22, s12, p1, p2)
    ran = len(trail)
    if ran < len(stages):  # a Stokes input, or the amplitude track stopped at a decohere
        segments = _segments(ast)
        fold = segments[1:] if ran else segments  # the amplitude track ran segment 0
        state = _fold(fold, trail, s11, s22, s12)
        if state is None:
            del trail[ran:]
            fold = None
            state = _walk(stages[ran:], trail, s11, s22, s12)
        s11, s22, s12, p1, p2 = state
    last = CoherencyMatrix._checked(s11, s22, s12) if trail else first
    final_stokes = stokes_from_coherency(last)
    report = SimulationReport.__new__(SimulationReport)  # _trail in place of stages
    vars(report).update(
        circuit_format=CIRCUIT_FORMAT,
        input_stokes=input_stokes,
        input_jones=input_jones,
        _trail=(stages, tol, first, trail, last, fold),
        final_stokes=final_stokes,
        final_coherency=last,
        final_jones=None if p1 is None else JonesVector(p1, p2),
        final_classification=_classify_at(stages[-1] if stages else None, final_stokes, tol),
    )
    return report


def _walk(stages, trail, s11, s22, s12, p1=None, p2=None):
    """The stage loop: the state (s11, s22, s12, p1, p2) after stages, from
    that one, each stage's entries appended to trail. With amplitudes p1,
    p2 it stops before the first decohere stage, whose state has none."""
    for stage in stages:
        try:
            step = _action(stage)
            if step.__class__ is float:  # decohere's e^-2 lambda; its result needs no gate
                if p1 is not None:
                    break
                s12 = complex(step * s12.real, step * s12.imag)
            else:
                if p1 is None:
                    s11, s22, s12 = _conjugated(s11, s22, s12, _conjugation(step))
                else:  # psi -> conj(M) psi
                    a, b, c, d = step
                    p1, p2 = a.conjugate() * p1 + b.conjugate() * p2, c.conjugate() * p1 + d.conjugate() * p2
                    s11, s22, s12 = _outer(p1, p2)
                if p1 is None or not _SQUARE_MIN <= s11 + s22 <= _SQUARE_MAX:  # else it always passes
                    _check_coherency(s11, s22, s12)
                    if s11 + s22 <= 0.0:
                        raise PhysicsError("beam attenuated to zero intensity (underflow)")
        except NonFiniteError as err:
            raise CircuitSemanticError(
                f"stage {stage.name}: beam intensity overflowed", stage.line, stage.col
            ) from err
        except PhysicsError as err:
            raise CircuitSemanticError(
                f"stage {stage.name}: {err}", stage.line, stage.col
            ) from err
        trail.append((s11, s22, s12))
    return s11, s22, s12, p1, p2


def _action(stage):
    """stage's numbers: the four entries of its STAGES action's M, or, for
    decohere, the one channel, its float e^-2 lambda. Every reader of a
    stage's numbers calls this; nothing is kept."""
    kind = STAGES.get(stage.name)
    if kind is None:
        raise PhysicsError(_unknown_element(stage.name))
    return (kind.action or decoherence._decay)(*map(_value, stage.params))


def _segments(ast):
    """The AST's segments, compiled on first use and kept in its __dict__
    as _segments, outside the compared fields; if two threads race, both
    read the one stored first."""
    segments = vars(ast).get("_segments")
    if segments is None:
        segments = vars(ast).setdefault("_segments", _compile(ast.stages))
    return segments


def _compile(stages):
    """(first stage's index, step, low, high) per maximal run of coherent
    or of decohere stages. A coherent run's step is the conjugation
    constants of its M, and low and high its range of gain; a decohere
    run's is the tuple of its stages' e^-2 lambda, and its range None. A
    run that fails to compile has step None and a NaN range, which no
    state passes, so the stage loop reports its failure. One whose
    product is not finite fails the range (inf) or, by NaN constants, the
    gate."""
    segments, start = [], 0
    for channel, run in itertools.groupby(stages, lambda stage: stage.name == "decohere"):
        run = tuple(run)
        try:
            if channel:
                segment = tuple(map(_action, run)), None, None
            else:
                segment = _product(run)
        except (ArithmeticError, LookupError, TypeError, ValueError):  # the stage loop raises it, located
            segment = None, math.nan, math.nan
        segments.append((start, *segment))
        start += len(run)
    return tuple(segments)


def _product(run):
    """The conjugation constants of M = M_k ... M_1, the product of run's
    actions by _mul2 (M_1 itself for a run of one), and over its prefix
    products P, min |det P|^2 / |P|_F^2 and max |P|_F^2, with det P the
    product of the actions' determinants."""
    p, det, low, high = None, 1.0, math.inf, 0.0
    for stage in run:
        a, b, c, d = m = _action(stage)
        det *= abs(a * d - b * c)
        p = m if p is None else _mul2(m, p)
        norm = sum(x.real * x.real + x.imag * x.imag for x in p)
        low, high = min(low, det * det / norm), max(high, norm)
    return _conjugation(p), low, high


def _fold(segments, trail, s11, s22, s12):
    """The state (s11, s22, s12, None, None) after segments, from entries
    s11, s22, s12, each segment's entries appended to trail; None where the
    state leaves a segment's range, or the gate or the underflow test
    fails on a segment's entries."""
    for _, step, low, high in segments:
        if low is None:  # a decohere run: its result needs no gate
            for k in step:
                s12 = complex(k * s12.real, k * s12.imag)
        else:
            size = s11 + s22
            if not (_SQUARE_MIN <= size * low and size * high <= _SQUARE_MAX):
                return None
            s11, s22, s12 = _conjugated(s11, s22, s12, step)
            try:
                _check_coherency(s11, s22, s12)
            except PhysicsError:
                return None
            if s11 + s22 <= 0.0:
                return None
        trail.append((s11, s22, s12))
    return s11, s22, s12, None, None


def _between(stages, first, entries, fold):
    """The entries after each stage, from evaluate's trail: those the stage
    loop appended, then one per segment in fold. The stages of each such
    segment but its last run the stage loop again, with its gates, from
    the fold's entries before the segment; the last's are the fold's."""
    ran = len(entries) - len(fold)
    out = entries[:ran]
    state = out[-1] if out else (first.s11, first.s22, first.s12)
    stops = [segment[0] for segment in fold[1:]] + [len(stages)]
    for (start, *_), stop, state_after in zip(fold, stops, entries[ran:]):
        _walk(stages[start:stop - 1], out, *state)
        out.append(state_after)
        state = state_after
    return out


def _classify_at(stage, stokes, tol):
    """classify the state after stage, locating an overflow there (stage None: the input)."""
    try:
        return littlegroup.classify(stokes, tol)
    except NonFiniteError as err:
        if stage is None:
            raise
        raise CircuitSemanticError(f"stage {stage.name}: {err}", stage.line, stage.col) from err
