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
import sys
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
    action maps the canonical values, which a CircuitAst has checked, to
    the row-major complex entries (alpha, beta, gamma, delta) of the
    stage's Jones matrix M: those the elements module's constructor of
    the kind wraps in an Element2, or atten's unfactored diag(e^-eta1,
    e^-eta2); a channel, which has no such form, has action None.
    """

    params: tuple
    angles: tuple = ()
    nonnegative: tuple = ()
    alias: tuple | None = None
    action: object = None


# Each action is the entries function of its kind that the elements module's
# constructor checks a value for and wraps (attenuator factors the matrix);
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

    Each stage must be of a STAGES kind and name its kind's parameters,
    in order, each with a finite int or float value (not a bool),
    nonnegative where its kind says; else a CircuitSemanticError at the
    stage in the parser's words (inf, NaN and an int beyond the float
    range are "number out of range"). So the stage actions check nothing.
    The parser builds through _checked, so no parse runs this."""

    stages: tuple

    def __post_init__(self):
        vars(self)["stages"] = tuple(self.stages)
        for stage in self.stages:
            if not isinstance(stage, Stage):
                raise TypeError("CircuitAst stages must be Stage instances")
            kind, where = STAGES.get(stage.name), (stage.line, stage.col)
            if kind is None:
                raise CircuitSemanticError(_unknown_element(stage.name), *where)
            if tuple(key for key, _ in stage.params) != kind.params:
                raise CircuitSemanticError(f"{stage.name} takes {', '.join(kind.params)}", *where)
            for key, value in stage.params:
                if value.__class__ is bool or not isinstance(value, (int, float)):
                    raise CircuitSemanticError(f"{stage.name} {key} must be a real number", *where)
                try:
                    if not math.isfinite(value):
                        raise OverflowError
                except OverflowError:  # inf, NaN or an int beyond the float range
                    raise CircuitSemanticError("number out of range", *where) from None
            for key, value in stage.params:  # as the parser, after every value's range
                if value < 0.0 and key in kind.nonnegative:
                    raise CircuitSemanticError(f"{key} must be nonnegative", *where)


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

    final_jones is set where evaluate folded a Jones input's amplitudes:
    through a circuit with no decohere, unless the fold declined and the
    stage loop ran, which carries no amplitudes.
    A report evaluate returns holds the input's entries and those after
    each stage its stage loop ran. Its stages are built on the first read,
    the stage loop going on from there to the last stage, and
    final_purity is read from final_coherency; both are kept (see
    evaluate).
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
        if name == "final_purity":
            return vars(self).setdefault(name, purity_report(self.final_coherency))
        stages, tol, first, walked = trail
        entries = walked[:]  # where the fold ran, the stage loop goes on from the input
        _walk(stages[len(walked) - 1:-1], entries, *walked[-1])
        between = itertools.starmap(CoherencyMatrix._checked, entries[1:len(stages)])
        matrices = [first, *between, self.final_coherency]
        steps = zip(stages, matrices, matrices[1:])
        records = tuple(StageRecord(st.name, st.params, c0, c1, tol) for st, c0, c1 in steps)
        return vars(self).setdefault("stages", records)  # the first stored, if two threads race


def evaluate(ast: CircuitAst, inp, tol=CLASSIFY_TOL) -> SimulationReport:
    """Push a state through the circuit; its stage records are built when read.

    evaluate folds every input through the circuit's segments. Every
    stage is linear, so the circuit is compiled once, by the first
    evaluate, into alternating segments kept on the AST (_segments). A
    maximal run of coherent stages is one Jones matrix M = M_k ... M_1,
    the product of its stages' STAGES actions, kept as a matrix Q whose
    columns carry their own powers of two: M = Q diag(2^k1, 2^k2). A run
    of decohere stages is the tuple of its stages' e^-2 lambda. A Jones
    input through a circuit with no decohere, one coherent segment at
    most, folds its amplitudes, psi -> conj(M) psi, and the entries are
    their outer product, so a pure state stays pure however long the
    chain; final_jones is built from them. Every other input folds its
    coherency entries: a coherent segment takes them through conjugate's
    formula, C -> M C M+, and its gate and underflow test, once per
    segment; a decohere segment scales s12 by each e^-2 lambda in turn.
    The state carries its power of two beside its entries and applies it
    once, at the end. So an intermediate state beyond the float range
    costs nothing: squeeze(eta=800); squeeze(eta=-800) returns its input.

    Where a segment fails its gate or underflow test, a squeeze's own
    entries overflow, or the final trace is not a normal float at most
    _SQUARE_MAX (classify squares it), evaluate runs the stage loop from
    the input instead, and returns or raises exactly what it does: a
    stage failure re-raises as a located CircuitSemanticError, and
    overflow and an intensity that underflows to zero say so. A final
    class that overflows is located at the last stage. The result depends
    only on the circuit, the input and tol.

    The StageRecords, and the matrices between stages, are built on the
    first read of the report's stages, and final_purity on its first
    read. Where the fold ran, the read runs the stage loop, with its
    gates, from the input up to the last stage; where the stage loop ran,
    the read keeps its entries. So every record but the last is the stage
    loop's, whichever path evaluate took, and the last holds the final
    state: stages[-1].coherency_after is final_coherency. A gate that
    fails in the read raises its located error from the read, also where
    the fold returned a state the stage loop cannot reach. The segments
    are the only memo: the stage loop reads each stage's numbers again
    through _action and builds no Element2.
    """
    if isinstance(inp, JonesVector):
        psi, first, input_jones = (inp.psi1, inp.psi2), coherency_from_jones(inp), inp
    elif isinstance(inp, StokesVector):
        psi, first, input_jones = None, coherency_from_stokes(inp, tol), None
    else:
        raise TypeError("input must be a JonesVector or StokesVector")
    input_stokes = stokes_from_coherency(first)
    if first.trace <= 0.0:
        dark = not (inp.psi1 or inp.psi2) if input_jones else inp.s0 == 0.0
        underflow = "" if dark else " (it underflows to zero)"
        raise PhysicsError(f"evaluation requires positive input intensity{underflow}")
    stages, walked = ast.stages, [(first.s11, first.s22, first.s12)]
    try:
        folded = _fold(_segments(ast), *walked[0], psi)
    except NonFiniteError:  # a squeeze whose own entries overflow: the stage loop locates it
        folded = None
    s11, s22, s12, psi = folded or (*_walk(stages, walked, *walked[0]), None)
    last = CoherencyMatrix._checked(s11, s22, s12) if stages else first
    final_stokes = stokes_from_coherency(last)
    report = SimulationReport.__new__(SimulationReport)  # _trail in place of stages
    vars(report).update(
        circuit_format=CIRCUIT_FORMAT,
        input_stokes=input_stokes,
        input_jones=input_jones,
        _trail=(stages, tol, first, walked),
        final_stokes=final_stokes,
        final_coherency=last,
        final_jones=psi and JonesVector(*psi),
        final_classification=_classify_at(stages[-1] if stages else None, final_stokes, tol),
    )
    return report


def _walk(stages, trail, s11, s22, s12):
    """The stage loop: the entries (s11, s22, s12) after stages, from those,
    each stage's entries appended to trail; every coherent stage's pass
    the gate and the underflow test, and a failure raises located."""
    for stage in stages:
        try:
            step = _action(stage)
            if step.__class__ is float:  # decohere's e^-2 lambda; its result needs no gate
                s12 = complex(step * s12.real, step * s12.imag)
            else:
                s11, s22, s12 = _conjugated(s11, s22, s12, _conjugation(step))
                _check_coherency(s11, s22, s12)
                if s11 + s22 <= 0.0:
                    raise PhysicsError("beam attenuated to zero intensity (underflow)")
        except PhysicsError as err:
            message = "beam intensity overflowed" if isinstance(err, NonFiniteError) else err
            raise CircuitSemanticError(f"stage {stage.name}: {message}", stage.line, stage.col) from err
        trail.append((s11, s22, s12))
    return s11, s22, s12


def _action(stage):
    """stage's numbers: the four entries of its STAGES action's M, or, for
    decohere, the one channel, its float e^-2 lambda. Every reader of a
    stage's numbers calls this; nothing is kept."""
    return (STAGES[stage.name].action or decoherence._decay)(*map(_value, stage.params))


def _segments(ast):
    """The AST's segments, compiled on first use and kept in its __dict__
    as _segments, outside the compared fields; if two threads race, both
    read the one stored first. A compile that raises keeps nothing, and
    the empty circuit's empty tuple is compiled on every read."""
    return vars(ast).get("_segments") or vars(ast).setdefault("_segments", _compile(ast.stages))


def _compile(stages):
    """(step, k1, k2) per maximal run of coherent or of decohere stages: a
    coherent run's _product, and a decohere run's tuple of its stages'
    e^-2 lambda with k1 and k2 None. A squeeze whose entries overflow, the
    one failure a valid AST can compile to, raises NonFiniteError."""
    return tuple((tuple(map(_action, run)), None, None) if channel else _product(run)
                 for channel, run in itertools.groupby(stages, lambda stage: stage.name == "decohere"))


# The size |re| + |im| of each column of a segment's product is kept in this
# band (_product): from inside it, a stage action takes no column past the
# float range unless its own entries pass about 2^1015, as squeeze(eta=1407)'s.
_BAND_MIN, _BAND_MAX = 2.0**-8, 2.0**8


def _product(run):
    """(the conjugation constants of Q, k1, k2), where the product of run's
    actions by _mul2 is M = M_k ... M_1 = Q diag(2^k1, 2^k2). A stage left-
    multiplies each column alone. Where a column of the new product leaves
    the band, the stage multiplies the previous product again, with that
    column divided by the new column's power of two, which moves into k1 or
    k2: the new column lands in the band, and no part of it is lost to
    underflow on the way that its power of two would have kept."""
    p, k1, k2 = None, 0, 0
    for stage in run:
        m = _action(stage)
        q = m if p is None else _mul2(m, p)
        a, b, c, d = q
        if not (_BAND_MIN <= abs(a) + abs(c) <= _BAND_MAX and _BAND_MIN <= abs(b) + abs(d) <= _BAND_MAX):
            n1, n2 = _exponent(a, c), _exponent(b, d)
            w, x, y, z = p or (1.0, 0j, 0j, 1.0)  # the identity before the first stage
            q = _mul2(m, (_ldexp(w, -n1), _ldexp(x, -n2), _ldexp(y, -n1), _ldexp(z, -n2)))
            k1, k2 = k1 + n1, k2 + n2
        p = q
    return _conjugation(p), k1, k2


def _exponent(*parts):
    """The power of two of the largest real or imaginary part of complex
    parts: 2^n > it >= 2^(n-1); 0 where it is 0 or not finite."""
    return math.frexp(max(max(abs(z.real), abs(z.imag)) for z in parts))[1]


def _ldexp(z, n):
    """complex z times 2^n, each part rounded once."""
    return complex(math.ldexp(z.real, n), math.ldexp(z.imag, n))


def _fold(segments, s11, s22, s12, psi=None):
    """The final (s11, s22, s12, psi) after segments, from entries s11,
    s22, s12 and, for a Jones input, its amplitudes psi; psi stays None
    but where every segment is coherent. None where a segment's entries
    fail the gate or the underflow test, a power of two takes them past
    the float range, or the final trace is not a normal float at most
    _SQUARE_MAX. It reads and keeps nothing else: a function of the
    segments and one state."""
    e = 0  # the state is 2^e times its entries, psi 2^e times its amplitudes
    try:
        if psi and all(k1 is not None for _, k1, _ in segments):
            p1, p2 = psi
            for step, k1, k2 in segments:  # at most one
                # psi -> diag(2^k1, 2^k2) psi, its largest part's power of two moved into e
                e = max(k1 + _exponent(p1) if p1 else -math.inf, k2 + _exponent(p2) if p2 else -math.inf)
                p1, p2 = _ldexp(p1, k1 - e), _ldexp(p2, k2 - e)
                a, cbar, b, dbar = step[8:]  # psi -> conj(Q) psi
                p1, p2 = a.conjugate() * p1 + b.conjugate() * p2, cbar * p1 + dbar * p2
            psi = _ldexp(p1, e), _ldexp(p2, e)
            s11, s22, s12 = _outer(*psi)
            _check_coherency(s11, s22, s12)
        else:
            psi = None
            for step, k1, k2 in segments:
                if k1 is None:  # a decohere run: its result needs no gate
                    for k in step:
                        s12 = complex(k * s12.real, k * s12.imag)
                    continue
                if k1 or k2 or e:
                    # C -> D C D, D = diag(2^k1, 2^k2), divided by the power of two that puts its largest
                    # entry near 2^900: a segment's constants, at most 2^16, keep it finite, and an
                    # entry 2^1900 times smaller stays for a later segment to grow.
                    t = max(2 * k1 + math.frexp(s11)[1] if s11 else -math.inf,
                            2 * k2 + math.frexp(s22)[1] if s22 else -math.inf) - 900
                    s11, s22, s12 = math.ldexp(s11, 2 * k1 - t), math.ldexp(s22, 2 * k2 - t), _ldexp(s12, k1 + k2 - t)
                    e += t
                s11, s22, s12 = _conjugated(s11, s22, s12, step)
                _check_coherency(s11, s22, s12)
                if s11 + s22 <= 0.0:
                    return None
            if e:
                s11, s22, s12 = math.ldexp(s11, e), math.ldexp(s22, e), _ldexp(s12, e)
    except (OverflowError, PhysicsError):  # a gate's failure, or a power of two past the float range
        return None
    # classify squares s0: a larger one is the stage loop's to reject
    return (s11, s22, s12, psi) if sys.float_info.min <= s11 + s22 <= _SQUARE_MAX else None


def _classify_at(stage, stokes, tol):
    """classify the state after stage, locating an overflow there (stage None: the input)."""
    try:
        return littlegroup.classify(stokes, tol)
    except NonFiniteError as err:
        if stage is None:
            raise
        raise CircuitSemanticError(f"stage {stage.name}: {err}", stage.line, stage.col) from err
