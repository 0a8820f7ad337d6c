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

A stage scanner matches well-formed text one stage at a time. It looks
each stage up by its signature, the name and argument names, in a table
built from STAGES; a stage in canonical form is checked in place and
any other goes through the general argument validator. Text the
scanner does not accept falls back to a token parser, which locates
the error.
"""

import functools
import math
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
    _coherency_outer,
    coherency_from_stokes,
    conjugate,
    purity_report,
    stokes_from_coherency,
)
from .elements import attenuator, phase_shifter, rotator, split_angle, squeezer

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
    action maps the canonical values to (amplitude factor k, unimodular
    G); a channel, which has no such form, has action None.
    """

    params: tuple
    angles: tuple = ()
    nonnegative: tuple = ()
    alias: tuple | None = None
    action: object = None


# The actions look rotator and friends up in this module's globals at
# call time, so rebinding those names (as a tracer does) reaches every
# element built after it; evaluate builds a stage's element once.
STAGES = {
    "rotate": StageKind(("theta",), angles=("theta",), action=lambda theta: (1.0, rotator(theta))),
    "split": StageKind(
        ("theta",),
        angles=("theta",),
        alias=("ratio", split_angle),
        action=lambda theta: (1.0, rotator(theta)),
    ),
    "phase": StageKind(("phi",), angles=("phi",), action=lambda phi: (1.0, phase_shifter(phi))),
    "atten": StageKind(
        ("eta1", "eta2"),
        nonnegative=("eta1", "eta2"),
        action=lambda eta1, eta2: attenuator(eta1, eta2),
    ),
    "squeeze": StageKind(("eta",), action=lambda eta: (1.0, squeezer(eta))),
    "decohere": StageKind(("lambda",), nonnegative=("lambda",)),
}


def _unknown_element(name):
    return f"unknown element '{name}' (one of {', '.join(STAGES)})"


class Stage(_Record, compare=("name", "params")):
    """One element of a circuit, with canonical radian parameters.

    Locations take no part in equality, so structurally identical
    circuits compare equal regardless of layout. evaluate keeps a
    coherent stage's (k, G) in the instance __dict__, outside the
    compared fields, so each element is built once per AST; a failure
    is not kept.
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
    stages: tuple

    def __post_init__(self):
        vars(self)["stages"] = tuple(self.stages)
        for stage in self.stages:
            if not isinstance(stage, Stage):
                raise TypeError("CircuitAst stages must be Stage instances")


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

    One entry per stage kind, with its parameters in canonical order, and
    one for its alias in place of the first. An argument's check is
    (canonical name, takes deg, must be nonnegative, convert or None),
    read from the StageKind fields that _validate_stage reads; a missing
    second argument is None. A kind with more than two parameters gets a
    longer key, which no stage _STAGE_RE matches can hit.
    """
    table = {}
    for name, kind in STAGES.items():
        first = kind.params[0]
        check = {key: (key, key in kind.angles, key in kind.nonnegative, None) for key in kind.params}
        orders = [kind.params]
        if kind.alias:
            alias, convert = kind.alias
            check[alias] = (first, alias in kind.angles, first in kind.nonnegative, convert)
            orders.append((alias, *kind.params[1:]))
        for order in orders:
            table[(name, *order) + (None,) * (2 - len(order))] = tuple(map(check.get, order))
    return table


_SIGNATURES = _signatures()


def _scan(text):
    """The AST of text the scanner accepts, else None.

    A stage whose argument names are a signature in _SIGNATURES (its
    kind's parameters in canonical order, or an alias) is checked in
    place; any other stage goes through _validate_stage. Locations come
    from newline counts. Arguments carry no location, so a stage that
    fails its checks returns None and the token parser reports the
    located error.
    """
    stages = []
    pos = mark = 0
    line, line_start = 1, -1
    while True:
        m = _STAGE_RE.match(text, pos)
        if m is None:
            return None
        name, n1, v1, d1, n2, v2, d2, sep = m.groups()
        start = m.start(1)
        line += text.count("\n", mark, start)
        newline = text.rfind("\n", mark, start)
        if newline >= 0:
            line_start = newline
        mark = start
        col = start - line_start
        checks = _SIGNATURES.get((name, n1, n2))
        if checks is not None:
            params = []
            number, deg = v1, d1
            for key, angle, nonnegative, convert in checks:
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
                params.append((key, math.radians(value) if deg else value))
                number, deg = v2, d2  # the next check is the second argument's
            params = tuple(params)
        elif name not in STAGES:
            return None
        else:
            args = []
            for key, number, deg in ((n1, v1, d1), (n2, v2, d2)):
                if key is not None:
                    value = float(number)
                    if not math.isfinite(value):
                        return None
                    args.append(_Arg(key, value, 0, 0, deg is not None))
            try:
                params = _validate_stage(name, args, line, col)
            except CircuitError:
                return None
        stages.append(Stage(name, params, line, col))
        pos = m.end()
        if not sep or _END_RE.match(text, pos):
            return CircuitAst(tuple(stages))


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

    Well-formed text is matched stage by stage with one regular
    expression. A stage whose arguments are its parameters in canonical
    order (or split's ratio) is checked from the signature table; other
    orders go through the general validator. The token parser handles
    the rest and locates the error.
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


def evaluate(ast: CircuitAst, inp, tol=CLASSIFY_TOL) -> SimulationReport:
    """Push a state through the circuit, recording every stage.

    The state is the coherency matrix; each stage builds one new matrix,
    whose validation is the stage's gate. A coherent stage is its STAGES
    action: an overall factor k (1 except for atten) times a unimodular
    G. While the amplitude track is live (Jones input, no decohere yet)
    it is the single source of truth: the two amplitudes are carried as
    plain complex numbers, psi -> k conj(G) psi, and the coherency is
    their outer product, so a pure state stays pure to rounding however
    long the chain; a non-finite amplitude fails that matrix's gate. One
    JonesVector is built from them at the end, for the report. Without
    amplitudes the matrix is conjugated, C -> k^2 G C G+. decohere
    scales s12 by e^-2 lambda and ends the amplitude track. Stokes
    vectors are read from the matrices: the report's input and final
    ones once, a StageRecord's on access. Stage failures re-raise as
    located CircuitSemanticError; arithmetic overflow and an intensity
    that underflows to zero are reported as such.

    Each stage's element is built on its first evaluation and kept on
    the Stage, so evaluating one AST on many states rebuilds nothing.
    """
    if isinstance(inp, JonesVector):
        p1, p2 = inp.psi1, inp.psi2
        coh = _coherency_outer(p1, p2)
        input_jones = inp
    elif isinstance(inp, StokesVector):
        p1 = p2 = input_jones = None
        coh = coherency_from_stokes(inp, tol)
    else:
        raise TypeError("input must be a JonesVector or StokesVector")
    input_stokes = stokes_from_coherency(coh)
    if coh.trace <= 0.0:
        raise PhysicsError("evaluation requires positive input intensity")
    records = []
    for stage in ast.stages:
        before = coh
        try:
            kind = STAGES.get(stage.name)
            if kind is None:
                raise PhysicsError(_unknown_element(stage.name))
            if kind.action is None:  # decohere, the one channel
                coh = decoherence.decohere_channel(coh, stage.params[0][1])
                p1 = None
            else:
                memo = vars(stage)
                if "_element" not in memo:
                    memo["_element"] = kind.action(*[value for _, value in stage.params])
                scale, g = memo["_element"]
                if p1 is None:
                    coh = conjugate(coh, g, scale)
                else:
                    p1, p2 = (
                        scale * (g.alpha.conjugate() * p1 + g.beta.conjugate() * p2),
                        scale * (g.gamma.conjugate() * p1 + g.delta.conjugate() * p2),
                    )
                    coh = _coherency_outer(p1, p2)
                if coh.trace <= 0.0:
                    raise PhysicsError("beam attenuated to zero intensity (underflow)")
        except (NonFiniteError, OverflowError) as err:
            raise CircuitSemanticError(
                f"stage {stage.name}: beam intensity overflowed", stage.line, stage.col
            ) from err
        except PhysicsError as err:
            raise CircuitSemanticError(
                f"stage {stage.name}: {err}", stage.line, stage.col
            ) from err
        records.append(StageRecord(stage.name, stage.params, before, coh, tol))
    final_stokes = stokes_from_coherency(coh)
    return SimulationReport(
        circuit_format=CIRCUIT_FORMAT,
        input_stokes=input_stokes,
        input_jones=input_jones,
        stages=tuple(records),
        final_stokes=final_stokes,
        final_coherency=coh,
        final_jones=None if p1 is None else JonesVector(p1, p2),
        final_purity=purity_report(coh),
        final_classification=littlegroup.classify(final_stokes, tol),
    )
