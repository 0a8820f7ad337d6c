"""evaluate against a reference chain built from the public functions.

evaluate folds a state through a circuit's segments, and runs the stage
loop where the fold cannot vouch for the result. The reference below
builds one matrix per step with coherency_from_jones, conjugate and
decohere_channel, as the evaluator did before it carried entries, and
each coherent stage's Jones matrix from the public constructor of its
kind; atten's is diag(e^-eta1, e^-eta2), unfactored. Each maximal run of
coherent stages is one matrix, the product of its stages' in the order
and formula of the package's 2x2 product; where a column of it leaves
[2^-8, 2^8] in size |re| + |im|, the stage multiplies the product before
it again with that column divided by the power of two of the new
column's largest part, which the run keeps, as the package does.
A Jones input through a circuit with no decohere takes its amplitudes
through the one run: scaled by the columns' powers of two, its largest
part's moved out, then psi -> conj(M) psi, then the power of two put
back. Every other input folds from its coherency matrix, carried as
entries and a power of two: where a run has scaled columns, or the
power is not 0, the entries are scaled as D C D, D the columns' powers,
and by the power of two that puts their largest diagonal entry near
2^900; the run is applied
with conjugate and a run of decohere stages stage by stage. One underflow
rule holds throughout: no intensity below the normal floats. An input
below them is rejected. A coherent stage first tests the trace of its
conjugated matrix, summed as conjugate sums it, and names one below them
as underflow; only then does conjugate run its checks, which would read
rounding noise in such a state. A decohere stage keeps s11 and s22, so
it needs no test. Where a step fails, or the final intensity is not a
normal float at most the square range's top, the reference runs the
stage loop on the coherency matrix from the input instead. Records are
the stage loop from the input; where the fold ran, the last holds the
final state. Every report, record and rejection must agree bit for bit:
the same floats, the same error class, message, line and column.
Circuits reach |eta| up to 40 and lambda up to 50; inputs reach
intensities from 1e-300 to 1e300, so overflow, underflow, the scaled
range of the gate and intermediate states beyond the float range all
occur.
"""

import cmath
import itertools
import math
import sys

from hypothesis import example, given, settings, strategies as st

from twobeam import (
    CIRCUIT_FORMAT,
    CircuitError,
    CircuitSemanticError,
    CoherencyMatrix,
    JonesVector,
    NonFiniteError,
    PhysicsError,
    SimulationReport,
    StageRecord,
    StokesVector,
    classify,
    coherency_from_jones,
    coherency_from_stokes,
    conjugate,
    decohere_channel,
    evaluate,
    parse,
    phase_shifter,
    purity_report,
    rotator,
    squeezer,
    stokes_from_coherency,
)


def rows(g):
    return (g.alpha, g.beta), (g.gamma, g.delta)


# Each coherent stage's Jones matrix M, as rows of complex entries.
MATRICES = {
    "rotate": lambda theta: rows(rotator(theta)),
    "split": lambda theta: rows(rotator(theta)),
    "phase": lambda phi: rows(phase_shifter(phi)),
    "atten": lambda eta1, eta2: ((complex(math.exp(-eta1)), 0j), (0j, complex(math.exp(-eta2)))),
    "squeeze": lambda eta: rows(squeezer(eta)),
}


def located(stage, message):
    return CircuitSemanticError(f"stage {stage.name}: {message}", stage.line, stage.col)


# The top of the range in which squares stay normal floats (README): about 6.7e153.
SQUARE_MAX = 0.5 * math.sqrt(sys.float_info.max)


def conjugated_trace(coh, m):
    """The trace of conjugate(coh, m) before its checks: s11 + s22 of G C G+,
    each summed in the order of conjugate's entrywise formula."""
    a, b, c, d = (complex(x) for row in m for x in row)
    s11 = (a * a.conjugate()).real * coh.s11 + (b * b.conjugate()).real * coh.s22 + 2.0 * (
        a * b.conjugate() * coh.s12).real
    s22 = (c * c.conjugate()).real * coh.s11 + (d * d.conjugate()).real * coh.s22 + 2.0 * (
        c * d.conjugate() * coh.s12).real
    return s11 + s22


def step(stage, coh):
    """The state after one stage, as the per-stage evaluator computed it:
    a coherent stage's underflow test, then conjugate and its checks."""
    params = [value for _, value in stage.params]
    try:
        if stage.name == "decohere":
            coh = decohere_channel(coh, *params)
        else:
            m = MATRICES[stage.name](*params)
            if conjugated_trace(coh, m) < sys.float_info.min:
                raise PhysicsError("beam attenuated to zero intensity (underflow)")
            coh = conjugate(coh, m)
    except NonFiniteError as err:
        raise located(stage, "beam intensity overflowed") from err
    except PhysicsError as err:
        raise located(stage, err) from err
    return coh


def power(*parts):
    """The exponent of the largest real or imaginary part of complex parts (frexp's)."""
    return math.frexp(max(max(abs(z.real), abs(z.imag)) for z in parts))[1]


def scaled(z, n):
    return complex(math.ldexp(z.real, n), math.ldexp(z.imag, n))


def product(run):
    """The run's matrix M_k ... M_1 = Q diag(2^k1, 2^k2): (Q's rows, k1, k2)."""
    p, k1, k2 = None, 0, 0
    for stage in run:
        (a, b), (c, d) = MATRICES[stage.name](*(value for _, value in stage.params))

        def times(w, x, y, z):
            return a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z

        q = (a, b, c, d) if p is None else times(*p)
        w, x, y, z = q
        if not (2.0**-8 <= abs(w) + abs(y) <= 2.0**8 and 2.0**-8 <= abs(x) + abs(z) <= 2.0**8):
            n1, n2 = power(w, y), power(x, z)
            w, x, y, z = p or (1.0, 0j, 0j, 1.0)
            q = times(scaled(w, -n1), scaled(x, -n2), scaled(y, -n1), scaled(z, -n2))
            k1, k2 = k1 + n1, k2 + n2
        p = q
    return (p[:2], p[2:]), k1, k2


def normal(intensity):
    return sys.float_info.min <= intensity <= SQUARE_MAX


def fold_jones(stages, jones):
    """The final JonesVector, or None where evaluate runs the stage loop."""
    p1, p2, e = jones.psi1, jones.psi2, 0
    if stages:
        ((a, b), (c, d)), k1, k2 = product(stages)
        if k1 or k2:
            e = max(k1 + power(p1) if p1 else -math.inf, k2 + power(p2) if p2 else -math.inf)
            p1, p2 = scaled(p1, k1 - e), scaled(p2, k2 - e)
        p1, p2 = a.conjugate() * p1 + b.conjugate() * p2, c.conjugate() * p1 + d.conjugate() * p2
    try:
        final = JonesVector(scaled(p1, e), scaled(p2, e))
        coh = coherency_from_jones(final)
    except (ArithmeticError, ValueError):  # ValueError: PhysicsError too
        return None
    return final if normal(coh.trace) else None


def fold(stages, coh):
    """The final CoherencyMatrix, or None where evaluate runs the stage loop."""
    e = 0
    for channel, run in itertools.groupby(stages, lambda stage: stage.name == "decohere"):
        run = tuple(run)
        try:
            if channel:
                for stage in run:
                    coh = decohere_channel(coh, stage.params[0][1])
                continue
            m, k1, k2 = product(run)
            if k1 or k2 or e:
                s11, s22 = coh.s11, coh.s22
                t = max(2 * k1 + math.frexp(s11)[1] if s11 else -math.inf,
                        2 * k2 + math.frexp(s22)[1] if s22 else -math.inf) - 900
                coh = CoherencyMatrix(math.ldexp(s11, 2 * k1 - t), math.ldexp(s22, 2 * k2 - t),
                                      scaled(coh.s12, k1 + k2 - t))
                e += t
            coh = conjugate(coh, m)
            if coh.trace < sys.float_info.min:
                return None
        except (ArithmeticError, ValueError):  # ValueError: PhysicsError too
            return None
    try:
        coh = CoherencyMatrix(math.ldexp(coh.s11, e), math.ldexp(coh.s22, e), scaled(coh.s12, e))
    except OverflowError:
        return None
    return coh if normal(coh.trace) else None


def reference(ast, inp, tol):
    """evaluate's report, one CoherencyMatrix per step."""
    coh = coherency_from_jones(inp) if isinstance(inp, JonesVector) else coherency_from_stokes(inp, tol)
    input_stokes = stokes_from_coherency(coh)
    if coh.trace < sys.float_info.min:
        raise PhysicsError("evaluation requires positive input intensity (it underflows to zero)")
    stages, first, jones = ast.stages, coh, None
    if isinstance(inp, JonesVector) and not any(stage.name == "decohere" for stage in stages):
        jones = fold_jones(stages, inp)
        final = jones and coherency_from_jones(jones)
    else:
        final = fold(stages, coh)
    walked = stages if final is None else stages[:-1]
    records = []
    for stage in walked:
        before = coh
        coh = step(stage, coh)
        records.append(StageRecord(stage.name, stage.params, before, coh, tol))
    if final is None:
        final = coh if stages else first
    elif stages:
        records.append(StageRecord(stages[-1].name, stages[-1].params, coh, final, tol))
    final_stokes = stokes_from_coherency(final)
    try:
        cls = classify(final_stokes, tol)
    except NonFiniteError as err:
        if not stages:
            raise
        raise located(stages[-1], err) from err
    input_jones = inp if isinstance(inp, JonesVector) else None
    return SimulationReport(
        CIRCUIT_FORMAT, input_stokes, input_jones, tuple(records), final_stokes, final, jones,
        purity_report(final), cls,
    )


def outcome(run, ast, inp, tol):
    """repr of the report (exact floats, signed zeros), or the rejection."""
    try:
        return repr(run(ast, inp, tol))
    except (CircuitError, PhysicsError) as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "col", None)


# Each range with its ends drawn often, where overflow and underflow are.
ANGLE = st.floats(-1e4, 1e4)
ETA = st.sampled_from((-40.0, -20.0, 20.0, 40.0)) | st.floats(-40.0, 40.0)
EXPONENT = st.sampled_from((0.0, 40.0)) | st.floats(0.0, 40.0)
STAGE = st.one_of(
    st.builds("rotate(theta={!r})".format, ANGLE),
    st.builds("split(ratio={!r})".format, st.floats(0.0, 1.0)),
    st.builds("phase(phi={!r})".format, ANGLE),
    st.builds("atten(eta1={!r}, eta2={!r})".format, EXPONENT, EXPONENT),
    st.builds("squeeze(eta={!r})".format, ETA),
    st.builds("decohere(lambda={!r})".format, st.sampled_from((0.0, 50.0)) | st.floats(0.0, 50.0)),
)
CIRCUIT = st.lists(st.tuples(STAGE, st.sampled_from(("; ", ";\n"))), min_size=1, max_size=10).map(
    lambda stages: "".join(text + sep for text, sep in stages)
)


@st.composite
def inputs(draw):
    """A Jones or Stokes input of intensity 10^[-300, 300]; Stokes ones
    pure, unpolarized or partly polarized."""
    intensity = 10.0 ** draw(st.sampled_from((-300.0, 300.0)) | st.floats(-300.0, 300.0))
    t, a, b = (draw(st.floats(-math.pi, math.pi)) for _ in range(3))
    if draw(st.booleans()):
        r = math.sqrt(intensity)
        return JonesVector(cmath.rect(r * math.cos(t), a), cmath.rect(r * math.sin(t), b))
    p = intensity * draw(st.sampled_from((1.0, 0.0)) | st.floats(0.0, 1.0))
    x, y = p * math.sin(t) * math.cos(a), p * math.sin(t) * math.sin(a)
    return StokesVector(intensity, p * math.cos(t), x, y)


# Each example takes an intermediate state past one side of the range in
# which squares stay normal floats, where the stage loop's gates scale the
# entries and a product of its columns is rescaled.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(CIRCUIT, inputs(), st.sampled_from((1e-9, 1e-3)))
@example("squeeze(eta=5); rotate(theta=0.3); phase(phi=0.7); decohere(lambda=0.5)",
         StokesVector(1e152, 3e151, -4e151, 5e151), 1e-9)
@example("rotate(theta=0.3); squeeze(eta=-5); phase(phi=0.7); decohere(lambda=0.5)",
         StokesVector(1e-152, 3e-153, -4e-153, 5e-153), 1e-9)
# The next two take a state below the normal floats: the first underflows
# where its gate passes, the second where its gate, reading rounding noise,
# would fail; both are named as underflow.
@example("squeeze(eta=-40.0)", StokesVector(1e-300, 1e-300, 0, 0), 1e-9)
@example("rotate(theta=3.071706361309081); atten(eta1=364.4731411040324, eta2=363.8858443761189)",
         JonesVector(-1.3445680792210248 - 0.13932956003029806j, 0.808426019846914 + 0.8013738362577778j), 1e-9)
def test_evaluate_is_the_reference_chain_bit_for_bit(text, inp, tol):
    ast = parse(text)
    assert outcome(evaluate, ast, inp, tol) == outcome(reference, ast, inp, tol)
