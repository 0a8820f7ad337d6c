"""evaluate against a reference chain built from the public functions.

evaluate folds a state through a circuit's segments, and runs the stage
loop where the fold cannot vouch for the result. The reference below
builds one matrix per step with coherency_from_jones, conjugate and
decohere_channel, as the evaluator did before it carried entries, and
each coherent stage's Jones matrix from the public constructor of its
kind; atten's is diag(e^-eta1, e^-eta2), unfactored. A Jones input
through a circuit with no decohere runs stage by stage on its
amplitudes. Every other input folds from its coherency matrix: each
maximal run of coherent stages is one matrix, the product of its stages'
in the order and formula of the package's 2x2 product, applied with
conjugate; a run of decohere stages is applied stage by stage.
Where the state's size times a run's range of gain leaves the normal
square range, or a step fails, the reference runs stage by stage from
the input instead. Where the fold ran, records are the stage loop from
the input; the last holds the final state.
Every report, record and rejection must agree bit for bit: the same
floats, the same error class, message, line and column. Circuits reach
|eta| up to 40 and lambda up to 50; inputs reach intensities from 1e-300
to 1e300, so overflow, underflow to zero, the scaled range of the gate
and both sides of the range test all occur.
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


# The range in which squares stay normal floats (README): about 1.5e-154 to 6.7e153.
SQUARE_MIN, SQUARE_MAX = math.sqrt(sys.float_info.min), 0.5 * math.sqrt(sys.float_info.max)


def step(stage, coh, jones):
    """The state after one stage, as the per-stage evaluator computed it."""
    params = [value for _, value in stage.params]
    try:
        if stage.name == "decohere":
            coh, jones = decohere_channel(coh, *params), None
        else:
            m = MATRICES[stage.name](*params)
            if jones is None:
                coh = conjugate(coh, m)
            else:
                (a, b), (c, d) = m
                p1, p2 = jones.psi1, jones.psi2
                jones = JonesVector(
                    a.conjugate() * p1 + b.conjugate() * p2,
                    c.conjugate() * p1 + d.conjugate() * p2,
                )
                coh = coherency_from_jones(jones)
        if coh.trace <= 0.0:
            raise PhysicsError("beam attenuated to zero intensity (underflow)")
    except NonFiniteError as err:
        raise located(stage, "beam intensity overflowed") from err
    except PhysicsError as err:
        raise located(stage, err) from err
    return coh, jones


def product(run):
    """The run's matrix M_k ... M_1, and min |det P|^2 / |P|_F^2 and max
    |P|_F^2 over its prefix products P, det P the product of the stages'."""
    p, det, low, high = None, 1.0, math.inf, 0.0
    for stage in run:
        (a, b), (c, d) = MATRICES[stage.name](*(value for _, value in stage.params))
        det *= abs(a * d - b * c)
        if p is None:
            p = a, b, c, d
        else:
            w, x, y, z = p
            p = a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z
        norm = sum(e.real * e.real + e.imag * e.imag for e in p)
        low, high = min(low, det * det / norm), max(high, norm)
    return (p[:2], p[2:]), low, high


def fold(stages, coh):
    """[(run, state after it)] from coh, or None where evaluate runs stage by stage."""
    out = []
    for channel, run in itertools.groupby(stages, lambda stage: stage.name == "decohere"):
        run = tuple(run)
        try:
            if channel:
                for stage in run:
                    coh = decohere_channel(coh, stage.params[0][1])
            else:
                m, low, high = product(run)
                if not (SQUARE_MIN <= coh.trace * low and coh.trace * high <= SQUARE_MAX):
                    return None
                coh = conjugate(coh, m)
                if coh.trace <= 0.0:
                    return None
        except (ArithmeticError, ValueError):  # ValueError: PhysicsError too
            return None
        out.append((run, coh))
    return out


def reference(ast, inp, tol):
    """evaluate's report, one CoherencyMatrix (and JonesVector) per step."""
    jones = inp if isinstance(inp, JonesVector) else None
    coh = coherency_from_jones(inp) if jones else coherency_from_stokes(inp, tol)
    input_stokes = stokes_from_coherency(coh)
    if coh.trace <= 0.0:
        raise PhysicsError("evaluation requires positive input intensity")
    records, stages = [], ast.stages
    if any(stage.name == "decohere" for stage in stages):
        jones = None  # a mixed state has no amplitudes
    runs = None if jones else fold(stages, coh)
    for stage in stages if runs is None else stages[:-1]:
        before = coh
        coh, jones = step(stage, coh, jones)
        records.append(StageRecord(stage.name, stage.params, before, coh, tol))
    if runs:
        records.append(StageRecord(stages[-1].name, stages[-1].params, coh, runs[-1][1], tol))
        coh, jones = runs[-1][1], None
    final = stokes_from_coherency(coh)
    try:
        cls = classify(final, tol)
    except NonFiniteError as err:
        if not stages:
            raise
        raise located(stages[-1], err) from err
    input_jones = inp if isinstance(inp, JonesVector) else None
    return SimulationReport(
        CIRCUIT_FORMAT, input_stokes, input_jones, tuple(records), final, coh, jones,
        purity_report(coh), cls,
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


# Each example leaves one side of the range alone, its size times the
# segment's gain above the square range or below it; there the fold's bits
# would differ from the stage loop's.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(CIRCUIT, inputs(), st.sampled_from((1e-9, 1e-3)))
@example("squeeze(eta=5); rotate(theta=0.3); phase(phi=0.7); decohere(lambda=0.5)",
         StokesVector(1e152, 3e151, -4e151, 5e151), 1e-9)
@example("rotate(theta=0.3); squeeze(eta=-5); phase(phi=0.7); decohere(lambda=0.5)",
         StokesVector(1e-152, 3e-153, -4e-153, 5e-153), 1e-9)
def test_evaluate_is_the_reference_chain_bit_for_bit(text, inp, tol):
    ast = parse(text)
    assert outcome(evaluate, ast, inp, tol) == outcome(reference, ast, inp, tol)
