"""evaluate against a reference chain built from the public functions.

evaluate carries the coherency entries as plain numbers and runs the
CoherencyMatrix gate on them, or on the amplitude track tests their size
where the gate always passes. The reference below builds one matrix per
stage with coherency_from_jones, conjugate and decohere_channel, as the
evaluator did before it carried entries, and each stage's Jones matrix
from the public constructor of its kind, where evaluate reads its
stage's entries; atten's is diag(e^-eta1, e^-eta2), unfactored. Every
report, record and rejection must agree bit for bit: the same floats,
the same error class, message, line and column. Circuits reach |eta| up
to 40 and lambda up to 50; inputs reach intensities from 1e-300 to
1e300, so overflow, underflow to zero and the scaled range of the gate
all occur.
"""

import cmath
import math

from hypothesis import given, settings, strategies as st

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


def reference(ast, inp, tol):
    """evaluate's report, one CoherencyMatrix (and JonesVector) per stage."""
    jones = inp if isinstance(inp, JonesVector) else None
    coh = coherency_from_jones(inp) if jones else coherency_from_stokes(inp, tol)
    input_stokes = stokes_from_coherency(coh)
    if coh.trace <= 0.0:
        raise PhysicsError("evaluation requires positive input intensity")
    records, stage = [], None
    for stage in ast.stages:
        before = coh
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
        records.append(StageRecord(stage.name, stage.params, before, coh, tol))
    final = stokes_from_coherency(coh)
    try:
        cls = classify(final, tol)
    except NonFiniteError as err:
        if stage is None:
            raise
        raise located(stage, err) from err
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


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(CIRCUIT, inputs(), st.sampled_from((1e-9, 1e-3)))
def test_evaluate_is_the_reference_chain_bit_for_bit(text, inp, tol):
    ast = parse(text)
    assert outcome(evaluate, ast, inp, tol) == outcome(reference, ast, inp, tol)
