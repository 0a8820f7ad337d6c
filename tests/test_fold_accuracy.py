"""Accuracy of evaluate's fold against an arbitrary-precision Stokes fold.

The reference applies each parsed stage's closed-form 4x4 Stokes matrix,
written here from the README's conventions, in mpmath at 20 + sum|eta| /
ln 10 digits or more, so that it shares no code with the package and
its own rounding is far below the bound. The bound is a formula, not a
tuned constant (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 3): gamma_n = n u / (1 - n u) times the sums of the magnitudes of the
terms the float computation adds up. Those are carried exactly beside
the reference: the magnitudes of the input's coherency entries, mapped
by each coherent stage's entrywise |M| as T -> |M| T |M|^T, and by
decohere's e^-2 lambda on the off-diagonal. Each rounding errs by at
most u times the terms of the sum it rounds, and the maps after it carry
that error within the terms they carry. n counts the roundings on any
path to a result: per coherent stage at most 13, whether it runs in a
segment's product or alone (its entries 2; a complex product and sum in
the 2x2 product 4; conjugation constants 3 and conjugation 8, once per
segment); 2 per decohere stage; 1 each for the input's and the output's
conversions. n = 16 per stage + 2 covers both the fold and the stage loop
it falls back to.
"""

import math
import sys

import mpmath
from hypothesis import given, settings, strategies as st

from twobeam import StokesVector, evaluate, parse

U = sys.float_info.epsilon / 2


def stokes_matrix(mp, name, p):
    """The 4x4 Stokes matrix of a stage with canonical parameters p, in mp."""
    one, zero = mp.mpf(1), mp.mpf(0)
    if name in ("rotate", "split", "phase"):
        c, s = mp.cos(mp.mpf(p[0])), mp.sin(mp.mpf(p[0]))
        if name == "phase":  # (s2, s3) -> (c s2 + s s3, -s s2 + c s3)
            return mp.matrix([[one, zero, zero, zero], [zero, one, zero, zero],
                              [zero, zero, c, s], [zero, zero, -s, c]])
        return mp.matrix([[one, zero, zero, zero], [zero, c, -s, zero],  # rotates (s1, s2)
                          [zero, s, c, zero], [zero, zero, zero, one]])
    if name == "decohere":
        k = mp.exp(-2 * mp.mpf(p[0]))
        return mp.diag([one, one, k, k])
    eta, k = (mp.mpf(p[0]), one) if name == "squeeze" else (
        mp.mpf(p[1]) - mp.mpf(p[0]), mp.exp(-(mp.mpf(p[0]) + mp.mpf(p[1]))))
    ch, sh = k * mp.cosh(eta), k * mp.sinh(eta)  # a boost in the (s0, s1) plane
    return mp.matrix([[ch, sh, zero, zero], [sh, ch, zero, zero],
                      [zero, zero, k, zero], [zero, zero, zero, k]])


def jones_magnitudes(mp, name, p):
    """The entrywise magnitudes |M| of a coherent stage's 2x2 Jones matrix, in mp."""
    if name in ("rotate", "split"):
        c, s = abs(mp.cos(mp.mpf(p[0]) / 2)), abs(mp.sin(mp.mpf(p[0]) / 2))
        return mp.matrix([[c, s], [s, c]])
    if name == "phase":
        return mp.eye(2)
    if name == "squeeze":
        return mp.diag([mp.exp(mp.mpf(p[0]) / 2), mp.exp(-mp.mpf(p[0]) / 2)])
    return mp.diag([mp.exp(-mp.mpf(p[0])), mp.exp(-mp.mpf(p[1]))])  # atten


def reference(ast, s):
    """(the exact final Stokes vector, each component's bound) of a Stokes input s."""
    mp = mpmath.mp.clone()
    exponents = sum(abs(v) for stage in ast.stages for key, v in stage.params if key.startswith("eta"))
    mp.dps = 20 + math.ceil(exponents / math.log(10))
    v = mp.matrix([mp.mpf(x) for x in s])
    half = mp.mpf(1) / 2
    a0, a1 = half * (abs(mp.mpf(s[0])) + abs(mp.mpf(s[1]))), half * (abs(mp.mpf(s[2])) + abs(mp.mpf(s[3])))
    terms = mp.matrix([[a0, a1], [a1, a0]])
    for stage in ast.stages:
        p = [value for _, value in stage.params]
        v = stokes_matrix(mp, stage.name, p) * v
        if stage.name == "decohere":
            k = mp.exp(-2 * mp.mpf(p[0]))
            terms[0, 1] *= k
            terms[1, 0] *= k
        else:
            m = jones_magnitudes(mp, stage.name, p)
            terms = m * terms * m.T
    n = 16 * len(ast.stages) + 2
    gamma = n * U / (1 - n * U)
    diagonal, off = terms[0, 0] + terms[1, 1], 2 * terms[0, 1]
    return list(v), [gamma * diagonal, gamma * diagonal, gamma * off, gamma * off]


ETA = st.sampled_from((-20.0, 20.0)) | st.floats(-20.0, 20.0)
STAGE = st.one_of(
    st.builds("rotate(theta={!r})".format, st.floats(-10.0, 10.0)),
    st.builds("split(ratio={!r})".format, st.floats(0.0, 1.0)),
    st.builds("phase(phi={!r})".format, st.floats(-10.0, 10.0)),
    st.builds("atten(eta1={!r}, eta2={!r})".format, st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
    st.builds("squeeze(eta={!r})".format, ETA),
    st.builds("decohere(lambda={!r})".format, st.floats(0.0, 5.0)),
)


@st.composite
def circuits(draw):
    """Circuit text of 1 to 8 stages with at least one decohere."""
    stages = draw(st.lists(STAGE, min_size=0, max_size=7))
    where = draw(st.integers(0, len(stages)))
    stages.insert(where, draw(st.builds("decohere(lambda={!r})".format, st.floats(0.0, 5.0))))
    return "; ".join(stages)


@st.composite
def stokes_inputs(draw):
    """s0 from 1e-30 to 1e30, on the light cone, unpolarized or partly
    polarized. A component below 1e-6 s0 is 0, so that no product the
    package forms is subnormal: the bound has no underflow term."""
    s0 = 10.0 ** draw(st.floats(-30.0, 30.0))
    x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    r = math.sqrt(x * x + y * y + z * z)
    p = draw(st.sampled_from((1.0, 0.0)) | st.floats(0.0, 1.0)) if r > 0.1 else 0.0
    scale = s0 * p / r if p else 0.0
    return (s0, *(0.0 if abs(scale * c) < 1e-6 * s0 else scale * c for c in (x, y, z)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(circuits(), stokes_inputs())
def test_fold_is_within_its_rounding_bound_of_an_exact_stokes_fold(text, s):
    ast = parse(text)
    got = evaluate(ast, StokesVector(*s)).final_stokes
    want, bounds = reference(ast, s)
    for g, w, bound in zip((got.s0, got.s1, got.s2, got.s3), want, bounds):
        assert abs(mpmath.mpf(g) - w) <= bound, (text, s)
