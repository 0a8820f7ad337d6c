"""Accuracy of evaluate against an arbitrary-precision Stokes fold.

The reference applies each parsed stage's closed-form 4x4 Stokes matrix,
written here from the README's conventions, in mpmath, so that it shares
no code with the package. Its precision is 20 + 2 sum|eta| / ln 10
digits or more: a boost of rapidity eta applied to a state on the light
cone along s1 gives s0 e^-|eta| from terms of size s0 e^|eta| / 2, so it
cancels up to 2|eta| / ln 10 digits, and the cancellations of a chain
add up. The 20 digits left keep the reference's own rounding far below
the bound.

The bound is a formula, not a tuned constant (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3): gamma_n = n u / (1 - n u)
times the sums of the magnitudes of the terms the float computation adds
up. Those are carried exactly beside the reference: the magnitudes of the
input's coherency entries, mapped by each coherent stage's entrywise |M|
as T -> |M| T |M|^T, and by decohere's e^-2 lambda on the off-diagonal.
Each rounding errs by at most u times the terms of the sum it rounds,
and the maps after it carry that error within the terms they carry. n
counts the roundings on any path to a result: per coherent stage at most
13, whether it runs in a segment's product or alone (its entries 2; a
complex product and sum in the 2x2 product 4; conjugation constants 3
and conjugation 8, once per segment); 2 per decohere stage; 1 for the
output's conversion. A Stokes input's conversion, (s0 + s1) / 2 and the
like, rounds once, so n = 16 per stage + 2 covers both the fold and the
stage loop it falls back to.

A Jones input's conversion is its outer product: s11 = |psi1|^2, s22 =
|psi2|^2 and each part of s12 = conj(psi1) psi2 is two products and a
sum, so it rounds twice, within its terms |psi1|^2, |psi2|^2 and, by
Cauchy-Schwarz, |psi1||psi2|, which carry no cancellation: T starts as
|psi| |psi|^T, and n = 16 per stage + 3. Through a circuit with a
decohere the input folds from those entries. Through one without, the
amplitude path maps psi -> conj(M) psi per stage: the stage's entries 2
roundings and each amplitude, a sum of two complex products, 3, within
|M| |psi|; a square or product of amplitudes doubles that relative
error, 10 per stage, within 13, so the same n holds.
"""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from twobeam import JonesVector, StokesVector, evaluate, parse

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


def reference(ast, inp):
    """(the exact final Stokes vector, each component's bound) of a StokesVector or JonesVector input."""
    mp = mpmath.mp.clone()
    exponents = sum(abs(v) for stage in ast.stages for key, v in stage.params if key.startswith("eta"))
    mp.dps = 20 + math.ceil(2 * exponents / math.log(10))
    if isinstance(inp, JonesVector):
        p1, p2 = mp.mpc(inp.psi1), mp.mpc(inp.psi2)
        i1, i2, s12 = abs(p1) ** 2, abs(p2) ** 2, mp.conj(p1) * p2
        v = mp.matrix([i1 + i2, i1 - i2, 2 * s12.real, 2 * s12.imag])
        a = mp.matrix([abs(p1), abs(p2)])
        terms, n = a * a.T, 16 * len(ast.stages) + 3
    else:
        v = mp.matrix([mp.mpf(inp.s0), mp.mpf(inp.s1), mp.mpf(inp.s2), mp.mpf(inp.s3)])
        a0, a1 = (abs(v[0]) + abs(v[1])) / 2, (abs(v[2]) + abs(v[3])) / 2
        terms, n = mp.matrix([[a0, a1], [a1, a0]]), 16 * len(ast.stages) + 2
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
    return StokesVector(s0, *(0.0 if abs(scale * c) < 1e-6 * s0 else scale * c for c in (x, y, z)))


@st.composite
def jones_inputs(draw):
    """Amplitudes of intensity 1e-30 to 1e30, in either beam alone or
    shared, at any phases. A part below 1e-6 of the amplitude's scale is
    0, as a small Stokes component is, so no product is subnormal."""
    r = 10.0 ** draw(st.floats(-15.0, 15.0))
    t = draw(st.sampled_from((0.0, math.pi / 2)) | st.floats(0.0, math.pi / 2))
    a, b = (draw(st.floats(-math.pi, math.pi)) for _ in range(2))
    parts = [r * f(t) * g(phase) for f, phase in ((math.cos, a), (math.sin, b)) for g in (math.cos, math.sin)]
    x1, y1, x2, y2 = (0.0 if abs(x) < 1e-6 * r else x for x in parts)
    return JonesVector(complex(x1, y1), complex(x2, y2))


def assert_within_bound(text, inp):
    ast = parse(text)
    got = evaluate(ast, inp).final_stokes
    want, bounds = reference(ast, inp)
    for g, w, bound in zip((got.s0, got.s1, got.s2, got.s3), want, bounds):
        assert abs(mpmath.mpf(g) - w) <= bound, (text, inp)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(circuits(), stokes_inputs() | jones_inputs())
def test_fold_is_within_its_rounding_bound_of_an_exact_stokes_fold(text, inp):
    assert_within_bound(text, inp)


# Stage text of each kind, drawn from the long-chain benchmark's ranges.
LONG_CHAIN_STAGES = {
    "rotate": lambda rng: f"rotate(theta={rng.uniform(-math.pi, math.pi)!r})",
    "split": lambda rng: f"split(ratio={rng.random()!r})",
    "phase": lambda rng: f"phase(phi={rng.uniform(-math.pi, math.pi)!r})",
    "squeeze": lambda rng: f"squeeze(eta={rng.uniform(-1.0, 1.0)!r})",
    "atten": lambda rng: f"atten(eta1={rng.uniform(0.0, 0.05)!r}, eta2={rng.uniform(0.0, 0.05)!r})",
    "decohere": lambda rng: f"decohere(lambda={rng.random()!r})",
}


def long_chain(seed, decoheres):
    """A 2000-stage circuit drawn as the long-chain benchmark draws its
    circuits, its coherent kinds uniformly, with decoheres of its stages
    made decohere at seeded places; and a seeded input: a pure or partly
    polarized StokesVector where the circuit has a decohere, else a
    JonesVector."""
    rng = random.Random(seed)
    kinds = [rng.choice(("rotate", "split", "phase", "squeeze", "atten")) for _ in range(2000)]
    for i in rng.sample(range(2000), decoheres):
        kinds[i] = "decohere"
    text = ";\n".join(LONG_CHAIN_STAGES[kind](rng) for kind in kinds)
    x, y, z, w = (rng.gauss(0.0, 1.0) for _ in range(4))
    if not decoheres:
        return text, JonesVector(complex(x, y), complex(z, w))
    p = rng.choice((1.0, rng.random())) / math.sqrt(x * x + y * y + z * z)
    return text, StokesVector(1.0, p * x, p * y, p * z)


@pytest.mark.parametrize("seed, decoheres", [(1, 3), (2, 0)], ids=["stokes-fold", "jones-amplitudes"])
def test_long_chains_are_within_their_rounding_bound(seed, decoheres):
    """The known gap: on 2000-stage chains, a Stokes input through a
    circuit with decohere stages (the fold) and a Jones input through one
    without (the amplitude path) stay within the same bound. At this
    length the bound is far from tight: |M| of a rotation has norm up to
    sqrt 2, so T grows by up to 2 per rotation while the state keeps its
    size, and the bound passes 1e150 s0 on these chains, where the error
    is about 1e-14 s0."""
    assert_within_bound(*long_chain(seed, decoheres))
