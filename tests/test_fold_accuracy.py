"""Accuracy of evaluate against an arbitrary-precision Stokes fold.

The reference applies each parsed stage's closed-form 4x4 Stokes matrix,
written here from the README's conventions, in mpmath, so that it shares
no code with the package. Its precision is 20 + 2 sum|eta| / ln 10
digits or more: a boost of rapidity eta applied to a state on the light
cone along s1 gives s0 e^-|eta| from terms of size s0 e^|eta| / 2, so it
cancels up to 2|eta| / ln 10 digits, and the cancellations of a chain
add up. The 20 digits left keep the reference's own rounding far below
the bound.

The bound is a running error bound (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 3), not a tuned constant. A rounding at stage
k errs by at most gamma_13 of the terms it rounds, and those have a
Frobenius norm of at most 2 size_k, twice the exact intensity s0 after
stage k: a coherent stage's entries round twice, its conjugation
constants 3 times and its conjugation 8; a diagonal stage's terms are
its result's, and a rotation's |M| has a squared norm of at most 2 and
keeps the size. The stages after k carry that error exactly, and their
map has a Frobenius gain of at most G_k = prod ||S||_2^2 over the
products S of their coherent runs between decohere stages: C -> S C S+
gains ||S||_2^2, and decohere only shrinks s12. A Stokes component of a
Hermitian X is at most sqrt 2 ||X||_F. So each component of the result
errs by at most 2 sqrt 2 gamma_13 (sum_k G_k size_k + size_n), k = 0
for the input's conversion and n for the output's. G_k comes from one
backward pass over the stages in floats, whose own rounding is of second
order; a test checks it against mpmath.

The bound is the stage loop's. The fold computes the same columns: a
segment's product is the stage loop run on each basis vector, so its
rounding is that of a stage loop, once per column, and the tests hold the
fold to the same bound.
"""

import cmath
import math
import random
import sys

import mpmath
import numpy as np
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


def stokes_matrix_float(name, p):
    """stokes_matrix in floats, as a numpy array."""
    one = np.eye(4)
    if name in ("rotate", "split", "phase"):
        c, s = math.cos(p[0]), math.sin(p[0])
        i, j, s = (2, 3, -s) if name == "phase" else (1, 2, s)
        one[i, i] = one[j, j] = c
        one[i, j], one[j, i] = -s, s
        return one
    if name == "decohere":
        return np.diag([1.0, 1.0, math.exp(-2 * p[0]), math.exp(-2 * p[0])])
    eta, k = (p[0], 1.0) if name == "squeeze" else (p[1] - p[0], math.exp(-(p[0] + p[1])))
    ch, sh = k * math.cosh(eta), k * math.sinh(eta)
    return np.array([[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, k, 0], [0, 0, 0, k]])


def later_gains(stages):
    """[G_0, ..., G_n]: G_k the 2-norm of the product L_k of the Stokes
    matrices of the stages after k, in floats, by one backward pass."""
    later, products = np.eye(4), []
    for stage in reversed(stages):
        later = later @ stokes_matrix_float(stage.name, [value for _, value in stage.params])
        products.append(later)
    norms = np.linalg.svd(np.array(products), compute_uv=False)[:, 0] if products else []
    return [*map(float, norms[::-1]), 1.0]


def exact_gains(stages, every):
    """later_gains at every k that is a multiple of every, from exact mpmath
    products at 30 digits."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    later, gains = mp.eye(4), {len(stages): mp.mpf(1)}
    for k in range(len(stages) - 1, -1, -1):
        stage = stages[k]
        later = later * stokes_matrix(mp, stage.name, [value for _, value in stage.params])
        if k % every == 0:
            gains[k] = mp.svd_r(later, compute_uv=False)[0]
    return gains


def gamma(n):
    return n * U / (1 - n * U)


def reference(ast, inp, exact=False):
    """(the exact final Stokes vector, the bound of every component) of a
    StokesVector or JonesVector input; exact takes the gains from
    exact_gains, for circuits whose products leave the float range."""
    mp = mpmath.mp.clone()
    exponents = sum(abs(v) for stage in ast.stages for key, v in stage.params if key.startswith("eta"))
    mp.dps = 20 + math.ceil(2 * exponents / math.log(10))
    if isinstance(inp, JonesVector):
        p1, p2 = mp.mpc(inp.psi1), mp.mpc(inp.psi2)
        i1, i2, s12 = abs(p1) ** 2, abs(p2) ** 2, mp.conj(p1) * p2
        v = mp.matrix([i1 + i2, i1 - i2, 2 * s12.real, 2 * s12.imag])
    else:
        v = mp.matrix([mp.mpf(inp.s0), mp.mpf(inp.s1), mp.mpf(inp.s2), mp.mpf(inp.s3)])
    sizes = [v[0]]
    for stage in ast.stages:
        v = stokes_matrix(mp, stage.name, [value for _, value in stage.params]) * v
        sizes.append(v[0])
    gains = exact_gains(ast.stages, 1) if exact else dict(enumerate(later_gains(ast.stages)))
    terms = sum(gains[k] * s for k, s in enumerate(sizes)) + sizes[-1]
    return list(v), [2 * mp.sqrt(2) * gamma(13) * terms] * 4


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


RATIOS = []  # the worst error / bound of each corpus example, a circuit of at most 8 stages


def assert_within_bound(text, inp):
    """Each final Stokes component of text from inp is within its bound; returns
    the bound over s0 and the worst ratio of error to bound."""
    ast = parse(text)
    got = evaluate(ast, inp).final_stokes
    want, bounds = reference(ast, inp)
    ratio = 0
    for g, w, bound in zip((got.s0, got.s1, got.s2, got.s3), want, bounds):
        assert abs(mpmath.mpf(g) - w) <= bound, (text, inp)
        ratio = max(ratio, abs(mpmath.mpf(g) - w) / bound)
    if len(ast.stages) <= 8:
        RATIOS.append(ratio)
    return bounds[0] / want[0], ratio


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


def test_the_corpus_reports_its_worst_ratio_of_error_to_bound():
    """The corpus test's 300 examples, run here where it has not run, and
    the worst ratio of error to bound among them, printed."""
    if not RATIOS:
        test_fold_is_within_its_rounding_bound_of_an_exact_stokes_fold()
    assert len(RATIOS) == 300
    print(f"corpus: worst error / bound {float(max(RATIOS)):.3e} over {len(RATIOS)} examples")


@pytest.mark.parametrize("seed, decoheres", [(1, 3), (2, 0)], ids=["stokes-fold", "jones-amplitudes"])
def test_long_chains_are_within_their_rounding_bound(seed, decoheres):
    """On 2000-stage chains, a Stokes input through a circuit with decohere
    stages and a Jones input through one without, both folded, are within
    the running bound, and the bound is below 1e-10 s0: a rotation keeps
    the norm of the later product at 1, so the bound stays near the state's
    size, and a wrong product far past it fails."""
    bound, ratio = assert_within_bound(*long_chain(seed, decoheres))
    assert bound < 1e-10
    print(f"seed {seed}: bound {float(bound):.3e} s0, worst error / bound {float(ratio):.3e}")


def test_the_float_gains_are_those_of_the_exact_products():
    """later_gains, one backward pass in floats, agrees with the same gains
    from exact mpmath products and singular values, to 1e-9 relative, at
    every 100th stage of the long chain with decohere stages and at every
    stage of a short extreme one."""
    for text, every in ((long_chain(1, 3)[0], 100),
                        ("squeeze(eta=20); rotate(theta=0.3); decohere(lambda=0.2); squeeze(eta=-20); "
                         "phase(phi=1); atten(eta1=1, eta2=3)", 1)):
        stages = parse(text).stages
        got = later_gains(stages)
        for k, want in exact_gains(stages, every).items():
            assert abs(got[k] - want) <= 1e-9 * want, (text, k)
