"""The determinant gate shared by Element2, compose and decompose.

Given entries (a user's Element2 or array) must have |det - 1| within
UNIMODULAR_TOL; computed entries (compose's products, and decompose's
inputs, which are rounded products such as its own recompositions) are
checked relative to |alpha delta| + |beta gamma|, the size their
rounding grows with. These tests draw long products and large squeezes,
check that each passes the computed rule and that decompose takes it
apart and back within a stated rounding bound, and check that each gate
still rejects a det moved well past its bound.
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twobeam import (
    UNIMODULAR_TOL,
    Element2,
    PhysicsError,
    WignerFactors,
    compose,
    iwasawa_decompose,
    phase_shifter,
    rotator,
    squeezer,
    wigner_decompose,
    wigner_recompose,
)
from twobeam.cli import main

EPS = sys.float_info.epsilon
DECOMPOSE = (iwasawa_decompose, wigner_decompose)
MAKERS = {
    "rotate": lambda rng, eta: rotator(rng.uniform(-1e4, 1e4)),
    "phase": lambda rng, eta: phase_shifter(rng.uniform(-1e4, 1e4)),
    "squeeze": lambda rng, eta: squeezer(eta),
}


@st.composite
def chains(draw, kinds=tuple(MAKERS), longest=1000):
    """1 to `longest` elements of the given kinds, whose squeezes' |eta|
    sum to a drawn total of at most 20."""
    n = draw(st.sampled_from((1, longest)) | st.integers(1, longest))
    total = draw(st.sampled_from((0.0, 20.0)) | st.floats(0.0, 20.0))
    rng = random.Random(draw(st.integers(0, 2**32)))
    picks = [rng.choice(kinds) for _ in range(n)]
    weights = [rng.random() for kind in picks if kind == "squeeze"]
    scale = total / (sum(weights) or 1.0)
    etas = iter([rng.choice((-1.0, 1.0)) * scale * w for w in weights])
    return [MAKERS[kind](rng, next(etas) if kind == "squeeze" else None) for kind in picks]


def real_entries(g):
    assert g.alpha.imag == g.beta.imag == g.gamma.imag == g.delta.imag == 0.0
    return [g.alpha.real, g.beta.real, g.gamma.real, g.delta.real]


def residual(f, m):
    """What `twobeam decompose` reports: the largest entry of |f.entries - m|."""
    return max(abs(x - y) for x, y in zip(f.entries, m))


def exact_drift(entries):
    """|det - 1| of complex or real entries a, b, c, d, the det taken exactly."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = ((Fraction(z.real), Fraction(z.imag)) for z in map(complex, entries))
    re = ar * dr - ai * di - (br * cr - bi * ci) - 1
    im = ar * di + ai * dr - (br * ci + bi * cr)
    return math.hypot(float(re), float(im))


def residual_bound(f, m):
    """A first-order bound on residual(f, m), for factors f of m whose
    exponent (Iwasawa's, or Wigner's squeeze) is x and M = max|m|.

    * Each recomposed entry is a sum of two terms, each at most 2M. Its
      factors come from hypot, atan2, log, cos and sin, and it is
      rebuilt with exp and three products per term: about four
      roundings of u = eps/2 each, 2 * 2M * 4u = 8 eps M in all.
    * x itself is rounded by u|x|, and e^x carries that as a relative
      error: 2 * 2M * u|x| = 2|x| eps M.
    * The recomposition has det 1, and m has det 1 + delta: the factors
      reproduce m's first column (Iwasawa) or major axis (Wigner), of
      length e^x, and miss the det in the direction across it, of
      length (1 + delta) e^-x, by |delta| e^-x. delta is m's own
      rounding, taken exactly here.
    """
    x = f[1]
    return (8.0 + 2.0 * abs(x)) * EPS * max(map(abs, m)) + exact_drift(m) * math.exp(-x)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(chains())
def test_products_pass_the_computed_rule(elements):
    g = compose(*elements)  # compose applies the computed rule to its product
    assert math.isfinite(abs(g.det))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(chains(("rotate", "squeeze")))
def test_real_products_round_trip_through_both_decompositions(elements):
    m = real_entries(compose(*elements))
    for decompose in DECOMPOSE:
        f = decompose([m[:2], m[2:]])
        assert residual(f, m) <= residual_bound(f, m), decompose.__name__


def test_wigner_decompose_takes_its_own_recomposition_apart():
    # the entries reach e^20, so their rounding alone moves the det by
    # about eps e^40 = 5, far past an absolute bound
    f = wigner_decompose(wigner_recompose(WignerFactors(0.3, 20.0, 0.4)))
    for got, want in zip(f, (0.3, 20.0, 0.4)):
        assert abs(got - want) <= 4 * EPS * want


@pytest.mark.parametrize("sigma", [5.0, 10.0, 20.0, 50.0, 100.0, 300.0, 350.0])
def test_seeded_recompositions_round_trip(sigma):
    rng = random.Random(int(sigma))
    for _ in range(200):
        factors = WignerFactors(rng.uniform(-0.5, 0.5) * math.pi, sigma, rng.uniform(-1.0, 1.0) * math.pi)
        m = list(factors.entries)
        for decompose in DECOMPOSE:
            f = decompose([m[:2], m[2:]])
            assert residual(f, m) <= residual_bound(f, m), decompose.__name__
        # the log of (total + excess) / 2, each within a few ulps of e^sigma
        assert abs(wigner_decompose([m[:2], m[2:]]).squeeze_exponent - sigma) <= (4.0 + sigma) * EPS


def test_the_command_line_decomposes_a_sigma_20_recomposition(capsys):
    m = WignerFactors(0.3, 20.0, 0.4).entries
    for kind, decompose in zip(("iwasawa", "wigner"), DECOMPOSE):
        assert main(["decompose", kind, "--matrix=" + ",".join(map(repr, m)), "--format", "json"]) == 0
        reported = json.loads(capsys.readouterr().out)["results"]["residual"]
        f = decompose([m[:2], m[2:]])
        assert reported == residual(f, m) <= residual_bound(f, m)


def perturbed(entries, bound):
    """entries with the one whose cofactor is largest moved, away from the
    det's drift, until |det - 1| exceeds ten times bound(entries)."""
    a, b, c, d = entries
    cofactors = (d, -c, -b, a)
    i = max(range(4), key=lambda k: abs(cofactors[k]))
    step = (11.0 if (a * d - b * c - 1).real >= 0.0 else -11.0) * bound(entries) / cofactors[i]
    out = list(entries)
    while exact_drift(out) <= 10.0 * bound(out):  # a step below the entry's ulp is lost
        out[i] = entries[i] + step
        step *= 2.0
    return out


def given_bound(entries):
    return UNIMODULAR_TOL


def computed_bound(entries):
    a, b, c, d = entries
    return UNIMODULAR_TOL * (abs(a * d) + abs(b * c))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(chains(longest=50), chains(("rotate", "squeeze"), longest=50))
def test_each_gate_rejects_a_det_moved_past_ten_times_its_bound(elements, real_elements):
    """Contract: each determinant gate rejects a det moved past ten times
    its bound. Hook: Element2._checked, to hand compose a perturbed
    element that its own constructor would reject."""
    g = compose(*elements)
    entries = [g.alpha, g.beta, g.gamma, g.delta]
    with pytest.raises(PhysicsError, match="element must be unimodular"):
        Element2(*perturbed(entries, given_bound))
    # a one-element product is its element's entries, exactly
    with pytest.raises(PhysicsError, match="product must be unimodular"):
        compose(Element2._checked(*perturbed(entries, computed_bound)))
    m = perturbed(real_entries(compose(*real_elements)), computed_bound)
    for decompose in DECOMPOSE:
        with pytest.raises(PhysicsError, match="matrix must have unit determinant"):
            decompose([m[:2], m[2:]])
