"""conjugate and the Lorentz check against reference copies of their formulas.

conjugate computes an element's state-independent products, its
conjugation constants, on each call and stores nothing on the element;
_is_lorentz takes the metric check on (1, e) as _scaled returns it,
rescaled only outside the range where squares stay normal floats. Both
must give, bit for bit, what the formulas written out in full give.
"""

import math
import random

import numpy as np

from twobeam import (
    CoherencyMatrix,
    Element2,
    InterpolationParams,
    NonFiniteError,
    closed_form_family,
    compose,
    conjugate,
    phase_shifter,
    rotator,
    squeeze4,
    squeezer,
)
from twobeam.littlegroup import _family_matrix
from twobeam.states import LORENTZ_TOL, _SQUARE_MAX, _defects, _is_lorentz, _scaled


def reference_conjugate(c, entries):
    """C -> G C G+, each product formed where it is used."""
    p, q, s = c.s11, c.s22, c.s12
    a, b, c, d = (complex(x) for x in entries)
    abar, bbar, cbar, dbar = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    s11 = (a * abar).real * p + (b * bbar).real * q + 2.0 * (a * bbar * s).real
    s22 = (c * cbar).real * p + (d * dbar).real * q + 2.0 * (c * dbar * s).real
    s12 = p * a * cbar + q * b * dbar + a * dbar * s + b * cbar * s.conjugate()
    return CoherencyMatrix(s11, s22, s12)


def reference_is_lorentz(e):
    """The metric check taken on (1, e) as _scaled returns it."""
    t = _scaled(1.0, *e)
    return max(_defects(t[1:], t[0] * t[0])) <= LORENTZ_TOL * max(map(abs, t)) ** 2


def bits(c):
    # float.hex tells -0.0 from 0.0.
    return tuple(x.hex() for x in (c.s11, c.s22, c.s12.real, c.s12.imag))


def outcome(f, *args):
    try:
        return bits(f(*args))
    except NonFiniteError as err:
        return type(err), str(err)


def random_state(rng):
    scale = 10.0 ** rng.uniform(-300.0, 300.0)
    s11, s22 = scale * rng.random(), scale * rng.random()
    r = math.sqrt(s11) * math.sqrt(s22) * rng.random()
    phi = rng.uniform(-math.pi, math.pi)
    zero = rng.choice((0.0, -0.0))
    return rng.choice((
        CoherencyMatrix(s11, s22, complex(r * math.cos(phi), r * math.sin(phi))),
        CoherencyMatrix(s11, zero, complex(zero, 0.0)),  # signed zeros reach the products
        CoherencyMatrix(s11, s22, complex(zero, -zero)),
    ))


def random_action(rng):
    """An element from one of three constructors or a compose product, or an
    attenuator's physical matrix diag(e^-eta1, e^-eta2) as nested lists."""
    angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
    kind = rng.randrange(5)
    if kind == 0:
        return rotator(angle)
    if kind == 1:
        return phase_shifter(angle)
    if kind == 2:
        return squeezer(rng.uniform(-40.0, 40.0))
    if kind == 3:
        return [[math.exp(-rng.uniform(0.0, 3.0)), 0.0], [0.0, math.exp(-rng.uniform(0.0, 3.0))]]
    makers = (rotator, phase_shifter, lambda x: squeezer(2.0 * x))
    return compose(*(rng.choice(makers)(rng.uniform(-3.0, 3.0)) for _ in range(rng.randrange(1, 6))))


def test_conjugate_is_bitwise_the_entrywise_formula():
    rng = random.Random(1414)
    for _ in range(3000):
        g = random_action(rng)
        element = isinstance(g, Element2)
        entries = (g.alpha, g.beta, g.gamma, g.delta) if element else (*g[0], *g[1])
        for call in ("first", "second", "third"):
            c = random_state(rng)
            assert outcome(conjugate, c, g) == outcome(reference_conjugate, c, entries), call
        if element:
            # conjugate stores nothing on the element.
            twin = Element2(*entries)
            assert vars(g) == vars(twin)
            assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
        c = random_state(rng)
        want = outcome(reference_conjugate, c, entries)
        # An array-like element keeps nothing and gives the same bits.
        rows = [entries[:2], entries[2:]]
        for array in (rows, g.matrix, np.array(g.matrix)) if element else (rows, np.array(rows)):
            assert outcome(conjugate, c, array) == want


def test_conjugate_overflow_matches_the_formula():
    c = CoherencyMatrix(1e300, 1e300, 5e299 + 5e299j)
    for g in (squeezer(40.0), compose(squeezer(30.0), rotator(0.4), squeezer(30.0))):
        entries = (g.alpha, g.beta, g.gamma, g.delta)
        for _ in range(2):
            got = outcome(conjugate, c, g)
            assert got == outcome(reference_conjugate, c, entries)
            assert got[0] is NonFiniteError


def edge_inputs():
    """Row-major 4x4 entries on both sides of the metric check's tolerance."""
    rng = random.Random(1415)
    for _ in range(100):
        eta = rng.choice((0.0, rng.uniform(-5.0, 5.0), rng.uniform(-400.0, 400.0)))
        e = squeeze4(eta).entries

        def moved(x):  # m00 + x: the (0, 0) defect grows by about 2 m00 x
            return (e[0] + x,) + e[1:]

        # Bisect for the x where the decision flips, then step across it.
        lo, hi = 0.0, 1e-9 * max(1.0, abs(e[0]))
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if reference_is_lorentz(moved(mid)) else (lo, mid)
        x = lo
        for _ in range(8):
            x = math.nextafter(x, -math.inf)
        for _ in range(16):
            yield moved(x)
            x = math.nextafter(x, math.inf)
    for huge in (_SQUARE_MAX, math.nextafter(_SQUARE_MAX, math.inf), 1e160, 1e300, 1.7e308):
        yield (huge, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        yield (huge, huge, 0.0, 0.0, huge, huge, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def family_inputs():
    """closed_form_family entries, among them inf and NaN ones."""
    for alpha in (0.0, 0.3, 0.5, 1.0):
        for u in (0.5, -3.0, 1e75, 1e150, 1e155, 1e160, 1e200, 1e300, -1e300):
            for w in (None, 1.0, 1e-300, 1e300):
                try:
                    p = InterpolationParams(alpha, u, w)
                except ValueError:
                    continue
                yield _family_matrix(p)


def test_is_lorentz_reaches_the_formula_decision():
    """Contract: the Lorentz decision Transform4.lorentz reads (hook:
    states._is_lorentz) is the reference formula's, on scans that cross
    its tolerance and on family matrices (hook: littlegroup._family_matrix,
    their entries)."""
    decisions = []
    for e in edge_inputs():
        decision = _is_lorentz(e)
        assert decision == reference_is_lorentz(e), e
        decisions.append(decision)
    assert 0.2 < sum(decisions) / len(decisions) < 0.8  # the scans cross the tolerance
    kinds = set()
    for e in family_inputs():
        assert _is_lorentz(e) == reference_is_lorentz(e), e
        kinds.update("nan" if x != x else "inf" for x in e if not math.isfinite(x))
    assert kinds == {"inf", "nan"}
    p = InterpolationParams(0.0, 0.5)
    assert closed_form_family(p).lorentz == reference_is_lorentz(_family_matrix(p)) is True
