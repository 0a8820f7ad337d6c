import cmath
import itertools
import math
import random
import sys

import numpy as np
import pytest

from twobeam import (
    STAGES,
    UNIMODULAR_TOL,
    CoherencyMatrix,
    Element2,
    InterpolationParams,
    JonesVector,
    NonFiniteError,
    PhysicsError,
    StokesVector,
    Transform4,
    attenuator,
    classify,
    coherency_from_jones,
    coherency_from_stokes,
    compose,
    decohere_channel,
    f1,
    lift,
    metric_defect,
    phase4,
    phase_shifter,
    rotator,
    rotator4,
    split_angle,
    squeeze4,
    squeezer,
    stokes_from_coherency,
    wigner_decompose,
)


def test_generators_are_unimodular():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-4, 4)
        for ctor in (rotator, phase_shifter, squeezer):
            assert abs(ctor(x).det - 1.0) < 1e-12


def test_closed_forms_are_unimodular_by_construction():
    # rotator, phase_shifter and squeezer skip Element2's check: their
    # entries must be finite with |det - 1| <= UNIMODULAR_TOL at any finite
    # angle and at every eta up to the edge where e^(|eta|/2) overflows.
    rng = random.Random(18)
    edge = 2.0 * math.log(sys.float_info.max)
    angles = [0.0, math.pi, 1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324]
    angles += [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-320, 308) for _ in range(1000)]
    etas = [0.0, edge, -edge, math.nextafter(edge, 0.0), 1419.5, -1419.5]
    etas += [rng.uniform(-edge, edge) for _ in range(500)]
    etas += [rng.choice((-1, 1)) * (edge - 10.0 ** rng.uniform(-12, 2)) for _ in range(500)]
    for ctor, params in ((rotator, angles), (phase_shifter, angles), (squeezer, etas)):
        for x in params:
            g = ctor(x)
            entries = (g.alpha, g.beta, g.gamma, g.delta)
            assert all(type(e) is complex and cmath.isfinite(e) for e in entries), (ctor, x)
            assert abs(g.det - 1.0) <= UNIMODULAR_TOL, (ctor, x)
    for eta in (math.nextafter(edge, math.inf), -math.nextafter(edge, math.inf)):
        with pytest.raises(NonFiniteError, match="squeezer overflowed"):
            squeezer(eta)


def test_rotator_matrix_entries():
    r = rotator(math.pi / 2)
    c = math.cos(math.pi / 4)
    assert np.allclose(r.matrix, [[c, -c], [c, c]], atol=1e-15)


def test_phase_shifter_entries():
    p = phase_shifter(0.8)
    assert abs(p.alpha - np.exp(-0.4j)) < 1e-15
    assert abs(p.delta - np.exp(0.4j)) < 1e-15
    assert p.beta == 0 and p.gamma == 0


def test_squeezer_entries():
    s = squeezer(0.6)
    assert abs(s.alpha - math.exp(0.3)) < 1e-15
    assert abs(s.delta - math.exp(-0.3)) < 1e-15


def test_attenuator_factorization():
    overall, rel = attenuator(0.2, 0.7)
    assert abs(overall - math.exp(-0.45)) < 1e-15
    # overall * relative reconstructs the physical per-beam decays
    physical = overall * rel.matrix
    assert np.allclose(physical, np.diag([math.exp(-0.2), math.exp(-0.7)]), atol=1e-15)
    with pytest.raises(PhysicsError):
        attenuator(-0.1, 0.0)
    with pytest.raises(PhysicsError):
        attenuator(0.0, -0.1)


def test_attenuator_identity():
    overall, rel = attenuator(0.0, 0.0)
    assert overall == 1.0
    assert np.allclose(rel.matrix, np.eye(2), atol=1e-15)


def test_general_and_compose():
    g = Element2.from_matrix([[1, 0.3], [0, 1]])
    assert abs(g.det - 1.0) < 1e-15
    with pytest.raises(PhysicsError):
        Element2.from_matrix([[1, 0], [0, 2]])
    # compose applies left argument first
    a, b = rotator(0.4), squeezer(0.5)
    ab = compose(a, b)
    assert np.allclose(ab.matrix, b.matrix @ a.matrix, atol=1e-15)
    with pytest.raises(PhysicsError):
        compose()
    # each factor is within tolerance of det 1, their product is not
    with pytest.raises(PhysicsError, match="product must be unimodular"):
        compose(*[Element2(1 + 9e-13, 0, 0, 1)] * 10)
    with pytest.raises(NonFiniteError, match="compose overflowed"):
        compose(*[squeezer(700.0)] * 3)
    # singular matrices whose determinant overflows to NaN
    for build in (
        lambda: Element2(1e160, 1e160, 1e160, 1e160),
        lambda: Element2.from_matrix([[1e300, 1e300], [1e300, 1e300]]),
        lambda: compose([[1e200, 1e200], [1e200, 1e200]]),
    ):
        with pytest.raises(NonFiniteError, match="element determinant is beyond the float range"):
            build()


def test_closed_forms_match_lift():
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        assert np.abs(rotator4(theta).m - lift(rotator(theta)).m).max() < 1e-13
        assert np.abs(phase4(theta).m - lift(phase_shifter(theta)).m).max() < 1e-13
        eta = rng.uniform(-2, 2)
        assert np.abs(squeeze4(eta).m - lift(squeezer(eta)).m).max() < 1e-12 * math.cosh(eta) ** 2


def test_rotator4_block():
    m = rotator4(0.7).m
    c, s = math.cos(0.7), math.sin(0.7)
    assert m[1, 1] == c and m[2, 2] == c
    assert m[1, 2] == -s and m[2, 1] == s
    # s0 and s3 rows/columns exactly trivial
    assert list(m[0]) == [1, 0, 0, 0] and list(m[:, 0]) == [1, 0, 0, 0]
    assert list(m[3]) == [0, 0, 0, 1] and list(m[:, 3]) == [0, 0, 0, 1]


def test_phase4_block():
    m = phase4(0.7).m
    c, s = math.cos(0.7), math.sin(0.7)
    assert m[2, 2] == c and m[3, 3] == c
    assert m[2, 3] == s and m[3, 2] == -s
    assert list(m[0]) == [1, 0, 0, 0] and list(m[1]) == [0, 1, 0, 0]


def test_phase4_direction_pinned():
    # (1,0,1,0) under a quarter phase goes to s3 = -1 with this
    # correlation convention; the 2x2 and 4x4 pictures must agree
    j = JonesVector(1 / math.sqrt(2), 1 / math.sqrt(2))
    c = coherency_from_jones(j)
    s = stokes_from_coherency(c)
    out = lift(phase_shifter(math.pi / 2)).apply(s)
    assert np.allclose(out.as_array(), [1, 0, 0, -1], atol=1e-15)
    out4 = phase4(math.pi / 2).apply(s)
    assert np.abs(out4.as_array() - out.as_array()).max() < 1e-15


def test_squeeze4_block():
    m = squeeze4(0.9).m
    ch, sh = math.cosh(0.9), math.sinh(0.9)
    assert m[0, 0] == ch and m[1, 1] == ch
    assert m[0, 1] == sh and m[1, 0] == sh
    assert m[2, 2] == 1 and m[3, 3] == 1


def test_split_angle():
    assert abs(split_angle(0.5) + math.pi / 2) < 1e-15
    assert split_angle(1.0) == 0.0
    assert abs(split_angle(0.0) + math.pi) < 1e-15
    with pytest.raises(PhysicsError):
        split_angle(1.5)
    with pytest.raises(PhysicsError):
        split_angle(-0.1)
    # the produced mixer really leaves the stated intensity fraction in beam 1
    rng = np.random.default_rng(9)
    for _ in range(20):
        ratio = rng.uniform(0, 1)
        g = rotator(split_angle(ratio))
        amps = np.conj(g.matrix) @ np.array([1.0, 0.0])
        assert abs(abs(amps[0]) ** 2 - ratio) < 1e-12


def test_one_parameter_group_laws():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, b = rng.uniform(-2, 2, size=2)
        assert np.abs((rotator4(a) @ rotator4(b)).m - rotator4(a + b).m).max() < 1e-12
        assert np.abs((phase4(a) @ phase4(b)).m - phase4(a + b).m).max() < 1e-12
        prod = (squeeze4(a) @ squeeze4(b)).m
        assert np.abs(prod - squeeze4(a + b).m).max() < 1e-12 * math.cosh(a + b) ** 2


def test_finite_parameter_required():
    for ctor in (rotator, phase_shifter, squeezer, rotator4, phase4, squeeze4):
        with pytest.raises(PhysicsError):
            ctor(math.inf)
    with pytest.raises(PhysicsError, match="attenuation exponents must be finite"):
        attenuator(math.inf, 0)


def test_an_int_beyond_the_float_range_is_a_named_physics_error():
    # float(10**400) raises OverflowError; each constructor, record and
    # conversion of an array-like reports the parameter it could not read
    # instead.
    named = [(ctor, f"{name} is beyond the float range") for ctor, name in (
        (rotator, "theta"), (phase_shifter, "phi"), (squeezer, "eta"), (rotator4, "theta"), (phase4, "phi"),
        (squeeze4, "eta"), (f1, "u"), (lambda x: decohere_channel(CoherencyMatrix(1, 1, 0), x), "lambda"))]
    named += [(make, f"{name} is beyond the float range") for make, name in (
        (lambda x: StokesVector(x, 0, 0, 0), "s0"), (lambda x: JonesVector(1, x), "psi2"),
        (lambda x: CoherencyMatrix(x, 0, 0), "s11"), (lambda x: CoherencyMatrix(1, 1, x), "s12"),
        (lambda x: Element2(1, 0, 0, x), "delta"), (lambda x: InterpolationParams(x, 0), "alpha"),
        (lambda x: InterpolationParams(0.5, 0, x), "w"), (lambda x: Transform4([x] + [0] * 15), "transform entry"),
        (lambda x: metric_defect([[1, 0, 0, 0]] * 3 + [[0, 0, 0, x]]), "transform entry"),
        (lambda x: lift([[x, 0], [0, 1]]), "matrix entry"), (lambda x: compose([[1, x], [0, 1]]), "matrix entry"),
        (lambda x: wigner_decompose([[1, 0], [x, 1]]), "matrix entry"),
        (lambda x: CoherencyMatrix.from_matrix([[1, 0], [0, x]]), "matrix entry"),
        (lambda x: StokesVector.from_array([1, 0, x, 0]), "Stokes component"),
        (lambda x: classify(StokesVector(1, 0, 0, 0), x), "tol"),
        (lambda x: coherency_from_stokes(StokesVector(1, 0, 0, 0), x), "tol"))]
    for call, message in named + [
        (lambda x: attenuator(x, 0), "attenuation exponents are beyond the float range"),
        (lambda x: attenuator(0, x), "attenuation exponents are beyond the float range"),
        (split_angle, "split ratio must lie in [0, 1]"),
        (lambda x: InterpolationParams.from_angles(x, 1), "theta or eta is beyond the float range"),
        (lambda x: InterpolationParams.from_angles(1, x), "theta or eta is beyond the float range"),
    ]:
        for x in (10**400, -10**400):
            with pytest.raises(PhysicsError) as err:
                call(x)
            assert err.type is PhysicsError and str(err.value) == message


def test_squeeze4_overflow_is_plain():
    # a plain error, not OverflowError("math range error") from math.cosh
    # or math.exp
    for ctor, eta in ((squeeze4, 800.0), (squeezer, 3000.0)):
        for sign in (1.0, -1.0):
            with pytest.raises(NonFiniteError, match=f"{ctor.__name__} overflowed"):
                ctor(sign * eta)


def entries(g):
    return g.alpha, g.beta, g.gamma, g.delta


def attenuation(eta1, eta2):
    """diag(e^-eta1, e^-eta2), after the exponent checks of attenuator. Only its
    squeezer, not this matrix, overflows for |eta1 - eta2| above about 1419."""
    try:
        attenuator(eta1, eta2)
    except NonFiniteError:
        pass
    return complex(math.exp(-eta1)), 0j, 0j, complex(math.exp(-eta2))


# Each coherent stage's Jones matrix, row-major, from the public constructor of its kind.
CONSTRUCTORS = {
    "rotate": lambda theta: entries(rotator(theta)),
    "split": lambda theta: entries(rotator(theta)),
    "phase": lambda phi: entries(phase_shifter(phi)),
    "squeeze": lambda eta: entries(squeezer(eta)),
    "atten": attenuation,
}


def entries_or_error(make, *args):
    """make(*args), or the class and message it raises."""
    try:
        return make(*args)
    except PhysicsError as err:
        return type(err), str(err)


def test_stage_actions_are_the_constructors_entries():
    # A STAGES action returns the numbers its kind's constructor wraps:
    # the same entries, bit for bit and of the same classes, and the same
    # error where the entries overflow, for every value a CircuitAst holds
    # (finite, and nonnegative where the kind says). The constructors
    # check the other values themselves.
    assert set(CONSTRUCTORS) == {name for name, kind in STAGES.items() if kind.action}
    values = (0.0, -0.0, 0.3, -2.5, 5e-324, 1e-300, 700.0, 1418.0, -1420.0, 2000.0, -2000.0,
              1e308, math.inf, -math.inf, math.nan)
    errors = set()
    for name, make in CONSTRUCTORS.items():
        kind = STAGES[name]
        for args in itertools.product(values, repeat=len(kind.params)):
            want = entries_or_error(make, *args)
            if not all(map(math.isfinite, args)) or any(
                    x < 0.0 for key, x in zip(kind.params, args) if key in kind.nonnegative):
                errors.add(want)
                continue
            try:
                got = kind.action(*args)
            except PhysicsError as err:
                got = type(err), str(err)
                errors.add(got)
            assert repr(got) == repr(want), (name, args)
            assert list(map(type, got)) == list(map(type, want)), (name, args)
    assert errors >= {
        (PhysicsError, "theta must be finite"),
        (PhysicsError, "phi must be finite"),
        (PhysicsError, "eta must be finite"),
        (PhysicsError, "attenuation exponents must be finite"),
        (PhysicsError, "attenuation exponents must be nonnegative"),
        (NonFiniteError, "squeezer overflowed: e^(2000/2) is too large"),
    }
