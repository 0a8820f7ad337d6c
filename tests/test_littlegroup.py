import math

import numpy as np
import pytest

from twobeam import (
    IMPURE,
    InterpolationParams,
    NON_PHYSICAL,
    PURE,
    NonFiniteError,
    PhysicsError,
    StateClass,
    StokesVector,
    classify,
    closed_form_family,
    conjugated_rotation,
    f1,
    f2,
    f_product,
    family_metric_defect,
    lift,
    little_group_element,
    metric_defect,
    minkowski_norm,
    phase4,
    rotator4,
    squeeze4,
    standardize,
)
from test_states import random_element, random_physical_stokes

LIGHT = np.array([1.0, 1.0, 0.0, 0.0])


def test_classify_pinned():
    assert classify(StokesVector(1, 1, 0, 0)).tag == PURE
    c = classify(StokesVector(1, 0, 0, 0))
    assert c.tag == IMPURE and c.eta_to_standard == 0.0
    # boosted standard state at rapidity (1/2) ln 3, any overall scale
    eta = 0.5 * math.log(3.0)
    scale = math.exp(-eta)
    c = classify(StokesVector(scale * math.cosh(eta), scale * math.sinh(eta), 0, 0))
    assert c.tag == IMPURE
    assert abs(c.eta_to_standard - eta) < 1e-14


def test_classify_errors_and_spacelike():
    with pytest.raises(PhysicsError):
        classify(StokesVector(0, 0, 0, 0))
    c = classify(StokesVector(1, 2, 0, 0))
    assert c.tag == NON_PHYSICAL
    assert c.eta_to_standard is None


def test_classify_signed_eta():
    c = classify(StokesVector(1, -0.6, 0, 0))
    assert c.tag == IMPURE
    assert abs(c.eta_to_standard + math.atanh(0.6)) < 1e-14
    # s1 = 0 takes the nonnegative branch
    c = classify(StokesVector(1, 0, 0.6, 0))
    assert c.eta_to_standard > 0


def test_classify_tolerance_band():
    s = StokesVector(1, 0.99999, 0, 0)  # relative norm ~ 2e-5
    assert classify(s).tag == IMPURE
    assert classify(s, tol=1e-3).tag == PURE
    s = StokesVector(1, 1.00001, 0, 0)
    assert classify(s).tag == NON_PHYSICAL
    assert classify(s, tol=1e-3).tag == PURE
    # band scales with s0^2, not absolutely
    big = StokesVector(1e4, 1e4 * 0.99999, 0, 0)
    assert classify(big).tag == IMPURE


def test_standardize_pinned():
    t, std = standardize(StokesVector(1, 0, 0.6, 0))
    assert np.allclose(std.as_array(), [0.8, 0, 0, 0], atol=1e-12)
    assert metric_defect(t.m) < 1e-10

    eta = 0.9
    t, std = standardize(StokesVector(math.cosh(eta), math.sinh(eta), 0, 0))
    assert np.allclose(std.as_array(), [1, 0, 0, 0], atol=1e-12)
    assert np.abs(t.m - squeeze4(-eta).m).max() < 1e-12

    t, std = standardize(StokesVector(1, 0, 0, 0))
    assert np.abs(t.m - np.eye(4)).max() < 1e-15
    assert np.allclose(std.as_array(), [1, 0, 0, 0], atol=1e-15)


def test_standardize_pure():
    t, std = standardize(StokesVector(2, 0, 0, 2))
    assert np.allclose(std.as_array(), 2 * LIGHT, atol=1e-12)
    t, std = standardize(StokesVector(1, -1, 0, 0))
    assert np.allclose(std.as_array(), LIGHT, atol=1e-12)


def test_standardize_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        s = random_physical_stokes(rng)
        if s.s0 <= 0:
            continue
        t, std = standardize(s)
        assert np.abs(t.apply(s).as_array() - std.as_array()).max() < 1e-12
        tag = classify(s).tag
        if tag == IMPURE:
            assert abs(std.s1) < 1e-10 * s.s0
            assert abs(std.s2) < 1e-10 * s.s0 and abs(std.s3) < 1e-10 * s.s0
            assert std.s0 > 0
        else:
            assert abs(std.s1 - std.s0) < 1e-9 * s.s0
        # idempotence
        t2, std2 = standardize(std)
        assert np.abs(std2.as_array() - std.as_array()).max() < 1e-9 * max(1.0, s.s0)


def test_standardize_rejects_spacelike():
    with pytest.raises(PhysicsError):
        standardize(StokesVector(1, 2, 0, 0))


def test_f1_f2_fix_light_vector():
    rng = np.random.default_rng(43)
    for _ in range(100):
        u = rng.uniform(-5, 5)
        assert np.abs(f1(u).m @ LIGHT - LIGHT).max() < 1e-12
        assert np.abs(f2(u).m @ LIGHT - LIGHT).max() < 1e-12
        assert np.abs(phase4(u).m @ LIGHT - LIGHT).max() < 1e-12


def test_f1_is_lift_of_unit_shear():
    rng = np.random.default_rng(44)
    for _ in range(20):
        u = rng.uniform(-3, 3)
        assert np.abs(f1(u).m - lift([[1, u], [0, 1]]).m).max() < 1e-12


def test_f1_identity_and_additivity():
    assert np.abs(f1(0).m - np.eye(4)).max() == 0.0
    assert np.abs(f2(0).m - np.eye(4)).max() == 0.0
    rng = np.random.default_rng(47)
    for _ in range(100):
        a, b = rng.uniform(-3, 3, size=2)
        assert np.abs((f1(a) @ f1(b)).m - f1(a + b).m).max() < 1e-12
        assert np.abs((f2(a) @ f2(b)).m - f2(a + b).m).max() < 1e-12


def test_f1_f2_commute():
    rng = np.random.default_rng(53)
    for _ in range(100):
        u, v = rng.uniform(-3, 3, size=2)
        assert np.abs((f1(u) @ f2(v)).m - (f2(v) @ f1(u)).m).max() < 1e-12


def test_f_product():
    rng = np.random.default_rng(59)
    for _ in range(50):
        u, v = rng.uniform(-3, 3, size=2)
        m = f_product(u, v).m
        h = 0.5 * (u * u + v * v)
        assert np.abs(m[0] - [1 + h, -h, u, v]).max() < 1e-12
        assert np.abs(f_product(u, 0).m - f1(u).m).max() < 1e-13
        assert np.abs(m @ LIGHT - LIGHT).max() < 1e-12


def test_little_group_element_pure():
    t = little_group_element(PURE, phi=0.3, u=0.5, v=-0.2)
    assert np.abs(t.m @ LIGHT - LIGHT).max() < 1e-12
    assert metric_defect(t.m) < 1e-10
    ident = little_group_element(PURE)
    assert np.abs(ident.m - np.eye(4)).max() < 1e-15


def test_little_group_element_impure():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    t = little_group_element(IMPURE, theta=1.1)
    assert list(t.m @ e0) == [1, 0, 0, 0]
    t = little_group_element(IMPURE, theta=1.1, phi=-0.4)
    assert list(t.m @ e0) == [1, 0, 0, 0]


def test_little_group_element_accepts_state_class():
    cls = classify(StokesVector(1, 1, 0, 0))
    t = little_group_element(cls, u=0.7)
    assert np.abs(t.m @ LIGHT - LIGHT).max() < 1e-12


def test_little_group_element_rejects_mismatches():
    with pytest.raises(PhysicsError):
        little_group_element(PURE, theta=0.5)
    with pytest.raises(PhysicsError):
        little_group_element(IMPURE, u=0.5)
    with pytest.raises(PhysicsError):
        little_group_element(NON_PHYSICAL, phi=0.1)
    with pytest.raises(PhysicsError):
        little_group_element(StateClass(NON_PHYSICAL, -1.0))


def test_conjugated_rotation_basics():
    theta = 0.8
    assert np.abs(conjugated_rotation(theta, 0.0).m - rotator4(theta).m).max() == 0.0
    rng = np.random.default_rng(61)
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        eta = rng.uniform(-2, 2)
        t = conjugated_rotation(theta, eta)
        fixed = np.array([math.cosh(eta), math.sinh(eta), 0.0, 0.0])
        assert np.abs(t.m @ fixed - fixed).max() < 1e-12 * math.cosh(eta) ** 2
        expected = squeeze4(eta).m @ rotator4(theta).m @ squeeze4(-eta).m
        assert np.abs(t.m - expected).max() == 0.0


def test_conjugated_rotation_contraction():
    # the shear structure emerges at large rapidity: the (0,2) and
    # (2,0) entries agree identically, and (0,2)/(1,2) -> tanh(eta) -> 1
    theta = 0.4
    t = conjugated_rotation(theta, 10.0)
    assert abs(t.m[0, 2] / t.m[2, 0] - 1.0) < 1e-6
    assert abs(t.m[0, 2] / t.m[1, 2] - math.tanh(10.0)) < 1e-9


def test_interpolation_params():
    p = InterpolationParams(0.5, 0.3)
    assert abs(p.w - 0.98340503995082975) < 1e-15
    # derived w agrees with the (theta, eta) construction
    theta, eta = -2.0 * math.atan(0.15), math.atanh(0.5)
    q = InterpolationParams.from_angles(theta, eta)
    assert abs(q.alpha - 0.5) < 1e-14
    assert abs(q.u - 0.3) < 1e-14
    assert abs(q.w - p.w) < 1e-14
    assert InterpolationParams(1.0, 2.0).w == 1.0
    with pytest.raises(PhysicsError):
        InterpolationParams(1.2, 0.0)
    with pytest.raises(PhysicsError):
        InterpolationParams(-0.1, 0.0)
    with pytest.raises(PhysicsError):
        InterpolationParams(0.5, 0.3, w=-1.0)


def test_family_endpoints():
    rng = np.random.default_rng(67)
    for _ in range(100):
        theta = rng.uniform(-2.5, 2.5)
        p = InterpolationParams.from_angles(theta, 0.0)
        assert np.abs(closed_form_family(p).m - rotator4(theta).m).max() < 1e-12
        u = rng.uniform(-4, 4)
        p = InterpolationParams(1.0, u)
        assert np.abs(closed_form_family(p).m - f1(u).m).max() == 0.0


def test_family_interior_not_lorentz():
    p = InterpolationParams(0.5, 0.3)
    d = family_metric_defect(p)
    assert abs(d - 0.022493803664271745) < 1e-15
    t = closed_form_family(p)
    assert not t.lorentz
    assert abs(metric_defect(t.m) - d) < 1e-16
    # endpoints are metric preserving
    assert closed_form_family(InterpolationParams(1.0, 0.3)).lorentz
    assert closed_form_family(InterpolationParams(0.0, 0.3)).lorentz
    assert family_metric_defect(InterpolationParams(1.0, 0.3)) < 1e-12


def test_family_differs_from_conjugation_interior():
    # same (theta, eta) through both constructions: they are distinct
    # maps away from the endpoints
    theta, eta = 0.6, 0.7
    p = InterpolationParams.from_angles(theta, eta)
    a = closed_form_family(p).m
    b = conjugated_rotation(theta, eta).m
    assert np.abs(a - b).max() > 1e-2


def test_classify_invariant_under_lift_action():
    rng = np.random.default_rng(71)
    for _ in range(100):
        s = random_physical_stokes(rng)
        if s.s0 <= 0:
            continue
        tag = classify(s).tag
        g = random_element(rng)
        moved = lift(g).apply(s)
        assert classify(moved).tag == tag


def test_pure_stays_on_cone():
    rng = np.random.default_rng(73)
    for _ in range(200):
        g = random_element(rng)
        moved = lift(g).apply(StokesVector(1, 1, 0, 0))
        assert abs(minkowski_norm(moved)) < 1e-9 * moved.s0**2


def test_classify_overflow_is_plain():
    # a wrong class or a raw errno string would both be wrong here
    for s in (StokesVector(1e160, 1e160, 0, 0), StokesVector(1e160, 0, 0, 0)):
        with pytest.raises(NonFiniteError, match="too large to square"):
            classify(s)
    assert classify(StokesVector(1e150, 1e150, 0, 0)).tag == PURE


def test_classify_is_scale_free_where_s0_squared_underflows():
    # s0^2 underflows to 0 here; a band of tol * s0^2 would call every vector pure
    s = classify(StokesVector(1e-170, 0.5e-170, 0, 0))
    assert s.tag == IMPURE
    assert s.eta_to_standard == pytest.approx(math.atanh(0.5), rel=1e-15)
    assert classify(StokesVector(1e-300, 1.0, 0, 0)).tag == NON_PHYSICAL
    unit_vectors = [
        (1.0, 0.0, 0.0, 0.0),
        (1.0, -0.5, 0.1, 0.2),
        (1.0, 0.6, 0.0, 0.8),
        (1.0, 0.36, 0.48, 0.8),
        (1.0, 1.0 + 1e-6, 0.0, 0.0),
        (1.0, 3.0, 4.0, 0.0),
    ]
    for v in unit_vectors:
        want = classify(StokesVector(*v))
        for scale in (2.0**-520, 2.0**-700, 2.0**-1000):
            got = classify(StokesVector(*(scale * x for x in v)))
            assert got.tag == want.tag, (v, scale)
            if want.eta_to_standard is not None:
                assert got.eta_to_standard == pytest.approx(want.eta_to_standard, rel=1e-14)
