import math

import numpy as np
import pytest

from twobeam import (
    Element2,
    JonesVector,
    NonFiniteError,
    PhysicsError,
    attenuator,
    coherency_from_jones,
    compose,
    lift,
    phase4,
    phase_shifter,
    rotator,
    rotator4,
    split_angle,
    squeeze4,
    squeezer,
    stokes_from_coherency,
)


def test_generators_are_unimodular():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-4, 4)
        for ctor in (rotator, phase_shifter, squeezer):
            assert abs(ctor(x).det - 1.0) < 1e-12


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


def test_squeeze4_overflow_is_plain():
    # a plain error, not OverflowError("math range error") from math.cosh
    for eta in (800.0, -800.0):
        with pytest.raises(NonFiniteError, match="squeeze4 overflowed"):
            squeeze4(eta)
