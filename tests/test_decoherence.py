import math

import numpy as np
import pytest

from twobeam import (
    CoherencyMatrix,
    IwasawaFactors,
    NonFiniteError,
    PhysicsError,
    StokesVector,
    coherency_from_stokes,
    d_a,
    decohere_channel,
    decoherence4,
    iwasawa_decompose,
    iwasawa_recompose,
    metric_defect,
    minkowski_norm,
    phase4,
    purity_report,
    r_a,
    rotator4,
    stokes_from_coherency,
    wigner_decompose,
    wigner_recompose,
)
from test_states import random_physical_stokes


def random_unimodular2(rng):
    m = r_a(rng.uniform(-math.pi, math.pi)) @ d_a(rng.uniform(-1, 1))
    m = m @ np.array([[1.0, rng.uniform(-2, 2)], [0.0, 1.0]])
    return m


def test_decoherence4_matrix():
    m = decoherence4(0.5).m
    e = math.exp(0.5)
    assert np.allclose(m, np.diag([e, e, 1 / e, 1 / e]), atol=1e-15)
    assert np.abs(decoherence4(0.0).m - np.eye(4)).max() == 0.0
    assert decoherence4(0.0).lorentz


def test_decoherence4_not_lorentz():
    for lam in (0.1, 0.5, 2.0):
        t = decoherence4(lam)
        assert not t.lorentz
        assert metric_defect(t.m) > 1e-3


def test_decoherence4_commutes_with_phase4():
    rng = np.random.default_rng(2)
    for _ in range(30):
        lam, phi = rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)
        left = decoherence4(lam).m @ phase4(phi).m
        right = phase4(phi).m @ decoherence4(lam).m
        assert np.abs(left - right).max() < 1e-14
    # it does not commute with the beam mixer
    left = decoherence4(0.5).m @ rotator4(0.7).m
    right = rotator4(0.7).m @ decoherence4(0.5).m
    assert np.abs(left - right).max() > 1e-2


def test_channel_pinned_example():
    out = decohere_channel(StokesVector(1, 0, 1, 0), 0.25)
    assert np.allclose(out.as_array(), [1, 0, math.exp(-0.5), 0], atol=1e-15)
    pr = purity_report(coherency_from_stokes(out))
    assert abs(pr.trace_sq - (1 + math.exp(-1)) / 2) < 1e-12


def test_channel_limits():
    s = StokesVector(1, 0, 1, 0)
    same = decohere_channel(s, 0.0)
    assert np.abs(same.as_array() - s.as_array()).max() == 0.0
    gone = decohere_channel(s, 40.0)
    assert np.abs(gone.as_array() - [1, 0, 0, 0]).max() < 1e-30
    pr = purity_report(coherency_from_stokes(gone))
    assert abs(pr.trace_sq - 0.5) < 1e-12
    assert pr.degree_of_polarization < 1e-30


def test_channel_is_scaled_decoherence4():
    rng = np.random.default_rng(6)
    for _ in range(50):
        s = random_physical_stokes(rng)
        lam = rng.uniform(0, 2)
        direct = decohere_channel(s, lam).as_array()
        scaled = math.exp(-lam) * (decoherence4(lam).m @ s.as_array())
        assert np.abs(direct - scaled).max() < 1e-12 * max(1.0, s.s0)


def test_channel_semigroup():
    rng = np.random.default_rng(10)
    for _ in range(100):
        s = random_physical_stokes(rng)
        l1, l2 = rng.uniform(0, 3, size=2)
        two_step = decohere_channel(decohere_channel(s, l1), l2).as_array()
        one_step = decohere_channel(s, l1 + l2).as_array()
        assert np.abs(two_step - one_step).max() < 1e-12


def test_channel_monotone():
    rng = np.random.default_rng(14)
    for _ in range(50):
        s = random_physical_stokes(rng)
        prev_purity = purity_report(coherency_from_stokes(s)).trace_sq
        prev_norm = minkowski_norm(s)
        state = s
        for lam in (0.1, 0.3, 1.0):
            state = decohere_channel(state, lam)
            pr = purity_report(coherency_from_stokes(state)).trace_sq
            assert pr <= prev_purity + 1e-12
            norm = minkowski_norm(state)
            assert norm >= prev_norm - 1e-12 * max(1.0, s.s0**2)
            prev_purity, prev_norm = pr, norm
    # equality when there is nothing to suppress
    s = StokesVector(1, 0.5, 0, 0)
    out = decohere_channel(s, 2.0)
    assert np.abs(out.as_array() - s.as_array()).max() == 0.0


def test_channel_preserves_positivity():
    rng = np.random.default_rng(18)
    for _ in range(100):
        s = random_physical_stokes(rng)
        out = decohere_channel(s, rng.uniform(0, 5))
        c = coherency_from_stokes(out)  # would raise if spacelike
        assert c.det >= -1e-12 * max(1.0, c.trace**2)


def test_channel_on_coherency_matches_stokes_form():
    # s12 -> e^-2l s12 is the Stokes form's map, with the same rounding:
    # s0 and s1 are the input's, and s2, s3 are the same products.
    rng = np.random.default_rng(27)
    for _ in range(300):
        c = coherency_from_stokes(random_physical_stokes(rng))
        lam = rng.uniform(0, 5)
        out = decohere_channel(c, lam)
        assert isinstance(out, CoherencyMatrix)
        assert (out.s11, out.s22) == (c.s11, c.s22)
        got = stokes_from_coherency(out)
        want = decohere_channel(stokes_from_coherency(c), lam)
        assert (got.s0, got.s1, got.s2, got.s3) == (want.s0, want.s1, want.s2, want.s3)


def test_channel_rejects_recoherence():
    for state in (StokesVector(1, 0, 0.5, 0), CoherencyMatrix(0.5, 0.5, 0.25)):
        for lam in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(PhysicsError):
                decohere_channel(state, lam)
    out = decohere_channel(StokesVector(1, 0, 0.5, 0), 0.25)
    assert abs(out.s2 - 0.5 * math.exp(-0.5)) < 1e-15


def test_two_by_two_generators():
    assert np.abs(d_a(0.0) - np.eye(2)).max() == 0.0
    assert np.abs(r_a(0.0) - np.eye(2)).max() == 0.0
    assert np.allclose(d_a(0.3), np.diag([math.exp(0.3), math.exp(-0.3)]), atol=1e-15)
    rng = np.random.default_rng(26)
    for _ in range(50):
        m = random_unimodular2(rng)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_reduced_action_matches_four_by_four():
    # with s3 = 0 the (s1, s2) pair evolves autonomously under
    # decoherence4 . rotator4, and the 2x2 pair (d_a, r_a) reproduces it
    rng = np.random.default_rng(30)
    for _ in range(50):
        x, y = rng.uniform(-1, 1, size=2)
        lam, theta = rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)
        s = np.array([1.0, x, y, 0.0])
        full = decoherence4(lam).m @ rotator4(theta).m @ s
        a = d_a(lam) @ r_a(theta) @ np.array([x, y])
        assert np.abs(full[[1, 2]] - a).max() < 1e-14
        assert full[3] == 0.0


def test_iwasawa_pinned():
    f = iwasawa_decompose(np.eye(2))
    assert f == (0.0, 0.0, 0.0)
    f = iwasawa_decompose(np.diag([2.0, 0.5]))
    assert abs(f.angle) < 1e-15
    assert abs(f.exponent - math.log(2.0)) < 1e-15
    assert abs(f.shear) < 1e-15
    # frozen worked example
    f = iwasawa_decompose(d_a(0.3) @ r_a(0.7))
    assert abs(f.angle - 0.43300051691088637) < 1e-14
    assert abs(f.exponent - 0.128743660597157) < 1e-14
    assert abs(f.shear + 0.4849671690789724) < 1e-14


def test_iwasawa_recompose_random():
    rng = np.random.default_rng(34)
    for _ in range(200):
        m = random_unimodular2(rng)
        f = iwasawa_decompose(m)
        assert np.abs(iwasawa_recompose(f) - m).max() < 1e-12
        again = iwasawa_decompose(iwasawa_recompose(f))
        assert np.abs(np.array(again) - np.array(f)).max() < 1e-10


def test_iwasawa_rejects_non_unimodular():
    with pytest.raises(PhysicsError):
        iwasawa_decompose(np.diag([2.0, 1.0]))
    with pytest.raises(PhysicsError):
        iwasawa_decompose(np.zeros((2, 2)))


def test_wigner_pinned():
    f = wigner_decompose(d_a(0.7))
    assert abs(f.axis_angle) < 1e-15
    assert abs(f.squeeze_exponent - 0.7) < 1e-15
    assert abs(f.residual_rotation) < 1e-15
    f = wigner_decompose(r_a(1.2))
    assert abs(f.axis_angle - 1.2) < 1e-15
    assert f.squeeze_exponent == 0.0 and f.residual_rotation == 0.0
    # rotations wrap deterministically into (-pi, pi]
    f = wigner_decompose(r_a(3.5))
    assert abs(f.axis_angle - (3.5 - 2 * math.pi)) < 1e-14


def test_wigner_two_squeeze_example():
    # squeeze along a tilted axis then along the first: the residual
    # rotation is the Wigner angle (frozen against an SVD oracle)
    m = d_a(0.4) @ (r_a(math.pi / 4) @ d_a(0.4) @ r_a(-math.pi / 4))
    f = wigner_decompose(m)
    assert abs(f.axis_angle - 0.3210137152661146) < 1e-14
    assert abs(f.squeeze_exponent - 0.5926739080141386) < 1e-14
    assert abs(f.residual_rotation + 0.4643844481313338) < 1e-14
    assert abs(f.wigner_angle + 0.14337073286521917) < 1e-14
    assert np.abs(wigner_recompose(f) - m).max() < 1e-14


def test_wigner_random():
    rng = np.random.default_rng(38)
    for _ in range(200):
        m = random_unimodular2(rng)
        f = wigner_decompose(m)
        assert f.squeeze_exponent >= 0.0
        if f.squeeze_exponent > 0.0:
            assert -math.pi / 2 < f.axis_angle <= math.pi / 2
        assert np.abs(wigner_recompose(f) - m).max() < 1e-12
        again = wigner_decompose(wigner_recompose(f))
        assert np.abs(np.array(again) - np.array(f)).max() < 1e-10


def test_wigner_matches_svd():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = random_unimodular2(rng)
        f = wigner_decompose(m)
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(f.squeeze_exponent - math.log(top)) < 1e-10


def test_wigner_rejects_non_unimodular():
    with pytest.raises(PhysicsError):
        wigner_decompose(np.diag([3.0, 1.0]))


@pytest.mark.parametrize("decompose", [iwasawa_decompose, wigner_decompose])
def test_decompose_rejects_an_overflowing_determinant(decompose):
    # 1e300 * 1e300 - 1e300 * 1e300 is inf - inf: a NaN determinant, which
    # a test of the form |det - 1| >= tol lets through.
    for m in ([[1e300, 1e300], [1e300, 1e300]], [[1e300, 0.0], [0.0, 1e300]]):
        with pytest.raises(NonFiniteError, match="determinant is beyond the float range"):
            decompose(m)


# Unit determinant, but a factor beyond the float range: the shear is 1e600,
# and the first column's length e^exponent = e^sigma = 2.1e308.
SHEARED = [[1e-300, 1e300], [0.0, 1e300]]
TALL = [[1.5e308, 0.0], [1.5e308, 1.0 / 1.5e308]]


def test_decompose_rejects_a_factor_beyond_the_float_range():
    for decompose, m, what in (
        (iwasawa_decompose, SHEARED, "Iwasawa shear"),
        (iwasawa_decompose, TALL, r"Iwasawa factor e\^exponent"),
        (wigner_decompose, TALL, "squeeze exponent"),
    ):
        with pytest.raises(NonFiniteError, match=f"{what} is beyond the float range"):
            decompose(m)
    with pytest.raises(NonFiniteError, match=r"Iwasawa product e\^exponent \* shear is beyond"):
        IwasawaFactors(0.0, 700.0, 1e300).entries


def test_wigner_squeeze_near_the_float_limit():
    # total + excess overflows, but e^sigma, their half, is 1e308
    m = [[1e-300, 1e308], [0.0, 1e300]]
    f = wigner_decompose(m)
    assert abs(f.squeeze_exponent - math.log(1e308)) < 1e-12
    assert np.abs(wigner_recompose(f) - m).max() < 1.5e-14 * 1e308


def test_exponentials_that_overflow_raise_non_finite():
    for make in (
        lambda: decoherence4(800.0),
        lambda: decoherence4(-800.0),  # e^-800 is 0: 1 / e would divide by zero
        lambda: decoherence4(-709.9),  # e^-709.9 is subnormal: 1 / e is inf
        lambda: d_a(800.0),
        lambda: d_a(-800.0),
        lambda: IwasawaFactors(0.0, 800.0, 0.0).entries,
    ):
        with pytest.raises(NonFiniteError, match="overflowed"):
            make()
    assert decoherence4(709.0).m[0, 0] == math.exp(709.0)
    assert decoherence4(-708.0).m[3, 3] == 1.0 / math.exp(-708.0)
