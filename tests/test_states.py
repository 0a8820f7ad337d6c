import math
import warnings

import numpy as np
import pytest

from twobeam import (
    CoherencyMatrix,
    Element2,
    JonesVector,
    MINKOWSKI,
    NonFiniteError,
    PhysicsError,
    StokesVector,
    Transform4,
    coherency_from_jones,
    coherency_from_stokes,
    compose,
    conjugate,
    decoherence4,
    evaluate,
    iwasawa_decompose,
    lift,
    metric_defect,
    minkowski_norm,
    parse,
    phase_shifter,
    purity_report,
    relative_norm,
    rotator,
    rotator4,
    squeezer,
    stokes_from_coherency,
)
from twobeam import states


def random_element(rng, eta_max=1.0):
    # products of the three generator families reach the whole group
    e = rotator(rng.uniform(-math.pi, math.pi))
    e = compose(e, phase_shifter(rng.uniform(-math.pi, math.pi)))
    e = compose(e, squeezer(rng.uniform(-eta_max, eta_max)))
    e = compose(e, rotator(rng.uniform(-math.pi, math.pi)))
    return e


def random_physical_stokes(rng):
    s0 = rng.uniform(0.1, 3.0)
    p = rng.uniform(0.0, 1.0)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return StokesVector(s0, *(s0 * p * n))


def test_jones_to_stokes_pinned_examples():
    # all light in beam 1
    s = stokes_from_coherency(coherency_from_jones(JonesVector(1, 0)))
    assert np.allclose(s.as_array(), [1, 1, 0, 0], atol=1e-15)
    # equal split with quarter-wave relative phase: s3 = +1
    j = JonesVector(1 / math.sqrt(2), 1j / math.sqrt(2))
    s = stokes_from_coherency(coherency_from_jones(j))
    assert np.allclose(s.as_array(), [1, 0, 0, 1], atol=1e-15)
    # equal split in phase: s2 = +1
    j = JonesVector(1 / math.sqrt(2), 1 / math.sqrt(2))
    s = stokes_from_coherency(coherency_from_jones(j))
    assert np.allclose(s.as_array(), [1, 0, 1, 0], atol=1e-15)


def test_coherency_from_jones_is_rank_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = coherency_from_jones(JonesVector(a[0], a[1]))
        assert abs(c.det) < 1e-13 * max(1.0, c.trace**2)


def test_jones_intensity_is_the_coherency_trace():
    # One sum, s11 + s22, for the intensity, the trace and evaluate's
    # input s0; |psi1|^2 + |psi2|^2 by abs() differs from it in the last
    # bit for about 44% of these vectors.
    rng = np.random.default_rng(29)
    ast = parse("phase(phi=0.5)")
    for i, (a, b, c, d) in enumerate(rng.normal(size=(20000, 4))):
        j = JonesVector(complex(a, b), complex(c, d))
        assert j.intensity == coherency_from_jones(j).trace
        if i % 100 == 0:
            assert j.intensity == evaluate(ast, j).input_stokes.s0


def test_zero_field_allowed():
    c = coherency_from_jones(JonesVector(0, 0))
    assert c.trace == 0.0
    with pytest.raises(PhysicsError):
        purity_report(c)


def test_stokes_coherency_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = random_physical_stokes(rng)
        back = stokes_from_coherency(coherency_from_stokes(s))
        assert np.abs(back.as_array() - s.as_array()).max() < 1e-14


def test_coherency_from_stokes_rejects_spacelike():
    with pytest.raises(PhysicsError):
        coherency_from_stokes(StokesVector(1, 2, 0, 0))


def test_stokes_vector_validation():
    # spacelike is constructible (classification needs it), s0 < 0 is not
    s = StokesVector(1, 2, 0, 0)
    with pytest.raises(PhysicsError):
        s.require_physical()
    with pytest.raises(PhysicsError):
        StokesVector(-1, 0, 0, 0)
    with pytest.raises(PhysicsError):
        StokesVector(math.nan, 0, 0, 0)
    with pytest.raises(PhysicsError):
        StokesVector.from_array([1, 0, 0])


@pytest.mark.parametrize("make, cls, message", [
    (lambda: JonesVector(math.nan, 0), NonFiniteError, "Jones amplitudes must be finite"),
    (lambda: Element2(1, 0, math.inf, 1), NonFiniteError, "element entries must be finite"),
    (lambda: Transform4([0.0] * 15 + [math.nan]), NonFiniteError, "transform entries must be finite"),
    # from_matrix drops the lower-left entry, so the constructor never sees it
    (lambda: CoherencyMatrix.from_matrix([[1.0, 0.0], [math.nan, 1.0]]), NonFiniteError,
     "coherency entries must be finite"),
    (lambda: iwasawa_decompose([[math.inf, 0.0], [0.0, 1.0]]), NonFiniteError, "matrix entries must be finite"),
    (lambda: Transform4(np.eye(4)) @ 3, TypeError, "unsupported operand type(s) for @: 'Transform4' and 'int'"),
])
def test_rejections_raise_their_class_and_message(make, cls, message):
    with pytest.raises(cls) as err:
        make()
    assert err.type is cls and str(err.value) == message


def test_minkowski_norm_is_four_det():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = random_physical_stokes(rng)
        c = coherency_from_stokes(s)
        assert abs(minkowski_norm(s) - 4.0 * c.det) < 1e-13 * max(1.0, s.s0**2)


def test_element_unimodularity_enforced():
    with pytest.raises(PhysicsError):
        Element2(2, 0, 0, 1)
    with pytest.raises(PhysicsError):
        Element2.from_matrix(np.eye(3))
    e = Element2.from_matrix([[1, 0.5], [0, 1]])
    assert abs(e.det - 1.0) < 1e-15


def test_coherency_validation():
    with pytest.raises(PhysicsError):
        CoherencyMatrix(-1.0, 1.0, 0.0)
    with pytest.raises(PhysicsError):
        CoherencyMatrix(1.0, 1.0, 2.0)  # |s12|^2 > s11 s22
    with pytest.raises(PhysicsError):
        CoherencyMatrix.from_matrix([[1.0, 1.0], [0.0, 1.0]])  # not Hermitian
    with pytest.raises(PhysicsError, match="not Hermitian"):
        CoherencyMatrix.from_matrix([[1e-13, 1e-13], [0.0, 1e-13]])  # nor at any scale
    assert CoherencyMatrix.from_matrix([[0.0, 0.0], [0.0, 0.0]]).trace == 0.0
    c = CoherencyMatrix.from_matrix([[0.5, 0.5j], [-0.5j, 0.5]])
    assert c.s12 == 0.5j


def test_conjugate_preserves_det():
    rng = np.random.default_rng(19)
    for _ in range(100):
        s = random_physical_stokes(rng)
        c = coherency_from_stokes(s)
        g = random_element(rng)
        c2 = conjugate(c, g)
        assert abs(c2.det - c.det) < 1e-12 * max(1.0, c.trace**2)


def test_conjugate_agrees_with_lift():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s = random_physical_stokes(rng)
        c = coherency_from_stokes(s)
        g = random_element(rng)
        via_matrix = stokes_from_coherency(conjugate(c, g)).as_array()
        via_lift = lift(g).apply(s).as_array()
        assert np.abs(via_matrix - via_lift).max() < 1e-12 * max(1.0, s.s0)


def test_lift_halftrace_oracle():
    # independent construction: M_ij = tr(tau_i G tau_j G+) / 2 with the
    # basis dual to (s0, s1, s2, s3)
    tau = [
        np.eye(2, dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, 1j], [-1j, 0]], dtype=complex),
    ]
    rng = np.random.default_rng(29)
    for _ in range(50):
        g = random_element(rng).matrix
        m = lift(g).m
        oracle = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                oracle[i, j] = 0.5 * np.trace(tau[i] @ g @ tau[j] @ g.conj().T).real
        assert np.abs(m - oracle).max() < 1e-12


def test_lift_sign_blind():
    rng = np.random.default_rng(31)
    g = random_element(rng).matrix
    assert np.abs(lift(g).m - lift(-g).m).max() < 1e-13


def test_lift_is_proper_orthochronous():
    rng = np.random.default_rng(37)
    for _ in range(100):
        m = lift(random_element(rng)).m
        assert metric_defect(m) < 1e-10 * max(1.0, np.abs(m).max() ** 2)
        assert m[0, 0] >= 1.0 - 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-9


def test_lift_rejects_non_unimodular():
    with pytest.raises(PhysicsError):
        lift(np.diag([2.0, 1.0]))


def test_purity_report_values():
    pure = purity_report(coherency_from_jones(JonesVector(1, 1j)))
    assert abs(pure.trace - 2.0) < 1e-15
    assert abs(pure.trace_sq - 1.0) < 1e-15
    assert abs(pure.det) < 1e-15
    assert abs(pure.degree_of_polarization - 1.0) < 1e-15
    mixed = purity_report(CoherencyMatrix(0.5, 0.5, 0.0))
    assert abs(mixed.trace_sq - 0.5) < 1e-15
    assert abs(mixed.det - 0.25) < 1e-15
    assert mixed.degree_of_polarization == 0.0
    # intensity scale must not matter
    scaled = purity_report(CoherencyMatrix(5.0, 5.0, 0.0))
    assert abs(scaled.trace_sq - 0.5) < 1e-15


def test_purity_and_light_cone_are_scale_free_where_squares_underflow():
    # tr^2 and s0^2 underflow to 0 here; dividing by them, or a band of
    # tol * s0^2, would fail or pass tiny spacelike vectors
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = random_physical_stokes(rng)
        tiny = StokesVector(*(2.0**-700 * s.as_array()))
        want, got = purity_report(coherency_from_stokes(s)), purity_report(coherency_from_stokes(tiny))
        assert got.trace == 2.0**-700 * want.trace
        assert np.allclose(got[1:], want[1:], rtol=0.0, atol=1e-15)
        assert abs(relative_norm(tiny) - relative_norm(s)) < 1e-15
    assert relative_norm(StokesVector(1e-200, 0, 0, 0)) == 1.0
    with pytest.raises(PhysicsError, match="spacelike"):
        coherency_from_stokes(StokesVector(1e-200, 2e-200, 0, 0))
    coherency_from_stokes(StokesVector(1e-200, 0.6e-200, 0.8e-200, 0))


def test_transform4_lorentz_flag():
    t = Transform4(np.diag([2.0, 1.0, 1.0, 1.0]))
    assert not t.lorentz
    # read from the entries, however the matrix was made
    for t, expected in (
        (Transform4(np.eye(4)), True),
        (rotator4(0.3) @ Transform4(np.eye(4)), True),
        (decoherence4(1e-300), True),  # e^lambda rounds to 1: exactly the identity
        (decoherence4(0.3), False),
    ):
        assert t.lorentz is expected, t
    # boosts validate at their own scale: cosh^2 - sinh^2 carries
    # rounding ~ cosh^2 * eps, far above 1e-10 in absolute terms
    big = lift(squeezer(10.0))
    assert big.lorentz
    assert metric_defect(big.m) < 1e-10 * np.abs(big.m).max() ** 2


def test_transform4_matmul_propagates_flag():
    a = lift(rotator(0.3))
    b = Transform4(np.diag([1.0, 1.0, 2.0, 0.5]))
    assert (a @ a).lorentz
    assert not (a @ b).lorentz
    s = StokesVector(1, 0.5, 0, 0)
    left = (a @ a).apply(s).as_array()
    right = a.apply(a.apply(s)).as_array()
    assert np.abs(left - right).max() < 1e-14


def test_metric_defect_identity():
    assert metric_defect(np.eye(4)) == 0.0
    assert MINKOWSKI[0, 0] == 1.0 and MINKOWSKI[1, 1] == -1.0


def test_squares_that_overflow_raise_non_finite():
    # s0 above about 1.3e154 cannot be squared; the absolute norm says so
    # instead of surfacing as errno 34.
    with pytest.raises(NonFiniteError, match="too large to square"):
        minkowski_norm(StokesVector(1e160, 1e160, 0, 0))
    # the gate's checks are scale-free: finite states this large pass it
    assert CoherencyMatrix(1e160, 0.0, 0.0).trace == 1e160
    assert coherency_from_jones(JonesVector(1e80, 0)).s11 == 1e80 * 1e80
    # finite intensities whose sum overflows, with or without a negative one
    for s11, s22 in ((1e308, 1e308), (1e308, -1e308)):
        with pytest.raises(NonFiniteError, match="infinite"):
            CoherencyMatrix(s11, s22, 0.0)
    with pytest.raises(NonFiniteError, match="infinite"):
        coherency_from_jones(JonesVector(1e154, 1e154))
    # the largest accepted trace still has a purity report
    assert purity_report(CoherencyMatrix(1.3e154, 0.0, 0.0)).trace_sq == 1.0


def test_lift_overflow_is_plain():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # entries of the lift overflow
        with pytest.raises(NonFiniteError, match="lift overflowed"):
            lift(squeezer(800.0))
        # entries are finite, and the scale-free metric check passes them
        assert lift(squeezer(400.0)).lorentz
        assert lift(squeezer(300.0)).m[0, 0] == pytest.approx(math.cosh(300.0), rel=1e-12)


def test_coherency_slack_is_relative_to_the_trace():
    # an absolute slack of 1e-12 let these non-physical matrices through
    with pytest.raises(PhysicsError, match="nonnegative"):
        CoherencyMatrix(1e-13, -5e-14, 0)
    with pytest.raises(PhysicsError, match="positive semidefinite"):
        CoherencyMatrix(1e-13, 1e-13, 3e-13)
    # physical matrices pass at every scale, also where products underflow
    for scale in (1e3, 1.0, 1e-13, 1e-170, 1e-300):
        CoherencyMatrix(scale, scale, scale)
        CoherencyMatrix(scale, 0.0, 0.0)
        CoherencyMatrix(scale, -1e-13 * scale, 0.0)
        c = coherency_from_jones(JonesVector(0.6 * scale**0.5, 0.8j * scale**0.5))
        assert purity_report(c).trace_sq == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600])
def test_coherency_gates_hold_their_slack_at_every_scale(scale):
    """Contract: a pure state perturbed by ten times a gate's documented
    slack is rejected, and one perturbed by a tenth of it is accepted, at
    unit intensity and where the gate rescales. The PSD slack is 1e-12 of
    the squared trace, from_matrix's Hermitian slack 1e-12 of the largest
    entry. A power of two scales every entry exactly."""
    s11, s22 = 0.6 * scale, 0.4 * scale
    for factor, accepted in ((0.1, True), (10.0, False)):
        # |s12|^2 = s11 s22 + factor * 1e-12 (s11 + s22)^2, so det = -factor * 1e-12 trace^2
        s12 = complex(0.6, 0.8) * math.sqrt(0.24 + factor * 1e-12) * scale
        if accepted:
            CoherencyMatrix(s11, s22, s12)
        else:
            with pytest.raises(PhysicsError, match="^coherency matrix must be positive semidefinite"):
                CoherencyMatrix(s11, s22, s12)
        s12 = math.sqrt(0.24) * scale
        m = [[s11, s12], [s12 + 1j * factor * 1e-12 * s11, s22]]  # s11 is the largest entry
        if accepted:
            assert CoherencyMatrix.from_matrix(m) == CoherencyMatrix(s11, s22, s12)
        else:
            with pytest.raises(PhysicsError, match="^matrix is not Hermitian"):
                CoherencyMatrix.from_matrix(m)


def test_spacelike_message_reports_relative_norm():
    # minkowski_norm of the tiny vector underflows to 0; its ratio to s0^2 is -3
    expected = r"^non-physical Stokes vector \(spacelike\): relative_norm = -3\.000e\+00$"
    with pytest.raises(PhysicsError, match=expected):
        StokesVector(1e-200, 2e-200, 0, 0).require_physical()
    with pytest.raises(PhysicsError, match=expected):
        StokesVector(1, 2, 0, 0).require_physical()
    with pytest.raises(PhysicsError, match="relative_norm = -inf"):
        StokesVector(0, 1, 0, 0).require_physical()


FINITE = (NonFiniteError, "coherency entries must be finite")
PSD = "coherency matrix must be positive semidefinite: det = "


def gate_cases():
    """(s11, s22, s12, outcome): outcome is None (accepted) or (class, message).

    The gate tests s12's finiteness alone where |s11| + |s22| lies in
    [_SQUARE_MIN, _SQUARE_MAX] and runs its full steps elsewhere; the
    cases fall on both sides of that split and on its edges.
    """
    inf, nan = math.inf, math.nan
    low, high = states._SQUARE_MIN, states._SQUARE_MAX
    yield from [
        (1.0, 1.0, complex(inf, 0.0), FINITE),
        (1.0, 1.0, complex(nan, 0.0), FINITE),
        (1.0, 1.0, complex(1.0, inf), FINITE),
        (high, 0.0, complex(0.0, nan), FINITE),
        (low, 0.0, complex(inf, 0.0), FINITE),
        (nan, 1.0, 0j, FINITE),
        (1.0, inf, 0j, FINITE),
        (nan, nan, complex(nan, nan), FINITE),
        (1e308, 1e308, 0j, (NonFiniteError, "coherency intensities overflow: |s11| + |s22| is infinite")),
        (0.0, 0.0, 0j, None),
        (0.0, 0.0, 1j, (PhysicsError, PSD + "-1.000e+00")),
        (1.0, 1.0, 1e200 + 0j, (PhysicsError, PSD + "-inf")),
        (high, 0.0, 0j, None),
        (math.nextafter(high, inf), 0.0, 0j, None),
        (low, 0.0, 0j, None),
        (math.nextafter(low, 0.0), 0.0, 0j, None),
    ]
    dets = {1e-300: "-3.588e-06", 1.0: "-2.000e-06", 1e300: "-4.459e-06"}
    for scale, det in dets.items():
        yield scale, scale, 0.5 * scale * (1 + 1j), None
        yield -1e-9 * scale, scale, 0j, (PhysicsError, "diagonal coherency entries must be nonnegative")
        yield scale, scale, complex(scale * (1 + 1e-6), 0.0), (PhysicsError, PSD + det)


@pytest.mark.parametrize("s11, s22, s12, outcome", gate_cases())
def test_coherency_gate_outcomes_on_both_sides_of_its_fast_path(s11, s22, s12, outcome):
    """Contract: the gate evaluate runs on plain entries (hook:
    states._check_coherency) accepts and rejects exactly as building a
    CoherencyMatrix does, with the same class and message, on both sides
    of its in-range fast path."""
    for check in (states._check_coherency, CoherencyMatrix):
        try:
            check(s11, s22, s12)
            got = None
        except PhysicsError as err:
            got = type(err), str(err)
        assert got == outcome, check
