"""Scale-free state checks.

Every check on a state is homogeneous of degree 2 (positive semidefinite,
inside the light cone, purity, the Minkowski-norm class), so it cannot
depend on the beam's intensity scale. These tests scale states across
the whole float range and pin the reproducers that failed while scale
was handled site by site: finite states rejected, a zero-trace matrix
accepted, and accessors returning inf.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from twobeam import (
    CircuitAst,
    CircuitSemanticError,
    CoherencyMatrix,
    Element2,
    JonesVector,
    NonFiniteError,
    PhysicsError,
    StokesVector,
    Transform4,
    classify,
    compose,
    decohere_channel,
    evaluate,
    lift,
    metric_defect,
    minkowski_norm,
    parse,
    phase_shifter,
    purity_report,
    relative_norm,
    rotator,
    squeezer,
    stokes_from_coherency,
)
from twobeam.cli import main
from twobeam.states import _SQUARE_MAX, _SQUARE_MIN, _check_coherency, _outer

EPS = sys.float_info.epsilon

# Scale-free checks: decisions equal, ratios within a few ulps. The given
# values are checked as they are; their squares round differently at
# different binary exponents (x**2 is not correctly rounded in every
# libm), which is all that separates two scales of one state.
ULPS = 8 * EPS


def close(got, want):
    return abs(got - want) <= ULPS * max(1.0, abs(want))


@st.composite
def stokes_and_scale(draw):
    """A Stokes vector with s0 in [1, 2) and a power of two to scale it by.

    The degree of polarization is at most 0.9 (past it, atanh amplifies
    one ulp of |v| / s0 into many), exactly 1, or 1.1 to 2 (spacelike).
    """
    s0 = draw(st.floats(1.0, 2.0, exclude_max=True))
    degree = draw(st.one_of(st.floats(0.0, 0.9), st.just(1.0), st.floats(1.1, 2.0)))
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(-math.pi, math.pi))
    r = s0 * degree
    s = (s0, r * math.cos(theta), r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi))
    return s, draw(st.integers(-1070, 1020))


def rescaled(xs, k):
    """xs times 2^k, rounded where that leaves the normal floats, and the
    result times 2^-k, which is exact: the same state at two scales."""
    scaled = [math.ldexp(x, k) for x in xs]
    return scaled, [math.ldexp(x, -k) for x in scaled]


def outcome(check, *args):
    """What check(*args) returns, or the type of PhysicsError it raises."""
    try:
        return check(*args)
    except PhysicsError as err:
        return type(err)


def physical(s):
    return outcome(StokesVector.require_physical, s) is s


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(stokes_and_scale())
def test_stokes_checks_do_not_depend_on_scale(drawn):
    s, k = drawn
    tiny, unit = (StokesVector(*xs) for xs in rescaled(s, k))
    assert physical(tiny) == physical(unit)
    assert close(relative_norm(tiny), relative_norm(unit))
    if outcome(minkowski_norm, tiny) is NonFiniteError:
        with pytest.raises(NonFiniteError, match="too large to square"):
            classify(tiny)  # the class carries this absolute norm
        return
    got, want = classify(tiny), classify(unit)
    assert got.tag == want.tag
    assert (got.eta_to_standard is None) == (want.eta_to_standard is None)
    if want.eta_to_standard is not None:
        assert close(got.eta_to_standard, want.eta_to_standard)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(stokes_and_scale())
def test_coherency_checks_do_not_depend_on_scale(drawn):
    (s0, s1, s2, s3), k = drawn
    entries = (0.5 * (s0 + s1), 0.5 * (s0 - s1), 0.5 * s2, 0.5 * s3)
    (a, b, re, im), (ua, ub, ure, uim) = rescaled(entries, k)
    got = outcome(CoherencyMatrix, a, b, complex(re, im))
    want = outcome(CoherencyMatrix, ua, ub, complex(ure, uim))
    if not isinstance(want, CoherencyMatrix):
        assert got == want
        return
    assert isinstance(got, CoherencyMatrix)
    for g, w in zip(purity_report(got)[1:], purity_report(want)[1:]):
        assert close(g, w)


# An amplitude component: zero, or of either sign with a magnitude
# log-uniform from the subnormals to 1e160.
COMPONENT = st.just(0.0) | st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from((1.0, -1.0)), st.floats(-324.0, 160.0), st.floats(1.0, 10.0))
AMPLITUDE = st.builds(complex, COMPONENT, COMPONENT)
DARK = st.just(0j)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.tuples(AMPLITUDE, AMPLITUDE) | st.tuples(AMPLITUDE, DARK) | st.tuples(DARK, AMPLITUDE))
def test_outer_products_of_plain_size_pass_the_gate(amplitudes):
    """Contract: the gate always accepts an outer product whose size
    s11 + s22 lies in [_SQUARE_MIN, _SQUARE_MAX], rounding and subnormal
    components included: the outer product of a Jones input's folded
    amplitudes, its final state, is a coherency matrix there. Hooks:
    states._outer, _check_coherency and the range."""
    s11, s22, s12 = _outer(*amplitudes)
    if _SQUARE_MIN <= s11 + s22 <= _SQUARE_MAX:
        _check_coherency(s11, s22, s12)


def passes_the_gate(entries):
    try:
        _check_coherency(*entries)
    except PhysicsError:
        return False
    return True


@st.composite
def edge_of_the_slack(draw):
    """Entries at unit size whose det, or a diagonal entry, is at most the
    gate's slack below 0, times a power of two from the subnormals up."""
    u, v, t, phi = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), draw(
        st.sampled_from((1.0, 0.999)) | st.floats(0.0, 1.0)), draw(st.floats(-math.pi, math.pi))
    size = u + v
    if draw(st.booleans()):  # |s12|^2 up to 1e-12 size^2 beyond s11 s22
        r = math.sqrt(u * v + t * 1e-12 * size * size)
    else:  # s11 up to 1e-12 size below 0
        u, r = -t * 1e-12 * size, 0.0
    unit = math.ldexp(1.0, draw(st.integers(-1100, 1023)))
    return u * unit, v * unit, complex(r * math.cos(phi) * unit, r * math.sin(phi) * unit)


def sum_of_outer(a, b):
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


OUTER = st.builds(_outer, AMPLITUDE, AMPLITUDE)
GATED = (OUTER | st.builds(sum_of_outer, OUTER, OUTER) | edge_of_the_slack()).filter(passes_the_gate)
DECAY = st.sampled_from((0.0, 5e-324, 1.0)) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(GATED, DECAY)
def test_decoherence_keeps_gated_entries_gated(entries, k):
    """Contract: entries that pass the gate pass it again after a decohere
    stage, which scales s12 by k = e^-2 lambda in [0, 1] as below: s11
    and s22 stay, and neither rounded part of s12 grows, so the gate's
    determinant only grows. So evaluate runs no gate there and
    decohere_channel builds its result unchecked. Hooks:
    states._check_coherency, the gate, and CoherencyMatrix._checked."""
    s11, s22, s12 = entries
    out = complex(k * s12.real, k * s12.imag)
    assert abs(out.real) <= abs(s12.real) and abs(out.imag) <= abs(s12.imag)
    _check_coherency(s11, s22, out)
    lam = -0.5 * math.log(k) if k else 400.0  # e^-800 is 0.0
    c = decohere_channel(CoherencyMatrix._checked(s11, s22, s12), lam)
    assert (c.s11, c.s22) == (s11, s22) and c.trace == s11 + s22
    _check_coherency(c.s11, c.s22, c.s12)


def test_scaled_states_at_the_float_limits():
    # finite, physical states at both ends of the float range
    assert purity_report(CoherencyMatrix(1e160, 0, 0)).trace_sq == 1.0
    assert purity_report(CoherencyMatrix(5e-324, 0, 0)).trace_sq == 1.0
    want, huge = purity_report(CoherencyMatrix(10.0, 1.0, 3.0)), CoherencyMatrix(1e308, 1e307, 3e307)
    for g, w in zip(purity_report(huge)[1:], want[1:]):
        assert close(g, w)
    s = stokes_from_coherency(huge)
    assert s.s0 == 1e308 + 1e307 and s.s2 == 6e307
    big = StokesVector(1e300, 0.6e300, 0.8e300, 0.0)
    assert big.require_physical() is big
    assert abs(relative_norm(big)) < 1e-15
    with pytest.raises(NonFiniteError, match="too large to square"):
        classify(big)  # the class carries the absolute norm, 1e600


def test_zero_trace_matrix_with_a_cross_term_is_rejected():
    # det = -|s12|^2 underflows to 0: the unscaled check saw a PSD matrix
    for s12 in (1e-170, 1e-200j, 5e-324):
        with pytest.raises(PhysicsError, match="positive semidefinite"):
            CoherencyMatrix(0.0, 0.0, s12)
    CoherencyMatrix(0.0, 0.0, 0.0)


def test_relative_norm_far_outside_the_cone_of_a_tiny_vector():
    # s0^2 is subnormal here while |v|^2 is not: the ratio needs s0 rescaled
    mp = mpmath.mp.clone()
    mp.dps = 40
    for s0, s1 in ((3e-162, 1e-154), (1e-170, 1e-150), (1e-300, 1e-160)):
        want = 1 - (mp.mpf(s1) / mp.mpf(s0)) ** 2
        assert relative_norm(StokesVector(s0, s1, 0, 0)) == pytest.approx(float(want), rel=4 * EPS)


def test_accessors_raise_where_the_value_is_beyond_the_float_range():
    with pytest.raises(NonFiniteError, match="beyond the float range"):
        relative_norm(StokesVector(1e-300, 1.0, 0.0, 0.0))  # -1e600
    with pytest.raises(NonFiniteError, match="beyond the float range"):
        relative_norm(StokesVector(0.0, 1.0, 0.0, 0.0))
    with pytest.raises(NonFiniteError, match="metric defect is beyond the float range"):
        metric_defect(lift(squeezer(400.0)))
    with pytest.raises(NonFiniteError, match="coherency det is beyond the float range"):
        CoherencyMatrix(1e300, 0.0, 1e290).det  # -1e580
    assert CoherencyMatrix(1e150, 1e150, 0.0).det == 1e150 * 1e150
    with pytest.raises(NonFiniteError, match="Jones intensity is beyond the float range"):
        JonesVector(1e160, 0.0).intensity
    assert JonesVector(3e153, 4e153).intensity == pytest.approx(2.5e307, rel=1e-15)


def test_cli_prints_no_null_for_an_overflowed_value(capsys):
    for argv, code in (
        (["classify", "1e-300,1,0,0", "--format", "json"], 3),
        (["lift", "squeeze(eta=400)"], 2),
    ):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert "is beyond the float range" in err


def test_metric_check_of_a_huge_non_lorentz_matrix():
    # its squares overflow; the check is made, not refused, and reading it raises nothing
    assert Transform4([[1e200, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).lorentz is False


def test_huge_intermediate_state_round_trips():
    # squeeze(400) takes s0 to about 5e173, whose square overflows; the
    # circuit as a whole is phase; atten.
    text = "squeeze(eta=400); phase(phi=0.7); atten(eta1=0.1, eta2=0.1); squeeze(eta=-400)"
    for inp in (JonesVector(0.6, 0.8j), StokesVector(1.0, 0.5, 0.5, 0.0)):
        got = evaluate(parse(text), inp).final_stokes
        want = evaluate(parse("phase(phi=0.7); atten(eta1=0.1, eta2=0.1)"), inp).final_stokes
        err = max(abs(g - w) for g, w in zip(vars(got).values(), vars(want).values()))
        assert err <= 1e-12 * want.s0


def test_final_state_too_large_to_classify_is_located():
    # every stage passes its gate, but s0^2 of the final state overflows;
    # with no stage the input is the final state, and the error is plain
    for ast, inp, error, message in (
        (parse("rotate(theta=0.1);\nsqueeze(eta=400)"), JonesVector(1.0, 0.0), CircuitSemanticError,
         "2:1: stage squeeze: Minkowski norm overflowed"),
        (CircuitAst(()), StokesVector(1e200, 0, 0, 0), NonFiniteError, "Minkowski norm overflowed"),
    ):
        with pytest.raises(error) as info:
            evaluate(ast, inp)
        assert type(info.value) is error
        assert str(info.value) == f"{message}: a Stokes component is too large to square"


def test_simulate_locates_a_stage_too_large_to_classify(tmp_path, capsys):
    # the final state is small; the class simulate prints for stage 1 is not
    path = tmp_path / "c.txt"
    path.write_text("rotate(theta=0.1);\nsqueeze(eta=400);\nsqueeze(eta=-400)\n")
    report = evaluate(parse(path.read_text()), JonesVector(1.0, 0.0))
    assert report.final_classification.tag == "pure"
    for fmt in ("json", "text"):
        assert main(["simulate", str(path), "--in", "jones:1,0,0,0", "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: 2:1: stage squeeze: ") and err.count("\n") == 1


def test_compose_checks_the_product_relative_to_its_size():
    # the product's entries reach about 1e53; det - 1 is pure cancellation
    chain = [rotator(0.7), squeezer(0.9), phase_shifter(0.3)] * 400
    got = compose(*chain)
    mp = mpmath.mp.clone()
    mp.dps = 60
    want = mp.eye(2)
    for g in chain:
        want = mp.matrix([[g.alpha, g.beta], [g.gamma, g.delta]]) * want
    largest = max(abs(want[i, j]) for i in range(2) for j in range(2))
    # one rounding per entry per product: len(chain) eps of the largest entry
    bound = len(chain) * EPS * largest
    for x, i, j in ((got.alpha, 0, 0), (got.beta, 0, 1), (got.gamma, 1, 0), (got.delta, 1, 1)):
        assert abs(mp.mpc(x) - want[i, j]) <= bound
    # an element built from the user's entries keeps the absolute bound
    with pytest.raises(PhysicsError, match="unimodular"):
        Element2(1e10, 1e10, 1e10, 1e10)
    with pytest.raises(PhysicsError, match="unimodular"):
        compose([[1e10, 1e10], [1e10, 1e10]])

