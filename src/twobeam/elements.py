"""Standard optical elements and their induced Stokes transforms.

Each constructor returns a unimodular ``Element2``, unchecked where its
finite entries have determinant 1 by construction (rotator, phase_shifter,
squeezer); the entries come from one function per kind, which is also
that kind's action in circuit.STAGES. ``lift`` from the states module maps any of them to the 4x4
Stokes picture. For the three one-parameter families this module also
provides closed-form 4x4 matrices (rotator4, phase4, squeeze4) whose
fixed entries are exact, not rounded through the quadratic forms of
lift; they agree with the lift to rounding level.

Sign conventions, fixed once by the action on coherency matrices:

* rotator(theta) mixes the beams; its 4x4 form rotates (s1, s2) by
  theta and fixes s0 and s3.
* phase_shifter(phi) applies relative phase phi between the beams; its
  4x4 form sends (s2, s3) to (s2 cos phi + s3 sin phi,
  -s2 sin phi + s3 cos phi) and fixes s0 and s1.
* squeezer(eta) scales the amplitudes by e^{eta/2}, e^{-eta/2}; its 4x4
  form is a boost of rapidity eta in the (s0, s1) plane.

A physical attenuator with per-beam intensity transmissions
e^{-2 eta1}, e^{-2 eta2} is not unimodular; ``attenuator`` factors it
as an overall scalar decay times a squeezer. Its STAGES action is the
matrix itself, diag(e^{-eta1}, e^{-eta2}).
"""

import cmath
import math

from .states import Element2, NonFiniteError, PhysicsError, Transform4
from .states import _check_unimodular, _entries2, _finite, _mul2

__all__ = [
    "rotator",
    "phase_shifter",
    "squeezer",
    "attenuator",
    "compose",
    "rotator4",
    "phase4",
    "squeeze4",
    "split_angle",
]


def rotator(theta) -> Element2:
    """Beam mixer through angle theta (a real SU(2) rotation).

    The half angle in the 2x2 entries reflects the two-to-one cover:
    theta is the rotation angle seen by the Stokes vector.
    """
    return Element2._checked(*_rotator(_finite(theta, "theta")))


def phase_shifter(phi) -> Element2:
    """Relative phase phi between the two beams, split symmetrically."""
    return Element2._checked(*_phase_shifter(_finite(phi, "phi")))


def squeezer(eta) -> Element2:
    """Relative amplitude gain e^{eta/2} on beam 1, e^{-eta/2} on beam 2."""
    return Element2._checked(*_squeezer(_finite(eta, "eta")))


def attenuator(eta1, eta2):
    """Two-beam attenuator as (overall scalar, unimodular squeezer).

    Amplitudes decay by e^{-eta1}, e^{-eta2} with eta1, eta2 >= 0. The
    scalar e^{-(eta1+eta2)/2} multiplies both amplitudes (so intensities
    shrink by its square) and the remaining relative action is
    squeezer(eta2 - eta1), which overflows for |eta1 - eta2| > ~1419.
    """
    try:
        eta1, eta2 = float(eta1), float(eta2)
    except OverflowError:  # an int beyond the float range
        raise PhysicsError("attenuation exponents are beyond the float range") from None
    if not (math.isfinite(eta1) and math.isfinite(eta2)):
        raise PhysicsError("attenuation exponents must be finite")
    if eta1 < 0.0 or eta2 < 0.0:
        raise PhysicsError("attenuation exponents must be nonnegative")
    return math.exp(-0.5 * (eta1 + eta2)), squeezer(eta2 - eta1)


# The Jones matrix of each element kind as plain numbers, its row-major
# complex entries, of a checked value: finite, and nonnegative for the
# attenuator. The constructors above check it and wrap them in an Element2;
# they are also circuit.STAGES's actions, which evaluate reads without
# building an Element2. Only the attenuator's matrix is not unimodular.


def _rotator(theta):
    # Complex entries, as Element2 would store them: _checked converts nothing.
    c, s = complex(math.cos(theta / 2.0)), complex(math.sin(theta / 2.0))
    return c, -s, s, c


def _phase_shifter(phi):
    return cmath.exp(-0.5j * phi), 0j, 0j, cmath.exp(0.5j * phi)


def _squeezer(eta):
    try:
        return complex(math.exp(eta / 2.0)), 0j, 0j, complex(math.exp(-eta / 2.0))
    except OverflowError:
        raise NonFiniteError(f"squeezer overflowed: e^({abs(eta):g}/2) is too large") from None


def _attenuator(eta1, eta2):
    return complex(math.exp(-eta1)), 0j, 0j, complex(math.exp(-eta2))


def compose(*elements) -> Element2:
    """Product of elements in application order: the first acts first.

    compose(a, b, c) returns the element whose matrix is C B A: applying it
    applies a, then b, then c. Its det takes the rule for computed entries.
    """
    if not elements:
        raise PhysicsError("compose requires at least one element")
    m = (1.0, 0.0, 0.0, 1.0)
    for g in elements:
        m = _mul2(_entries2(g if isinstance(g, Element2) else Element2.from_matrix(g)), m)
    if not all(map(cmath.isfinite, m)):
        raise NonFiniteError("compose overflowed: product entries are not finite")
    _check_unimodular(*m, "product", "product must be unimodular", computed=True)
    return Element2._checked(*m)


def rotator4(theta) -> Transform4:
    """Closed-form Stokes transform of rotator(theta).

    Rotates (s1, s2) by theta, fixes s0 and s3 exactly.
    """
    theta = _finite(theta, "theta")
    c, s = math.cos(theta), math.sin(theta)
    return Transform4((1.0, 0.0, 0.0, 0.0, 0.0, c, -s, 0.0, 0.0, s, c, 0.0, 0.0, 0.0, 0.0, 1.0))


def phase4(phi) -> Transform4:
    """Closed-form Stokes transform of phase_shifter(phi).

    Fixes s0 and s1 exactly; on (s2, s3) it acts as
    [[cos phi, sin phi], [-sin phi, cos phi]]. With the correlation
    convention s12 = <psi1* psi2> this is the direction forced by
    conjugation, opposite to the (s2, s3) rotation sense sometimes
    quoted alongside the 2x2 form; see the conventions note in the
    states module.
    """
    phi = _finite(phi, "phi")
    c, s = math.cos(phi), math.sin(phi)
    return Transform4((1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, c, s, 0.0, 0.0, -s, c))


def squeeze4(eta) -> Transform4:
    """Closed-form Stokes transform of squeezer(eta): a boost in (s0, s1)."""
    eta = _finite(eta, "eta")
    try:
        ch, sh = math.cosh(eta), math.sinh(eta)
    except OverflowError:
        raise NonFiniteError(f"squeeze4 overflowed: cosh({eta:g}) is too large") from None
    return Transform4((ch, sh, 0.0, 0.0, sh, ch, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0))


def split_angle(ratio) -> float:
    """Mixer angle realizing a beam splitter of given intensity ratio.

    ratio is the fraction of intensity kept in beam 1 when all light
    enters in beam 1; theta = -2 arccos(sqrt(ratio)), so ratio = 0.5
    gives theta = -pi/2 (an even splitter).
    """
    try:
        ratio = float(ratio)
    except OverflowError:  # an int beyond the float range
        ratio = math.inf
    if not math.isfinite(ratio) or not 0.0 <= ratio <= 1.0:
        raise PhysicsError("split ratio must lie in [0, 1]")
    return -2.0 * math.acos(math.sqrt(ratio))
