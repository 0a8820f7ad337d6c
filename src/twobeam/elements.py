"""Standard optical elements and their induced Stokes transforms.

Each constructor returns a unimodular ``Element2``; ``lift`` from the
states module maps any of them to the 4x4 Stokes picture. For the
three one-parameter families this module also provides closed-form
4x4 matrices (rotator4, phase4, squeeze4) whose fixed entries are
exact, not rounded through a conjugation; they agree with the lift to
rounding level.

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
as an overall scalar decay times a squeezer.
"""

import cmath
import math

import numpy as np

from .states import Element2, NonFiniteError, PhysicsError, Transform4

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
    theta = float(theta)
    if not math.isfinite(theta):
        raise PhysicsError("theta must be finite")
    # Complex entries, which Element2 stores without converting them.
    c, s = complex(math.cos(theta / 2.0)), complex(math.sin(theta / 2.0))
    return Element2(c, -s, s, c)


def phase_shifter(phi) -> Element2:
    """Relative phase phi between the two beams, split symmetrically."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise PhysicsError("phi must be finite")
    return Element2(cmath.exp(-0.5j * phi), 0j, 0j, cmath.exp(0.5j * phi))


def squeezer(eta) -> Element2:
    """Relative amplitude gain e^{eta/2} on beam 1, e^{-eta/2} on beam 2."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise PhysicsError("eta must be finite")
    return Element2(complex(math.exp(eta / 2.0)), 0j, 0j, complex(math.exp(-eta / 2.0)))


def attenuator(eta1, eta2):
    """Two-beam attenuator as (overall scalar, unimodular squeezer).

    Amplitudes decay by e^{-eta1}, e^{-eta2} with eta1, eta2 >= 0. The
    scalar e^{-(eta1+eta2)/2} multiplies both amplitudes (so intensities
    shrink by its square) and the remaining relative action is
    squeezer(eta2 - eta1).
    """
    eta1, eta2 = float(eta1), float(eta2)
    if not (math.isfinite(eta1) and math.isfinite(eta2)):
        raise PhysicsError("attenuation exponents must be finite")
    if eta1 < 0.0 or eta2 < 0.0:
        raise PhysicsError("attenuation exponents must be nonnegative")
    return math.exp(-0.5 * (eta1 + eta2)), squeezer(eta2 - eta1)


def compose(*elements) -> Element2:
    """Product of elements in application order: the first acts first.

    compose(a, b, c) returns the element whose matrix is C B A, so that
    applying the result equals applying a, then b, then c.
    """
    if not elements:
        raise PhysicsError("compose requires at least one element")
    m = np.eye(2, dtype=complex)
    for e in elements:
        m = np.asarray(e.matrix if isinstance(e, Element2) else e, dtype=complex) @ m
    return Element2.from_matrix(m)


def rotator4(theta) -> Transform4:
    """Closed-form Stokes transform of rotator(theta).

    Rotates (s1, s2) by theta, fixes s0 and s3 exactly.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise PhysicsError("theta must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return Transform4(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        lorentz=True,
    )


def phase4(phi) -> Transform4:
    """Closed-form Stokes transform of phase_shifter(phi).

    Fixes s0 and s1 exactly; on (s2, s3) it acts as
    [[cos phi, sin phi], [-sin phi, cos phi]]. With the correlation
    convention s12 = <psi1* psi2> this is the direction forced by
    conjugation, opposite to the (s2, s3) rotation sense sometimes
    quoted alongside the 2x2 form; see the conventions note in the
    states module.
    """
    phi = float(phi)
    if not math.isfinite(phi):
        raise PhysicsError("phi must be finite")
    c, s = math.cos(phi), math.sin(phi)
    return Transform4(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, c, s],
            [0.0, 0.0, -s, c],
        ],
        lorentz=True,
    )


def squeeze4(eta) -> Transform4:
    """Closed-form Stokes transform of squeezer(eta): a boost in (s0, s1)."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise PhysicsError("eta must be finite")
    try:
        ch, sh = math.cosh(eta), math.sinh(eta)
    except OverflowError:
        raise NonFiniteError(f"squeeze4 overflowed: cosh({eta:g}) is too large") from None
    return Transform4(
        [
            [ch, sh, 0.0, 0.0],
            [sh, ch, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        lorentz=True,
    )


def split_angle(ratio) -> float:
    """Mixer angle realizing a beam splitter of given intensity ratio.

    ratio is the fraction of intensity kept in beam 1 when all light
    enters in beam 1; theta = -2 arccos(sqrt(ratio)), so ratio = 0.5
    gives theta = -pi/2 (an even splitter).
    """
    ratio = float(ratio)
    if not math.isfinite(ratio) or not 0.0 <= ratio <= 1.0:
        raise PhysicsError("split ratio must lie in [0, 1]")
    return -2.0 * math.acos(math.sqrt(ratio))
