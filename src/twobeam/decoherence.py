"""Decoherence maps and the reduced 2x2 machinery on Stokes subplanes.

Decoherence suppresses the beam cross-correlation s12, i.e. the (s2,
s3) Stokes components, while leaving the intensities alone. Two forms
appear here: `decoherence4`, the group-theoretic diagonal
diag(e^l, e^l, e^-l, e^-l), which is not a Lorentz transform for any
l > 0, and the physical channel `decohere_channel`, its e^-l multiple
diag(1, 1, e^-2l, e^-2l), which keeps states physical and never
increases purity.

On the Stokes pair (s1, s2) the squeeze d_a and the rotation r_a act
as 2x2 real unimodular matrices. The module carries two factorizations
of that group, Iwasawa (rotation * diagonal * upper shear) and Wigner
(rotation * diagonal * rotation, whose angle sum is the Wigner angle).
Both read a matrix as computed entries, as their recompositions are:
det 1 to UNIMODULAR_TOL (|m00 m11| + |m01 m10|), the states module's rule.
"""

import math
from typing import NamedTuple

from .states import CoherencyMatrix, NonFiniteError, PhysicsError, StokesVector, Transform4
from .states import _check_unimodular, _entries2, _finite, _in_range, _mul2

__all__ = [
    "decoherence4",
    "decohere_channel",
    "d_a",
    "r_a",
    "IwasawaFactors",
    "iwasawa_decompose",
    "iwasawa_recompose",
    "WignerFactors",
    "wigner_decompose",
    "wigner_recompose",
]


def decoherence4(lam) -> Transform4:
    """diag(e^l, e^l, e^-l, e^-l) on Stokes vectors.

    Amplifies (s0, s1) as it suppresses (s2, s3), so it lies outside
    the Lorentz group for every l != 0; its lorentz reads False once
    the metric defect, about 2|l|, exceeds LORENTZ_TOL. It commutes
    with phase4. The physical, intensity preserving channel is its
    e^-l multiple; see decohere_channel.
    """
    lam = _finite(lam, "lambda")
    try:
        e = math.exp(lam)
        r = 1.0 / e
        if r == math.inf:  # e^lam is subnormal: its inverse overflows
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise NonFiniteError(f"decoherence4 overflowed: e^{abs(lam):g} is too large") from None
    return Transform4((e, 0.0, 0.0, 0.0, 0.0, e, 0.0, 0.0, 0.0, 0.0, r, 0.0, 0.0, 0.0, 0.0, r))


def decohere_channel(state, lam):
    """Physical decoherence, l >= 0: the cross-correlation s12 times e^-2l.

    A CoherencyMatrix gives s12 -> e^-2l s12 and a StokesVector, which
    must be physical, (s0, s1, e^-2l s2, e^-2l s3): one map, returned in
    the input's type. Equals e^-l times decoherence4(l). Output stays
    physical, so it is built unchecked: the intensities stay and, as
    e^-2l <= 1, no rounded part of s12 grows. Purity never increases, the
    maps form a semigroup in l, and negative l (recoherence) is rejected.
    """
    k = _decay(lam)
    if isinstance(state, CoherencyMatrix):
        return CoherencyMatrix._checked(state.s11, state.s22, complex(k * state.s12.real, k * state.s12.imag))
    state.require_physical()
    return StokesVector._checked(state.s0, state.s1, k * state.s2, k * state.s3)


def _decay(lam):
    """e^-2l, the channel's factor on s12, for a finite l >= 0 (kept in a circuit's segments)."""
    lam = _finite(lam, "lambda")
    if lam < 0.0:
        raise PhysicsError("lambda must be nonnegative")
    return math.exp(-2.0 * lam)


def _squeeze2(lam):
    lam = _finite(lam, "lambda")
    try:
        return math.exp(lam), 0.0, 0.0, math.exp(-lam)
    except OverflowError:
        raise NonFiniteError(f"squeeze overflowed: e^{abs(lam):g} is too large") from None


def _rotation2(theta):
    theta = _finite(theta, "theta")
    c, s = math.cos(theta), math.sin(theta)
    return c, -s, s, c


def _array2(entries):
    import numpy as np
    return np.array(entries, dtype=float).reshape(2, 2)


def d_a(lam):
    """Squeeze diag(e^l, e^-l) acting on the (s1, s2) pair, as an ndarray."""
    return _array2(_squeeze2(lam))


def r_a(theta):
    """Full-angle rotation [[cos, -sin], [sin, cos]] on the (s1, s2) pair.

    A beam rotation leaves (s0, s3) alone. Returns an ndarray.
    """
    return _array2(_rotation2(theta))


def _check_unimodular2(m):
    """The row-major real entries of a 2x2 array-like of unit determinant."""
    entries = _entries2(m, "expected a 2x2 real matrix")
    if any(x.imag for x in entries):
        raise PhysicsError("expected a 2x2 real matrix")
    a, b, c, d = (x.real for x in entries)
    _check_unimodular(a, b, c, d, "matrix", "matrix must have unit determinant", computed=True)
    _in_range(a * d - b * c, "matrix determinant")  # entries whose det overflows pass the rescaled rule
    return a, b, c, d


class IwasawaFactors(NamedTuple):
    """m = r_a(angle) diag(e^exponent, e^-exponent) [[1, shear], [0, 1]]."""

    angle: float
    exponent: float
    shear: float

    @property
    def entries(self):
        """Row-major entries of the recomposed matrix."""
        shear = (1.0, self.shear, 0.0, 1.0)
        entries = _mul2(_mul2(_rotation2(self.angle), _squeeze2(self.exponent)), shear)
        return tuple(_in_range(x, "Iwasawa product e^exponent * shear") for x in entries)


def iwasawa_decompose(m) -> IwasawaFactors:
    """Unique rotation * squeeze * upper-shear factors of a det-1 matrix.

    The first column of m is e^a (cos k, sin k), which fixes k and a;
    the shear is read off after rotating the column away. Reconstructs
    to rounding level (1e-12 scale).
    """
    m00, m01, m10, m11 = _check_unimodular2(m)
    r11 = _in_range(math.hypot(m00, m10), "Iwasawa factor e^exponent")
    k = math.atan2(m10, m00)
    top = math.cos(k) * m01 + math.sin(k) * m11
    return IwasawaFactors(k, math.log(r11), _in_range(top / r11, "Iwasawa shear"))


def iwasawa_recompose(f: IwasawaFactors):
    """The ndarray of f.entries."""
    return _array2(f.entries)


class WignerFactors(NamedTuple):
    """m = r_a(axis_angle) diag(e^sigma, e^-sigma) r_a(residual_rotation).

    squeeze_exponent sigma is nonnegative; for sigma > 0 the axis
    angle is canonicalized into (-pi/2, pi/2]. wigner_angle is the
    rotation a product of squeezes generates beyond a single squeeze.
    """

    axis_angle: float
    squeeze_exponent: float
    residual_rotation: float

    @property
    def wigner_angle(self):
        return self.axis_angle + self.residual_rotation

    @property
    def entries(self):
        """Row-major entries of the recomposed matrix."""
        first = _mul2(_rotation2(self.axis_angle), _squeeze2(self.squeeze_exponent))
        return _mul2(first, _rotation2(self.residual_rotation))


def wigner_decompose(m) -> WignerFactors:
    """Rotation * squeeze * rotation factors of a det-1 real matrix.

    The angle sum and difference come from the invariant combinations
    (m00 + m11, m10 - m01) and (m00 - m11, m10 + m01), whose magnitudes
    are e^s + e^-s and e^s - e^-s. A pure rotation (zero squeeze) has
    no defined axis, and is returned as (theta, 0, 0) with theta in
    (-pi, pi].
    """
    m00, m01, m10, m11 = _check_unimodular2(m)
    sum_c, sum_s = m00 + m11, m10 - m01
    dif_c, dif_s = m00 - m11, m10 + m01
    total = math.hypot(sum_c, sum_s)
    excess = math.hypot(dif_c, dif_s)
    # e^s = (total + excess) / 2, halved term by term so that it overflows only where e^s does
    sigma = _in_range(math.log(0.5 * total + 0.5 * excess), "squeeze exponent")
    if excess <= 1e-14 * total:
        return WignerFactors(math.atan2(sum_s, sum_c), 0.0, 0.0)
    plus = math.atan2(sum_s, sum_c)
    minus = math.atan2(dif_s, dif_c)
    psi = 0.5 * (plus + minus)
    omega = 0.5 * (plus - minus)
    if psi > 0.5 * math.pi:
        psi -= math.pi
        omega -= math.pi
    elif psi <= -0.5 * math.pi:
        psi += math.pi
        omega += math.pi
    omega = math.atan2(math.sin(omega), math.cos(omega))
    return WignerFactors(psi, sigma, omega)


def wigner_recompose(f: WignerFactors):
    """The ndarray of f.entries."""
    return _array2(f.entries)
