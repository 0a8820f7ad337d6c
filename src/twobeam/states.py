"""State types for a two-beam interferometer and the maps between them.

A beam pair is described at three levels:

* Jones vector: the two complex amplitudes (psi1, psi2) at a reference
  plane. The common propagation phase is dropped; only the relative
  phase matters for any observable.
* Coherency matrix: the Hermitian matrix of correlations
  s11 = <psi1* psi1>, s22 = <psi2* psi2>, s12 = <psi1* psi2>,
  with s21 = conj(s12) implicit. Also serves as the (unnormalized)
  density matrix of the pair.
* Stokes vector: the four real combinations

      s0 = s11 + s22      s1 = s11 - s22
      s2 = 2 Re(s12)      s3 = 2 Im(s12)

  equivalently s12 = (s2 + i s3) / 2.

Optical elements act on the coherency matrix by conjugation,
C -> G C G+, with G a unimodular (det = 1) 2x2 matrix. This preserves
det C, and since s0^2 - s1^2 - s2^2 - s3^2 = 4 det C the induced linear
map on Stokes vectors preserves the Minkowski form diag(1,-1,-1,-1).
`lift` computes that 4x4 map; it is a proper orthochronous Lorentz
matrix, and G and -G give the same one.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PhysicsError",
    "NonFiniteError",
    "UNIMODULAR_TOL",
    "LORENTZ_TOL",
    "CLASSIFY_TOL",
    "MINKOWSKI",
    "JonesVector",
    "Element2",
    "CoherencyMatrix",
    "StokesVector",
    "Transform4",
    "PurityReport",
    "coherency_from_jones",
    "stokes_from_coherency",
    "coherency_from_stokes",
    "conjugate",
    "lift",
    "purity_report",
    "minkowski_norm",
    "relative_norm",
    "metric_defect",
]


class PhysicsError(ValueError):
    """An input violates a physical constraint or numeric domain."""


class NonFiniteError(PhysicsError):
    """A state or element component is infinite or NaN.

    Inside a computation whose inputs were finite this means the
    arithmetic overflowed.
    """


# Tolerances. Classification tolerance is relative to s0^2 and may be
# overridden per call; the other two are construction-time gates.
UNIMODULAR_TOL = 1e-12
LORENTZ_TOL = 1e-10
CLASSIFY_TOL = 1e-9

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI.setflags(write=False)

# m^T g m sums four products of entries of m; below this entry size
# (about 6.7e153) the metric check of a Transform4 cannot overflow.
_METRIC_MAX = 0.5 * math.sqrt(sys.float_info.max)

# Below this (about 1.5e-154) a square is no longer a normal float: it
# loses precision and then underflows to 0, so tests that compare
# squares of intensities switch to ratios taken over the intensity.
_SQUARE_MIN = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class JonesVector:
    """Two complex beam amplitudes at a reference plane."""

    psi1: complex
    psi2: complex

    def __post_init__(self):
        p1, p2 = self.psi1, self.psi2
        if not type(p1) is type(p2) is complex:
            p1, p2 = complex(p1), complex(p2)
            vars(self).update(psi1=p1, psi2=p2)
        # x * 0.0 is 0 for finite x and NaN for infinite or NaN x.
        if p1 * 0.0 + p2 * 0.0 != 0.0:
            raise NonFiniteError("Jones amplitudes must be finite")

    @property
    def intensity(self):
        return abs(self.psi1) ** 2 + abs(self.psi2) ** 2

    def as_array(self):
        return np.array([self.psi1, self.psi2], dtype=complex)


@dataclass(frozen=True)
class Element2:
    """A 2x2 unimodular beam transformation.

    Entries are row-major (alpha, beta; gamma, delta). The determinant
    must be 1 within ``UNIMODULAR_TOL``; everything an ideal lossless
    element does to the pair of amplitudes lives in this group, and
    lossy attenuators factor into a scalar times one of these.
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        a, b, c, d = self.alpha, self.beta, self.gamma, self.delta
        if not type(a) is type(b) is type(c) is type(d) is complex:
            a, b, c, d = complex(a), complex(b), complex(c), complex(d)
            vars(self).update(alpha=a, beta=b, gamma=c, delta=d)
        if a * 0.0 + b * 0.0 + c * 0.0 + d * 0.0 != 0.0:
            raise NonFiniteError("element entries must be finite")
        drift = abs(a * d - b * c - 1.0)
        if drift > UNIMODULAR_TOL:
            raise PhysicsError(f"element must be unimodular: |det - 1| = {drift:.3e}")

    @property
    def det(self):
        return self.alpha * self.delta - self.beta * self.gamma

    @property
    def matrix(self):
        return np.array([[self.alpha, self.beta], [self.gamma, self.delta]], dtype=complex)

    @classmethod
    def from_matrix(cls, m):
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise PhysicsError("element matrix must be 2x2")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


@dataclass(frozen=True)
class CoherencyMatrix:
    """Hermitian correlation matrix [[s11, s12], [conj(s12), s22]].

    The diagonal holds the two beam intensities, so it must be
    nonnegative and the matrix positive semidefinite; both checks carry
    a small scale-aware slack for rounding from long element chains.
    A zero matrix (dark field) is allowed.
    """

    s11: float
    s22: float
    s12: complex

    def __post_init__(self):
        s11, s22, s12 = self.s11, self.s22, self.s12
        if not (type(s11) is type(s22) is float and type(s12) is complex):
            s11, s22, s12 = float(s11), float(s22), complex(s12)
            vars(self).update(s11=s11, s22=s22, s12=s12)
        if s11 * 0.0 + s22 * 0.0 + s12 * 0.0 != 0.0:
            raise NonFiniteError("coherency entries must be finite")
        slack = 1e-12 * max(1.0, abs(s11) + abs(s22))
        if s11 < -slack or s22 < -slack:
            raise PhysicsError("diagonal coherency entries must be nonnegative")
        det = s11 * s22 - (s12.real * s12.real + s12.imag * s12.imag)
        try:
            floor = -1e-12 * max(1.0, (s11 + s22) ** 2)
        except OverflowError:
            raise NonFiniteError(f"coherency trace {s11 + s22:.3e} is too large to square") from None
        if det < floor:
            raise PhysicsError(f"coherency matrix must be positive semidefinite: det = {det:.3e}")

    @property
    def trace(self):
        return self.s11 + self.s22

    @property
    def det(self):
        return self.s11 * self.s22 - abs(self.s12) ** 2

    @property
    def matrix(self):
        return np.array(
            [[self.s11, self.s12], [np.conj(self.s12), self.s22]], dtype=complex
        )

    @classmethod
    def from_matrix(cls, m):
        """Build from a 2x2 array, checking Hermiticity to rounding level."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise PhysicsError("coherency matrix must be 2x2")
        if not np.isfinite(m).all():
            raise PhysicsError("coherency entries must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        herm = max(
            abs(m[0, 1] - np.conj(m[1, 0])),
            abs(m[0, 0].imag),
            abs(m[1, 1].imag),
        )
        if herm > 1e-12 * scale:
            raise PhysicsError(f"matrix is not Hermitian: residual {herm:.3e}")
        return cls(m[0, 0].real, m[1, 1].real, m[0, 1])


@dataclass(frozen=True)
class StokesVector:
    """Four real Stokes components (s0, s1, s2, s3).

    s0 is the total intensity and must be nonnegative. The light-cone
    condition s0^2 - s1^2 - s2^2 - s3^2 >= -tol*s0^2 is not checked
    here; operations that require a physical state call
    ``require_physical``, which keeps spacelike vectors constructible
    for diagnostic classification.
    """

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        if not type(s0) is type(s1) is type(s2) is type(s3) is float:
            s0, s1, s2, s3 = float(s0), float(s1), float(s2), float(s3)
            vars(self).update(s0=s0, s1=s1, s2=s2, s3=s3)
        if s0 * 0.0 + s1 * 0.0 + s2 * 0.0 + s3 * 0.0 != 0.0:
            raise NonFiniteError("Stokes components must be finite")
        if s0 < 0.0:
            raise PhysicsError("s0 must be nonnegative")

    def as_array(self):
        return np.array([self.s0, self.s1, self.s2, self.s3])

    @classmethod
    def from_array(cls, a):
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise PhysicsError("Stokes vector must have four components")
        return cls(a[0], a[1], a[2], a[3])

    def require_physical(self, tol=CLASSIFY_TOL):
        """Raise unless the vector lies on or inside the light cone."""
        if 0.0 < self.s0 < _SQUARE_MIN:
            spacelike = relative_norm(self) < -tol
        else:
            spacelike = minkowski_norm(self) < -tol * self.s0**2
        if spacelike:
            raise PhysicsError(
                f"non-physical Stokes vector (spacelike): norm = {minkowski_norm(self):.3e}"
            )
        return self


@dataclass(frozen=True, eq=False)
class Transform4:
    """A real 4x4 map on Stokes vectors.

    When flagged ``lorentz`` the matrix must preserve the Minkowski
    form; the check scales with max|m|^2 so that large boosts, whose
    cosh^2 - sinh^2 cancellation carries rounding proportional to the
    squared magnitude, validate at the same relative level as
    unit-scale matrices (1e-10 absolute there).
    """

    m: np.ndarray
    lorentz: bool = False

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (4, 4):
            raise PhysicsError("transform must be 4x4")
        if not np.isfinite(m).all():
            raise PhysicsError("transform entries must be finite")
        if self.lorentz:
            big = float(np.abs(m).max())
            if big > _METRIC_MAX:
                raise NonFiniteError(
                    f"transform entries too large for the metric check: {big:.3e}"
                )
            allowed = LORENTZ_TOL * max(1.0, big) ** 2
            defect = metric_defect(m)
            if defect > allowed:
                raise PhysicsError(
                    f"matrix flagged lorentz does not preserve the metric: defect {defect:.3e}"
                )
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def apply(self, s: StokesVector) -> StokesVector:
        return StokesVector.from_array(self.m @ s.as_array())

    def __matmul__(self, other):
        if not isinstance(other, Transform4):
            return NotImplemented
        return Transform4(self.m @ other.m, lorentz=self.lorentz and other.lorentz)


def coherency_from_jones(j: JonesVector) -> CoherencyMatrix:
    """Correlation matrix of a fully coherent pair of amplitudes.

    For a deterministic beam the ensemble averages collapse to the
    instantaneous products: s11 = |psi1|^2, s22 = |psi2|^2 and
    s12 = conj(psi1) * psi2. The result has rank 1 (det = 0 up to
    rounding).
    """
    p1, p2 = j.psi1, j.psi2
    return CoherencyMatrix(
        p1.real * p1.real + p1.imag * p1.imag,
        p2.real * p2.real + p2.imag * p2.imag,
        p1.conjugate() * p2,
    )


def stokes_from_coherency(c: CoherencyMatrix) -> StokesVector:
    """Stokes components of a coherency matrix.

    s0 = s11 + s22, s1 = s11 - s22, s2 = s12 + s21 = 2 Re(s12), and
    s3 = -i (s12 - s21) = 2 Im(s12).
    """
    return StokesVector(
        c.s11 + c.s22, c.s11 - c.s22, 2.0 * c.s12.real, 2.0 * c.s12.imag
    )


def coherency_from_stokes(s: StokesVector, tol=CLASSIFY_TOL) -> CoherencyMatrix:
    """Invert the Stokes map: c = 1/2 [[s0+s1, s2+i s3], [s2-i s3, s0-s1]].

    Rejects spacelike input (the result would not be positive
    semidefinite). Round-trips with stokes_from_coherency to 1e-14.
    """
    s.require_physical(tol)
    return CoherencyMatrix(
        0.5 * (s.s0 + s.s1), 0.5 * (s.s0 - s.s1), 0.5 * (s.s2 + 1j * s.s3)
    )


def _matrix2(g):
    m = getattr(g, "matrix", g)
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise PhysicsError("expected a 2x2 element")
    return m


def conjugate(c: CoherencyMatrix, g, scale=1.0) -> CoherencyMatrix:
    """Transform a coherency matrix by an element: C -> scale^2 G C G+.

    The determinant of C is preserved when G is unimodular and scale
    is 1, which is what makes the induced Stokes map a Lorentz
    transformation; an attenuator is its overall amplitude factor
    ``scale`` times a unimodular G. The product is written out
    entrywise, so the result is Hermitian by construction: real
    diagonal, one off-diagonal entry.

    This is the transform for states without amplitudes. While a beam
    still has its Jones vector psi, transforming psi -> scale conj(G)
    psi and taking the outer product (coherency_from_jones) gives the
    same matrix, rank 1 to rounding.
    """
    p, q, s = c.s11, c.s22, c.s12
    if isinstance(g, Element2):
        a, b, c, d = g.alpha, g.beta, g.gamma, g.delta
    else:
        a, b, c, d = (complex(x) for x in _matrix2(g).ravel())
    abar, bbar, cbar, dbar = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    k2 = scale * scale
    s11 = (a * abar).real * p + (b * bbar).real * q + 2.0 * (a * bbar * s).real
    s22 = (c * cbar).real * p + (d * dbar).real * q + 2.0 * (c * dbar * s).real
    s12 = p * a * cbar + q * b * dbar + a * dbar * s + b * cbar * s.conjugate()
    return CoherencyMatrix(k2 * s11, k2 * s22, k2 * s12)


# Coherency matrices of the four Stokes basis vectors; conjugating these
# and reading off Stokes components gives the columns of the lift.
_BASIS_C = [
    np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
]


def _stokes_of(c):
    return np.array(
        [
            (c[0, 0] + c[1, 1]).real,
            (c[0, 0] - c[1, 1]).real,
            (c[0, 1] + c[1, 0]).real,
            (c[0, 1] - c[1, 0]).imag,
        ]
    )


def lift(g) -> Transform4:
    """The 4x4 Stokes transform induced by a unimodular 2x2 element.

    Defined by stokes(G C G+) = M stokes(C) for every coherency matrix
    C; computed by conjugating the four basis coherency matrices and
    reading off columns. M is a proper orthochronous Lorentz matrix,
    identical for G and -G.
    """
    g2 = _matrix2(g)
    with np.errstate(over="ignore", invalid="ignore"):
        det = g2[0, 0] * g2[1, 1] - g2[0, 1] * g2[1, 0]
        if abs(det - 1.0) > UNIMODULAR_TOL:
            raise PhysicsError(
                f"lift requires a unimodular element: |det - 1| = {abs(det - 1.0):.3e}"
            )
        gh = g2.conj().T
        m = np.empty((4, 4))
        for j, basis in enumerate(_BASIS_C):
            m[:, j] = _stokes_of(g2 @ basis @ gh)
    if not np.isfinite(m).all():
        raise NonFiniteError("lift overflowed: element entries too large to square")
    return Transform4(m, lorentz=True)


class PurityReport(NamedTuple):
    """Purity diagnostics of a trace-normalized coherency matrix."""

    trace: float
    trace_sq: float
    det: float
    degree_of_polarization: float


def purity_report(c: CoherencyMatrix) -> PurityReport:
    """Trace, tr(rho^2), det(rho) and degree of polarization.

    rho is the matrix normalized to unit trace, so a pure (rank-1)
    state gives trace_sq = 1 and det = 0 regardless of intensity, and
    the fully mixed state gives trace_sq = 1/2, det = 1/4.
    """
    s11, s22, s12 = c.s11, c.s22, c.s12
    tr = unit = s11 + s22
    if tr < _SQUARE_MIN:
        if tr <= 0.0:
            raise PhysicsError("purity report requires positive total intensity")
        # tr^2 underflows: take the same ratios from c / tr, of trace 1.
        s11, s22, s12, unit = s11 / tr, s22 / tr, s12 / tr, 1.0
    cross = abs(s12) ** 2
    unit2 = unit**2
    trace_sq = (s11**2 + s22**2 + 2.0 * cross) / unit2
    det = (s11 * s22 - cross) / unit2
    pol = math.sqrt((s11 - s22) ** 2 + 4.0 * cross) / unit
    return PurityReport(tr, trace_sq, det, pol)


def minkowski_norm(s: StokesVector) -> float:
    """s0^2 - s1^2 - s2^2 - s3^2; equals 4 det of the coherency matrix.

    Raises NonFiniteError when a component is too large to square
    (above about 1.3e154).
    """
    try:
        return s.s0**2 - s.s1**2 - s.s2**2 - s.s3**2
    except OverflowError:
        raise NonFiniteError(
            "Minkowski norm overflowed: a Stokes component is too large to square"
        ) from None


def relative_norm(s: StokesVector) -> float:
    """minkowski_norm(s) / s0^2, for s0 > 0.

    Where s0^2 underflows it is 1 - p^2 with p = |(s1, s2, s3)| / s0,
    which does not depend on the scale of s.
    """
    if s.s0 >= _SQUARE_MIN:
        return minkowski_norm(s) / s.s0**2
    p = math.hypot(s.s1, s.s2, s.s3) / s.s0
    return (1.0 - p) * (1.0 + p)


def metric_defect(m) -> float:
    """Max-entry deviation of m^T g m from g, with g = diag(1,-1,-1,-1)."""
    m = np.asarray(getattr(m, "m", m), dtype=float)
    return float(np.abs(m.T @ MINKOWSKI @ m - MINKOWSKI).max())
