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
`lift` computes that 4x4 map from closed-form quadratic forms in the
entries of G; it is a proper orthochronous Lorentz matrix, and G and
-G give the same one.

Every 2x2 and 4x4 map is held as plain floats and complex numbers.
NumPy is imported only, on first use, by the accessors that return or
take ndarrays: `as_array`, `from_array`, `.matrix`, `Transform4.m` and
`MINKOWSKI`.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

import math
import sys
from typing import NamedTuple

__all__ = [
    "PhysicsError",
    "NonFiniteError",
    "UNIMODULAR_TOL",
    "LORENTZ_TOL",
    "CLASSIFY_TOL",
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

    exit_code = 3  # the command line's code for a physicality error


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

_METRIC = (1.0, -1.0, -1.0, -1.0)


def __getattr__(name):
    # MINKOWSKI is not in __all__: a star import would read it, and numpy.
    if name != "MINKOWSKI":
        raise AttributeError(f"no attribute {name!r}")
    import numpy as np
    m = globals()["MINKOWSKI"] = np.diag(_METRIC)
    m.setflags(write=False)
    return m

# m^T g m sums four products of entries of m; below this entry size
# (about 6.7e153) the metric check of a Transform4 cannot overflow.
_METRIC_MAX = 0.5 * math.sqrt(sys.float_info.max)

# Below this (about 1.5e-154) a square is no longer a normal float: it
# loses precision and then underflows to 0, so tests that compare
# squares of intensities switch to ratios taken over the intensity.
_SQUARE_MIN = math.sqrt(sys.float_info.min)


class _DataclassFields:
    """A record's fields as `dataclasses.fields`, `asdict` and `replace`
    read them; the dataclasses module is imported on that first read."""

    def __init__(self, annotations):
        self.annotations = annotations

    def __get__(self, record, cls):
        import dataclasses as dc
        return dc.make_dataclass(cls.__name__, [
            (f, t, dc.field(default=getattr(cls, f, dc.MISSING), compare=f in cls._compare))
            for f, t in self.annotations.items()]).__dataclass_fields__


class _Record:
    """Frozen record: a subclass's annotations are its fields, in order.

    Its __init__ fills the instance __dict__, which stays open to memos,
    then calls self.__post_init__ if the class has one (looked up per
    call, so it can be patched). ==, hash and repr go field by field; ==
    and hash over ``compare`` (default: all) and within one class only.
    """

    def __init_subclass__(cls, compare=None):
        # Since 3.10 a class without annotations of its own reads {} here.
        fields = tuple(cls.__annotations__)
        if not fields:
            return  # a subclass without fields of its own keeps its parent's
        cls.__match_args__, cls._compare = fields, fields if compare is None else compare
        cls.__dataclass_fields__ = _DataclassFields(cls.__annotations__)
        stores = "".join(f"\n    d[{f!r}] = {f}" for f in fields)
        hook = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {}
        exec(f"def __init__(self, {', '.join(fields)}):\n    d = self.__dict__{stores}{hook}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__defaults__ = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)

    def _key(self):
        return tuple(getattr(self, f) for f in self._compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        items = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class JonesVector(_Record):
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
        import numpy as np
        return np.array([self.psi1, self.psi2], dtype=complex)


class Element2(_Record):
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
        import numpy as np
        return np.array([[self.alpha, self.beta], [self.gamma, self.delta]], dtype=complex)

    @classmethod
    def from_matrix(cls, m):
        return cls(*_entries2(m, "element matrix must be 2x2"))


class CoherencyMatrix(_Record):
    """Hermitian correlation matrix [[s11, s12], [conj(s12), s22]].

    The diagonal holds the two beam intensities, so it must be
    nonnegative and the matrix positive semidefinite; both checks carry
    a slack for rounding from long element chains, 1e-12 of the trace
    (of its square for the determinant), so they hold at every
    intensity. A zero matrix (dark field) is allowed.
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
        size = abs(s11) + abs(s22)
        if size == math.inf:
            raise NonFiniteError("coherency intensities overflow: |s11| + |s22| is infinite")
        if s11 < -1e-12 * size or s22 < -1e-12 * size:
            raise PhysicsError("diagonal coherency entries must be nonnegative")
        if 0.0 < size < _SQUARE_MIN:
            # the products underflow: test the same matrix scaled to trace 1
            s11, s22, s12, size = s11 / size, s22 / size, s12 / size, 1.0
        det = s11 * s22 - (s12.real * s12.real + s12.imag * s12.imag)
        try:
            floor = -1e-12 * size**2
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
        import numpy as np
        return np.array([[self.s11, self.s12], [self.s12.conjugate(), self.s22]], dtype=complex)

    @classmethod
    def from_matrix(cls, m):
        """Build from a 2x2 array, checking Hermiticity to rounding level."""
        a, b, c, d = _entries2(m, "coherency matrix must be 2x2")
        if a * 0.0 + b * 0.0 + c * 0.0 + d * 0.0 != 0.0:
            raise PhysicsError("coherency entries must be finite")
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
        herm = max(abs(b - c.conjugate()), abs(a.imag), abs(d.imag))
        if herm > 1e-12 * scale:
            raise PhysicsError(f"matrix is not Hermitian: residual {herm:.3e}")
        return cls(a.real, d.real, b)


class StokesVector(_Record):
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
        import numpy as np
        return np.array([self.s0, self.s1, self.s2, self.s3])

    @classmethod
    def from_array(cls, a):
        import numpy as np
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
            # the norm itself underflows for tiny s0; its ratio to s0^2 does not
            rel = relative_norm(self) if self.s0 > 0.0 else -math.inf
            raise PhysicsError(f"non-physical Stokes vector (spacelike): relative_norm = {rel:.3e}")
        return self


class Transform4(_Record):
    """A real 4x4 map on Stokes vectors, held as 16 row-major floats.

    ``entries`` may be given as 16 numbers or as 4 rows of 4 (nested
    lists or an ndarray); ``m`` returns the matrix as a read-only
    ndarray. When flagged ``lorentz`` the matrix must preserve the
    Minkowski form; the check scales with max|m|^2 so that large
    boosts, whose cosh^2 - sinh^2 cancellation carries rounding
    proportional to the squared magnitude, validate at the same
    relative level as unit-scale matrices (1e-10 absolute there).
    """

    entries: tuple
    lorentz: bool = False
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity, not entries

    def __post_init__(self):
        e = _flat16(self.entries)
        if not all(map(math.isfinite, e)):
            raise PhysicsError("transform entries must be finite")
        if self.lorentz:
            big = max(map(abs, e))
            if big > _METRIC_MAX:
                raise NonFiniteError(
                    f"transform entries too large for the metric check: {big:.3e}"
                )
            allowed = LORENTZ_TOL * max(1.0, big) ** 2
            defect = _defect(e)
            if defect > allowed:
                raise PhysicsError(
                    f"matrix flagged lorentz does not preserve the metric: defect {defect:.3e}"
                )
        vars(self)["entries"] = e

    @property
    def m(self):
        import numpy as np
        m = np.array(self.entries).reshape(4, 4)
        m.setflags(write=False)
        return m

    def apply(self, s: StokesVector) -> StokesVector:
        e, s0, s1, s2, s3 = self.entries, s.s0, s.s1, s.s2, s.s3
        return StokesVector(
            *[e[i] * s0 + e[i + 1] * s1 + e[i + 2] * s2 + e[i + 3] * s3 for i in (0, 4, 8, 12)]
        )

    def __matmul__(self, other):
        if not isinstance(other, Transform4):
            return NotImplemented
        a, b = self.entries, other.entries
        product = tuple(
            a[i] * b[j] + a[i + 1] * b[j + 4] + a[i + 2] * b[j + 8] + a[i + 3] * b[j + 12]
            for i in (0, 4, 8, 12)
            for j in (0, 1, 2, 3)
        )
        return Transform4(product, lorentz=self.lorentz and other.lorentz)


def _flat16(m):
    """The row-major entries, as floats, of a Transform4 or a 4x4 array-like."""
    m = getattr(m, "entries", m)
    try:
        if len(m) == 4 and all(len(row) == 4 for row in m):
            m = [x for row in m for x in row]
        e = tuple(map(float, m))
    except (TypeError, ValueError):
        e = ()
    if len(e) != 16:
        raise PhysicsError("transform must be 4x4")
    return e


def _defect(e):
    """Max-entry size of m^T g m - g for the row-major entries e of m."""
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = e
    return max(
        abs(a0 * a0 - b0 * b0 - c0 * c0 - d0 * d0 - 1.0),
        abs(a1 * a1 - b1 * b1 - c1 * c1 - d1 * d1 + 1.0),
        abs(a2 * a2 - b2 * b2 - c2 * c2 - d2 * d2 + 1.0),
        abs(a3 * a3 - b3 * b3 - c3 * c3 - d3 * d3 + 1.0),
        abs(a0 * a1 - b0 * b1 - c0 * c1 - d0 * d1),
        abs(a0 * a2 - b0 * b2 - c0 * c2 - d0 * d2),
        abs(a0 * a3 - b0 * b3 - c0 * c3 - d0 * d3),
        abs(a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2),
        abs(a1 * a3 - b1 * b3 - c1 * c3 - d1 * d3),
        abs(a2 * a3 - b2 * b3 - c2 * c3 - d2 * d3),
    )


def _finite(x, what):
    """x as a float, which must be finite; what names it in the error."""
    x = float(x)
    if not math.isfinite(x):
        raise PhysicsError(f"{what} must be finite")
    return x


def coherency_from_jones(j: JonesVector) -> CoherencyMatrix:
    """Correlation matrix of a fully coherent pair of amplitudes.

    For a deterministic beam the ensemble averages collapse to the
    instantaneous products: s11 = |psi1|^2, s22 = |psi2|^2 and
    s12 = conj(psi1) * psi2. The result has rank 1 (det = 0 up to
    rounding).
    """
    return _coherency_outer(j.psi1, j.psi2)


def _coherency_outer(p1, p2):
    # The outer product of two complex amplitudes. A non-finite amplitude
    # gives a non-finite s11 or s22, which CoherencyMatrix rejects with
    # NonFiniteError.
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


def _entries2(m, shape_error="expected a 2x2 element"):
    """The row-major complex entries of an Element2 or a 2x2 array-like."""
    if isinstance(m, Element2):
        return m.alpha, m.beta, m.gamma, m.delta
    try:
        (a, b), (c, d) = m
        return complex(a), complex(b), complex(c), complex(d)
    except (TypeError, ValueError):
        raise PhysicsError(shape_error) from None


def _mul2(x, y):
    """The row-major entries of the 2x2 product x y of row-major entries."""
    a, b, c, d = x
    p, q, r, s = y
    return a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s


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
    a, b, c, d = _entries2(g)
    abar, bbar, cbar, dbar = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    k2 = scale * scale
    s11 = (a * abar).real * p + (b * bbar).real * q + 2.0 * (a * bbar * s).real
    s22 = (c * cbar).real * p + (d * dbar).real * q + 2.0 * (c * dbar * s).real
    s12 = p * a * cbar + q * b * dbar + a * dbar * s + b * cbar * s.conjugate()
    return CoherencyMatrix(k2 * s11, k2 * s22, k2 * s12)


def lift(g) -> Transform4:
    """The 4x4 Stokes transform induced by a unimodular 2x2 element.

    Defined by stokes(G C G+) = M stokes(C) for every coherency matrix
    C, so M_ij = tr(sigma_i G sigma_j G+) / 2 with sigma = (1, Z, X,
    [[0, i], [-i, 0]]), the basis dual to (s0, s1, s2, s3). Each entry
    is written out as its quadratic form in the entries of G. M is a
    proper orthochronous Lorentz matrix, identical for G and -G.
    """
    a, b, c, d = _entries2(g)
    drift = abs(a * d - b * c - 1.0)
    if drift > UNIMODULAR_TOL:
        raise PhysicsError(f"lift requires a unimodular element: |det - 1| = {drift:.3e}")
    aa, bb = a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag
    cc, dd = c.real * c.real + c.imag * c.imag, d.real * d.real + d.imag * d.imag
    ab, cd, ac = a * b.conjugate(), c * d.conjugate(), a * c.conjugate()
    bd, ad, bc = b * d.conjugate(), a * d.conjugate(), b * c.conjugate()
    m = (
        0.5 * (aa + bb + cc + dd), 0.5 * (aa - bb + cc - dd), ab.real + cd.real, -ab.imag - cd.imag,
        0.5 * (aa + bb - cc - dd), 0.5 * (aa - bb - cc + dd), ab.real - cd.real, cd.imag - ab.imag,
        (ac + bd).real, (ac - bd).real, (ad + bc).real, (bc - ad).imag,
        (ac + bd).imag, (ac - bd).imag, (ad + bc).imag, (ad - bc).real,
    )
    if not all(map(math.isfinite, m)):
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
    """Max-entry deviation of m^T g m from g, with g = diag(1,-1,-1,-1).

    m is a Transform4, 4 rows of 4 or 16 row-major numbers.
    """
    return _defect(_flat16(m))
