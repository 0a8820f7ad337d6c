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

_SQUARE_MIN, _SQUARE_MAX = math.sqrt(sys.float_info.min), 0.5 * math.sqrt(sys.float_info.max)


def _scaled(*xs):
    """xs as they are if their largest magnitude is 0 or in [_SQUARE_MIN,
    _SQUARE_MAX], where squares are normal and sums of four finite, and
    the first, a real that callers divide by, is 0 or at least
    _SQUARE_MIN; else divided exactly by the power of two that puts the
    largest in [1, 2). State checks are homogeneous: they read the same.
    """
    big = max(map(abs, xs))
    if _SQUARE_MIN <= big <= _SQUARE_MAX and (xs[0] >= _SQUARE_MIN or xs[0] == 0.0) or big == 0.0:
        return xs
    unit = math.ldexp(1.0, math.frexp(big)[1] - 1)
    return tuple(x / unit for x in xs)


def _float(x, what, kind=float):  # kind(x), float or complex; what names an int beyond the float range
    try:
        return kind(x)
    except OverflowError:
        raise PhysicsError(f"{what} is beyond the float range") from None


class _FirstRead:
    """A member of a record class, owner, made by build(owner) on its first read, from any
    class or instance; it then stands on owner in this one's place, as subclasses read it."""

    def __init__(self, owner, name, build):
        self.owner, self.name, self.build = owner, name, build
        setattr(owner, name, self)

    def __get__(self, record, cls):
        setattr(self.owner, self.name, self.build(self.owner))
        return getattr(cls if record is None else record, self.name)


class _Record:
    """Frozen record: a subclass's annotations are its fields, in order.

    Its __init__, made with the class, converts by _float each value of a field
    annotated float or complex that is not exactly of that class, fills the
    instance __dict__, open to memos, then calls self.__post_init__ if the class
    has one (looked up per call, so it can be patched). Its classmethod _checked
    makes the same stores without either, for values of the fields' exact
    types that passed its checks already or hold them by construction; it
    takes one value per field, or raises TypeError. It and the view that
    `dataclasses` reads, __dataclass_fields__, are built once, on first read.
    ==, hash and repr go field by field; == and hash over ``compare``
    (default: all) and within one class only.
    """

    def __init_subclass__(cls, compare=None):
        # Since 3.10 a class without annotations of its own reads {} here.
        fields = tuple(cls.__annotations__)
        if not fields:
            return  # a subclass without fields of its own keeps its parent's
        cls.__match_args__, cls._compare = fields, fields if compare is None else compare
        args, stores = ", ".join(fields), "".join(f"\n    d[{f!r}] = {f}" for f in fields)
        converts = "".join(f"\n    if {f}.__class__ is not {t.__name__}: {f} = convert({f}, {f!r}, {t.__name__})"
                           for f, t in cls.__annotations__.items() if t is float or t is complex)
        hook = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {"new": object.__new__, "convert": _float}
        exec(f"def __init__(self, {args}):{converts}\n    d = self.__dict__{stores}{hook}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__defaults__ = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)

        def dataclass_fields(cls):
            import dataclasses as dc
            return dc.make_dataclass(cls.__name__, [
                (f, t, dc.field(default=getattr(cls, f, dc.MISSING), compare=f in cls._compare))
                for f, t in cls.__annotations__.items()]).__dataclass_fields__

        checked = (f"def _checked(cls, {args}):\n    \"A record of one value per field, without "
                   f"__init__'s conversions or __post_init__.\"\n    self = new(cls)\n"
                   f"    d = self.__dict__{stores}\n    return self")
        _FirstRead(cls, "_checked",
                   lambda _: exec(checked, namespace) or classmethod(namespace["_checked"]))
        _FirstRead(cls, "__dataclass_fields__", dataclass_fields)

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
        # x * 0.0 is 0 for finite x and NaN for infinite or NaN x.
        if self.psi1 * 0.0 + self.psi2 * 0.0 != 0.0:
            raise NonFiniteError("Jones amplitudes must be finite")

    @property
    def intensity(self):
        """s11 + s22 of the coherency matrix, its trace, as coherency_from_jones gives it."""
        s11, s22, _ = _outer(self.psi1, self.psi2)
        return _in_range(s11 + s22, "Jones intensity")

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
        _check_unimodular(self.alpha, self.beta, self.gamma, self.delta, "element",
                          "element must be unimodular")

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
    intensity. A zero matrix (dark field) is allowed. The checks are
    one function, which evaluate also runs on the entries it carries.
    """

    s11: float
    s22: float
    s12: complex

    def __post_init__(self):
        _check_coherency(self.s11, self.s22, self.s12)

    @property
    def trace(self):
        return self.s11 + self.s22

    @property
    def det(self):
        return _in_range(self.s11 * self.s22 - abs(self.s12) * abs(self.s12), "coherency det")

    @property
    def matrix(self):
        import numpy as np
        return np.array([[self.s11, self.s12], [self.s12.conjugate(), self.s22]], dtype=complex)

    @classmethod
    def from_matrix(cls, m):
        """Build from a 2x2 array, Hermitian to 1e-12 of its largest entry."""
        a, b, c, d = _entries2(m, "coherency matrix must be 2x2")
        if a * 0.0 + b * 0.0 + c * 0.0 + d * 0.0 != 0.0:
            raise NonFiniteError("coherency entries must be finite")
        scale = max(abs(a), abs(b), abs(c), abs(d))
        herm = max(abs(b - c.conjugate()), abs(a.imag), abs(d.imag))
        if herm > 1e-12 * scale:
            raise PhysicsError(f"matrix is not Hermitian: residual {herm:.3e}")
        return cls(a.real, d.real, b)


def _check_unimodular(a, b, c, d, noun, message, computed=False):
    """Finite entries, |det - 1| <= UNIMODULAR_TOL; if computed, <= that times |ad| + |bc| (_scaled)."""
    if a * 0.0 + b * 0.0 + c * 0.0 + d * 0.0 != 0.0:
        raise NonFiniteError(f"{noun} entries must be finite")
    one, p, q, r, s = _scaled(1.0, a, b, c, d) if computed else (1.0, a, b, c, d)
    bound = UNIMODULAR_TOL * (abs(p * s) + abs(q * r) if computed else 1.0)
    if not abs(p * s - q * r - one * one) <= bound:  # NaN, from a det that overflows, fails too
        drift = _in_range(abs(a * d - b * c - 1.0), f"{noun} determinant")
        raise PhysicsError(f"{message}: |det - 1| = {drift:.3e}")


def _check_coherency(s11, s22, s12):
    """CoherencyMatrix's checks of float s11, s22 and complex s12; evaluate runs them too.

    A size |s11| + |s22| in _scaled's range leaves only s12's finiteness to
    test; any other (0, inf and NaN too) takes the full finiteness, overflow
    and rescaling steps. Each input gets the same class and message either way.
    """
    size = abs(s11) + abs(s22)
    re, im = s12.real, s12.imag
    if _SQUARE_MIN <= size <= _SQUARE_MAX:  # _scaled's range, tested inline
        if re * 0.0 + im * 0.0 != 0.0:
            raise NonFiniteError("coherency entries must be finite")
    else:
        if s11 * 0.0 + s22 * 0.0 + s12 * 0.0 != 0.0:
            raise NonFiniteError("coherency entries must be finite")
        if size == math.inf:
            raise NonFiniteError("coherency intensities overflow: |s11| + |s22| is infinite")
        s11, s22, re, im = _scaled(s11, s22, re, im)
        size = abs(s11) + abs(s22)
    if s11 < -1e-12 * size or s22 < -1e-12 * size:
        raise PhysicsError("diagonal coherency entries must be nonnegative")
    det = s11 * s22 - (re * re + im * im)
    if det < -1e-12 * size**2:
        raise PhysicsError(f"coherency matrix must be positive semidefinite: det = {det:.3e}")


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
        try:
            a = np.asarray(a, dtype=float)
        except OverflowError:  # an int beyond the float range
            raise PhysicsError("Stokes component is beyond the float range") from None
        if a.shape != (4,):
            raise PhysicsError("Stokes vector must have four components")
        return cls(a[0], a[1], a[2], a[3])

    def require_physical(self, tol=CLASSIFY_TOL):
        """Raise unless the vector lies on or inside the light cone."""
        _check_tol(tol)
        s0, s1, s2, s3 = _scaled(self.s0, self.s1, self.s2, self.s3)
        norm, sq = s0**2 - s1**2 - s2**2 - s3**2, s0**2
        if norm < -tol * sq:
            rel = norm / sq if sq else -math.inf
            raise PhysicsError(f"non-physical Stokes vector (spacelike): relative_norm = {rel:.3e}")
        return self


class Transform4(_Record):
    """A real 4x4 map on Stokes vectors, held as 16 row-major floats.

    ``entries`` may be given as 16 numbers or as 4 rows of 4 (nested
    lists or an ndarray); ``m`` returns the matrix as a read-only
    ndarray. The constructor checks only shape and finiteness.
    """

    entries: tuple
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity, not entries

    def __post_init__(self):
        e = _flat16(self.entries)
        if not all(map(math.isfinite, e)):
            raise NonFiniteError("transform entries must be finite")
        vars(self)["entries"] = e

    @property
    def lorentz(self):
        """Whether the matrix preserves the Minkowski form, read from the
        entries on each access. The check scales with max|m|^2, so large
        boosts, whose cosh^2 - sinh^2 cancellation carries rounding
        proportional to the squared magnitude, pass at the same relative
        level as unit-scale matrices (LORENTZ_TOL absolute there)."""
        return _is_lorentz(self.entries)

    @property
    def m(self):
        import numpy as np
        m = np.array(self.entries).reshape(4, 4)
        m.setflags(write=False)
        return m

    def apply(self, s: StokesVector) -> StokesVector:
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = self.entries
        s0, s1, s2, s3 = s.s0, s.s1, s.s2, s.s3
        return StokesVector(
            a0 * s0 + a1 * s1 + a2 * s2 + a3 * s3, b0 * s0 + b1 * s1 + b2 * s2 + b3 * s3,
            c0 * s0 + c1 * s1 + c2 * s2 + c3 * s3, d0 * s0 + d1 * s1 + d2 * s2 + d3 * s3,
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
        return Transform4(product)


def _flat16(m):
    """The row-major entries, as floats, of a Transform4 or a 4x4 array-like."""
    m = getattr(m, "entries", m)
    try:
        if len(m) == 4 and all(len(row) == 4 for row in m):
            m = [x for row in m for x in row]
        e = tuple(map(float, m))
    except OverflowError:  # an int beyond the float range
        raise PhysicsError("transform entry is beyond the float range") from None
    except (TypeError, ValueError):
        e = ()
    if len(e) != 16:
        raise PhysicsError("transform must be 4x4")
    return e


def _defects(e, g=1.0):
    """The entry sizes of m^T G m - G, G = g diag(1,-1,-1,-1), for the row-major entries e of m."""
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = e
    return (
        abs(a0 * a0 - b0 * b0 - c0 * c0 - d0 * d0 - g), abs(a1 * a1 - b1 * b1 - c1 * c1 - d1 * d1 + g),
        abs(a2 * a2 - b2 * b2 - c2 * c2 - d2 * d2 + g), abs(a3 * a3 - b3 * b3 - c3 * c3 - d3 * d3 + g),
        abs(a0 * a1 - b0 * b1 - c0 * c1 - d0 * d1), abs(a0 * a2 - b0 * b2 - c0 * c2 - d0 * d2),
        abs(a0 * a3 - b0 * b3 - c0 * c3 - d0 * d3), abs(a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2),
        abs(a1 * a3 - b1 * b3 - c1 * c3 - d1 * d3), abs(a2 * a3 - b2 * b3 - c2 * c3 - d2 * d3),
    )


def _is_lorentz(e):
    """Transform4's metric check of the row-major entries e: m^T g m = g to
    LORENTZ_TOL max(1, max|e|)^2, taken on (1, e) rescaled by _scaled."""
    t = _scaled(1.0, *e)
    return max(_defects(t[1:], t[0] * t[0])) <= LORENTZ_TOL * max(map(abs, t)) ** 2


def _check_tol(tol):
    """Reject a tolerance that is NaN, infinite or negative; 0 is exact."""
    if tol.__class__ is int:  # tol * 0.0 raises OverflowError beyond the float range
        tol = _float(tol, "tol")
    if tol * 0.0 != 0.0 or tol < 0.0:
        raise PhysicsError("tol must be finite and nonnegative")


def _in_range(x, what):  # x, unless it is inf or NaN, a value beyond the float range
    if x * 0.0 != 0.0:
        raise NonFiniteError(f"{what} is beyond the float range")
    return x


def _finite(x, what):
    """x as a float, which must be finite; what names it in the error."""
    x = _float(x, what)
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
    return CoherencyMatrix(*_outer(j.psi1, j.psi2))


def _outer(p1, p2):
    # The coherency entries of two complex amplitudes. A non-finite
    # amplitude gives a non-finite s11 or s22, which the gate rejects with
    # NonFiniteError.
    s11, s22 = p1.real * p1.real + p1.imag * p1.imag, p2.real * p2.real + p2.imag * p2.imag
    return s11, s22, p1.conjugate() * p2


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

    Rejects spacelike input with require_physical's message, also where
    it passes tol and the CoherencyMatrix gate, of slack 1e-12, rejects
    it. Round-trips with stokes_from_coherency to 1e-14.
    """
    s.require_physical(tol)
    try:
        return CoherencyMatrix(
            0.5 * (s.s0 + s.s1), 0.5 * (s.s0 - s.s1), 0.5 * (s.s2 + 1j * s.s3)
        )
    except NonFiniteError:
        raise
    except PhysicsError:
        s.require_physical(0.0)  # the gate rejects only spacelike input, so this raises
        raise


def _entries2(m, shape_error="expected a 2x2 element"):
    """The row-major complex entries of an Element2 or a 2x2 array-like."""
    if isinstance(m, Element2):
        return m.alpha, m.beta, m.gamma, m.delta
    try:
        (a, b), (c, d) = m
        return complex(a), complex(b), complex(c), complex(d)
    except OverflowError:  # an int beyond the float range
        raise PhysicsError("matrix entry is beyond the float range") from None
    except (TypeError, ValueError):
        raise PhysicsError(shape_error) from None


def _mul2(x, y):
    """The row-major entries of the 2x2 product x y of row-major entries."""
    a, b, c, d = x
    p, q, r, s = y
    return a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s


def conjugate(c: CoherencyMatrix, g) -> CoherencyMatrix:
    """Transform a coherency matrix by an element: C -> G C G+.

    The determinant of C is preserved when G is unimodular, which is
    what makes the induced Stokes map a Lorentz transformation; g may
    also be any 2x2 array-like, such as an attenuator's diag(e^-eta1,
    e^-eta2). The product is written out entrywise, so the result is
    Hermitian by construction: real diagonal, one off-diagonal entry.
    The products of G's entries that do not involve C are its
    conjugation constants, which each coherent segment of a circuit
    keeps; conjugate computes them on each call and stores nothing on G.

    This is the transform for states without amplitudes. While a beam
    still has its Jones vector psi, transforming psi -> conj(G) psi and
    taking the outer product (coherency_from_jones) gives the same
    matrix, rank 1 to rounding.
    """
    return CoherencyMatrix(*_conjugated(c.s11, c.s22, c.s12, _conjugation(_entries2(g))))


def _conjugated(p, q, s, step):
    """conjugate's entries: those of G C G+ for C's s11 = p, s22 = q, s12 = s,
    with step G's conjugation constants, as _conjugation returns them."""
    aa, bb, ab, cc, dd, cd, ad, bc, a, cbar, b, dbar = step
    s11 = aa * p + bb * q + 2.0 * (ab * s).real
    s22 = cc * p + dd * q + 2.0 * (cd * s).real
    s12 = p * a * cbar + q * b * dbar + ad * s + bc * s.conjugate()
    return s11, s22, s12


def _conjugation(entries):
    """The conjugation constants of G's row-major complex entries: the
    products that do not involve C, then the entries that conjugate still
    multiplies by C's entries one at a time."""
    a, b, c, d = entries
    abar, bbar, cbar, dbar = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return ((a * abar).real, (b * bbar).real, a * bbar, (c * cbar).real, (d * dbar).real, c * dbar,
            a * dbar, b * cbar, a, cbar, b, dbar)


def lift(g) -> Transform4:
    """The 4x4 Stokes transform induced by a unimodular 2x2 element.

    Defined by stokes(G C G+) = M stokes(C) for every coherency matrix
    C, so M_ij = tr(sigma_i G sigma_j G+) / 2 with sigma = (1, Z, X,
    [[0, i], [-i, 0]]), the basis dual to (s0, s1, s2, s3). Each entry
    is written out as its quadratic form in the entries of G. M is a
    proper orthochronous Lorentz matrix, identical for G and -G.
    """
    return Transform4(_lift(*_entries2(g if isinstance(g, Element2) else Element2.from_matrix(g))))


def _lift(a, b, c, d):
    """lift's 16 row-major entries, tr(sigma_i M sigma_j M+) / 2, of any 2x2 M's entries."""
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
    return m


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
    tr = c.s11 + c.s22
    if tr <= 0.0:
        raise PhysicsError("purity report requires positive total intensity")
    unit, s11, s22, s12 = _scaled(tr, c.s11, c.s22, c.s12)
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
    """minkowski_norm(s) / s0^2, for s0 > 0, taken on s rescaled by
    _scaled; NonFiniteError where it lies beyond the float range."""
    s0, s1, s2, s3 = _scaled(s.s0, s.s1, s.s2, s.s3)
    sq = s0**2
    return _in_range((sq - s1**2 - s2**2 - s3**2) / sq if sq else -math.inf, "relative norm")


def metric_defect(m) -> float:
    """Max-entry deviation of m^T g m from g, with g = diag(1,-1,-1,-1).

    m is a Transform4, 4 rows of 4 or 16 row-major numbers. Raises
    NonFiniteError where a product of entries overflows.
    """
    defects = _defects(_flat16(m))  # max() skips a NaN that is not first
    return _in_range(max(defects) if all(map(math.isfinite, defects)) else math.inf, "metric defect")
