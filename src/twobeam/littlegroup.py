"""Classification of Stokes vectors and the transforms that fix them.

A physical Stokes vector lies on or inside the light cone of the form
s0^2 - s1^2 - s2^2 - s3^2. Fully polarized (pure) states sit on the
cone, partially polarized (impure) states inside it, and the set of
Stokes transforms fixing a given vector depends only on which case it
is: a rotation-like group for impure states, a larger group generated
by phase4 together with the shear maps f1, f2 for pure states.

`standardize` reduces any physical vector to its representative fixed
point, (c, 0, 0, 0) or c*(1, 1, 0, 0), and `closed_form_family`
provides a one-parameter bridge between the rotation generator and the
f1 shear, with an explicit metric-defect diagnostic since the bridge
matrices are not metric-preserving away from the endpoints.
"""

import math

from .states import CLASSIFY_TOL, PhysicsError, StokesVector, Transform4, metric_defect, minkowski_norm
from .states import _Record, _check_tol, _finite, _float, _scaled
from .elements import phase4, rotator4, squeeze4

__all__ = [
    "PURE",
    "IMPURE",
    "NON_PHYSICAL",
    "StateClass",
    "InterpolationParams",
    "classify",
    "standardize",
    "f1",
    "f2",
    "f_product",
    "little_group_element",
    "conjugated_rotation",
    "closed_form_family",
    "family_metric_defect",
]

PURE = "pure"
IMPURE = "impure"
NON_PHYSICAL = "non-physical"


class StateClass(_Record):
    """Light-cone class of a Stokes vector.

    eta_to_standard is the signed boost rapidity that standardize will
    undo, set only for impure states: artanh(|pol|/s0) carrying the
    sign of s1 (nonnegative when s1 = 0).
    """

    tag: str
    invariant_norm: float
    eta_to_standard: float | None = None


def classify(s: StokesVector, tol=CLASSIFY_TOL) -> StateClass:
    """Sort a Stokes vector by its Minkowski norm.

    The comparison band is tol * s0^2, so states produced by long
    chains of elements classify by their relative rounding level, not
    their absolute intensity. Within the band: pure. Above: impure,
    with the rapidity of the standardizing boost. Below the negative
    band: non-physical (spacelike). All on s rescaled by _scaled; the
    class reports the norm of s itself, NonFiniteError if it overflows.
    A tol that is NaN, infinite or negative raises PhysicsError.
    """
    _check_tol(tol)
    if s.s0 <= 0.0:
        raise PhysicsError("classification requires positive total intensity")
    s0, s1, s2, s3 = _scaled(s.s0, s.s1, s.s2, s.s3)
    norm = s0**2 - s1**2 - s2**2 - s3**2
    invariant = norm if s0 == s.s0 else minkowski_norm(s)
    band = tol * s0**2
    if norm < -band:
        return StateClass(NON_PHYSICAL, invariant)
    if norm <= band:
        return StateClass(PURE, invariant)
    p = math.sqrt(s1**2 + s2**2 + s3**2) / s0
    if p >= 1.0:  # on the cone to rounding; tol is below the rounding of s0^2
        return StateClass(PURE, invariant)
    eta = math.atanh(p)
    if s1 < 0.0:
        eta = -eta
    return StateClass(IMPURE, invariant, eta)


def standardize(s: StokesVector, tol=CLASSIFY_TOL):
    """Lorentz transform carrying s to its standard fixed point.

    Returns (t, t.apply(s)). The transform is
    squeeze4(-eta) rotator4(a) phase4(phi), written out entry by entry:
    the phase rotation takes s3 to zero, the rotation takes the
    polarization part onto the s1 axis (the signed ray matching s1 for
    impure states, the positive ray for pure ones) and, for impure
    states, the boost undoes eta = eta_to_standard (eta = 0 for pure
    ones). The standard vector is (c,0,0,0) for impure input and
    c*(1,1,0,0) for pure input, c > 0. Idempotent on its own output.
    """
    cls = classify(s, tol)
    if cls.tag == NON_PHYSICAL:
        raise PhysicsError("cannot standardize a non-physical (spacelike) vector")
    phi = math.atan2(s.s3, s.s2)
    beta = math.atan2(math.hypot(s.s2, s.s3), s.s1)
    if cls.tag == IMPURE:
        a, boost = (math.pi - beta if s.s1 < 0.0 else -beta), -cls.eta_to_standard
    else:
        a, boost = -beta, 0.0
    c, sn = math.cos(phi), math.sin(phi)
    ca, sa = math.cos(a), math.sin(a)
    ch, sh = math.cosh(boost), math.sinh(boost)
    u, v = -sa * c, -sa * sn
    # Finite by construction: |boost| = atanh(p) < 19 for p < 1, as classify gives it.
    t = Transform4._checked((
        ch, sh * ca, sh * u, sh * v,
        sh, ch * ca, ch * u, ch * v,
        0.0, sa, ca * c, ca * sn,
        0.0, 0.0, -sn, c,
    ))
    return t, t.apply(s)


def f1(u) -> Transform4:
    """Shear transform fixing (1,1,0,0); one-parameter group in u."""
    u = _finite(u, "u")
    h = 0.5 * u * u
    return Transform4((1.0 + h, -h, u, 0.0, h, 1.0 - h, u, 0.0, u, -u, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0))


def f2(v) -> Transform4:
    """Companion shear to f1, acting through s3 instead of s2.

    The last row is (v, -v, 0, 1): invariance of (1,1,0,0) and the
    symmetry with f1 force that form.
    """
    v = _finite(v, "v")
    h = 0.5 * v * v
    return Transform4((1.0 + h, -h, 0.0, v, h, 1.0 - h, 0.0, v, 0.0, 0.0, 1.0, 0.0, v, -v, 0.0, 1.0))


def f_product(u, v) -> Transform4:
    """f1(u) f2(v), computed by actual multiplication.

    The factors commute, and the top row of the product is
    (1 + (u^2+v^2)/2, -(u^2+v^2)/2, u, v).
    """
    return f1(u) @ f2(v)


def little_group_element(state_class, *, phi=0.0, u=0.0, v=0.0, theta=0.0) -> Transform4:
    """A transform fixing the standard vector of the given class.

    Pure class: the group is generated by phase4(phi), f1(u), f2(v)
    and fixes (1,1,0,0). Impure class: generated by rotator4(theta)
    and phase4(phi), fixing (1,0,0,0). Parameters of the other class
    are rejected; all-zero parameters give the identity. Accepts a
    StateClass or a bare tag string.
    """
    tag = getattr(state_class, "tag", state_class)
    if tag == PURE:
        if theta != 0.0:
            raise PhysicsError("theta parameterizes the impure little group, not the pure one")
        return phase4(phi) @ f1(u) @ f2(v)
    if tag == IMPURE:
        if u != 0.0 or v != 0.0:
            raise PhysicsError("u, v parameterize the pure little group, not the impure one")
        return rotator4(theta) @ phase4(phi)
    raise PhysicsError(f"no little group for class {tag!r}")


def conjugated_rotation(theta, eta) -> Transform4:
    """squeeze4(eta) rotator4(theta) squeeze4(-eta), by literal product.

    Fixes the boosted vector (cosh eta, sinh eta, 0, 0); reduces to
    rotator4(theta) at eta = 0. As eta grows the matrix stretches
    toward the shear structure of f1 (its (0,2) and (1,2) entries
    approach each other like tanh eta -> 1).
    """
    return squeeze4(eta) @ rotator4(theta) @ squeeze4(-eta)


class InterpolationParams(_Record):
    """Parameters (alpha, u, w) of the rotation-to-shear bridge.

    From a rotation angle theta and rapidity eta >= 0: alpha = tanh(eta),
    u = -2 tan(theta/2) and w = 1 / (1 + (1-alpha^2) tan^2(theta/2)).
    When w is not supplied it is derived from (alpha, u) by the same
    formula with tan(theta/2) = -u/2; at alpha = 1 that gives w = 1.
    """

    alpha: float
    u: float
    w: float | None = None

    def __post_init__(self):
        alpha, u, w = self.alpha, self.u, self.w
        if not (math.isfinite(alpha) and math.isfinite(u)):
            raise PhysicsError("alpha and u must be finite")
        if not 0.0 <= alpha <= 1.0:
            raise PhysicsError("alpha must lie in [0, 1]")
        w = 1.0 / (1.0 + (1.0 - alpha * alpha) * (u * u / 4.0)) if w is None else _float(w, "w")
        if not math.isfinite(w) or w <= 0.0:
            raise PhysicsError("w must be finite and positive")
        vars(self)["w"] = w

    @classmethod
    def from_angles(cls, theta, eta):
        try:
            theta, eta = float(theta), float(eta)
        except OverflowError:  # an int beyond the float range
            raise PhysicsError("theta or eta is beyond the float range") from None
        if not (math.isfinite(theta) and math.isfinite(eta)):
            raise PhysicsError("theta and eta must be finite")
        if eta < 0.0:
            raise PhysicsError("eta must be nonnegative")
        return cls(math.tanh(eta), -2.0 * math.tan(theta / 2.0))  # __post_init__ derives w


def _family_matrix(p: InterpolationParams):
    a, u, w = p.alpha, p.u, p.w
    uw = u * w
    hu = 0.5 * u * u * w
    return (
        1.0 + a * hu, -a * hu, a * uw, 0.0,
        a * hu, 1.0 - hu, uw, 0.0,
        a * uw, -uw, 1.0 - (1.0 - a * a) * hu, 0.0,
        0.0, 0.0, 0.0, 1.0,
    )


def closed_form_family(p: InterpolationParams) -> Transform4:
    """The bridge matrix at (alpha, u, w).

    At alpha = 0 with u = -2 tan(theta/2) and the derived w it equals
    rotator4(theta); at alpha = 1 it equals f1(u) exactly. At
    intermediate alpha it is not metric-preserving, which the returned
    transform's lorentz reads; family_metric_defect gives the size of
    the deviation.
    """
    return Transform4(_family_matrix(p))


def family_metric_defect(p: InterpolationParams) -> float:
    """Max-entry size of M^T g M - g for the bridge matrix at p."""
    return metric_defect(_family_matrix(p))
