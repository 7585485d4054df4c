"""Points, planes, and lines in Euclidean 3-space, with tolerance-aware predicates.

Every object is canonicalized and frozen at construction time, and every
operation is a pure function, so values can be shared freely.  Tolerances are
absolute and tuned for inputs of roughly unit scale; pass a custom Tolerance
to loosen or tighten them.

Public functions and constructors validate their arguments once, then run a
private kernel (`_collinear`, `_coincide`, `_bisector`, `_plane_through`,
`_reflect`) that trusts finite float64 (3,) arrays, such as the fields of a
built Plane, Line3, PointTriple, TriplePair or AffineIsometry.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import CoincidentPoints, CollinearPoints, ParallelPlanes

Vec3 = np.ndarray

# Components at or below this magnitude are treated as zero when picking the
# canonical sign of a unit vector, and unit vectors shorter than this are
# rejected as degenerate.
_SIGN_EPS = 1e-12


def as_vec3(value) -> Vec3:
    """Coerce to a fresh finite float64 vector of shape (3,)."""
    v = np.array(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    return _finite(v)


def _finite(v: Vec3) -> Vec3:
    if not np.isfinite(v).all():
        raise ValueError("vector components must be finite")
    return v


def vec3(x: float, y: float, z: float) -> Vec3:
    """Build a finite 3-vector (points and directions use the same type)."""
    return as_vec3((x, y, z))


def midpoint(a, b) -> Vec3:
    return 0.5 * (as_vec3(a) + as_vec3(b))


def _frozen(v: Vec3) -> Vec3:
    """Make v read-only in place; callers pass an array they have just built."""
    v.setflags(write=False)
    return v


def _cross(a: Vec3, b: Vec3) -> Vec3:
    """Cross product of two 3-vectors, bit for bit equal to np.cross but
    without its axis handling, which dominates its cost on 3-vectors."""
    return np.array(_cross3(a.tolist(), b.tolist()))


def _cross3(a, b) -> tuple[float, float, float]:
    """Cross product of two 3-sequences of Python floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _dot3(a, b) -> float:
    """Dot product of two 3-sequences of Python floats."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(v: Vec3) -> float:
    """Length of a 1-D vector: sqrt(v . v), bit for bit as np.linalg.norm, minus its dispatch."""
    return math.sqrt(float(v @ v))


def _canonical_sign(v: Vec3) -> float:
    """Sign that makes the first significant component of v positive."""
    for comp in v:
        if abs(comp) > _SIGN_EPS:
            return 1.0 if comp > 0.0 else -1.0
    return 1.0


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison thresholds: eps_len for distances, eps_angle for radians."""

    eps_len: float = 1e-9
    eps_angle: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.eps_len > 0.0 and self.eps_angle > 0.0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Plane:
    """Oriented plane { x : normal . x = offset } stored in Hessian normal form.

    Any nonzero normal and matching offset may be passed in; construction
    rescales to a unit normal and flips the pair so the first component of
    the normal whose magnitude exceeds 1e-12 is positive.  Two Plane values
    describing the same point set therefore hold identical fields up to
    floating-point noise.
    """

    normal: Vec3
    offset: float

    def __post_init__(self) -> None:
        n = as_vec3(self.normal)
        length = _norm(n)
        if not _SIGN_EPS < length < math.inf:
            raise ValueError("plane normal must have a nonzero, finite length")
        d = float(self.offset) / length
        if not np.isfinite(d):
            raise ValueError("plane offset must be finite")
        s = _canonical_sign(n / length)
        # adding 0.0 clears negative zeros left over from sign flips
        object.__setattr__(self, "normal", _frozen(s * n / length + 0.0))
        object.__setattr__(self, "offset", s * d + 0.0)

    def signed_distance(self, point) -> float:
        """Distance from the plane, positive on the side the normal points to."""
        return self._distance(as_vec3(point))

    def _distance(self, p: Vec3) -> float:
        return float(self.normal @ p) - self.offset


@dataclass(frozen=True, eq=False)
class Line3:
    """Line through `point` with unit `direction`; canonical for a given point set.

    The stored direction has canonical sign and the stored point is the foot
    of the perpendicular from the origin, so two equal lines agree fieldwise.
    """

    point: Vec3
    direction: Vec3

    def __post_init__(self) -> None:
        d = as_vec3(self.direction)
        length = _norm(d)
        if not _SIGN_EPS < length < math.inf:
            raise ValueError("line direction must have a nonzero, finite length")
        d = d / length
        d = _canonical_sign(d) * d + 0.0
        p = as_vec3(self.point)
        foot = p - (p @ d) * d + 0.0
        object.__setattr__(self, "point", _frozen(foot))
        object.__setattr__(self, "direction", _frozen(d))

    def distance_to(self, point) -> float:
        w = as_vec3(point) - self.point
        return _norm(w - (w @ self.direction) * self.direction)


@dataclass(frozen=True, eq=False)
class PointTriple:
    """Three noncollinear points; the degenerate case is rejected at construction."""

    a: Vec3
    b: Vec3
    c: Vec3
    tol: InitVar[Tolerance | None] = None

    def __post_init__(self, tol: Tolerance | None) -> None:
        a, b, c = as_vec3(self.a), as_vec3(self.b), as_vec3(self.c)
        if _collinear(a, b, c, tol or DEFAULT_TOL):
            raise CollinearPoints("triple does not span a plane")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "c", _frozen(c))

    def points(self) -> tuple[Vec3, Vec3, Vec3]:
        return self.a, self.b, self.c


def reflect_point(plane: Plane, point) -> Vec3:
    """Mirror image of `point` in `plane`."""
    return _reflect(plane, as_vec3(point))


def _reflect(plane: Plane, p: Vec3) -> Vec3:
    return p - 2.0 * plane._distance(p) * plane.normal


def points_coincide(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _coincide(as_vec3(a), as_vec3(b), tol)


def _coincide(a: Vec3, b: Vec3, tol: Tolerance) -> bool:
    return _norm(a - b) <= tol.eps_len


def collinear(a, b, c, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the triangle abc is too thin to define a plane.

    The test compares the triangle's area against eps_len times its longest
    edge, which keeps the verdict stable under uniform rescaling of the
    points and agrees with PointTriple's construction check.
    """
    return _collinear(as_vec3(a), as_vec3(b), as_vec3(c), tol)


def _collinear(a: Vec3, b: Vec3, c: Vec3, tol: Tolerance, n: Vec3 | None = None) -> bool:
    """collinear() on checked points; n, when given, is _cross(b - a, c - a)."""
    ab, ac, bc = b - a, c - a, c - b
    doubled_area = _norm(_cross(ab, ac) if n is None else n)
    longest = max(_norm(e) for e in (ab, ac, bc))
    return doubled_area <= 2.0 * tol.eps_len * longest


def coplanar(a, b, c, d, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the tetrahedron abcd is flat within tolerance."""
    a, b, c, d = (as_vec3(p) for p in (a, b, c, d))
    spread = abs(float(_cross(b - a, c - a) @ (d - a)))
    pts = (a, b, c, d)
    widest = max(_norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4))
    return spread <= 6.0 * tol.eps_len * widest * widest


def point_on_plane(point, plane: Plane, tol: Tolerance = DEFAULT_TOL) -> bool:
    return abs(plane.signed_distance(point)) <= tol.eps_len


def perpendicular_bisector_plane(a, b, tol: Tolerance = DEFAULT_TOL) -> Plane:
    """Plane of points equidistant from a and b.

    Raises CoincidentPoints when a and b agree within tol, since every plane
    through them would qualify.
    """
    return _bisector(as_vec3(a), as_vec3(b), tol)


def _bisector(a: Vec3, b: Vec3, tol: Tolerance) -> Plane:
    chord = b - a
    if _norm(chord) <= tol.eps_len:
        raise CoincidentPoints("bisector plane needs two distinct points")
    return Plane(chord, float(chord @ (0.5 * (a + b))))


def plane_through_points(a, b, c, tol: Tolerance = DEFAULT_TOL) -> Plane:
    """The unique plane through three noncollinear points."""
    return _plane_through(as_vec3(a), as_vec3(b), as_vec3(c), tol)


def _plane_through(a: Vec3, b: Vec3, c: Vec3, tol: Tolerance) -> Plane:
    n = _cross(b - a, c - a)
    if _collinear(a, b, c, tol, n):
        raise CollinearPoints("three collinear points do not fix a plane")
    return Plane(n, float(n @ a))


def intersect_planes(p: Plane, q: Plane, tol: Tolerance = DEFAULT_TOL) -> Line3:
    """Line of intersection of two non-parallel planes.

    The returned line's direction is the (canonicalized) cross product of the
    two normals; its stored point is the point of the line nearest the origin.
    """
    direction = _cross(p.normal, q.normal)
    if _norm(direction) <= tol.eps_angle:
        raise ParallelPlanes("planes are parallel within tolerance")
    system = np.vstack((p.normal, q.normal, direction))
    rhs = np.array([p.offset, q.offset, 0.0])
    return Line3(np.linalg.solve(system, rhs), direction)


def planes_equal(p: Plane, q: Plane, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two planes describe the same point set, orientation aside."""
    if _norm(_cross(p.normal, q.normal)) > tol.eps_angle:
        return False
    s = 1.0 if float(p.normal @ q.normal) >= 0.0 else -1.0
    return abs(p.offset - s * q.offset) <= tol.eps_len


def lines_equal(a: Line3, b: Line3, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two lines describe the same point set, orientation aside."""
    if _norm(_cross(a.direction, b.direction)) > tol.eps_angle:
        return False
    return _coincide(a.point, b.point, tol)
