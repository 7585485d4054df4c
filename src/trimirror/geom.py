"""Points, planes, and lines in Euclidean 3-space, with tolerance-aware predicates.

Every object is canonicalized and frozen at construction time, and every
operation is a pure function, so values can be shared freely.  Tolerances are
absolute and tuned for inputs of roughly unit scale; pass a custom Tolerance
to loosen or tighten them.

Public functions and constructors validate their arguments once, then run a
private kernel (`_coincide`, `_bisector`, `_reflect`, the triangle kernel
`_triangle` with its checked form `_measure_triangle`, its verdict `_thin` and
the plane `_measured_plane` it fixes, the plane kernel `_mirror`, the line
kernel `_line`, the sign `_canonical_sign`, and `_scaled`, the one rescale, by
an exact power of two) on the checked floats of `_floats`, which reads a
float64 ndarray of one axis by unpacking its floats and converts any other input
with `_real`, which refuses a complex value.  `_mirror` checks a plane
and gives it as a Mirror, its canonical unit normal and offset: the pair that
`_bisector` and `_measured_plane` return, `_reflect` reads and a
ReflectionSequence keeps; `_plane` wraps one as a Plane.  Every dot, cross
product and length in the module is written out on Python floats (`_dot3`,
`_cross3`, `math.sqrt` or `math.hypot`, or spelt out in their operation
order), `_unit` and the predicates included, and `intersect_planes` places its
point by a closed form rather than a linear solve; numpy only reads input and
builds what callers read.  Each value class (`_value_class`) checks its arguments
in its own __init__ and stores the floats the kernels read (`Plane._n`, `Line3._floats`,
`PointTriple._floats`); it holds no array: `_Array` builds a field's array on first
read, read-only from birth (it cannot be made writable again), and keeps it; a copy
builds its own.  `_vector` builds one, and `_rows` a TriplePair's dst, the three rows
of one buffer.  A ReflectionSequence builds its planes so too, with `_plane`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import CoincidentPoints, CollinearPoints, ParallelPlanes

Vec3 = np.ndarray
Mirror = tuple[tuple[float, float, float], float]  # a plane's unit normal and offset: _mirror

# Components at or below this magnitude are treated as zero when picking the
# canonical sign of a unit vector, and unit vectors shorter than this are
# rejected as degenerate.
_SIGN_EPS = 1e-12
_FLOAT = np.dtype(float)


def as_vec3(value) -> Vec3:
    """Coerce to a fresh finite float64 vector of shape (3,)."""
    v = np.array(_real(value))
    _floats(v)  # the shape and finiteness checks
    return v


def _real(value) -> np.ndarray:
    """np.asarray(value, dtype=float), which a float64 ndarray skips; ValueError for a complex
    value, whose imaginary part the cast would drop with only a ComplexWarning."""
    if type(value) is np.ndarray and value.dtype is _FLOAT:
        return value
    if np.asarray(value).dtype.kind == "c":
        raise ValueError("components must be real, not complex")
    return np.asarray(value, dtype=float)


def _floats(value) -> list[float]:
    """as_vec3(value)'s checked floats; a one-axis float64 ndarray is read without np.asarray,
    its length checked by the unpack of its floats."""
    if type(value) is not np.ndarray or value.dtype is not _FLOAT or value.ndim != 1:
        value = _real(value)
        if value.shape != (3,):
            raise ValueError(f"expected 3 components, got shape {value.shape}")
    try:
        x, y, z = v = value.tolist()
    except ValueError:  # a float64 array of one axis whose length is not 3
        raise ValueError(f"expected 3 components, got shape {value.shape}") from None
    if not math.isfinite(x * 0.0 + y * 0.0 + z * 0.0):  # as _finite, written out
        raise ValueError("vector components must be finite")
    return v


def _finite(v):
    """Three floats, returned as given once checked finite; ValueError with as_vec3's message."""
    x, y, z = v
    if not math.isfinite(x * 0.0 + y * 0.0 + z * 0.0):  # +-0.0 for finite x, else NaN: no overflow
        raise ValueError("vector components must be finite")
    return v


def _fresh(floats) -> Vec3:
    """Three floats as a fresh, writable float64 array once checked finite, as by _finite."""
    return np.array(_finite(floats))


_pack3, _pack9 = struct.Struct("3d").pack, struct.Struct("9d").pack


def _vector(floats) -> Vec3:
    """Three floats as a float64 array, read-only from birth: its buffer is immutable bytes."""
    return np.frombuffer(_pack3(*floats))


def _matrix(parts) -> np.ndarray:
    """_vector's 3x3 twin for the first nine floats of parts, row-major."""
    return np.ndarray((3, 3), float, _pack9(*parts[:9]))


def _rows(a, b, c) -> tuple[Vec3, Vec3, Vec3]:
    """Three points' floats as the rows of one read-only 3x3 array, as _matrix builds it."""
    return (m := np.ndarray((3, 3), float, _pack9(*a, *b, *c)))[0], m[1], m[2]


def _value_class(cls):
    """dataclass(frozen=True, eq=False) that keeps cls's own __init__; its return annotation
    becomes None, as in a generated __init__, where postponed evaluation made it 'None'."""
    cls.__init__.__annotations__["return"] = None
    return dataclass(frozen=True, eq=False, init=False)(cls)


class _Array:
    """An array field, a pair's dst rows or a sequence's planes, that build(value) makes from
    the value's kept floats on first read, into the value's __dict__, where later reads find it
    first; read on the class, it raises AttributeError, so the dataclass field it stands in for
    has no default."""

    def __init__(self, build) -> None:
        self.build = build

    def __set_name__(self, owner, name: str) -> None:
        self.name = name  # copy and pickle leave the built array out: their copy would be writable
        owner._BUILT = getattr(owner, "_BUILT", ()) + (name,)
        owner.__getstate__ = lambda v: {k: x for k, x in vars(v).items() if k not in v._BUILT}

    def __get__(self, value, owner=None):
        if value is None:
            raise AttributeError(self.name)
        array = value.__dict__[self.name] = self.build(value)
        return array


def vec3(x: float, y: float, z: float) -> Vec3:
    """Build a finite 3-vector (points and directions use the same type)."""
    return as_vec3((x, y, z))


def midpoint(a, b) -> Vec3:
    return 0.5 * (as_vec3(a) + as_vec3(b))


def _cross3(a, b) -> tuple[float, float, float]:
    """Cross product of two 3-sequences of Python floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _dot3(a, b) -> float:
    """Dot product of two 3-sequences of Python floats."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _unit(value, name: str) -> tuple[float, float, float]:
    """value's checked floats scaled to length 1; ValueError if its length is tiny or overflows."""
    x, y, z = v = _floats(value)
    length = math.sqrt(_dot3(v, v))  # inf, silently, past about 1.3e154
    if not _SIGN_EPS < length < math.inf:
        raise ValueError(f"{name} must have a nonzero, finite length")
    return x / length, y / length, z / length


def _canonical_sign(x: float, y: float, z: float) -> float:
    """Sign that makes the first component of (x, y, z) above _SIGN_EPS in magnitude
    positive, 1.0 if there is none; a NaN component counts as none."""
    return (1.0 if x > _SIGN_EPS else -1.0 if x < -_SIGN_EPS else
            1.0 if y > _SIGN_EPS else -1.0 if y < -_SIGN_EPS else -1.0 if z < -_SIGN_EPS else 1.0)


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison thresholds: eps_len for distances, eps_angle for radians."""

    eps_len: float = 1e-9
    eps_angle: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_len < math.inf and 0.0 < self.eps_angle < math.inf):
            raise ValueError("tolerances must be positive and finite")


DEFAULT_TOL = Tolerance()


@_value_class
class Plane:
    """Oriented plane { x : normal . x = offset } stored in Hessian normal form.

    Any normal longer than 1e-12 and matching offset may be passed in;
    construction rescales to a unit normal and flips the pair so the first
    component of the normal whose magnitude exceeds 1e-12 is positive.  Two
    Plane values describing the same point set therefore hold identical
    fields up to floating-point noise.
    """

    normal: Vec3 = _Array(lambda p: _vector(p._n))
    offset: float

    def __init__(self, normal: Vec3, offset: float) -> None:
        n = _floats(normal)
        length = math.sqrt(_dot3(n, n))  # a raw normal must clear the floor; kernels judged theirs
        _plane(_mirror(n, length if length > _SIGN_EPS else 0.0, float(offset)), self)

    def signed_distance(self, point) -> float:
        """Distance from the plane, positive on the side the normal points to."""
        return _dot3(self._n, _floats(point)) - self.offset


def _mirror(n, length: float, offset: float) -> Mirror:
    """Plane(n, offset)'s unit normal and offset, checked and of canonical sign, for three
    floats n of length `length` and a float offset: the pair a Plane keeps as `_n`, `offset`."""
    if not 0.0 < length < math.inf:
        _finite(n)  # a kernel's normal may have overflowed: report it as as_vec3 would
        raise ValueError("plane normal must have a nonzero, finite length")
    d = offset / length
    if not math.isfinite(d):
        raise ValueError("plane offset must be finite")
    x, y, z = n[0] / length, n[1] / length, n[2] / length
    s = _canonical_sign(x, y, z)
    # adding 0.0 clears negative zeros left over from sign flips
    return (s * x + 0.0, s * y + 0.0, s * z + 0.0), s * d + 0.0


def _plane(mirror: Mirror, plane: Plane | None = None) -> Plane:
    """The Plane of a `_mirror` pair, kept as it is; Plane() passes itself in."""
    plane = object.__new__(Plane) if plane is None else plane
    fields = plane.__dict__  # past frozen setattr
    fields["_n"], fields["offset"] = mirror
    return plane


@_value_class
class Line3:
    """Line through `point` with unit `direction`; canonical for a given point set.

    The stored direction has canonical sign and the stored point is the foot
    of the perpendicular from the origin, so two equal lines agree fieldwise.
    """

    point: Vec3 = _Array(lambda line: _vector(line._floats[0]))
    direction: Vec3 = _Array(lambda line: _vector(line._floats[1]))

    def __init__(self, point: Vec3, direction: Vec3) -> None:
        _line(_floats(point), _unit(direction, "line direction"), self)

    def distance_to(self, point) -> float:
        (x, y, z), ((p0, p1, p2), d) = _floats(point), self._floats
        c = _cross3((x - p0, y - p1, z - p2), d)  # |w x d| = |w| sin for the unit d
        return math.sqrt(_dot3(c, c))


def _line(p, d, line: Line3 | None = None) -> Line3:
    """Line3(p, d) for three floats p and unit floats d; Line3() passes itself in."""
    line = object.__new__(Line3) if line is None else line
    s = _canonical_sign(*d)
    x, y, z = d = s * d[0] + 0.0, s * d[1] + 0.0, s * d[2] + 0.0
    px, py, pz = p
    k = px * x + py * y + pz * z  # inf, silently, near the largest double: the foot is refused
    foot = _finite((px - k * x + 0.0, py - k * y + 0.0, pz - k * z + 0.0))
    line.__dict__["_floats"] = foot, d
    return line


@_value_class
class PointTriple:
    """Three noncollinear points; the degenerate case is rejected at construction."""

    a: Vec3 = _Array(lambda t: _vector(t._floats[0]))
    b: Vec3 = _Array(lambda t: _vector(t._floats[1]))
    c: Vec3 = _Array(lambda t: _vector(t._floats[2]))
    tol: InitVar[Tolerance | None] = None

    def __init__(self, a: Vec3, b: Vec3, c: Vec3, tol: InitVar[Tolerance | None] = None) -> None:
        floats = a, b, c = _floats(a), _floats(b), _floats(c)
        n, measure = _measure_triangle(a, b, c)
        if _thin(measure, tol or DEFAULT_TOL):
            raise CollinearPoints("triple does not span a plane")
        fields = self.__dict__  # past frozen setattr; construct re-tests the measure at its tol
        fields["_floats"], fields["_measure"], fields["_normal"] = floats, measure, n

    def points(self) -> tuple[Vec3, Vec3, Vec3]:
        return self.a, self.b, self.c


def reflect_point(plane: Plane, point) -> Vec3:
    """Mirror image of `point` in `plane`; ValueError if it overflows."""
    return _fresh(_reflect((plane._n, plane.offset), _floats(point)))


def _reflect(mirror: Mirror, p) -> list[float]:
    """p - 2 (n . p - offset) n for a `_mirror` pair and the floats p; unchecked, so it may
    overflow."""
    (n0, n1, n2), offset = mirror
    k = 2.0 * (n0 * p[0] + n1 * p[1] + n2 * p[2] - offset)  # _dot3, written out
    return [p[0] - k * n0, p[1] - k * n1, p[2] - k * n2]


def points_coincide(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _coincide(_floats(a), _floats(b), tol)


def _coincide(a, b, tol: Tolerance) -> bool:
    d = (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    return math.sqrt(_dot3(d, d)) <= tol.eps_len


def collinear(a, b, c, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the triangle abc is too thin to define a plane.

    The test compares the triangle's area against eps_len times its longest
    edge, which keeps the verdict stable under uniform rescaling of the
    points and agrees with PointTriple's construction check.
    """
    return _thin(_measure_triangle(_floats(a), _floats(b), _floats(c))[1], tol)


def _triangle(a, b, c) -> tuple[tuple[float, ...], tuple[float, tuple[float, ...]]]:
    """n = (b - a) x (c - a) of checked float points, and the doubled area |n| with the edges."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c  # _cross3 and _dot3, written out
    u0, u1, u2, v0, v1, v2 = b0 - a0, b1 - a1, b2 - a2, c0 - a0, c1 - a1, c2 - a2
    w0, w1, w2 = c0 - b0, c1 - b1, c2 - b2
    n = x, y, z = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    edges = (math.sqrt(u0 * u0 + u1 * u1 + u2 * u2), math.sqrt(v0 * v0 + v1 * v1 + v2 * v2),
             math.sqrt(w0 * w0 + w1 * w1 + w2 * w2))
    return n, (math.sqrt(x * x + y * y + z * z), edges)


def _measure_triangle(a, b, c) -> tuple[tuple[float, ...], tuple[float, tuple[float, ...]]]:
    """_triangle(a, b, c), or where a square or product overflowed, its measure found without one.

    n is the cross product of the edges over `_scaled`'s s, times s^2, both
    steps exact; math.hypot takes each length without squaring, so a thin
    triangle's small area is kept.  An area or edge past the float range is
    refused with as_vec3's message.
    """
    triangle = _triangle(a, b, c)
    area, (e0, e1, e2) = triangle[1]
    if math.isfinite(area * 0.0 + e0 + e1 + e2):  # finite edges are below 1.4e154: no sum overflows
        return triangle
    u, v, w = ([q - p for p, q in zip(f, t)] for f, t in ((a, b), (a, c), (b, c)))
    s, (us, vs) = _scaled(u, v)
    n = _cross3(us, vs)
    measure = math.hypot(*n) * s * s, (math.hypot(*u), math.hypot(*v), math.hypot(*w))
    if max(measure[0], *measure[1]) == math.inf:  # an area or edge past the float range
        raise ValueError("vector components must be finite")
    return (n[0] * s * s, n[1] * s * s, n[2] * s * s), measure


def _scaled(*vectors) -> tuple[float, list[list[float]]]:
    """The power of two s that puts the vectors' largest part in [1, 2), and the vectors over s."""
    if (m := max(abs(x) for v in vectors for x in v)) == math.inf:  # a vector past the float range
        raise ValueError("vector components must be finite")
    s = 2.0 ** (math.frexp(m)[1] - 1)
    return s, [[x / s for x in v] for v in vectors]  # exact but for subnormal quotients


def _thin(measure: tuple[float, tuple[float, ...]], tol: Tolerance) -> bool:
    """collinear()'s verdict on a measurement of _measure_triangle."""
    return measure[0] <= 2.0 * tol.eps_len * max(measure[1])


def coplanar(a, b, c, d, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the tetrahedron abcd is flat within tolerance."""
    p = [_floats(x) for x in (a, b, c, d)]
    s, edges = _scaled(*([x / 2.0 - y / 2.0 for x, y in zip(p[j], p[i])]  # finite, as halves
                         for i in range(4) for j in range(i + 1, 4)))
    # on the half edges over s: spread (2s)^3 <= 6 eps widest (2s)^2 as spread 2s <= 6 eps
    # widest, spread from (b - a) x (c - a) . (d - a), widest squared; inf is not flat
    spread = abs(_dot3(_cross3(edges[0], edges[1]), edges[2])) * s * 2.0  # 2 s may overflow
    widest = max(_dot3(e, e) for e in edges)
    return spread <= 6.0 * tol.eps_len * widest


def point_on_plane(point, plane: Plane, tol: Tolerance = DEFAULT_TOL) -> bool:
    return abs(plane.signed_distance(point)) <= tol.eps_len


def perpendicular_bisector_plane(a, b, tol: Tolerance = DEFAULT_TOL) -> Plane:
    """Plane of points equidistant from a and b.

    Raises CoincidentPoints when a and b agree within tol, since every plane
    through them would qualify.
    """
    mirror = _bisector(_floats(a), _floats(b), tol)
    if mirror is None:
        raise CoincidentPoints("bisector plane needs two distinct points")
    return _plane(mirror)


def _bisector(a, b, tol: Tolerance) -> Mirror | None:
    """Bisector plane of checked float points as a `_mirror` pair, None where
    _coincide(a, b, tol) holds."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    x = x0, x1, x2 = b0 - a0, b1 - a1, b2 - a2
    if (length := math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)) <= tol.eps_len:  # _dot3s written out
        return None
    return _mirror(x, length, x0 * (0.5 * (a0 + b0)) + x1 * (0.5 * (a1 + b1))
                   + x2 * (0.5 * (a2 + b2)))


def plane_through_points(a, b, c, tol: Tolerance = DEFAULT_TOL) -> Plane:
    """The unique plane through three noncollinear points."""
    a = _floats(a)
    return _plane(_measured_plane(a, *_measure_triangle(a, _floats(b), _floats(c)), tol))


def _measured_plane(a, n, measure, tol: Tolerance) -> Mirror:
    """The plane through a of the triangle that _measure_triangle measured as n, measure, as a
    `_mirror` pair."""
    if _thin(measure, tol):
        raise CollinearPoints("three collinear points do not fix a plane")
    return _mirror(n, measure[0], _dot3(n, a))


def intersect_planes(p: Plane, q: Plane, tol: Tolerance = DEFAULT_TOL) -> Line3:
    """Line of intersection of two non-parallel planes.

    The returned line's direction is the (canonicalized) cross product of the
    two normals; its stored point is the point of the line nearest the origin.
    """
    d, s = _cross3(p._n, q._n), 1.0
    if (square := _dot3(d, d)) < 2.0 ** -1022 and any(d):  # subnormal: measure d / s instead,
        s, (d,) = _scaled(d)  # exact, so |d| = s |d / s| and x divides by s |d / s|^2
        square = _dot3(d, d)
    if s * (length := math.sqrt(square)) <= tol.eps_angle:
        raise ParallelPlanes("planes are parallel within tolerance")
    # x = (o1 n2 x d + o2 d x n1) / |d|^2 meets both planes and the plane d . x = 0
    (u0, u1, u2), (v0, v1, v2), o1, o2 = _cross3(q._n, d), _cross3(d, p._n), p.offset, q.offset
    square *= s
    x = ((o1 * u0 + o2 * v0) / square, (o1 * u1 + o2 * v1) / square, (o1 * u2 + o2 * v2) / square)
    return _line(x, (d[0] / length, d[1] / length, d[2] / length))


def planes_equal(p: Plane, q: Plane, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two planes describe the same point set, orientation aside."""
    if math.hypot(*_cross3(p._n, q._n)) > tol.eps_angle:  # hypot: no underflow near 1e-154
        return False
    s = 1.0 if _dot3(p._n, q._n) >= 0.0 else -1.0
    return abs(p.offset - s * q.offset) <= tol.eps_len


def lines_equal(a: Line3, b: Line3, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two lines describe the same point set, orientation aside."""
    if math.hypot(*_cross3(a._floats[1], b._floats[1])) > tol.eps_angle:
        return False
    return _coincide(a._floats[0], b._floats[0], tol)
