"""Rigid motions of 3-space in two interchangeable representations.

AffineIsometry is x -> L x + t with orthogonal L; ReflectionSequence is an ordered list of
mirror planes applied left to right.  `seq_to_affine` converts, `apply` maps a point by
either's affine parts, a sequence's fold, and `then` composes affine motions in reading
order (first, then second) by the 3x3 product `_compose`.  AffineIsometry() and `then`
check L with `_orthogonal` (repair: `_mgs`), which tests L^T L - I alone; motions built
from unit normals or axes are orthogonal and skip it.  Each keeps its parts as `_parts`, 12
floats, L row-major, then t; arrays on first read.  All but AffineIsometry() are made by
`_rigid`, which checks t.  A sequence keeps its mirrors as floats, `_mirrors`, one
`geom.Mirror` pair (unit normal, offset) per plane, and builds its Planes only when `planes`
is read.  It folds its mirrors when built (`_fold`), reflecting the fold so far in each
plane, not multiplying by its matrix; `_sequence` may be handed that fold, continued from a
prefix.  A fold from the identity starts from `_reflection`, the one-plane fold in closed
form, which is also every reflection's parts.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, Union

import numpy as np

from .geom import DEFAULT_TOL, Mirror, Plane, Tolerance, Vec3, points_coincide, _floats, _dot3
from .geom import _Array, _fresh, _matrix, _plane, _real, _value_class, _vector, _unit

# Drift of L^T L - I, which alone decides: up to _ORTHO_PASS L is stored as given (|det L|
# is then 1 within 3/2 of it plus 5 eps), up to _ORTHO_FIX it is silently re-orthonormalized,
# beyond that the matrix is rejected as not an isometry.
_ORTHO_PASS = 1e-10
_ORTHO_FIX = 1e-6
_FOLD_LIMIT = int((_ORTHO_PASS / math.ulp(1.0) - 4.0) / 29.0)  # 15,529

_ID = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)  # the identity's parts
PROBE_POINTS = tuple(map(_vector, (_ID[9:], _ID[:3], _ID[3:6], _ID[6:9])))


class OrientationParity(enum.IntEnum):
    PROPER = 1
    IMPROPER = -1


def _mgs(l) -> list[float]:
    """Modified Gram-Schmidt on L's columns, l row-major, within _ORTHO_FIX of orthogonal."""
    q = [list(l[j:9:3]) for j in range(3)]
    for j in range(3):
        for k in range(j):
            s = _dot3(q[k], q[j])
            q[j] = [x - s * y for x, y in zip(q[j], q[k])]
        length = math.sqrt(_dot3(q[j], q[j]))
        q[j] = [x / length for x in q[j]]
    return [x for row in zip(*q) for x in row]


def _det(parts) -> float:
    """Determinant of the L of the floats parts, written out along its first row."""
    a, b, c, d, e, f, g, h, i = parts[:9]
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


@_value_class
class AffineIsometry:
    """Rigid motion x -> linear @ x + translation.

    The linear part must be orthogonal; small drift (residual of L^T L - I up
    to 1e-6 in max norm) is absorbed by re-orthonormalization, larger drift
    raises ValueError.
    """

    linear: np.ndarray = _Array(lambda m: _matrix(m._parts))
    translation: Vec3 = _Array(lambda m: _vector(m._parts[9:]))

    def __init__(self, linear: np.ndarray, translation: Vec3) -> None:
        l = _real(linear)
        l = _orthogonal(l.ravel().tolist() if l.shape == (3, 3) else None)  # before the shift
        self.__dict__["_parts"] = l + _floats(translation)


def _orthogonal(l) -> list[float]:
    """Nine floats, L row-major (None if not 3x3), checked as an orthogonal linear part: kept
    as they are within _ORTHO_PASS, re-orthonormalized within _ORTHO_FIX, else ValueError."""
    a, b, c, d, e, f, g, h, i = l or (math.nan,) * 9  # read once; None: not 3x3
    if not (math.isfinite(a + b + c + d + e + f + g + h + i)  # proves every entry finite
            or all(map(math.isfinite, (a, b, c, d, e, f, g, h, i)))):  # on overflow
        raise ValueError("linear part must be a finite 3x3 matrix")
    x, y, z = a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0, c * c + f * f + i * i - 1.0
    u, v, w = a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i  # L^T L - I
    p, n = _ORTHO_PASS, -_ORTHO_PASS  # a pass needs no call; a term past it, or NaN, is measured
    if n <= x <= p and n <= y <= p and n <= z <= p and n <= u <= p and n <= v <= p and n <= w <= p:
        return l
    residual = max(abs(x), abs(y), abs(z), abs(u), abs(v), abs(w))
    if residual > _ORTHO_FIX:
        raise ValueError(f"linear part is not orthogonal (residual {residual:.3e})")
    return _mgs(l) if residual > p else l


def _isometry(parts) -> AffineIsometry:
    """AffineIsometry for the 12 floats parts, validated in full: kept unless L is repaired."""
    kept = _orthogonal(l := parts[:9])
    return _rigid(parts if kept is l else [*kept, *parts[9:]])


def _rigid(parts) -> AffineIsometry:
    """x -> L x + t for 12 floats parts whose L _orthogonal would keep; t may overflow: checked."""
    if not math.isfinite(parts[9] * 0.0 + parts[10] * 0.0 + parts[11] * 0.0):  # as _finite
        raise ValueError("vector components must be finite")
    m = object.__new__(AffineIsometry)
    m.__dict__["_parts"] = parts
    return m


@_value_class
class ReflectionSequence:
    """Ordered mirror planes; the motion reflects in planes[0] first."""

    planes: tuple[Plane, ...] = _Array(lambda seq: tuple(map(_plane, seq._mirrors)))

    def __init__(self, planes: tuple[Plane, ...]) -> None:
        planes = tuple(planes)
        if not all(isinstance(p, Plane) for p in planes):
            raise ValueError("reflection sequence entries must be Plane values")
        self.__dict__["planes"] = planes  # kept as given, as if built
        _sequence(tuple((p._n, p.offset) for p in planes), None, self)

    def __len__(self) -> int:
        return len(self._mirrors)

    def __iter__(self) -> Iterator[Plane]:
        return iter(self.planes)


def _sequence(mirrors: tuple[Mirror, ...], parts=None, seq=None, dst=None) -> ReflectionSequence:
    """ReflectionSequence of `_mirror` pairs, folded unless `parts` is their fold already;
    `dst` is a (TriplePair, measurement of its dst) that construct.second_motion may reuse."""
    seq = object.__new__(ReflectionSequence) if seq is None else seq
    fields = seq.__dict__
    fields["_mirrors"], fields["_parts"] = mirrors, _fold(mirrors) if parts is None else parts
    fields["_dst"] = dst
    return seq


Motion = Union[AffineIsometry, ReflectionSequence]


def identity() -> AffineIsometry:
    return _rigid(_ID)


def translation(v) -> AffineIsometry:
    return _rigid(_ID[:9] + tuple(_floats(v)))


def plane_reflection(plane: Plane) -> AffineIsometry:
    """The reflection in `plane` as an affine map: the fold of that one plane."""
    return _rigid(_reflection(plane._n, plane.offset))


def _split(u, d) -> tuple[list[float], list[float]]:
    """The parts of the floats u along and across the unit floats d."""
    k = _dot3(u, d)
    n = [k * d[0], k * d[1], k * d[2]]
    return n, [u[0] - n[0], u[1] - n[1], u[2] - n[2]]


def _rodrigues(p, d, angle: float) -> list[float]:
    """Rodrigues' formula for the point p, unit direction d and finite angle: 12 floats.

    For v across d, (I - R) v = 2 h (h v - k d x v) and (I - R) d x v = 2 h (h d x v + k v),
    h and k the sine and cosine of angle / 2.  The shift is the first for v the part of p
    across d, so its rounding scales with the shift, where p - R p would cancel for an
    axis far from the origin and a small angle; + 0.0 keeps a zero shift +0.0, as before.
    """
    x, y, z = d
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    (v0, v1, v2), h, k = _split(p, d)[1], math.sin(0.5 * angle), math.cos(0.5 * angle)
    return [1.0 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y,
            c * x * y + s * z, 1.0 - c * (x * x + z * z), c * y * z - s * x,
            c * x * z - s * y, c * y * z + s * x, 1.0 - c * (x * x + y * y),
            2.0 * h * (h * v0 - k * (y * v2 - z * v1)) + 0.0,
            2.0 * h * (h * v1 - k * (z * v0 - x * v2)) + 0.0,
            2.0 * h * (h * v2 - k * (x * v1 - y * v0)) + 0.0]


def _fixed_point(w, d, angle: float) -> list[float]:
    """x = (w + cot(angle / 2) d x w) / 2, whose _rodrigues shift is w for w across d.

    The cross product takes the part of w across d, so its rounding scales
    with that part and cot(angle / 2) cannot carry a long w's rounding along d.
    """
    (d0, d1, d2), (v0, v1, v2), c = d, _split(w, d)[1], 0.5 / math.tan(0.5 * angle)
    return [0.5 * w[0] + c * (d1 * v2 - d2 * v1), 0.5 * w[1] + c * (d2 * v0 - d0 * v2),
            0.5 * w[2] + c * (d0 * v1 - d1 * v0)]


def rotation_about_axis(point, direction, angle: float) -> AffineIsometry:
    """Rotation by `angle` about the axis through `point` along `direction`.

    The sense is right-handed about `direction` exactly as given; the
    direction is normalized but never flipped, unlike Line3 canonicalization.
    """
    d = _unit(direction, "rotation axis direction")
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    return _rigid(_rodrigues(_floats(point), d, angle))


def rotation_about_line(axis, angle: float) -> AffineIsometry:
    """Rotation about a Line3; the sense follows the line's canonical direction."""
    return rotation_about_axis(*axis._floats, angle)


def apply(motion: Motion, point) -> Vec3:
    """Image of `point` under `_as_affine(motion)`: a sequence maps points by its fold, as
    seq_to_affine's motion does, bit for bit; ValueError on overflow."""
    x, y, z = _floats(point)
    a, b, c, d, e, f, g, h, i, t0, t1, t2 = _as_affine(motion)._parts
    return _fresh([a * x + b * y + c * z + t0, d * x + e * y + f * z + t1,
                   g * x + h * y + i * z + t2])


def _compose(m, l) -> list[float]:
    """m l for the 12 floats of each: x -> L x + t (l), then x -> M x + u (m)."""
    a, b, c, d, e, f, g, h, i, u0, u1, u2 = m
    p0, p1, p2, q0, q1, q2, r0, r1, r2, t0, t1, t2 = l  # written out: no comprehension frames
    return [a * p0 + b * q0 + c * r0, a * p1 + b * q1 + c * r1, a * p2 + b * q2 + c * r2,
            d * p0 + e * q0 + f * r0, d * p1 + e * q1 + f * r1, d * p2 + e * q2 + f * r2,
            g * p0 + h * q0 + i * r0, g * p1 + h * q1 + i * r1, g * p2 + h * q2 + i * r2,
            a * t0 + b * t1 + c * t2 + u0, d * t0 + e * t1 + f * t2 + u1,
            g * t0 + h * t1 + i * t2 + u2]


def then(first: AffineIsometry, second: AffineIsometry) -> AffineIsometry:
    """Composite motion that applies `first`, then `second`."""
    return _isometry(_compose(second._parts, first._parts))


def _reflection(n, offset: float) -> list[float]:
    """The fold of the one mirror (n, offset) from the identity in closed form: `_fold`'s step
    from `_ID`, bit for bit.

    Twice n . each column of I is 2x, 2y, 2z: a zero product moves no nonzero sum, and a zero
    sum's sign is lost in 1.0 - p and 0.0 - p.  Doubling is exact, so x (2y) = y (2x): L is
    symmetric, each pair formed once.
    """
    x, y, z = n
    u, v, w = 2.0 * x, 2.0 * y, 2.0 * z
    b, c, f = 0.0 - x * v, 0.0 - x * w, 0.0 - y * w
    k = 2.0 * (0.0 - offset)  # n . t for t = 0 is a zero, whose sign 0.0 - k x loses
    return [1.0 - x * u, b, c, b, 1.0 - y * v, f, c, f, 1.0 - z * w,
            0.0 - k * x, 0.0 - k * y, 0.0 - k * z]


def _fold(mirrors: tuple[Mirror, ...], parts=None) -> list[float]:
    """The `_mirror` pairs folded from the identity or on from `parts`, by reflecting the
    fold; from the identity, the first mirror's fold is its `_reflection`."""
    if parts is None:
        if not mirrors:
            return [*_ID]
        parts, mirrors = _reflection(*mirrors[0]), mirrors[1:]
    a, b, c, d, e, f, g, h, i, t0, t1, t2 = parts
    for (x, y, z), offset in mirrors:
        u = 2.0 * (x * a + y * d + z * g)  # twice n . each column
        v = 2.0 * (x * b + y * e + z * h)
        w = 2.0 * (x * c + y * f + z * i)
        a, b, c = a - x * u, b - x * v, c - x * w
        d, e, f = d - y * u, e - y * v, f - y * w
        g, h, i = g - z * u, h - z * v, i - z * w
        k = 2.0 * (x * t0 + y * t1 + z * t2 - offset)  # t moves as _reflect moves a point
        t0, t1, t2 = t0 - k * x, t1 - k * y, t2 - k * z
    return [a, b, c, d, e, f, g, h, i, t0, t1, t2]


def seq_to_affine(seq: ReflectionSequence) -> AffineIsometry:
    """The planes' motion.  k unit-normal reflections fold to L^T L - I within (29 k + 4) eps,
    so up to _FOLD_LIMIT planes _isometry would pass the fold as it is and is skipped; a longer
    sequence is validated, repaired if need be."""
    return (_rigid if len(seq._mirrors) <= _FOLD_LIMIT else _isometry)(seq._parts)


def _as_affine(motion: Motion) -> AffineIsometry:
    return motion if isinstance(motion, AffineIsometry) else seq_to_affine(motion)


def orientation(motion: Motion) -> OrientationParity:
    """PROPER for direct motions, IMPROPER for reflections of space."""
    if isinstance(motion, ReflectionSequence):
        return OrientationParity.PROPER if len(motion) % 2 == 0 else OrientationParity.IMPROPER
    return OrientationParity(1 if _det(motion._parts) > 0.0 else -1)


def iso_equal(a: Motion, b: Motion, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two motions agree as maps, tested on a non-coplanar probe frame."""
    return all(points_coincide(apply(a, p), apply(b, p), tol) for p in PROBE_POINTS)
