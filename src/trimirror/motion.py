"""Rigid motions of 3-space in two interchangeable representations.

AffineIsometry is the closed form x -> L x + t with orthogonal L;
ReflectionSequence is an ordered list of mirror planes applied left to
right.  `apply` accepts either, `seq_to_affine` converts, and `then`
composes affine motions in reading order (first, then second).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .geom import DEFAULT_TOL, Plane, Tolerance, Vec3, as_vec3, _cross3, _dot3, _frozen, _norm
from .geom import reflect_point

# Orthogonality drift of the linear part: up to _ORTHO_PASS it is stored as
# given, up to _ORTHO_FIX it is silently re-orthonormalized, beyond that the
# matrix is rejected as not an isometry.
_ORTHO_PASS = 1e-10
_ORTHO_FIX = 1e-6
_EYE = _frozen(np.eye(3))

PROBE_POINTS = tuple(
    _frozen(np.array(p, dtype=float))
    for p in ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
)


class OrientationParity(enum.IntEnum):
    PROPER = 1
    IMPROPER = -1


def _mgs(m: np.ndarray) -> np.ndarray:
    """Re-orthonormalize the columns of m by modified Gram-Schmidt."""
    q = m.copy()
    for j in range(3):
        for k in range(j):
            q[:, j] -= (q[:, k] @ q[:, j]) * q[:, k]
        length = _norm(q[:, j])
        if length <= 1e-12:
            raise ValueError("linear part is numerically singular")
        q[:, j] /= length
    return q


@dataclass(frozen=True, eq=False)
class AffineIsometry:
    """Rigid motion x -> linear @ x + translation.

    The linear part must be orthogonal; small drift (residual of L^T L - I up
    to 1e-6 in max norm) is absorbed by re-orthonormalization, larger drift
    raises ValueError.
    """

    linear: np.ndarray
    translation: Vec3

    def __post_init__(self) -> None:
        l = np.array(self.linear, dtype=float)
        cols = l.T.tolist()  # a finite sum proves every entry finite; numpy decides on overflow
        if l.shape != (3, 3) or not (math.isfinite(sum(map(sum, cols))) or np.isfinite(l).all()):
            raise ValueError("linear part must be a finite 3x3 matrix")
        t = as_vec3(self.translation)
        c0, c1, c2 = cols  # L^T L - I entry by entry, squares first: an overflow reads as inf
        gram = [_dot3(c0, c0) - 1.0, _dot3(c1, c1) - 1.0, _dot3(c2, c2) - 1.0]
        residual = max(map(abs, gram + [_dot3(c0, c1), _dot3(c0, c2), _dot3(c1, c2)]))
        if residual > _ORTHO_FIX:
            raise ValueError(f"linear part is not orthogonal (residual {residual:.3e})")
        if residual > _ORTHO_PASS:
            l = _mgs(l)
            c0, c1, c2 = l.T.tolist()
        if abs(abs(_dot3(c0, _cross3(c1, c2))) - 1.0) > 1e-10:
            raise ValueError("linear part must have determinant +1 or -1")
        object.__setattr__(self, "linear", _frozen(l))
        object.__setattr__(self, "translation", _frozen(t))


@dataclass(frozen=True, eq=False)
class ReflectionSequence:
    """Ordered mirror planes; the motion reflects in planes[0] first."""

    planes: tuple[Plane, ...]

    def __post_init__(self) -> None:
        planes = tuple(self.planes)
        if not all(isinstance(p, Plane) for p in planes):
            raise ValueError("reflection sequence entries must be Plane values")
        object.__setattr__(self, "planes", planes)

    def __len__(self) -> int:
        return len(self.planes)

    def __iter__(self) -> Iterator[Plane]:
        return iter(self.planes)


Motion = Union[AffineIsometry, ReflectionSequence]


def identity() -> AffineIsometry:
    return AffineIsometry(np.eye(3), np.zeros(3))


def translation(v) -> AffineIsometry:
    return AffineIsometry(np.eye(3), as_vec3(v))


def _reflection_parts(plane: Plane) -> tuple[np.ndarray, Vec3]:
    """Linear part and translation of the reflection in `plane`, unvalidated."""
    n = plane.normal
    return _EYE - 2.0 * (n[:, None] * n), 2.0 * plane.offset * n


def plane_reflection(plane: Plane) -> AffineIsometry:
    """The reflection in `plane` as an affine map."""
    return AffineIsometry(*_reflection_parts(plane))


def _rotation_parts(point, direction, angle: float) -> tuple[np.ndarray, Vec3]:
    """Linear part and translation of rotation_about_axis by Rodrigues' formula, unvalidated."""
    d = as_vec3(direction)
    length = _norm(d)
    if length <= 1e-12:
        raise ValueError("rotation axis direction must be nonzero")
    x, y, z = (d / length).tolist()
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    r = [
        [1.0 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y],
        [c * x * y + s * z, 1.0 - c * (x * x + z * z), c * y * z - s * x],
        [c * x * z - s * y, c * y * z + s * x, 1.0 - c * (x * x + y * y)],
    ]
    p = as_vec3(point).tolist()
    return np.array(r), np.array([p[i] - _dot3(r[i], p) for i in range(3)])


def rotation_about_axis(point, direction, angle: float) -> AffineIsometry:
    """Rotation by `angle` about the axis through `point` along `direction`.

    The sense is right-handed about `direction` exactly as given; the
    direction is normalized but never flipped, unlike Line3 canonicalization.
    """
    return AffineIsometry(*_rotation_parts(point, direction, angle))


def rotation_about_line(axis, angle: float) -> AffineIsometry:
    """Rotation about a Line3; the sense follows the line's canonical direction."""
    return rotation_about_axis(axis.point, axis.direction, angle)


def apply(motion: Motion, point) -> Vec3:
    """Image of `point` under the motion (planes of a sequence in order)."""
    if isinstance(motion, AffineIsometry):
        return motion.linear @ as_vec3(point) + motion.translation
    p = as_vec3(point)
    for plane in motion.planes:
        p = reflect_point(plane, p)
    return p


def then(first: AffineIsometry, second: AffineIsometry) -> AffineIsometry:
    """Composite motion that applies `first`, then `second`."""
    return AffineIsometry(
        second.linear @ first.linear,
        second.linear @ first.translation + second.translation,
    )


def seq_to_affine(seq: ReflectionSequence) -> AffineIsometry:
    """The planes folded in reading order as `then` would, validated once: products
    of reflections in unit normals drift from orthogonality far below _ORTHO_PASS."""
    linear, shift = _EYE, np.zeros(3)
    for plane in seq.planes:
        flip, flip_shift = _reflection_parts(plane)
        linear, shift = flip @ linear, flip @ shift + flip_shift
    return AffineIsometry(linear, shift)


def _as_affine(motion: Motion) -> AffineIsometry:
    if isinstance(motion, AffineIsometry):
        return motion
    return seq_to_affine(motion)


def orientation(motion: Motion) -> OrientationParity:
    """PROPER for direct motions, IMPROPER for reflections of space."""
    if isinstance(motion, ReflectionSequence):
        return OrientationParity.PROPER if len(motion) % 2 == 0 else OrientationParity.IMPROPER
    return OrientationParity(round(float(np.linalg.det(motion.linear))))


def iso_equal(a: Motion, b: Motion, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two motions agree as maps, tested on a non-coplanar probe frame."""
    return all(
        _norm(apply(a, p) - apply(b, p)) <= tol.eps_len
        for p in PROBE_POINTS
    )
