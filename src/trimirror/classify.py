"""Canonical-form classification of rigid motions.

Every motion of 3-space is exactly one of: the identity, a translation, a
rotation, a screw, a reflection, a glide reflection, a point inversion, or a
rotary reflection.

The classifiers read the motion off its action on the probe frame
{0, e1, e2, e3} (motion.PROBE_POINTS).  That action is the affine form
itself: the translation t is the image of 0, and column i of the linear
part L is the image of e_i minus the image of 0.  One closed-form kernel
works on L: the determinant gives the parity, the skew and symmetric parts
give the axis or mirror normal, and trace against skew gives the angle.
`classify_fixed_point` places the kernel's answer through a given fixed
point; `classify` recombines it with t, keeping the component along the
axis or mirror as slide and using the rest to relocate the axis, mirror or
center.  `reconstruct` rebuilds a motion from its record, closing the loop.

The paper's own construction, which walks probe points and their images
(`find_probe`, `ProbeWitness`, `rotation_from_plane_pair`), stays available
for the worked example and for cross-checking the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    InvalidClassParameters,
    NotAFixedPoint,
    ParallelDistinctMirrors,
    ParallelPlanes,
    ProbeExhausted,
)
from .geom import (
    DEFAULT_TOL,
    Line3,
    Plane,
    Tolerance,
    Vec3,
    as_vec3,
    collinear,
    intersect_planes,
    planes_equal,
    points_coincide,
    _canonical_sign,
    _cross,
    _cross3,
    _dot3,
    _frozen,
    _norm,
)
from .motion import (
    AffineIsometry,
    Motion,
    ReflectionSequence,
    apply,
    identity,
    plane_reflection,
    rotation_about_axis,
    seq_to_affine,
    translation,
    _as_affine,
    _reflection_parts,
    _rotation_parts,
)

# Validation slack for reconstruct(): parameter records are expected to come
# from the classifiers, so only outright inconsistencies are rejected.
_PARAM_EPS = 1e-9


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True, eq=False)
class Translation:
    v: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _frozen(as_vec3(self.v)))


@dataclass(frozen=True, eq=False)
class Rotation:
    """Rotation by `angle` about `axis`, right-handed about the canonical direction."""

    axis: Line3
    angle: float


@dataclass(frozen=True, eq=False)
class Screw:
    """Rotation about `axis` combined with the parallel translation `slide`."""

    axis: Line3
    angle: float
    slide: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "slide", _frozen(as_vec3(self.slide)))


@dataclass(frozen=True, eq=False)
class Reflection:
    mirror: Plane


@dataclass(frozen=True, eq=False)
class GlideReflection:
    """Reflection in `mirror` combined with the in-plane translation `slide`."""

    mirror: Plane
    slide: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "slide", _frozen(as_vec3(self.slide)))


@dataclass(frozen=True, eq=False)
class Inversion:
    center: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _frozen(as_vec3(self.center)))


@dataclass(frozen=True, eq=False)
class RotaryReflection:
    """Reflection in `mirror` combined with rotation by `angle` about the
    axis through `center` perpendicular to the mirror; the sign of `angle`
    is right-handed about the mirror's canonical normal."""

    mirror: Plane
    center: Vec3
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _frozen(as_vec3(self.center)))


MotionClass = Union[
    Identity,
    Translation,
    Rotation,
    Screw,
    Reflection,
    GlideReflection,
    Inversion,
    RotaryReflection,
]


@dataclass(frozen=True, eq=False)
class ProbeWitness:
    """A probe A with images B = m(A), B' = m(B), and which degeneracy it hit."""

    a: Vec3
    b: Vec3
    b_prime: Vec3
    case_tag: str

    def __post_init__(self) -> None:
        for name in ("a", "b", "b_prime"):
            object.__setattr__(self, name, _frozen(as_vec3(getattr(self, name))))


_PROBE_DIRECTIONS = tuple(
    np.array(w, dtype=float)
    for w in (
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 1.0, 0.0),
        (0.0, 1.0, 1.0),
        (1.0, 0.0, 1.0),
    )
)


def _canonical_angle(angle: float) -> float:
    """Wrap into (-pi, pi], sending the seam to +pi."""
    wrapped = math.atan2(math.sin(angle), math.cos(angle))
    return math.pi if wrapped <= -math.pi else wrapped


def _skew_vector(a) -> list[float]:
    """Axial vector of the skew part of rows `a`; sin(angle) times the axis for a rotation."""
    return [0.5 * (a[2][1] - a[1][2]), 0.5 * (a[0][2] - a[2][0]), 0.5 * (a[1][0] - a[0][1])]


def _angle_about(linear, direction) -> float:
    """Signed rotation angle of an orthogonal `linear` about the unit `direction`."""
    cos = min(max((linear[0][0] + linear[1][1] + linear[2][2] - 1.0) / 2.0, -1.0), 1.0)
    return _canonical_angle(math.atan2(_dot3(_skew_vector(linear), direction), cos))


def find_probe(m: Motion, c, tol: Tolerance = DEFAULT_TOL) -> ProbeWitness:
    """A probe near the fixed point c that the motion visibly moves.

    Candidates are c + s*w for the six directions e1, e2, e3, e1+e2, e2+e3,
    e1+e3 with s = max(1, |c|); the first candidate that is moved by at least
    eps_len and stays noncollinear with its image and c is returned.  For any
    actual isometry other than the identity at least one candidate works, so
    ProbeExhausted signals inputs far outside the supported scale.
    """
    c = as_vec3(c)
    s = max(1.0, _norm(c))
    for w in _PROBE_DIRECTIONS:
        a = c + s * w
        b = apply(m, a)
        if points_coincide(a, b, tol) or collinear(a, b, c, tol):
            continue
        b_prime = apply(m, b)
        tag = "half-turn" if points_coincide(b_prime, a, tol) else "generic"
        return ProbeWitness(a, b, b_prime, tag)
    raise ProbeExhausted("no probe witness near the fixed point")


def rotation_from_plane_pair(
    alpha: Plane, beta: Plane, tol: Tolerance = DEFAULT_TOL
) -> Union[Identity, Rotation]:
    """The composite reflect-in-alpha-then-beta, classified.

    Coincident mirrors cancel to the identity.  Otherwise the mirrors must
    meet, and the product is the rotation about their intersection line by
    twice the dihedral angle, signed right-handed about the line's canonical
    direction.  Parallel distinct mirrors compose to a translation instead
    and are rejected with ParallelDistinctMirrors.
    """
    if planes_equal(alpha, beta, tol):
        return Identity()
    try:
        axis = intersect_planes(alpha, beta, tol)
    except ParallelPlanes as exc:
        raise ParallelDistinctMirrors(
            "parallel distinct mirrors compose to a translation, not a rotation"
        ) from exc
    composite = seq_to_affine(ReflectionSequence((alpha, beta)))
    angle = _angle_about(composite.linear.tolist(), axis.direction.tolist())
    return Rotation(axis=axis, angle=angle)


def _rotation_axis(r) -> list[float]:
    """Unit axis of the proper orthogonal rows `r`, with canonical sign.

    The skew vector of r is accurate while cos(angle) > 0.  Toward a half
    turn it vanishes, but the symmetric part minus cos(angle)*I is
    (1 - cos(angle)) axis axis^T, whose column on its largest diagonal entry
    is then long and accurate.  Either way only the canonical sign sets its
    sign; the angle's sign then comes from the skew vector.  Returns the zero
    vector only for r = I up to rounding, where the angle reads zero and
    every caller collapses before using the axis.
    """
    cos = (r[0][0] + r[1][1] + r[2][2] - 1.0) / 2.0
    if cos > 0.0:
        axis = _skew_vector(r)
    else:
        k = max(range(3), key=lambda j: r[j][j])
        axis = [r[k][k] - cos if j == k else 0.5 * (r[j][k] + r[k][j]) for j in range(3)]
    length = math.sqrt(_dot3(axis, axis))
    if length == 0.0:
        return axis
    axis = [x / length for x in axis]
    sign = _canonical_sign(axis)
    return [sign * x for x in axis]


def _linear_kernel(linear, tol: Tolerance) -> tuple[type, Vec3 | None, float]:
    """Class of the linear part, as rows of floats, as a motion fixing the origin.

    Returns the record class (Identity, Rotation, Reflection, Inversion or
    RotaryReflection), the canonical unit axis or mirror normal, and the
    angle signed about it.  Orientation parity comes from the determinant;
    an improper `linear` is minus a rotation by angle + pi about the mirror
    normal.  Columns of linear -/+ I within eps_len give Identity and
    Inversion; angles within eps_angle of 0 (or of 0 and pi for a rotary
    reflection) collapse to the simpler class.
    """
    (a, b, c), (d, e, f), (g, h, i) = linear
    for s, kind in ((-1.0, Identity), (1.0, Inversion)):  # columns of linear + s I
        columns = ((a + s, d, g), (b, e + s, h), (c, f, i + s))
        if math.sqrt(max(_dot3(x, x) for x in columns)) <= tol.eps_len:
            return kind, None, 0.0
    proper = _dot3(linear[0], _cross3(linear[1], linear[2])) > 0.0
    r = linear if proper else [[-x for x in row] for row in linear]
    direction = _rotation_axis(r)
    angle = _angle_about(r, direction)
    if proper:
        if abs(angle) <= tol.eps_angle:
            return Identity, None, 0.0
        return Rotation, np.array(direction), angle
    angle = _canonical_angle(angle - math.pi)
    if abs(angle) <= tol.eps_angle:
        return Reflection, np.array(direction), 0.0
    if abs(abs(angle) - math.pi) <= tol.eps_angle:
        return Inversion, None, 0.0
    return RotaryReflection, np.array(direction), angle


def classify_fixed_point(m: Motion, c, tol: Tolerance = DEFAULT_TOL) -> MotionClass:
    """Canonical form of a motion known to fix the point c.

    The possible answers are Identity, Rotation (axis through c), Reflection
    (mirror through c), Inversion (center c), and RotaryReflection (center c).
    Raises NotAFixedPoint when m moves c by more than eps_len.

    A motion fixing c acts around c as its linear part acts around the
    origin, so the linear part alone sets the class, the axis or mirror
    direction and the angle; the answer is then placed through c.
    Near-degenerate parameters collapse to the simpler class: rotation angles
    within eps_angle of zero give Identity, rotary angles within eps_angle of
    zero or pi give Reflection or Inversion.
    """
    c = as_vec3(c)
    if not points_coincide(apply(m, c), c, tol):
        raise NotAFixedPoint("the supplied point is moved by the motion")
    kind, direction, angle = _linear_kernel(_as_affine(m).linear.tolist(), tol)
    if kind is Identity:
        return Identity()
    if kind is Inversion:
        return Inversion(center=c)
    if kind is Rotation:
        return Rotation(axis=Line3(c, direction), angle=angle)
    mirror = Plane(direction, float(direction @ c))
    if kind is Reflection:
        return Reflection(mirror=mirror)
    return RotaryReflection(mirror=mirror, center=c, angle=angle)


def split_translation(u, splitter) -> tuple[Vec3, Vec3]:
    """Decompose u = n + v with n along the splitter and v across it.

    The splitter may be a Line3 (n parallel to it), a Plane (n along the
    normal), or a bare direction vector.
    """
    u = as_vec3(u)
    if isinstance(splitter, Line3):
        d = splitter.direction
    elif isinstance(splitter, Plane):
        d = splitter.normal
    else:
        d = as_vec3(splitter)
        length = _norm(d)
        if length <= 1e-12:
            raise ValueError("splitter direction must be nonzero")
        d = d / length
    n = (u @ d) * d
    return n, u - n


def _relocate_axis(linear, v: Vec3, d: Vec3) -> Vec3:
    """Point x with (I - linear) x = v, for v perpendicular to the axis d.

    Restricted to the plane perpendicular to d the map I - linear is
    invertible whenever the rotation angle is nonzero, so a 2x2 solve in an
    orthonormal basis of that plane pins the relocated axis.
    """
    d, v = d.tolist(), v.tolist()
    k = min(range(3), key=lambda j: abs(d[j]))
    p = _cross3(d, [float(j == k) for j in range(3)])
    length = math.sqrt(_dot3(p, p))  # at least sqrt(2/3): |d[k]| is the least of a unit d
    p = [x / length for x in p]
    q = _cross3(d, p)
    sp, sq = ([x - _dot3(row, w) for x, row in zip(w, linear)] for w in (p, q))  # (I - linear) w
    a11, a12, a21, a22 = _dot3(p, sp), _dot3(p, sq), _dot3(q, sp), _dot3(q, sq)
    det = a11 * a22 - a12 * a21  # 4 sin^2(angle / 2) up to rounding
    if det == 0.0:  # only if sin^2(angle) underflows (eps_angle < 1e-154): a singular solve
        raise np.linalg.LinAlgError("Singular matrix")
    r1, r2 = _dot3(p, v), _dot3(q, v)
    c1, c2 = (r1 * a22 - a12 * r2) / det, (a11 * r2 - a21 * r1) / det
    return np.array([c1 * x + c2 * y for x, y in zip(p, q)])


def classify(m: Motion, tol: Tolerance = DEFAULT_TOL) -> MotionClass:
    """Canonical form of an arbitrary motion.

    Splits m into its linear part (which fixes the origin) plus the
    translation u = m(0), classifies the linear part, then recombines: the
    component of u along the fixed axis or mirror survives as slide, while
    the perpendicular component relocates the axis, mirror, or center.
    """
    m = _as_affine(m)
    u = m.translation
    rows = m.linear.tolist()
    kind, direction, angle = _linear_kernel(rows, tol)

    if kind is Identity:
        if _norm(u) <= tol.eps_len:
            return Identity()
        return Translation(v=u)

    if kind is Rotation:
        n, v = split_translation(u, direction)
        axis = Line3(_relocate_axis(rows, v, direction), direction)
        if _norm(n) <= tol.eps_len:
            return Rotation(axis=axis, angle=angle)
        return Screw(axis=axis, angle=angle, slide=n)

    if kind is Reflection:
        n, v = split_translation(u, direction)
        mirror = Plane(direction, 0.5 * float(direction @ n))
        if _norm(v) <= tol.eps_len:
            return Reflection(mirror=mirror)
        return GlideReflection(mirror=mirror, slide=v)

    if kind is Inversion:
        return Inversion(center=0.5 * u)

    # Rotary reflection: the full motion still has exactly one fixed point,
    # and I - linear is invertible, so solve for it directly.
    center = np.linalg.solve(m.linear - np.eye(3), -u)
    return RotaryReflection(
        mirror=Plane(direction, float(direction @ center)),
        center=center,
        angle=angle,
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidClassParameters(message)


def _require_turn(angle: float, name: str) -> None:
    _require(np.isfinite(angle), f"{name} angle must be finite")
    _require(1e-12 < abs(angle) <= np.pi + 1e-12, f"{name} angle must be nonzero and in (-pi, pi]")


def reconstruct(record: MotionClass) -> AffineIsometry:
    """The affine motion described by a canonical-form record.

    Raises InvalidClassParameters when the record's fields contradict its
    class invariants (zero translation vector, slide not parallel to the
    axis, center off the mirror, and so on).
    """
    if isinstance(record, Identity):
        return identity()

    if isinstance(record, Translation):
        _require(_norm(record.v) > 0.0, "translation vector must be nonzero")
        return translation(record.v)

    if isinstance(record, Rotation):
        _require_turn(record.angle, "rotation")
        return rotation_about_axis(record.axis.point, record.axis.direction, record.angle)

    if isinstance(record, Screw):
        _require_turn(record.angle, "screw")
        slide_len = _norm(record.slide)
        _require(slide_len > 0.0, "screw slide must be nonzero")
        drift = _norm(_cross(record.slide, record.axis.direction))
        _require(drift <= _PARAM_EPS * slide_len, "screw slide must be parallel to the axis")
        turn, shift = _rotation_parts(record.axis.point, record.axis.direction, record.angle)
        return AffineIsometry(turn, shift + record.slide)

    if isinstance(record, Reflection):
        return plane_reflection(record.mirror)

    if isinstance(record, GlideReflection):
        slide_len = _norm(record.slide)
        _require(slide_len > 0.0, "glide slide must be nonzero")
        drift = abs(float(record.slide @ record.mirror.normal))
        _require(drift <= _PARAM_EPS * slide_len, "glide slide must be parallel to the mirror")
        flip, shift = _reflection_parts(record.mirror)
        return AffineIsometry(flip, shift + record.slide)

    if isinstance(record, Inversion):
        return AffineIsometry(-np.eye(3), 2.0 * record.center)

    if isinstance(record, RotaryReflection):
        _require(np.isfinite(record.angle), "rotary angle must be finite")
        _require(
            1e-12 < abs(record.angle) < np.pi - 1e-12,
            "rotary angle must avoid 0 and pi",
        )
        _require(
            abs(record.mirror.signed_distance(record.center)) <= _PARAM_EPS,
            "rotary center must lie on the mirror",
        )
        flip, flip_shift = _reflection_parts(record.mirror)
        turn, turn_shift = _rotation_parts(record.center, record.mirror.normal, record.angle)
        return AffineIsometry(turn @ flip, turn @ flip_shift + turn_shift)

    raise InvalidClassParameters(f"unrecognized class record {record!r}")
