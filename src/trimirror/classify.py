"""Canonical-form classification of rigid motions.

Every motion of 3-space is exactly one of: the identity, a translation, a
rotation, a screw, a reflection, a glide reflection, a point inversion, or a
rotary reflection.

The classifiers read the motion's affine parts, its linear part L and
translation t, as 12 floats, L row-major, then t (`_parts`, a sequence's fold
via `motion._as_affine`).  One closed-form kernel works on L: the determinant
gives the parity, the skew and symmetric parts give the axis or mirror normal,
and trace against skew gives the angle.  `classify_fixed_point` places the
kernel's answer through a given fixed point; `classify` splits t once along
the axis or mirror normal: a turn keeps the part along its axis as slide and
is placed by the part across it, while every mirror, the rotary one included,
lies at half the part along its normal and a glide keeps the part across it as
slide.  `reconstruct` rebuilds a motion from its record, closing the loop.

The axis point and the rotary center come from one closed form,
`motion._fixed_point`, the inverse of the shift of the record's own turn,
which `reconstruct` rebuilds: x solves (I - L) x = w, w being the part of t
across the axis, or for the center all of t.  The rotary L = R (I - 2 d d^T)
sends d to -d, which halves w's component along d, as x does: the center
lies on the mirror up to rounding, which `reconstruct` allows (_CENTER_SLACK).

The kernel and the classifiers run on Python floats up to the record, built by
`_record` (its axis by `geom._line`, its mirror by `geom._plane` of a
`geom._mirror` pair), which keeps its vectors as floats (_v, _slide, _center),
arrays only once read.  The module imports no numpy; `split_translation`
refuses a split that overflows.  The eight record classes are the one table of
classes: each carries its JSON name (NAME) and its own rebuild (_motion), so
`reconstruct` and the CLI's encoder need no per-class branches.  The rebuilds
run on those floats too: a mirror's flip is its one-plane fold in closed form
(`motion._reflection`), followed by the rotary turn with `motion._compose`;
the glide measures its drift with `_dot3`.  Each hands its 12 floats to
`motion._rigid` as they are.
`rotation_from_plane_pair` stays public for cross-checking the kernel on
mirror pairs; the library, the worked example included, does not call it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from .errors import InvalidClassParameters, NotAFixedPoint, ParallelDistinctMirrors, ParallelPlanes
from .geom import DEFAULT_TOL, Line3, Plane, Tolerance, Vec3, intersect_planes
from .geom import planes_equal, points_coincide, _canonical_sign, _cross3, _dot3
from .geom import _Array, _floats, _finite, _fresh, _line, _mirror, _plane, _unit, _vector
from .motion import AffineIsometry, Motion, apply, identity, plane_reflection, _ID, _as_affine
from .motion import _compose, _fixed_point, _fold, _reflection, _rigid, _rodrigues
from .motion import _split

# Validation slack for reconstruct(): parameter records are expected to come
# from the classifiers, so only outright inconsistencies are rejected.
_PARAM_EPS = 1e-9

# reconstruct checks a rotary center x against its mirror at _CENTER_SLACK |x| above
# _PARAM_EPS: classify's x misses it by rounding alone, to first order with r = eps / 2,
# |u| <= 2 |x| and classify's unit d as the normal, by (2 + 2 sqrt 2) r |x| from
# _fixed_point's d x v term (exact along d, and |cot||v| / 2 <= |x|), 3 r |x| from
# k = u . d and 13 r |x| from the rest of the offset (d . k d) / 2, |d|^2 - 1 included,
# and 3 r |x| from the dot product that measures the miss: at most 24 r |x| in all.
_CENTER_SLACK = 12.0 * sys.float_info.epsilon


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidClassParameters(message)


def _require_turn(angle: float, name: str) -> None:
    if not (math.isfinite(angle) and 0.0 < abs(angle) <= math.pi + 1e-12):  # messages on failure
        _require(math.isfinite(angle), f"{name} angle must be finite")
        _require(False, f"{name} angle must be nonzero and in (-pi, pi]")


class _Record:
    """Base of the class records.

    NAME is the class's name in JSON documents.  The constructor refuses an
    axis that is not a Line3 and a mirror that is not a Plane, whose unit
    direction _motion() trusts; it checks each _BUILT field and keeps its
    floats, _slide for slide, whose array is built on first read.  _motion()
    checks the fields against the class's invariants and builds their motion.
    """

    NAME = ""
    _BUILT: tuple[str, ...] = ()  # the vector fields: _Array.__set_name__ adds each

    def __post_init__(self) -> None:
        for name, kind in (("axis", Line3), ("mirror", Plane)):
            if hasattr(self, name) and not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}")
        for name in self._BUILT:
            self.__dict__["_" + name] = _floats(self.__dict__.pop(name))


def _record(cls, **fields):
    """cls(**fields) for floats a classifier has just computed: checked, vectors' floats kept."""
    record = object.__new__(cls)
    for name in cls._BUILT:
        fields["_" + name] = _finite(fields.pop(name))
    record.__dict__.update(fields)
    return record


@dataclass(frozen=True)
class Identity(_Record):
    NAME = "identity"

    def _motion(self) -> AffineIsometry:
        return identity()


@dataclass(frozen=True, eq=False)
class Translation(_Record):
    v: Vec3 = _Array(lambda r: _vector(r._v))
    NAME = "translation"

    def _motion(self) -> AffineIsometry:
        _require(math.hypot(*self._v) > 0.0, "translation vector must be nonzero")
        return _rigid(_ID[:9] + tuple(self._v))


@dataclass(frozen=True, eq=False)
class Rotation(_Record):
    """Rotation by `angle` about `axis`, right-handed about the canonical direction."""

    axis: Line3
    angle: float
    NAME = "rotation"

    def _motion(self) -> AffineIsometry:
        _require_turn(self.angle, "rotation")
        return _rigid(_rodrigues(*self.axis._floats, self.angle))


@dataclass(frozen=True, eq=False)
class Screw(_Record):
    """Rotation about `axis` combined with the parallel translation `slide`."""

    axis: Line3
    angle: float
    slide: Vec3 = _Array(lambda r: _vector(r._slide))
    NAME = "screw"

    def _motion(self) -> AffineIsometry:
        _require_turn(self.angle, "screw")
        slide = self._slide  # measured by hypot, which does not overflow past 1.3e154
        slide_len = math.hypot(*slide)
        _require(slide_len > 0.0, "screw slide must be nonzero")
        p, d = self.axis._floats
        drift = math.hypot(*_cross3(slide, d))
        _require(drift <= _PARAM_EPS * slide_len, "screw slide must be parallel to the axis")
        m = _rodrigues(p, d, self.angle)
        return _rigid(m[:9] + [m[9] + slide[0], m[10] + slide[1], m[11] + slide[2]])


@dataclass(frozen=True, eq=False)
class Reflection(_Record):
    mirror: Plane
    NAME = "reflection"

    def _motion(self) -> AffineIsometry:
        return plane_reflection(self.mirror)


@dataclass(frozen=True, eq=False)
class GlideReflection(_Record):
    """Reflection in `mirror` combined with the in-plane translation `slide`."""

    mirror: Plane
    slide: Vec3 = _Array(lambda r: _vector(r._slide))
    NAME = "glide_reflection"

    def _motion(self) -> AffineIsometry:
        slide = self._slide
        slide_len = math.hypot(*slide)
        _require(slide_len > 0.0, "glide slide must be nonzero")
        drift = abs(_dot3(slide, self.mirror._n))
        _require(drift <= _PARAM_EPS * slide_len, "glide slide must be parallel to the mirror")
        m = _reflection(self.mirror._n, self.mirror.offset)
        return _rigid(m[:9] + [m[9] + slide[0], m[10] + slide[1], m[11] + slide[2]])


@dataclass(frozen=True, eq=False)
class Inversion(_Record):
    center: Vec3 = _Array(lambda r: _vector(r._center))
    NAME = "inversion"

    def _motion(self) -> AffineIsometry:
        x, y, z = self._center  # -I, with -0.0 off the diagonal
        return _rigid([-1.0, -0.0, -0.0, -0.0, -1.0, -0.0, -0.0, -0.0, -1.0,
                       2.0 * x, 2.0 * y, 2.0 * z])


@dataclass(frozen=True, eq=False)
class RotaryReflection(_Record):
    """Reflection in `mirror` combined with rotation by `angle` about the
    axis through `center` perpendicular to the mirror; the sign of `angle`
    is right-handed about the mirror's canonical normal."""

    mirror: Plane
    center: Vec3 = _Array(lambda r: _vector(r._center))
    angle: float
    NAME = "rotary_reflection"

    def _motion(self) -> AffineIsometry:
        _require(math.isfinite(self.angle), "rotary angle must be finite")
        _require(0.0 < abs(self.angle) < math.pi, "rotary angle must avoid 0 and pi")
        mirror, center = self.mirror, self._center
        miss = abs(_dot3(mirror._n, center) - mirror.offset)  # signed_distance on kept floats
        on_mirror = miss <= _PARAM_EPS or miss <= _CENTER_SLACK * math.hypot(*center)
        _require(on_mirror, "rotary center must lie on the mirror")
        turn = _rodrigues(center, mirror._n, self.angle)
        return _rigid(_compose(turn, _reflection(mirror._n, mirror.offset)))  # flip, then turn


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


def _canonical_angle(angle: float) -> float:
    """Wrap into (-pi, pi], sending the seam to +pi."""
    wrapped = math.atan2(math.sin(angle), math.cos(angle))
    return math.pi if wrapped <= -math.pi else wrapped


def _skew_vector(l) -> list[float]:
    """Axial vector of the skew part of L, row-major in l; sin(angle) times a rotation's axis."""
    return [0.5 * (l[7] - l[5]), 0.5 * (l[2] - l[6]), 0.5 * (l[3] - l[1])]


def _angle_about(sin: float, cos: float) -> float:
    """Signed rotation angle from its sine, the skew vector dotted with the unit axis, and cosine."""
    return _canonical_angle(math.atan2(sin, min(max(cos, -1.0), 1.0)))


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
        return _record(Identity)
    try:
        axis = intersect_planes(alpha, beta, tol)
    except ParallelPlanes as exc:
        raise ParallelDistinctMirrors(
            "parallel distinct mirrors compose to a translation, not a rotation"
        ) from exc
    l = _fold(((alpha._n, alpha.offset), (beta._n, beta.offset)))
    cos = (l[0] + l[4] + l[8] - 1.0) / 2.0
    angle = _angle_about(_dot3(_skew_vector(l), axis._floats[1]), cos)
    return _record(Rotation, axis=axis, angle=angle)


def _linear_kernel(parts, tol: Tolerance) -> tuple[type, list[float] | None, float]:
    """Class of L, the first nine floats of parts, row-major, as a motion fixing the origin.

    Returns the record class (Identity, Rotation, Reflection, Inversion or
    RotaryReflection), the canonical unit axis or mirror normal as floats,
    and the angle signed about it.  Orientation parity comes from the
    determinant; an improper L is minus a rotation r by angle + pi
    about the mirror normal.  Columns of L -/+ I within eps_len give
    Identity and Inversion; angles within eps_angle of 0 (or of 0 and pi for
    a rotary reflection) collapse to the simpler class.

    Those column tests run only when every diagonal entry is within 2 eps_len
    of +1 (of -1): a diagonal offset fl(a -/+ 1) is 0 or at least 2^-53, so
    one past 2 eps_len squares without underflow, and its column, at least
    as long, fails the test.  Where a column's or the axis's squares sum below
    2^-1022, where they may have underflowed, its length is math.hypot's.

    The skew vector of r is sin(angle) times the axis, accurate while
    cos(angle) > 0.  Toward a half turn it vanishes, but the symmetric part
    minus cos(angle) I is (1 - cos(angle)) axis axis^T, whose column on its
    largest diagonal entry is then long and accurate.  Either way only the
    canonical sign sets the axis's sign; the angle's sign then comes from the
    skew vector.  The axis is zero only for r = I up to rounding, where the
    angle reads zero and the class collapses.
    """
    a, b, c, d, e, f, g, h, i = parts[:9]
    near = 2.0 * tol.eps_len
    if abs(abs(a) - 1.0) <= near:  # the smaller of |a - 1| and |a + 1|, rounded alike
        for s, kind in ((-1.0, Identity), (1.0, Inversion)):  # columns of L + s I, as _dot3
            x, y, z = a + s, e + s, i + s
            if abs(x) <= near and abs(y) <= near and abs(z) <= near:
                widest = max(x * x + d * d + g * g, b * b + y * y + h * h, c * c + f * f + z * z)
                if math.sqrt(widest) <= tol.eps_len and (widest >= 2.0 ** -1022 or max(
                        math.hypot(x, d, g), math.hypot(b, y, h), math.hypot(c, f, z))
                        <= tol.eps_len):  # else its squares may have underflowed
                    return kind, None, 0.0
    proper = a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g) > 0.0  # as _det
    sx, sy, sz = 0.5 * (h - f), 0.5 * (c - g), 0.5 * (d - b)  # as _skew_vector, on locals
    if not proper:  # r = -L has skew vector -skew, but for the sign of a zero
        a, b, c, d, e, f, g, h, i = -a, -b, -c, -d, -e, -f, -g, -h, -i
        sx, sy, sz = -sx, -sy, -sz
    cos = (a + e + i - 1.0) / 2.0
    if cos > 0.0:
        x, y, z = sx, sy, sz
    elif a >= e and a >= i:
        x, y, z = a - cos, 0.5 * (d + b), 0.5 * (g + c)
    elif e >= i:
        x, y, z = 0.5 * (b + d), e - cos, 0.5 * (h + f)
    else:
        x, y, z = 0.5 * (c + g), 0.5 * (f + h), i - cos
    length = math.sqrt(sq) if (sq := x * x + y * y + z * z) >= 2.0 ** -1022 else math.hypot(x, y, z)
    if length != 0.0:
        x, y, z = x / length, y / length, z / length
    sign = _canonical_sign(x, y, z)
    x, y, z = sign * x, sign * y, sign * z
    angle = _angle_about(sx * x + sy * y + sz * z, cos)
    if proper:
        if abs(angle) <= tol.eps_angle:
            return Identity, None, 0.0
        return Rotation, [x, y, z], angle
    angle = _canonical_angle(angle - math.pi)
    if abs(angle) <= tol.eps_angle:
        return Reflection, [x, y, z], 0.0
    if abs(abs(angle) - math.pi) <= tol.eps_angle:
        return Inversion, None, 0.0
    return RotaryReflection, [x, y, z], angle


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
    c, m = _floats(c), _as_affine(m)
    if not points_coincide(apply(m, c), c, tol):
        raise NotAFixedPoint("the supplied point is moved by the motion")
    kind, direction, angle = _linear_kernel(m._parts, tol)
    if kind is Identity:
        return _record(Identity)
    if kind is Inversion:
        return _record(Inversion, center=c)
    length = math.sqrt(_dot3(direction, direction))  # as Line3() and Plane() measure it
    if kind is Rotation:
        return _record(Rotation, axis=_line(c, [x / length for x in direction]), angle=angle)
    mirror = _plane(_mirror(direction, length, _dot3(c, direction)))
    if kind is Reflection:
        return _record(Reflection, mirror=mirror)
    return _record(RotaryReflection, mirror=mirror, center=c, angle=angle)


def split_translation(u, splitter) -> tuple[Vec3, Vec3]:
    """Decompose u = n + v with n along the splitter and v across it.

    The splitter may be a Line3 (n parallel to it), a Plane (n along the
    normal), or a bare direction vector.
    """
    u = _floats(u)
    if isinstance(splitter, Line3):
        d = splitter._floats[1]
    elif isinstance(splitter, Plane):
        d = splitter._n
    else:
        d = _unit(splitter, "splitter direction")
    n, v = _split(u, d)
    return _fresh(n), _fresh(v)


def classify(m: Motion, tol: Tolerance = DEFAULT_TOL) -> MotionClass:
    """Canonical form of an arbitrary motion.

    Splits m into its linear part (which fixes the origin) plus the
    translation u = m(0), classifies the linear part, then recombines: the
    component of u along the fixed axis or mirror survives as slide, while
    the perpendicular component relocates the axis, mirror, or center.
    """
    parts = _as_affine(m)._parts
    (kind, direction, angle), u = _linear_kernel(parts, tol), parts[9:]

    if kind is Identity:
        if math.hypot(*u) <= tol.eps_len:  # without overflow
            return _record(Identity)
        return _record(Translation, v=u)

    if kind is Inversion:
        return _record(Inversion, center=[0.5 * u[0], 0.5 * u[1], 0.5 * u[2]])

    length = math.sqrt(_dot3(direction, direction))  # once for the split and the axis or mirror
    d = [direction[0] / length, direction[1] / length, direction[2] / length]  # no comprehension
    n, v = _split(u, d)
    if kind is Rotation:
        axis = _line(_fixed_point(v, d, angle), d)
        if math.sqrt(_dot3(n, n)) <= tol.eps_len:
            return _record(Rotation, axis=axis, angle=angle)
        return _record(Screw, axis=axis, angle=angle, slide=n)

    mirror = _plane(_mirror(direction, length, 0.5 * _dot3(direction, n)))
    if kind is RotaryReflection:
        center = _fixed_point(u, d, angle)
        return _record(RotaryReflection, mirror=mirror, center=center, angle=angle)
    if math.sqrt(_dot3(v, v)) <= tol.eps_len:
        return _record(Reflection, mirror=mirror)
    return _record(GlideReflection, mirror=mirror, slide=v)


def reconstruct(record: MotionClass) -> AffineIsometry:
    """The affine motion described by a canonical-form record.

    Raises InvalidClassParameters when the record's fields contradict its
    class invariants (zero translation vector, slide not parallel to the
    axis, center off the mirror, and so on).
    """
    if not isinstance(record, _Record):
        raise InvalidClassParameters(f"unrecognized class record {record!r}")
    return record._motion()
