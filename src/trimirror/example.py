"""A fully worked composite-motion study.

Two screw-like motions f and g are composed into h = f after g, and the
orbit A, B = k(A), B' = k(B) of the rotation part k of h is used to recover
h's screw axis from two perpendicular bisector planes.  Everything in the
report is computed by the construction and classification routines; nothing
is transcribed by hand, so the module doubles as an end-to-end exercise of
the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classify import Rotation, Screw, classify, classify_fixed_point, split_translation
from .errors import GeometryError
from .geom import (
    DEFAULT_TOL,
    Line3,
    Tolerance,
    Vec3,
    as_vec3,
    intersect_planes,
    perpendicular_bisector_plane,
    _dot3,
    _vector,
)
from .motion import (
    AffineIsometry,
    Motion,
    apply,
    rotation_about_axis,
    then,
    translation,
)

# Orbit anchor for the axis construction; C is the shared fixed point of the
# rotation part.
ANCHOR = _vector((1.0, 2.0, -2.0))
CENTER = _vector((0.0, 0.0, 0.0))

# Default orbit length for figure-style tabulation.
DEFAULT_ITERATES = 12


def make_f() -> AffineIsometry:
    """Rotation by pi/6 about the axis through (1,0,0) along (1,-1,0), then
    translation by (1,1,1)."""
    turn = rotation_about_axis((1.0, 0.0, 0.0), (1.0, -1.0, 0.0), math.pi / 6.0)
    return then(turn, translation((1.0, 1.0, 1.0)))


def make_g() -> AffineIsometry:
    """Rotation by pi/4 about the downward vertical through the origin, then
    translation by (0,0,1); a unit-pitch screw on the z-axis."""
    turn = rotation_about_axis((0.0, 0.0, 0.0), (0.0, 0.0, -1.0), math.pi / 4.0)
    return then(turn, translation((0.0, 0.0, 1.0)))


def make_h() -> AffineIsometry:
    """The composite: g first, then f."""
    return then(make_g(), make_f())


def make_k() -> AffineIsometry:
    """The rotation part of h, anchored at the origin."""
    return AffineIsometry(make_h().linear, (0.0, 0.0, 0.0))


def iterate(m: Motion, start, count: int) -> list[Vec3]:
    """Orbit [x, m(x), m(m(x)), ...] of count applications of m; ValueError if a point overflows."""
    if count < 0:
        raise ValueError("iterate count must be nonnegative")
    points = [as_vec3(start)]
    for _ in range(int(count)):
        points.append(apply(m, points[-1]))
    return points


@dataclass(frozen=True, eq=False)
class ExampleReport:
    """Derived quantities of the composite study; see analyze()."""

    b: Vec3
    b_prime: Vec3
    axis_k: Line3
    n_direction: Vec3
    theta: float
    m: Vec3
    residual: Vec3
    p: Vec3
    screw_axis_h: Line3
    bisector_normal_ab: Vec3
    bisector_normal_bb_prime: Vec3

    def residual_dot_n(self) -> float:
        """Normalized perpendicularity certificate for residual against the axis."""
        r, n = self.residual.tolist(), self.n_direction.tolist()
        return abs(_dot3(r, n)) / (math.sqrt(_dot3(r, r)) * math.sqrt(_dot3(n, n)))


def _z_scaled(v: Vec3) -> Vec3:
    """Rescale a direction so its z component is 1, for tabulated comparison."""
    return v / v[2]


def analyze(tol: Tolerance = DEFAULT_TOL) -> ExampleReport:
    """Run the whole study and report every derived quantity.

    The axis of k is recovered synthetically as the intersection of the
    bisector planes of (A, B) and (B, B'), the rotation angle comes from the
    fixed-point classifier, and the screw decomposition of h comes from
    splitting p = h(0) along that axis.  The general classifier is run on h
    as well, and its screw axis is included for cross-checking.

    A note on angles: the reported bisector normals are the successive chord
    directions B-A and B'-B, so the angle between them, and hence between
    the two bisector planes themselves, is the full rotation angle of k.
    It is sometimes quoted as half the rotation angle, but the half-angle
    form of the mirror-pair law belongs to a different pair: composing
    bis(A,B) with bis(B,B') advances the orbit two steps and rotates by
    2*theta, while the classifier's pair (whose second mirror bisects the
    image of B against B') meets at theta/2 and composes to k itself.
    theta here is the full angle, matching the trace of k's linear part.
    """
    h = make_h()
    k = make_k()

    b = apply(k, ANCHOR)
    b_prime = apply(k, b)

    bis_ab = perpendicular_bisector_plane(ANCHOR, b, tol)
    bis_bb = perpendicular_bisector_plane(b, b_prime, tol)
    axis_k = intersect_planes(bis_ab, bis_bb, tol)

    k_class = classify_fixed_point(k, CENTER, tol)
    if not isinstance(k_class, Rotation):
        raise GeometryError("rotation part of h failed to classify as a rotation")
    theta = abs(k_class.angle)

    p = apply(h, CENTER)
    m_along, residual = split_translation(p, axis_k)

    h_class = classify(h, tol)
    if not isinstance(h_class, Screw):
        raise GeometryError("h failed to classify as a screw")

    return ExampleReport(
        b=b,
        b_prime=b_prime,
        axis_k=axis_k,
        n_direction=axis_k.direction,
        theta=theta,
        m=m_along,
        residual=residual,
        p=p,
        screw_axis_h=h_class.axis,
        bisector_normal_ab=_z_scaled(bis_ab.normal),
        bisector_normal_bb_prime=_z_scaled(bis_bb.normal),
    )
