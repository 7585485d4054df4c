"""Realizing a triple correspondence by at most three plane reflections.

Given congruent noncollinear triples (A, B, C) and (A', B', C'), exactly one
motion of each orientation maps the first onto the second.  `three_reflections`
builds the orientation-reversing one as a sequence of three mirrors, moving
one point into place per stage; `second_motion` appends the destination
triple's own plane to obtain the orientation-preserving partner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateSource, NotCongruent
from .geom import DEFAULT_TOL, PointTriple, Tolerance, Vec3, as_vec3, _finite, _frozen, _norm
from .geom import _bisector, _coincide, _collinear, _plane_through, _reflect
from .motion import ReflectionSequence


@dataclass(frozen=True, eq=False)
class TriplePair:
    """A source PointTriple and the three points it should be carried onto."""

    src: PointTriple
    dst: tuple[Vec3, Vec3, Vec3]

    def __post_init__(self) -> None:
        if not isinstance(self.src, PointTriple):
            raise ValueError("src must be a PointTriple")
        dst = tuple(self.dst)
        if len(dst) != 3:
            raise ValueError("dst must hold exactly three points")
        object.__setattr__(self, "dst", tuple(_frozen(as_vec3(p)) for p in dst))


def _points_of(triple) -> tuple[Vec3, Vec3, Vec3]:
    if isinstance(triple, PointTriple):
        return triple.points()
    a, b, c = triple
    return as_vec3(a), as_vec3(b), as_vec3(c)


def congruent_triples(src, dst, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether corresponding pairwise distances agree within tol.eps_len.

    Either argument may be a PointTriple or a plain sequence of three points.
    """
    return _congruent(_points_of(src), _points_of(dst), tol)


def _congruent(src: tuple[Vec3, Vec3, Vec3], dst: tuple[Vec3, Vec3, Vec3], tol: Tolerance) -> bool:
    (a, b, c), (a2, b2, c2) = src, dst
    for p, q, p2, q2 in ((a, b, a2, b2), (a, c, a2, c2), (b, c, b2, c2)):
        d = _norm(q - p)
        d2 = _norm(q2 - p2)
        if abs(d - d2) > tol.eps_len:
            return False
    return True


def three_reflections(pair: TriplePair, tol: Tolerance = DEFAULT_TOL) -> ReflectionSequence:
    """Mirror planes (alpha, beta, gamma) whose composite carries src onto dst.

    The walk fixes one point per stage.  alpha moves A onto A'; beta then
    moves the image of B onto B' without disturbing A'; gamma finishes C.
    Whenever a point is already in place the corresponding mirror degenerates
    to a plane through the points it must not move, so the sequence always
    has exactly three entries and the composite motion is always
    orientation-reversing.

    Raises DegenerateSource if the source triple fails the collinearity check
    at this tolerance, NotCongruent if the distance pattern does not match.
    """
    a, b, c = pair.src.points()
    a2, b2, c2 = pair.dst
    if _collinear(a, b, c, tol):
        raise DegenerateSource("source triple is collinear at this tolerance")
    if not _congruent((a, b, c), pair.dst, tol):
        raise NotCongruent("triples are not congruent at this tolerance")

    if _coincide(a, a2, tol):
        alpha = _plane_through(a, b, c, tol)
    else:
        alpha = _bisector(a, a2, tol)

    b_stage = _finite(_reflect(alpha, b))  # stage images are new: check they are finite
    if _coincide(b_stage, b2, tol):
        # B is already in place; reflect in a plane through A' and B'.  When C
        # happens to lie on line(A', B') that plane would be underdetermined,
        # but in that case the source plane itself contains both images.
        if _collinear(a2, b2, c, tol):
            beta = _plane_through(a, b, c, tol)
        else:
            beta = _plane_through(a2, b2, c, tol)
    else:
        beta = _bisector(b_stage, b2, tol)

    c_stage = _finite(_reflect(beta, _finite(_reflect(alpha, c))))
    if _coincide(c_stage, c2, tol):
        gamma = _plane_through(a2, b2, c2, tol)
    else:
        gamma = _bisector(c_stage, c2, tol)

    return ReflectionSequence((alpha, beta, gamma))


def second_motion(
    seq: ReflectionSequence, dst, tol: Tolerance = DEFAULT_TOL
) -> ReflectionSequence:
    """Orientation-preserving partner of `seq` for the given destination triple.

    Appends the plane of the destination triple, which fixes all three target
    points, so the four-mirror sequence agrees with `seq` on the triple while
    reversing the handedness of everything off that plane.  `dst` may be a
    PointTriple or any three noncollinear points.
    """
    closing = _plane_through(*_points_of(dst), tol)
    return ReflectionSequence(seq.planes + (closing,))
