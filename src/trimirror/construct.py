"""Realizing a triple correspondence by at most three plane reflections.

Given congruent noncollinear triples (A, B, C) and (A', B', C'), exactly one
motion of each orientation maps the first onto the second.  `three_reflections`
builds the orientation-reversing one as a sequence of three mirrors, moving
one point into place per stage; `second_motion` appends the destination
triple's own plane to obtain the orientation-preserving partner, whose fold
continues its prefix's fold by that one plane.  The walk runs on Python floats:
each mirror is a `geom.Mirror` pair of floats, from `geom._bisector` or
`geom._measured_plane`, and the sequences keep them as they are, so no Plane is
built unless a caller reads `planes`.  `geom._measure_triangle` measures each
triangle once: PointTriple and the sequence keep it.  A TriplePair keeps its dst as
floats too, and builds `dst` on first read as the rows of one read-only array.
"""

from __future__ import annotations

from .errors import DegenerateSource, NotCongruent
from .geom import DEFAULT_TOL, PointTriple, Tolerance, Vec3, _Array, _floats, _rows, _value_class
from .geom import _bisector, _measure_triangle, _measured_plane, _reflect, _thin
from .motion import ReflectionSequence, _fold, _sequence


@_value_class
class TriplePair:
    """A source PointTriple and the three points it should be carried onto."""

    src: PointTriple
    dst: tuple[Vec3, Vec3, Vec3] = _Array(_rows)

    def __init__(self, src: PointTriple, dst: tuple[Vec3, Vec3, Vec3]) -> None:
        if not isinstance(src, PointTriple):
            raise ValueError("src must be a PointTriple")
        dst = tuple(dst)
        if len(dst) != 3:
            raise ValueError("dst must hold exactly three points")
        fields = self.__dict__  # past frozen setattr
        fields["src"], fields["_floats"] = src, (_floats(dst[0]), _floats(dst[1]), _floats(dst[2]))


def _measured(triple) -> tuple[list[float], tuple, tuple]:
    """First point, normal and measurement of a triple, as floats; a PointTriple's are kept."""
    if isinstance(triple, PointTriple):
        return triple._floats[0], triple._normal, triple._measure
    a, b, c = (_floats(p) for p in triple)
    return (a, *_measure_triangle(a, b, c))


def congruent_triples(src, dst, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether corresponding pairwise distances agree within tol.eps_len.

    Either argument may be a PointTriple or a plain sequence of three points.
    """
    return _congruent(_measured(src)[2][1], _measured(dst)[2][1], tol)


def _congruent(edges: tuple[float, ...], dst_edges: tuple[float, ...], tol: Tolerance) -> bool:
    (d0, d1, d2), (e0, e1, e2), eps = edges, dst_edges, tol.eps_len  # > keeps NaN congruent
    return not (abs(d0 - e0) > eps or abs(d1 - e1) > eps or abs(d2 - e2) > eps)


def three_reflections(pair: TriplePair, tol: Tolerance = DEFAULT_TOL) -> ReflectionSequence:
    """Mirror planes (alpha, beta, gamma) whose composite carries src onto dst.

    The walk fixes one point per stage.  alpha moves A onto A'; beta then
    moves the image of B onto B' without disturbing A'; gamma finishes C.
    Whenever a point is already in place the corresponding mirror degenerates
    to a plane through the points it must not move, so the sequence always
    has exactly three entries and the composite motion is always
    orientation-reversing.

    Raises DegenerateSource for a source triple collinear at this tolerance,
    NotCongruent for unmatched distances, ValueError for an overflowing stage.
    """
    (a, b, c), (a2, b2, c2) = pair.src._floats, pair._floats
    n, measure = pair.src._normal, pair.src._measure
    if _thin(measure, tol):
        raise DegenerateSource("source triple is collinear at this tolerance")
    dst_triangle = (a2, *_measure_triangle(a2, b2, c2))
    if not _congruent(measure[1], dst_triangle[2][1], tol):
        raise NotCongruent("triples are not congruent at this tolerance")

    # _bisector is None when the point is already in place
    alpha = _bisector(a, a2, tol) or _measured_plane(a, n, measure, tol)

    b_stage = _reflect(alpha, b)  # if not finite, _bisector's _plane refuses the chord
    beta = _bisector(b_stage, b2, tol)
    if beta is None:
        # B is already in place; reflect in a plane through A' and B'.  When C
        # happens to lie on line(A', B') that plane would be underdetermined,
        # but in that case the source plane itself contains both images.
        c_triangle = (a2, *_measure_triangle(a2, b2, c))
        beta = _measured_plane(*((a, n, measure) if _thin(c_triangle[2], tol) else c_triangle), tol)

    c_stage = _reflect(beta, _reflect(alpha, c))
    gamma = _bisector(c_stage, c2, tol) or _measured_plane(*dst_triangle, tol)

    return _sequence((alpha, beta, gamma), dst=(pair, dst_triangle))  # for second_motion


def second_motion(
    seq: ReflectionSequence, dst, tol: Tolerance = DEFAULT_TOL
) -> ReflectionSequence:
    """Orientation-preserving partner of `seq` for the given destination triple.

    Appends the plane of the destination triple, which fixes all three target
    points, so the four-mirror sequence agrees with `seq` on the triple while
    reversing the handedness of everything off that plane.  `dst` may be a
    PointTriple or any three noncollinear points.
    """
    kept = seq._dst  # three_reflections' pair and measurement of its dst, or None
    closing = _measured_plane(*(kept[1] if kept and kept[0].dst is dst else _measured(dst)), tol)
    return _sequence(seq._mirrors + (closing,), _fold((closing,), seq._parts))
