import ast
import dataclasses
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

import trimirror
from trimirror import (
    AffineIsometry,
    GlideReflection,
    Inversion,
    Line3,
    Plane,
    PointTriple,
    RotaryReflection,
    Rotation,
    Screw,
    Tolerance,
    Translation,
    TriplePair,
    as_vec3,
    collinear,
    congruent_triples,
    coplanar,
    intersect_planes,
    lines_equal,
    midpoint,
    perpendicular_bisector_plane,
    plane_through_points,
    planes_equal,
    point_on_plane,
    points_coincide,
    reflect_point,
    rotation_from_plane_pair,
    vec3,
)
from trimirror.errors import CoincidentPoints, CollinearPoints, ParallelPlanes
from trimirror.geom import DEFAULT_TOL, _bisector, _measure_triangle, _reflect, _unit

from oracle import exact_root, loop_canonical_sign, plane_bytes, zero_component_vectors

# Orbit points of the worked example, in closed radical form.
A_EX = vec3(1.0, 2.0, -2.0)
B_EX = vec3(np.sqrt(6) / 2 + np.sqrt(2), np.sqrt(6) / 2, 1 - np.sqrt(3))
BP_EX = vec3(
    (7 - np.sqrt(2) + 2 * np.sqrt(3) + np.sqrt(6)) / 4,
    (-1 - np.sqrt(2) - 2 * np.sqrt(3) + np.sqrt(6)) / 4,
    (-6 + 2 * np.sqrt(3) + np.sqrt(6)) / 4,
)


def test_reflect_point_basic():
    plane = Plane((1, 0, 0), 1.0)
    assert np.allclose(reflect_point(plane, (0, 0, 0)), (2, 0, 0))
    # points of the plane stay put
    assert np.allclose(reflect_point(plane, (1, 5, -3)), (1, 5, -3))


def test_reflect_point_swaps_bisector_endpoints():
    plane = perpendicular_bisector_plane((0, 0, 0), (2, 4, 6))
    assert np.allclose(reflect_point(plane, (0, 0, 0)), (2, 4, 6), atol=1e-12)
    assert np.allclose(reflect_point(plane, (2, 4, 6)), (0, 0, 0), atol=1e-12)


def test_reflect_point_involution():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.normal(size=3)
        while np.linalg.norm(n) < 1e-3:
            n = rng.normal(size=3)
        plane = Plane(n, float(rng.uniform(-5, 5)))
        p = rng.uniform(-10, 10, 3)
        back = reflect_point(plane, reflect_point(plane, p))
        assert np.linalg.norm(back - p) <= 1e-12 * max(1.0, np.linalg.norm(p))


def test_reflect_point_is_isometry():
    rng = np.random.default_rng(12)
    for _ in range(100):
        plane = Plane(rng.normal(size=3), float(rng.uniform(-5, 5)))
        p, q = rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3)
        d0 = np.linalg.norm(p - q)
        d1 = np.linalg.norm(reflect_point(plane, p) - reflect_point(plane, q))
        assert abs(d1 - d0) <= 1e-12 * max(1.0, d0)


def test_plane_canonicalization():
    plane = Plane((0, 0, -2), -6.0)
    assert np.allclose(plane.normal, (0, 0, 1))
    assert plane.offset == pytest.approx(3.0, abs=1e-15)
    # same point set, both sign conventions: identical stored fields
    a = Plane((3, -1, 2), 0.5)
    b = Plane((-3, 1, -2), -0.5)
    assert np.array_equal(a.normal, b.normal)
    assert a.offset == b.offset


def test_plane_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Plane((0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        Plane((np.nan, 0, 1), 0.0)
    with pytest.raises(ValueError):
        Plane((1, 0, 0), np.inf)


def test_plane_reads_its_offset_as_a_float():
    # Plane() converts the caller's offset with float() and the plane kernel
    # divides that float; the kernels pass their offsets as floats already
    for offset in (3, np.float64(2.5), np.float32(0.1), -0.0, True):
        plane = Plane((0.0, 0.0, -2.0), offset)
        assert type(plane.offset) is float, offset
        want = -float(offset) / 2.0 + 0.0  # a zero offset is +0.0
        assert (plane.offset, math.copysign(1.0, plane.offset)) == (want, math.copysign(1.0, want))
    message = "^plane offset must be finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # float(np.float64(inf)) and 1e308 / 1e-3 do not warn
        for offset in (math.inf, -math.inf, math.nan, np.float64(np.inf), np.float32(np.nan)):
            with pytest.raises(ValueError, match=message):
                Plane((1.0, 0.0, 0.0), offset)
        with pytest.raises(ValueError, match=message):  # finite, but past the float range once
            Plane((1e-3, 0.0, 0.0), 1e308)  # divided by the normal's length
    with pytest.raises(OverflowError):
        Plane((1.0, 0.0, 0.0), 10**400)


def test_small_well_shaped_triangles_fix_a_plane():
    # the 1e-12 floor applies to a normal a caller passes to Plane(); the
    # kernels' normals were already judged by collinear() or by eps_len
    a, b, c = (0.0, 0.0, 0.0), (1e-7, 0.0, 0.0), (0.0, 1e-7, 0.0)
    assert not collinear(a, b, c)
    plane = plane_through_points(a, b, c)
    assert plane.normal.tolist() == [0.0, 0.0, 1.0] and plane.offset == 0.0
    plane = perpendicular_bisector_plane((0.0, 0.0, 0.0), (1e-13, 0.0, 0.0), Tolerance(1e-14))
    assert plane.normal.tolist() == [1.0, 0.0, 0.0]
    assert plane.offset == pytest.approx(5e-14, rel=1e-15)
    for normal in ((1e-13, 0.0, 0.0), (0.0, -1e-12, 0.0)):
        with pytest.raises(ValueError, match="^plane normal must have a nonzero, finite length$"):
            Plane(normal, 1.0)
    assert Plane((0.0, -2e-12, 0.0), 1.0).normal.tolist() == [0.0, 1.0, 0.0]


def test_plane_and_line_reject_overflowing_lengths():
    # the squared length overflows, silently on floats, and the unit normal or
    # direction would come out as (0, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^plane normal must have a nonzero, finite length$"):
            Plane((1e155, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="^line direction must have a nonzero, finite"):
            Line3((0.0, 0.0, 0.0), (1e200, 0.0, -1e200))


def test_line_rejects_non_finite_foot():
    # p . d overflows for a point near the largest double, inf * 0.0 is NaN,
    # and the foot used to be stored as (-inf, -inf, nan); p . d is formed on
    # floats, which overflow silently, so the refusal comes with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^vector components must be finite$"):
            Line3((1.7e308, 1.7e308, 0.0), (1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="^vector components must be finite$"):
            Line3((1.7e308, 1.7e308, 1.7e308), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="^vector components must be finite$"):
            Line3(np.array((1.7e308, 1.7e308, 0.0)), np.array((1.0, 1.0, 0.0)))


def test_plane_and_line_bytes_match_reference_up_to_the_overflow_edge():
    # the constructors as written before the overflow check, every length and
    # the line's p . d summed on floats, left to right
    rng = np.random.default_rng(12)
    vectors = [np.array([1.3e154, 0.0, 0.0]), np.array([-7e153, 7e153, 7e153])]
    vectors += list(rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-6.0, 153.0, size=(2000, 1)))
    vectors += zero_component_vectors(rng)
    for v in vectors:
        offset, point = float(rng.normal()) * 1e3, rng.normal(size=3) * 1e3
        length = math.sqrt(_float_dot(v.tolist(), v.tolist()))
        sign = loop_canonical_sign(v / length)
        plane = Plane(v, offset)
        assert plane.normal.tobytes() == (sign * v / length + 0.0).tobytes()
        assert plane.offset == sign * (offset / length) + 0.0
        line = Line3(point, v)
        d = sign * (v / length) + 0.0
        assert line.direction.tobytes() == d.tobytes()
        k = _float_dot(point.tolist(), d.tolist())
        assert line.point.tobytes() == (point - k * d + 0.0).tobytes()


def test_bisector_plane_basic():
    plane = perpendicular_bisector_plane((0, 0, 0), (2, 0, 0))
    assert np.allclose(plane.normal, (1, 0, 0))
    assert plane.offset == pytest.approx(1.0, abs=1e-15)
    assert point_on_plane(midpoint((0, 0, 0), (2, 0, 0)), plane)


def test_bisector_equidistance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3)
        if np.linalg.norm(a - b) < 1e-3:
            continue
        plane = perpendicular_bisector_plane(a, b)
        # random in-plane point via an orthonormal basis of the plane
        seed = np.eye(3)[int(np.argmin(np.abs(plane.normal)))]
        u = np.cross(plane.normal, seed)
        u /= np.linalg.norm(u)
        v = np.cross(plane.normal, u)
        p = plane.offset * plane.normal + rng.uniform(-5, 5) * u + rng.uniform(-5, 5) * v
        assert abs(np.linalg.norm(p - a) - np.linalg.norm(p - b)) <= 1e-9


def test_bisector_coincident_raises():
    with pytest.raises(CoincidentPoints):
        perpendicular_bisector_plane((1, 1, 1), (1, 1, 1))


def test_bisector_normal_matches_tabulated_value():
    # normal direction of bis(A, B), rescaled to unit third component
    plane = perpendicular_bisector_plane(A_EX, B_EX)
    scaled = plane.normal / plane.normal[2]
    assert np.allclose(scaled, (1.29261, -0.611424, 1.0), atol=5e-6)

    plane2 = perpendicular_bisector_plane(B_EX, BP_EX)
    scaled2 = plane2.normal / plane2.normal[2]
    assert np.allclose(scaled2, (0.332024, -2.93047, 1.0), atol=5e-6)


def test_plane_through_points():
    plane = plane_through_points((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert np.allclose(plane.normal, (0, 0, 1))
    assert plane.offset == pytest.approx(0.0, abs=1e-15)
    for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0)):
        assert abs(plane.signed_distance(p)) <= 1e-12


def test_plane_through_points_collinear_raises():
    with pytest.raises(CollinearPoints):
        plane_through_points((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_plane_through_points_cross_product_normal():
    plane = plane_through_points(A_EX, B_EX, (0, 0, 0))
    n = np.cross(B_EX - A_EX, -A_EX)
    n = n / np.linalg.norm(n)
    assert min(np.linalg.norm(plane.normal - n), np.linalg.norm(plane.normal + n)) <= 1e-12


def test_intersect_planes_basic():
    line = intersect_planes(Plane((1, 0, 0), 0.0), Plane((0, 1, 0), 0.0))
    assert np.allclose(line.direction, (0, 0, 1))
    assert np.allclose(line.point, (0, 0, 0))


def test_intersect_planes_parallel_raises():
    with pytest.raises(ParallelPlanes):
        intersect_planes(Plane((1, 0, 0), 0.0), Plane((1, 0, 0), 1.0))
    with pytest.raises(ParallelPlanes):
        intersect_planes(Plane((1, 0, 0), 2.0), Plane((-1, 0, 0), -2.0))


def test_intersect_planes_meets_planes_its_parallel_test_accepts():
    # normals 1e-13 apart are not parallel at eps_angle 1e-14: the line
    # through both planes is the z axis, not Line3's 1e-12 floor error
    p, q = Plane((1, 0, 0), 0.0), Plane((1, 1e-13, 0), 0.0)
    tol = Tolerance(1e-14, 1e-14)
    assert not planes_equal(p, q, tol)
    line = intersect_planes(p, q, tol)
    assert line.direction.tolist() == [0.0, 0.0, 1.0]
    assert line.point.tolist() == [0.0, 0.0, 0.0]
    turn = rotation_from_plane_pair(p, q, tol)
    assert isinstance(turn, Rotation) and turn.axis.direction.tolist() == [0.0, 0.0, 1.0]
    assert abs(turn.angle - 2e-13) <= 1e-20


def test_intersect_planes_symmetric():
    rng = np.random.default_rng(14)
    for _ in range(50):
        p = Plane(rng.normal(size=3), float(rng.uniform(-3, 3)))
        q = Plane(rng.normal(size=3), float(rng.uniform(-3, 3)))
        if np.linalg.norm(np.cross(p.normal, q.normal)) < 1e-3:
            continue
        ab = intersect_planes(p, q)
        ba = intersect_planes(q, p)
        assert lines_equal(ab, ba, Tolerance(1e-9, 1e-9))
        # containment in both planes
        for plane in (p, q):
            assert abs(plane.signed_distance(ab.point)) <= 1e-9
            assert abs(plane.signed_distance(ab.point + 2.0 * ab.direction)) <= 1e-9


def test_intersect_planes_axis_of_worked_example():
    axis = intersect_planes(
        perpendicular_bisector_plane(A_EX, B_EX),
        perpendicular_bisector_plane(B_EX, BP_EX),
    )
    n = np.array([-1 - np.sqrt(2), 1.0, 2 + np.sqrt(3)])
    n = n / np.linalg.norm(n)
    # parallel up to sign within 1e-9 radians
    assert np.linalg.norm(np.cross(axis.direction, n)) <= 1e-9
    # the axis passes through the origin, the fixed point of the rotation
    assert axis.distance_to((0, 0, 0)) <= 1e-9


def test_line_canonicalization():
    line = Line3((0, 0, 5), (0, 0, -3))
    assert np.allclose(line.direction, (0, 0, 1))
    assert np.allclose(line.point, (0, 0, 0))
    offset = Line3((1, 2, 3), (0, 0, 1))
    assert np.allclose(offset.point, (1, 2, 0))
    assert abs(float(offset.point @ offset.direction)) <= 1e-12
    assert offset.distance_to((1, 2, 9)) == pytest.approx(0.0, abs=1e-12)
    assert offset.distance_to((4, 6, 0)) == pytest.approx(5.0, abs=1e-12)


def test_point_triple_rejects_collinear():
    with pytest.raises(CollinearPoints):
        PointTriple((0, 0, 0), (1, 0, 0), (2, 0, 0))
    triple = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert np.allclose(triple.b, (1, 0, 0))


def test_collinear_predicate():
    assert collinear((0, 0, 0), (1, 0, 0), (2, 0, 0))
    assert not collinear((0, 0, 0), (1, 0, 0), (0, 1, 0))
    # example orbit points against the fixed point: comfortably noncollinear
    area = 0.5 * np.linalg.norm(np.cross(B_EX - A_EX, -A_EX))
    assert area > 1.0
    assert not collinear(A_EX, B_EX, (0, 0, 0))


def test_collinear_symmetry():
    rng = np.random.default_rng(15)
    from itertools import permutations

    for _ in range(30):
        pts = [rng.uniform(-3, 3, 3) for _ in range(3)]
        flags = {collinear(*perm) for perm in permutations(pts)}
        assert len(flags) == 1


def test_coplanar_predicate():
    assert coplanar((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
    assert not coplanar((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    # d a height h above the right triangle a, b, c of legs L: (b - a) x (c - a) . (d - a)
    # is L^2 h and the widest edge squared 2 L^2, so the tetrahedron is flat for
    # h <= 12 eps_len at any L; twice that height is not
    for scale in (1.0, 1e3):
        for factor, flat in ((0.5, True), (2.0, False)):
            h = factor * 12.0 * DEFAULT_TOL.eps_len
            d = (0.3 * scale, 0.3 * scale, h)
            assert coplanar((0, 0, 0), (scale, 0, 0), (0, scale, 0), d) is flat, (scale, factor)


def test_overflowing_measurements_are_rescaled_or_refused():
    # a triangle's squared area overflows once its edges pass about 1.2e77,
    # and a tetrahedron's volume once they pass about 5.6e102, far inside the
    # float range: each is measured again at a power-of-two scale and keeps the
    # verdict it had, or gets the one it should have had; only a measure that
    # is itself past the range is refused, with as_vec3's message
    right = ((0, 0, 0), (2e77, 0, 0), (0, 2e77, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not collinear(*right)
        assert PointTriple(*right)._measure == (4e154, (2e77, 2e77, math.hypot(2e77, 2e77)))
        assert plane_bytes(plane_through_points(*right)) == plane_bytes(Plane((0, 0, 1), 0))
        assert not coplanar((0, 0, 0), (1e110, 0, 0), (0, 1e110, 0), (0, 0, 1e110))
        assert not coplanar((0, 0, 0), (1e200, 0, 0), (0, 1e200, 0), (0, 0, 1e200))  # was True
        assert coplanar((0, 0, 0), (1e200, 0, 0), (0, 1e200, 0), (1e200, 1e200, 0))
        line = ((0, 0, 0), (1e200, 1e200, 1e200), (2e200, 2e200, 2e200))
        assert collinear(*line)
        with pytest.raises(CollinearPoints):  # was accepted, its area NaN
            PointTriple(*line)
        # a sliver whose products overflow, though its doubled area, 1e300, does not
        sliver = [0.0, 0.0, 0.0], [1e160, 0.0, 0.0], [2e160, 1e140, 0.0]
        n, (area, edges) = _measure_triangle(*sliver)
        assert (n, area, edges) == ((0.0, 0.0, 1e160 * 1e140), 1e160 * 1e140, (1e160, 2e160, 1e160))
        message = "^vector components must be finite$"
        wide = ((0, 0, 0), (1e200, 0, 0), (0, 1e200, 0))
        with pytest.raises(ValueError, match=message):  # its area is 1e400; was collinear
            collinear(*wide)
        with pytest.raises(ValueError, match=message):
            plane_through_points(*wide)
        # edges 2e308 long, past the range, are halved before they are measured
        assert coplanar((-1e308, 0, 0), (1e308, 0, 0), (0, 1, 0), (0, 0, 1))
        assert not coplanar((-1e308, 0, 0), (1e308, 0, 0), (0, 1e308, 0), (0, 0, 1e308))
        with pytest.raises(ValueError, match=message):  # a triangle keeps its edges: refused
            collinear((-1e308, 0, 0), (1e308, 0, 0), (0, 1, 0))
    # the same shapes inside the range keep their bytes and verdicts
    assert collinear((0, 0, 0), (1e100, 1e100, 1e100), (2e100, 2e100, 2e100))
    assert PointTriple((0, 0, 0), (1e70, 0, 0), (0, 1e70, 0))._measure[0] == 1e70 * 1e70
    assert not coplanar((0, 0, 0), (1e90, 0, 0), (0, 1e90, 0), (0, 0, 1e90))


def test_points_coincide():
    assert points_coincide((1, 2, 3), (1, 2, 3))
    assert points_coincide((1, 2, 3), (1, 2, 3 + 1e-12))
    assert not points_coincide((1, 2, 3), (1, 2, 3.001))


def test_point_on_plane():
    plane = Plane((0, 0, 1), 2.0)
    assert point_on_plane((5, -7, 2), plane)
    assert not point_on_plane((0, 0, 2.1), plane)


def test_planes_equal():
    assert planes_equal(Plane((0, 0, 1), 1.0), Plane((0, 0, -1), -1.0))
    assert planes_equal(Plane((0, 0, 1), 1.0), Plane((0, 0, 1), 1.0 + 1e-12))
    assert not planes_equal(Plane((0, 0, 1), 1.0), Plane((0, 0, 1), 1.1))
    assert not planes_equal(Plane((0, 0, 1), 1.0), Plane((0, 1, 0), 1.0))


def test_lines_equal():
    a = Line3((0, 0, 0), (0, 0, 1))
    b = Line3((0, 0, 7), (0, 0, -2))
    assert lines_equal(a, b)
    assert not lines_equal(a, Line3((1, 0, 0), (0, 0, 1)))


def test_vec3_validation():
    with pytest.raises(ValueError):
        vec3(1.0, np.inf, 0.0)
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="components must be finite"):
            as_vec3((0.0, 0.0, bad))
    with pytest.raises(ValueError):
        PointTriple((0, 0), (1, 0, 0), (0, 1, 0))


# Public entry points that take bare points, as calls on a list of `count`
# points; validation sits in front of private kernels, so each must still
# check every point it is given.
_POINT_ENTRY_POINTS = {
    "points_coincide": (2, lambda p: points_coincide(*p)),
    "collinear": (3, lambda p: collinear(*p)),
    "coplanar": (4, lambda p: coplanar(*p)),
    "reflect_point": (1, lambda p: reflect_point(Plane((0, 0, 1), 1.0), p[0])),
    "midpoint": (2, lambda p: midpoint(*p)),
    "perpendicular_bisector_plane": (2, lambda p: perpendicular_bisector_plane(*p)),
    "plane_through_points": (3, lambda p: plane_through_points(*p)),
    "congruent_triples": (6, lambda p: congruent_triples(p[:3], p[3:])),
    "Plane.signed_distance": (1, lambda p: Plane((0, 0, 1), 1.0).signed_distance(p[0])),
    "Line3.distance_to": (1, lambda p: Line3((0, 0, 0), (1, 0, 0)).distance_to(p[0])),
}
_GOOD_POINTS = ((1, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1), (3, 0, 0), (0, 1, 2))


@pytest.mark.parametrize("name", sorted(_POINT_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad, message",
    [
        ((np.nan, 0.0, 1.0), "^vector components must be finite$"),
        ((0.0, np.inf, 1.0), "^vector components must be finite$"),
        ((0.0, 1.0, -np.inf), "^vector components must be finite$"),
        ((1.0, 2.0), r"^expected 3 components, got shape \(2,\)$"),
        (np.array([0.0, 1.0 + 1.0j, 1.0]), "^components must be real, not complex$"),
    ],
    ids=["nan", "inf", "-inf", "shape2", "complex"],
)
def test_public_entry_points_reject_bad_points(name, bad, message):
    count, call = _POINT_ENTRY_POINTS[name]
    for slot in range(count):
        points = list(_GOOD_POINTS[:count])
        points[slot] = bad
        with pytest.raises(ValueError, match=message):
            call(points)


def _float_dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _float_plane_bytes(n, offset) -> bytes:
    """Plane(n, offset)'s bytes for floats n whose length sqrt(n . n) is summed on floats."""
    length = math.sqrt(_float_dot(n, n))
    sign = loop_canonical_sign([x / length for x in n])
    normal = np.array([sign * (x / length) + 0.0 for x in n])
    return normal.tobytes() + np.float64(sign * (offset / length) + 0.0).tobytes()


def test_point_functions_match_reference_formulas_bit_for_bit():
    # The formulas as written before validation moved in front of private
    # kernels, with every dot product and length summed on floats left to
    # right, as the kernels form them; the construct path's planes are built
    # from these kernels.  numpy's 3-element dot may fuse or reorder its sums
    # on some builds, so it is not the reference.
    rng = np.random.default_rng(10)
    tol = Tolerance()
    verdicts = set()
    for _ in range(3000):
        shift = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 6.0)
        a, b, c = rng.normal(size=(3, 3)) * 3.0 + shift
        near = 10.0 ** rng.uniform(-12.0, -7.0)
        if rng.uniform() < 0.3:
            c = a + rng.uniform(-2.0, 2.0) * (b - a) + near * rng.normal(size=3)
        if rng.uniform() < 0.3:
            b = a + near * rng.normal(size=3)
        ab, ac, bc = (b - a).tolist(), (c - a).tolist(), (c - b).tolist()
        n = np.cross(ab, ac).tolist()  # pinned equal to _cross below
        size = [math.sqrt(_float_dot(e, e)) for e in (n, ab, ac, bc)]
        thin = size[0] <= 2.0 * tol.eps_len * max(size[1:])
        assert collinear(a, b, c, tol) == thin
        same = size[1] <= tol.eps_len
        assert points_coincide(a, b, tol) == same
        verdicts.add((bool(thin), bool(same)))
        if not same:
            want = _float_plane_bytes(ab, _float_dot(ab, (0.5 * (a + b)).tolist()))
            assert plane_bytes(perpendicular_bisector_plane(a, b, tol)) == want
        if not thin:
            plane = plane_through_points(a, b, c, tol)
            assert plane_bytes(plane) == _float_plane_bytes(n, _float_dot(n, a.tolist()))
            distance = _float_dot(plane.normal.tolist(), c.tolist()) - plane.offset
            image = c - 2.0 * distance * plane.normal
            assert reflect_point(plane, c).tobytes() == image.tobytes()
    assert verdicts == {(False, False), (True, False), (True, True)}


# Error bounds of the float kernels against the same float inputs evaluated
# exactly in fractions.  r = eps / 2 is the unit roundoff, and gamma(k) =
# k r / (1 - k r) bounds k roundings in a row (Higham, Accuracy and Stability
# of Numerical Algorithms, 3.1): a sum of p products, each of q rounded
# factors, summed left to right, misses by at most gamma(q + p) times the sum
# of the terms' magnitudes.  Square roots are taken exactly enough, to 2**-200
# relative (oracle.exact_root), far inside every bound.
_R = Fraction(np.finfo(float).eps) / 2


def _gamma(k: int) -> Fraction:
    return k * _R / (1 - k * _R)


# A length fl(sqrt(fl(x0^2 + x1^2 + x2^2))) of rounded differences x misses the
# exact length of the differences by at most this fraction of it: each term
# carries the difference's rounding twice, its product once and its sums at
# most twice, gamma(5) in all; the square root halves that (|sqrt(1 + t) - 1| <=
# |t| / (2 - |t|)) and adds one rounding.  About 3.5 r = 1.75 eps.
_LENGTH = (1 + _gamma(5) / (2 - _gamma(5))) * (1 + _R) - 1


def _kernel_points(rng) -> list:
    """Seeded float point triples from 1e-3 to 1e6 across, shifted as far from
    the origin, a third of them thin, with zero components among them."""
    out = []
    for i in range(600):
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        pts = rng.normal(size=(3, 3)) * scale + rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)
        if i % 3 == 0:
            pts[2] = pts[0] + rng.uniform(-2.0, 2.0) * (pts[1] - pts[0])
            pts[2] += 10.0 ** rng.uniform(-12.0, -4.0) * scale * rng.normal(size=3)
        out.append([p.tolist() for p in pts])
    zeros = zero_component_vectors(rng)
    out += [[u.tolist(), v.tolist(), w.tolist()] for u, v, w in zip(zeros, zeros[5:], zeros[11:])]
    return out


def test_triangle_kernel_matches_exact_reference():
    # n_i = u_j v_k - u_k v_j of the rounded differences u = b - a, v = c - a:
    # three roundings per product and one for the difference, gamma(4) times
    # |U_j V_k| + |U_k V_j| with U, V the exact differences.  Each edge is a
    # length (_LENGTH).  The doubled area is the length of the float n, which
    # misses |N| by n's miss plus _LENGTH |n|, both bounded in the 1-norm.
    for a, b, c in _kernel_points(np.random.default_rng(70)):
        n, (area, edges) = _measure_triangle(a, b, c)
        fa, fb, fc = (list(map(Fraction, p)) for p in (a, b, c))
        u, v, w = ([q - p for p, q in zip(s, t)] for s, t in ((fa, fb), (fa, fc), (fb, fc)))
        misses = []
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            exact = u[j] * v[k] - u[k] * v[j]
            misses.append(_gamma(4) * (abs(u[j] * v[k]) + abs(u[k] * v[j])))
            assert abs(Fraction(n[i]) - exact) <= misses[-1], (a, b, c, i)
        for got, e in zip(edges, (u, v, w)):
            exact = exact_root(sum(x * x for x in e))
            assert abs(Fraction(got) - exact) <= _LENGTH * exact, (a, b, c)
        exact = exact_root(sum(x * x for x in (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                                           u[0] * v[1] - u[1] * v[0])))
        slack = sum(misses) + _LENGTH * sum(abs(Fraction(x)) for x in n)
        assert abs(Fraction(area) - exact) <= slack, (a, b, c)


def test_bisector_kernel_matches_exact_reference():
    # The chord x = b - a rounds once per component and its length L misses
    # |X| by _LENGTH |X|, so each normal component x_i / L misses X_i / |X| by
    # at most (1 + r)^2 / (1 - _LENGTH) - 1 of it.  The offset is
    # fl(x . m) / L with m = (a + b) / 2 rounded once per component: the dot's
    # three terms carry three roundings each and their sums at most two,
    # gamma(5) sum |X_i M_i|, and the division by L adds the same relative miss
    # as a normal component.  Canonical sign flips and + 0.0 are exact.
    tol = Tolerance(1e-300, 1e-300)
    spread = (1 + _R) / (1 - _LENGTH)
    for pts in _kernel_points(np.random.default_rng(71)):
        for a, b in ((pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])):
            normal_got, offset_got = _bisector(a, b, tol)
            fa, fb = list(map(Fraction, a)), list(map(Fraction, b))
            x = [q - p for p, q in zip(fa, fb)]
            m = [(p + q) / 2 for p, q in zip(fa, fb)]
            length = exact_root(sum(t * t for t in x))
            normal, offset = [xi / length for xi in x], sum(s * t for s, t in zip(x, m)) / length
            got = [Fraction(g) for g in normal_got]
            sign = 1 if sum(g * e for g, e in zip(got, normal)) > 0 else -1
            for g, want in zip(got, normal):
                assert abs(g - sign * want) <= (spread * (1 + _R) - 1) * abs(want), (a, b)
            dot_miss = _gamma(5) * sum(abs(s * t) for s, t in zip(x, m))
            slack = dot_miss / length * spread + (spread - 1) * abs(offset)
            assert abs(Fraction(offset_got) - sign * offset) <= slack, (a, b)


def test_reflect_kernel_matches_exact_reference():
    # p - k n with k = 2 (fl(n . p) - offset) for the plane's stored floats n
    # and offset: the dot misses by gamma(3) sum |n_j p_j| and the difference
    # D = n . p - offset rounds once, so k misses K = 2 D by dk = 2 (gamma(3)
    # sum |n_j p_j| (1 + r) + r |D|); k n_i rounds once more, and so does
    # p_i - k n_i, r |R_i| of the exact image R.
    rng = np.random.default_rng(72)
    for pts in _kernel_points(rng):
        plane = Plane(rng.normal(size=3), float(rng.normal()) * 10.0 ** rng.uniform(-3.0, 6.0))
        n, offset = [Fraction(x) for x in plane.normal.tolist()], Fraction(plane.offset)
        for p in pts:
            got, fp = _reflect((plane._n, plane.offset), p), list(map(Fraction, p))
            d = sum(s * t for s, t in zip(n, fp)) - offset
            dk = 2 * (_gamma(3) * sum(abs(s * t) for s, t in zip(n, fp)) * (1 + _R) + _R * abs(d))
            for g, ni, pi in zip(got, n, fp):
                want = pi - 2 * d * ni
                slack = (1 + _R) * abs(ni) * (dk + _R * (2 * abs(d) + dk)) + _R * abs(want)
                assert abs(Fraction(g) - want) <= slack, (p, plane.normal, plane.offset)


def test_unit_matches_exact_reference():
    # _unit divides each float component by the length, which misses the exact
    # length by at most _LENGTH of it (a bound that also covers rounded
    # differences, which _unit's input does not have), and the division rounds
    # once: each component misses x_i / |x| by (1 + r) / (1 - _LENGTH) - 1 of it.
    # Lengths run from 1e-11 to 1e150, inside the floor and the overflow edge.
    # The worst miss here is 1.13 eps of its component.
    rng = np.random.default_rng(74)
    scales = 10.0 ** rng.uniform(-11.0, 150.0, size=(2000, 1))
    vectors = list(rng.normal(size=(2000, 3)) * scales) + zero_component_vectors(rng)
    spread = (1 + _R) / (1 - _LENGTH) - 1
    for v in vectors:
        got, x = _unit(v, "v"), [Fraction(c) for c in v.tolist()]
        length = exact_root(sum(c * c for c in x))
        for g, c in zip(got, x):
            assert abs(Fraction(g) - c / length) <= spread * abs(c) / length, v


def _exact_line(p: Plane, q: Plane):
    """The exact direction D = n1 x n2 of the planes' stored floats, and the point
    x = (o1 n2 x D + o2 D x n1) / |D|^2, which meets both planes and D . x = 0."""
    n1, n2 = [Fraction(c) for c in p._n], [Fraction(c) for c in q._n]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]

    d = cross(n1, n2)
    square, o1, o2 = sum(c * c for c in d), Fraction(p.offset), Fraction(q.offset)
    return d, [(o1 * a + o2 * b) / square for a, b in zip(cross(n2, d), cross(d, n1))]


def test_intersect_planes_matches_exact_reference():
    # To first order in r, for unit normals and the exact D of their floats:
    # each float d_i = n1_j n2_k - n1_k n2_j misses by gamma(2), so |d - D| <=
    # sqrt 3 gamma(2), 3.5 r.  Its part across D tilts the plane d . x = 0 that
    # picks the point off the line, which slides along it by 3.5 r |X| / |D|;
    # its part along D rescales d, which the point's formula ignores.  n2 x d
    # and d x n1 round the same way, 3.5 r |D| each, weighted |o_i| / |D|^2;
    # o1 u_i + o2 v_i rounds twice, 2 r (|o1| + |o2|) / |D|; |d|^2 and the
    # division 4 r |X|, and _line's foot 2 r |X|.  As |o_i| = |n_i . X| <= |X|
    # and |D| <= 1, the point misses X by 20.5 r |X| / |D| = 10.25 eps |X| / |D|.
    # The direction misses D / |D| by 3.5 r / |D| and its normalization by
    # 3.5 r: 3.5 eps / |D|.  The dihedral angles run from 3e-9 to 1 rad; the
    # worst misses here are 1.29 eps |X| / |D| and 0.65 eps / |D|.
    rng = np.random.default_rng(75)
    eps, tol = np.finfo(float).eps, Tolerance(1e-300, 1e-300)
    for i in range(1500):
        n1 = rng.normal(size=3)
        across = np.cross(n1, rng.normal(size=3))
        angle = 10.0 ** rng.uniform(math.log10(3e-9), 0.0)
        across *= np.linalg.norm(n1) / np.linalg.norm(across)
        n2 = math.cos(angle) * n1 + math.sin(angle) * across
        offsets = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        if i % 5 == 0:  # nearly equal offsets: |X| far below |o| / |D|, where the bound is tightest
            offsets[1] = offsets[0] * (1.0 + float(rng.normal()) * 10.0 ** rng.uniform(-12.0, -3.0))
        p, q = Plane(n1, float(offsets[0])), Plane(n2 * rng.uniform(0.5, 2.0), float(offsets[1]))
        line = intersect_planes(p, q, tol)
        d, x = _exact_line(p, q)
        size, point = exact_root(sum(c * c for c in d)), exact_root(sum(c * c for c in x))
        miss = exact_root(sum((Fraction(g) - c) ** 2 for g, c in zip(line.point.tolist(), x)))
        assert miss <= Fraction(10.25 * eps) * point / size, (p, q)
        sign = 1 if sum(Fraction(g) * c for g, c in zip(line.direction.tolist(), d)) > 0 else -1
        misses = (Fraction(g) - sign * c / size for g, c in zip(line.direction.tolist(), d))
        assert exact_root(sum(m * m for m in misses)) <= Fraction(3.5 * eps) / size, (p, q)


def test_intersect_planes_measures_a_direction_whose_square_is_subnormal():
    # Below |d|^2 = 2^-1022, d is scaled by _scaled's power of two s first, so d / s
    # is exact.  Here n1 is an axis, so d = n1 x n2 is exact, and to first order in
    # r: |d / s|^2 rounds three times and its root once more, 2.5 r in the length;
    # the division once, so |direction| is 1 within 3.5 r = 1.75 eps.  The crosses
    # of d / s round at most three times each, sqrt 2 gamma(3) |D / s| in norm;
    # o1 u + o2 v twice more, 2 r; s |d / s|^2 and the division at most 7 r, and
    # _line's foot 2 r, of |X| <= (|o1| + |o2|) / |D|: at most 15.25 r (|o1| + |o2|)
    # / |D|, 7.625 eps.
    # Unscaled, |d|^2 = 1e-320 kept 4 digits: the direction came out 1.0000056 long.
    rng = np.random.default_rng(76)
    eps, tol = np.finfo(float).eps, Tolerance(1e-300, 1e-300)
    cases = [(Plane((1.0, 0.0, 0.0), 1.0), Plane((1.0, 1e-160, 0.0), 3.0))]
    for _ in range(300):
        axis, tiny = np.zeros(3), rng.normal(size=3) * 10.0 ** rng.uniform(-290.0, -155.0)
        axis[i := int(rng.integers(0, 3))], tiny[i] = rng.choice((-1.0, 1.0)), 0.0
        offsets = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        cases.append((Plane(axis, float(offsets[0])), Plane(axis + tiny, float(offsets[1]))))
    for p, q in cases:
        line = intersect_planes(p, q, tol)
        d, x = _exact_line(p, q)
        size, point = exact_root(sum(c * c for c in d)), exact_root(sum(c * c for c in x))
        assert size * size < Fraction(2.0 ** -1022) and size > 0, (p, q)
        length = exact_root(sum(Fraction(g) ** 2 for g in line.direction.tolist()))
        assert abs(length - 1) <= Fraction(1.75 * eps), (p, q)
        miss = exact_root(sum((Fraction(g) - c) ** 2 for g, c in zip(line.point.tolist(), x)))
        assert miss <= Fraction(10.25 * eps) * point / size, (p, q)  # the bound of the test above
        offsets = abs(Fraction(p.offset)) + abs(Fraction(q.offset))
        assert miss <= Fraction(7.625 * eps) * offsets / size, (p, q)


def test_planes_and_lines_equal_measure_a_tiny_angle_without_underflow():
    # |n1 x n2| = 1e-170 squares to 0.0, so an angle test on the square root of
    # the squared length read these directions as parallel at any eps_angle
    eps, tol = np.finfo(float).eps, Tolerance(1e-300, 1e-300)
    p, q = Plane((1, 0, 0), 1.0), Plane((1, 1e-170, 0), 1.0)
    assert not planes_equal(p, q, tol) and planes_equal(p, q)
    got = rotation_from_plane_pair(p, q, tol)  # was Identity()
    assert isinstance(got, Rotation) and abs(got.angle - 2e-170) <= 4 * eps * 2e-170
    assert got.axis.direction.tolist() == [0.0, 0.0, 1.0]
    assert np.allclose(got.axis.point, (1.0, 0.0, 0.0), rtol=0.0, atol=4 * eps)
    a, b = Line3((0, 0, 0), (1, 0, 0)), Line3((0, 0, 0), (1, 1e-170, 0))
    assert not lines_equal(a, b, tol) and lines_equal(a, b)
    # the verdict turns at eps_angle on either side of the angle, as at unit scale
    c = Line3((0, 0, 0), (1, 1e-160, 0))
    assert not lines_equal(a, c, Tolerance(1e-300, 1e-161))
    assert lines_equal(a, c, Tolerance(1e-300, 1e-159))
    r = Plane((1, 1e-160, 0), 1.0)
    assert not planes_equal(p, r, Tolerance(1e-300, 1e-161))
    assert planes_equal(p, r, Tolerance(1e-300, 1e-159))


def _arrays(value) -> list:
    """The ndarrays in a value: itself, in a tuple, or in a record's fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    return []


_RECORD_MAKERS = {
    "Plane": lambda v: Plane(v((0, 0, 2)), 1.0),
    "Line3": lambda v: Line3(v((1, 2, 3)), v((0, 0, 2))),
    "PointTriple": lambda v: PointTriple(v((0, 0, 0)), v((1, 0, 0)), v((0, 1, 0))),
    "TriplePair": lambda v: TriplePair(
        PointTriple(v((0, 0, 0)), v((1, 0, 0)), v((0, 1, 0))),
        (v((5, 5, 5)), v((6, 5, 5)), v((5, 6, 5))),
    ),
    "AffineIsometry": lambda v: AffineIsometry(v(np.eye(3)), v((1, 2, 3))),
    "Translation": lambda v: Translation(v((1, 2, 3))),
    "Screw": lambda v: Screw(Line3(v((1, 2, 3)), v((0, 0, 1))), 0.5, v((0, 0, 2))),
    "GlideReflection": lambda v: GlideReflection(Plane(v((0, 0, 1)), 1.0), v((1, 0, 0))),
    "Inversion": lambda v: Inversion(v((1, 2, 3))),
    "RotaryReflection": lambda v: RotaryReflection(Plane(v((0, 0, 1)), 0.0), v((1, 2, 0)), 0.5),
}


@pytest.mark.parametrize("name", sorted(_RECORD_MAKERS))
def test_records_do_not_alias_the_callers_arrays(name):
    given = []

    def v(x):
        given.append(np.array(x, dtype=float))
        return given[-1]

    record = _RECORD_MAKERS[name](v)
    stored = _arrays(record)
    before = [a.tobytes() for a in stored]
    assert stored and not any(a.flags.writeable for a in stored)
    for a in given:
        assert a.flags.writeable
        a[...] = 7.0
    assert [a.tobytes() for a in stored] == before


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eps_len=0.0)
    with pytest.raises(ValueError):
        Tolerance(eps_angle=-1e-9)
    # an infinite eps_len would read every motion as the identity
    for bad in (np.inf, 1e400, np.nan):
        with pytest.raises(ValueError, match="^tolerances must be positive and finite$"):
            Tolerance(eps_len=bad)
        with pytest.raises(ValueError, match="^tolerances must be positive and finite$"):
            Tolerance(eps_angle=bad)
    assert Tolerance(1e300, 1e300).eps_len == 1e300
    tol = Tolerance()
    assert tol.eps_len == 1e-9 and tol.eps_angle == 1e-9


def test_stored_fields_are_read_only():
    plane = Plane((1, 0, 0), 1.0)
    with pytest.raises(ValueError):
        plane.normal[0] = 5.0
    line = Line3((0, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        line.direction[1] = 1.0


def _library_calls():
    """(file name, line, callee, call source) of every call in the library's
    geometry modules; cli.py and example.py build their values from external
    input, so they are not scanned."""
    root = pathlib.Path(trimirror.__file__).parent
    for name in ("geom.py", "motion.py", "classify.py", "construct.py"):
        tree = ast.parse((root / name).read_text(encoding="utf-8"))
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                yield name, n.lineno, ast.unparse(n.func), ast.unparse(n)


def test_library_builds_no_motion_or_identity_matrix_through_the_public_constructors():
    # AffineIsometry(...) converts and re-checks its parts and np.eye(3) builds
    # a fresh matrix each call; library code calls motion._isometry or motion._rigid
    # on the 12 floats it has just computed, and passes the identity's parts motion._ID.
    sites = [c[:3] for c in _library_calls() if c[2] in ("AffineIsometry", "np.eye", "numpy.eye")]
    assert not sites, f"calls {sites}"


def test_library_builds_no_value_or_record_through_the_public_constructors():
    # a public constructor re-reads and re-normalizes its floats; library code builds
    # planes with geom._plane, lines with geom._line, sequences with motion._sequence and
    # records with classify._record, on the floats its kernels have just computed
    values = ("Plane", "Line3", "PointTriple", "TriplePair", "ReflectionSequence", "Identity",
              "Translation", "Rotation", "Screw", "Reflection", "GlideReflection", "Inversion",
              "RotaryReflection")
    sites = [c[:3] for c in _library_calls() if c[2] in values]
    # numpy reads input and builds what callers read, in geom (_real, as_vec3, _fresh,
    # _vector, _matrix); motion imports it for annotations; no other module imports it
    importers = set()
    for path in pathlib.Path(trimirror.__file__).parent.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    extra = sorted(importers - {"geom.py", "motion.py"})
    assert not sites and not extra, f"calls {sites}; numpy imported by {extra}"


def test_library_builds_no_array_to_freeze_it_afterwards():
    # every stored array is built once from floats in hand, read-only from birth
    # (geom._vector and geom._matrix): no array is made only to be frozen in
    # place, as _frozen(np.array(...)) did, which setflags(write=True) undoes
    sites = [c[:2] + (c[3],) for c in _library_calls() if c[2] == "_frozen" or "setflags" in c[2]]
    assert not sites, f"calls {sites}"


def test_library_source_has_no_matmul_operator():
    # `@` costs a matmul dispatch on every 3-vector; the library forms its
    # products on floats (motion._compose and the written-out kernels)
    for path in sorted(pathlib.Path(trimirror.__file__).parent.glob("*.py")):
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        sites = [n.lineno for n in nodes if isinstance(getattr(n, "op", None), ast.MatMult)]
        assert not sites, f"{path.name} uses the @ operator on lines {sites}"


def test_library_source_leaves_vector_arithmetic_to_the_float_kernels():
    # every dot, cross product, length, solve and 3x3 product runs on Python
    # floats (geom._dot3 and _cross3, motion._compose), so no output depends on
    # numpy's build and no overflow needs numpy's warnings silenced; numpy only
    # reads input arrays, builds stored ones and does elementwise arithmetic
    banned = ("np.linalg", "np.cross", "np.vstack", "np.errstate", "np.finfo")
    for path in sorted(pathlib.Path(trimirror.__file__).parent.glob("*.py")):
        sites = []
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "dot":
                sites.append((n.lineno, ast.unparse(n.func)))
            elif isinstance(n, ast.Attribute) and ast.unparse(n).replace("numpy.", "np.") in banned:
                sites.append((n.lineno, ast.unparse(n)))
        assert not sites, f"{path.name} uses numpy's vector arithmetic at {sites}"
