import dataclasses

import numpy as np
import pytest

from trimirror import (
    AffineIsometry,
    GlideReflection,
    Inversion,
    Line3,
    Plane,
    PointTriple,
    RotaryReflection,
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
    vec3,
)
from trimirror.errors import CoincidentPoints, CollinearPoints, ParallelPlanes
from trimirror.geom import _canonical_sign, _cross, _norm

from oracle import plane_bytes

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


def test_plane_and_line_reject_overflowing_lengths():
    # the squared length overflows in numpy (with its warning), and the unit
    # normal or direction would come out as (0, 0, 0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="^plane normal must have a nonzero, finite length$"):
            Plane((1e155, 0.0, 0.0), 1.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="^line direction must have a nonzero, finite"):
            Line3((0.0, 0.0, 0.0), (1e200, 0.0, -1e200))


def test_plane_and_line_bytes_match_reference_up_to_the_overflow_edge():
    # the constructors as written before the overflow check, with numpy's norm
    rng = np.random.default_rng(12)
    vectors = [np.array([1.3e154, 0.0, 0.0]), np.array([-7e153, 7e153, 7e153])]
    vectors += list(rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-6.0, 153.0, size=(2000, 1)))
    for v in vectors:
        offset, point = float(rng.normal()) * 1e3, rng.normal(size=3) * 1e3
        length = np.linalg.norm(v)
        sign = _canonical_sign(v / length)
        plane = Plane(v, offset)
        assert plane.normal.tobytes() == (sign * v / length + 0.0).tobytes()
        assert plane.offset == sign * (offset / length) + 0.0
        line = Line3(point, v)
        d = sign * (v / length) + 0.0
        assert line.direction.tobytes() == d.tobytes()
        assert line.point.tobytes() == (point - (point @ d) * d + 0.0).tobytes()


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
    ],
    ids=["nan", "inf", "-inf", "shape2"],
)
def test_public_entry_points_reject_bad_points(name, bad, message):
    count, call = _POINT_ENTRY_POINTS[name]
    for slot in range(count):
        points = list(_GOOD_POINTS[:count])
        points[slot] = bad
        with pytest.raises(ValueError, match=message):
            call(points)


def test_point_functions_match_reference_formulas_bit_for_bit():
    # The formulas as written before validation moved in front of private
    # kernels, with numpy's cross and norm (pinned equal to _cross and _norm
    # below); the construct path's planes are built from these functions.
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
        ab, ac, bc = b - a, c - a, c - b
        n = np.cross(ab, ac)
        thin = np.linalg.norm(n) <= 2.0 * tol.eps_len * max(np.linalg.norm(e) for e in (ab, ac, bc))
        assert collinear(a, b, c, tol) == thin
        same = np.linalg.norm(a - b) <= tol.eps_len
        assert points_coincide(a, b, tol) == same
        verdicts.add((bool(thin), bool(same)))
        if not same:
            want = Plane(ab, float(ab @ (0.5 * (a + b))))
            assert plane_bytes(perpendicular_bisector_plane(a, b, tol)) == plane_bytes(want)
        if not thin:
            plane = Plane(n, float(n @ a))
            assert plane_bytes(plane_through_points(a, b, c, tol)) == plane_bytes(plane)
            image = c - 2.0 * (float(plane.normal @ c) - plane.offset) * plane.normal
            assert reflect_point(plane, c).tobytes() == image.tobytes()
    assert verdicts == {(False, False), (True, False), (True, True)}


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
    tol = Tolerance()
    assert tol.eps_len == 1e-9 and tol.eps_angle == 1e-9


def test_stored_fields_are_read_only():
    plane = Plane((1, 0, 0), 1.0)
    with pytest.raises(ValueError):
        plane.normal[0] = 5.0
    line = Line3((0, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        line.direction[1] = 1.0


def test_cross_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(8)
    n = 20000
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 2, 1))
    a = rng.normal(size=(n, 3)) * scales[:, 0]
    b = rng.normal(size=(n, 3)) * scales[:, 1]
    a[::37, 1] = 0.0
    b[::53, 2] = -0.0
    got = np.array([_cross(x, y) for x, y in zip(a, b)])
    assert got.tobytes() == np.cross(a, b).tobytes()


def test_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(9)
    n = 20001
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 1))
    v[0] = 0.0
    v[::41, 2] = -0.0
    got = np.array([_norm(x) for x in v])
    assert got.tobytes() == np.array([np.linalg.norm(x) for x in v]).tobytes()
    # strided column views, as _mgs passes them
    columns = [q[:, j] for q in v.reshape(-1, 3, 3) for j in range(3)]
    got = np.array([_norm(c) for c in columns])
    assert got.tobytes() == np.array([np.linalg.norm(c) for c in columns]).tobytes()
