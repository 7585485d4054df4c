import numpy as np
import pytest

from trimirror import (
    Rotation,
    Screw,
    apply,
    classify,
    classify_fixed_point,
    identity,
    iso_equal,
    translation,
)
from trimirror.example import (
    ANCHOR,
    CENTER,
    DEFAULT_ITERATES,
    analyze,
    iterate,
    make_f,
    make_g,
    make_h,
    make_k,
)

# Closed radical forms of the anchor's orbit under the rotation part.
B_EX = np.array([np.sqrt(6) / 2 + np.sqrt(2), np.sqrt(6) / 2, 1 - np.sqrt(3)])
BP_EX = np.array(
    [
        (7 - np.sqrt(2) + 2 * np.sqrt(3) + np.sqrt(6)) / 4,
        (-1 - np.sqrt(2) - 2 * np.sqrt(3) + np.sqrt(6)) / 4,
        (-6 + 2 * np.sqrt(3) + np.sqrt(6)) / 4,
    ]
)
N_EX = np.array([-1 - np.sqrt(2), 1.0, 2 + np.sqrt(3)])
COS_THETA = (-4 + 2 * np.sqrt(2) + 2 * np.sqrt(3) + np.sqrt(6)) / 8
THETA = 0.9363243808091234
P_EX = np.array([0.7134339075145071, 0.7134339075145069, 1.5124720131911649])


@pytest.fixture(scope="module")
def report():
    return analyze()


def test_orbit_points(report):
    assert np.linalg.norm(report.b - B_EX) <= 1e-9
    assert np.linalg.norm(report.b_prime - BP_EX) <= 1e-9


def test_axis_direction(report):
    unit = N_EX / np.linalg.norm(N_EX)
    assert np.linalg.norm(np.cross(report.n_direction, unit)) <= 1e-9
    assert report.axis_k.distance_to(CENTER) <= 1e-9


def test_angle(report):
    assert np.cos(report.theta) == pytest.approx(COS_THETA, abs=1e-12)
    assert report.theta == pytest.approx(0.936324, abs=5e-6)
    assert report.theta == pytest.approx(THETA, abs=1e-12)


def test_screw_split(report):
    assert np.allclose(report.m, (-0.539178, 0.223335, 0.833496), atol=5e-6)
    assert np.allclose(report.residual, (1.25261, 0.490099, 0.678976), atol=5e-6)
    assert report.residual_dot_n() <= 1e-9
    assert np.linalg.norm(report.m + report.residual - report.p) <= 1e-12


def test_translation_image(report):
    assert np.linalg.norm(report.p - P_EX) <= 1e-12
    assert np.allclose(report.p, (0.713432, 0.713434, 1.512472), atol=5e-6)
    assert np.allclose(report.p, apply(make_h(), CENTER), atol=1e-15)


def test_bisector_normals(report):
    assert np.allclose(report.bisector_normal_ab, (1.29261, -0.611424, 1.0), atol=5e-6)
    assert np.allclose(report.bisector_normal_bb_prime, (0.332024, -2.93047, 1.0), atol=5e-6)


def test_screw_axis_defining_property(report):
    h = make_h()
    axis = report.screw_axis_h
    for s in (-3.0, 0.0, 1.0, 4.0):
        x = axis.point + s * axis.direction
        assert np.linalg.norm(apply(h, x) - x - report.m) <= 1e-8
    # parallel to the rotation axis recovered from the bisector pair
    assert np.linalg.norm(np.cross(axis.direction, report.axis_k.direction)) <= 1e-9


def test_angle_relations(report):
    # the reported normals are the successive chord directions, so both the
    # chord angle and the angle between the two bisector planes equal the
    # full rotation angle
    n1 = report.bisector_normal_ab / np.linalg.norm(report.bisector_normal_ab)
    n2 = report.bisector_normal_bb_prime / np.linalg.norm(report.bisector_normal_bb_prime)
    between_planes = np.arccos(abs(float(n1 @ n2)))
    assert between_planes == pytest.approx(report.theta, abs=1e-9)

    u = report.b - ANCHOR
    v = report.b_prime - report.b
    chord = np.arccos(float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    assert chord == pytest.approx(report.theta, abs=1e-9)

    # the half-angle form of the mirror-pair law applies to the pair whose
    # second mirror bisects the image of B (namely A) against B'
    from trimirror import perpendicular_bisector_plane

    alpha = perpendicular_bisector_plane(ANCHOR, report.b)
    beta = perpendicular_bisector_plane(ANCHOR, report.b_prime)
    half = np.arccos(abs(float(alpha.normal @ beta.normal)))
    assert 2.0 * half == pytest.approx(report.theta, abs=1e-9)


def test_factor_classifications():
    f_class = classify(make_f())
    assert isinstance(f_class, Rotation)
    assert f_class.angle == pytest.approx(np.pi / 6, abs=1e-12)

    g_class = classify(make_g())
    assert isinstance(g_class, Screw)
    assert abs(g_class.angle) == pytest.approx(np.pi / 4, abs=1e-12)
    assert np.allclose(g_class.slide, (0, 0, 1), atol=1e-12)

    h_class = classify(make_h())
    assert isinstance(h_class, Screw)


def test_composite_agrees_with_report(report):
    h_class = classify(make_h())
    assert np.allclose(h_class.slide, report.m, atol=1e-9)
    assert abs(h_class.angle) == pytest.approx(report.theta, abs=1e-12)
    k_class = classify_fixed_point(make_k(), CENTER)
    assert isinstance(k_class, Rotation)
    assert abs(k_class.angle) == pytest.approx(report.theta, abs=1e-15)


def test_iterate_basics():
    pts = iterate(make_g(), (1, 0, 0), 0)
    assert len(pts) == 1 and np.allclose(pts[0], (1, 0, 0))
    pts = iterate(identity(), (1, 2, 3), 5)
    assert len(pts) == 6
    for p in pts:
        assert np.allclose(p, (1, 2, 3), atol=1e-15)
    with pytest.raises(ValueError):
        iterate(make_g(), (1, 0, 0), -1)
    assert DEFAULT_ITERATES == 12


def test_iterate_refuses_an_orbit_point_beyond_the_float_range():
    # 1e308 + 1e308 overflows to inf on the first application, silently on floats
    with pytest.raises(ValueError, match="vector components must be finite"):
        iterate(translation((1e308, 0, 0)), (1e308, 1e308, 0), 1)


def test_iterate_screw_orbit():
    # the unit-pitch screw climbs one unit per step and hugs the unit cylinder
    pts = iterate(make_g(), (1, 0, 0), 8)
    for i, p in enumerate(pts):
        assert p[2] == pytest.approx(float(i), abs=1e-12)
        assert np.hypot(p[0], p[1]) == pytest.approx(1.0, abs=1e-9)
    # eighth application of the eighth-turn screw is a pure climb
    assert np.allclose(pts[8], (1, 0, 8), atol=1e-9)


def test_iterate_rotation_orbit_stays_on_cylinder():
    f = make_f()
    f_class = classify(f)
    axis = f_class.axis
    pts = iterate(f, ANCHOR, 12)
    r0 = axis.distance_to(ANCHOR)
    for p in pts:
        assert axis.distance_to(p) == pytest.approx(r0, abs=1e-9)


def test_anchor_constant():
    assert np.allclose(ANCHOR, (1, 2, -2))
    assert np.allclose(CENTER, (0, 0, 0))
    assert np.linalg.norm(apply(make_k(), ANCHOR) - B_EX) <= 1e-9
