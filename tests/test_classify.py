import contextlib

import numpy as np
import pytest

from trimirror import (
    AffineIsometry,
    GlideReflection,
    Identity,
    Inversion,
    Line3,
    Plane,
    Reflection,
    Rotation,
    RotaryReflection,
    Screw,
    Tolerance,
    Translation,
    apply,
    classify,
    classify_fixed_point,
    find_probe,
    identity,
    iso_equal,
    lines_equal,
    plane_reflection,
    planes_equal,
    reconstruct,
    rotation_about_axis,
    rotation_from_plane_pair,
    split_translation,
    then,
    translation,
    vec3,
)
from trimirror.errors import (
    InvalidClassParameters,
    NotAFixedPoint,
    ParallelDistinctMirrors,
    ProbeExhausted,
)
from trimirror.classify import _linear_kernel, _relocate_axis
from trimirror.example import make_f, make_g, make_h, make_k

import oracle

THETA = 0.9363243808091234  # rotation angle of the composite's linear part
COS_THETA = (-4 + 2 * np.sqrt(2) + 2 * np.sqrt(3) + np.sqrt(6)) / 8


def _rotary_motion(mirror: Plane, center, angle: float) -> AffineIsometry:
    turn = rotation_about_axis(center, mirror.normal, angle)
    return then(plane_reflection(mirror), turn)


def test_fixed_point_identity():
    assert isinstance(classify_fixed_point(identity(), (3, -1, 2)), Identity)


def test_fixed_point_rotation_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        c = oracle.random_point(rng)
        d = oracle.random_unit(rng)
        angle = oracle.random_angle(rng)
        got = classify_fixed_point(rotation_about_axis(c, d, angle), c)
        assert isinstance(got, Rotation)
        axis = Line3(c, d)
        flip = 1.0 if float(axis.direction @ d) > 0.0 else -1.0
        assert oracle.records_match(got, Rotation(axis=axis, angle=flip * angle), 1e-8)
        assert got.axis.distance_to(c) <= 1e-9


def test_fixed_point_rotation_part_of_composite():
    got = classify_fixed_point(make_k(), (0, 0, 0))
    assert isinstance(got, Rotation)
    n = vec3(-1 - np.sqrt(2), 1.0, 2 + np.sqrt(3))
    n = n / np.linalg.norm(n)
    assert np.linalg.norm(np.cross(got.axis.direction, n)) <= 1e-9
    assert got.axis.distance_to((0, 0, 0)) <= 1e-9
    assert np.cos(got.angle) == pytest.approx(COS_THETA, abs=1e-12)
    # the canonical axis direction flips n, so the signed angle is positive
    assert got.angle == pytest.approx(THETA, abs=1e-12)


def test_fixed_point_reflection():
    rng = np.random.default_rng(42)
    for _ in range(100):
        c = oracle.random_point(rng)
        n = oracle.random_unit(rng)
        mirror = Plane(n, float(n @ c))
        got = classify_fixed_point(plane_reflection(mirror), c)
        assert isinstance(got, Reflection)
        assert oracle.planes_close(got.mirror, mirror, 1e-9)


def test_fixed_point_inversion():
    c = vec3(2, -1, 3)
    motion = AffineIsometry(-np.eye(3), 2.0 * c)
    got = classify_fixed_point(motion, c)
    assert isinstance(got, Inversion)
    assert np.linalg.norm(got.center - c) <= 1e-12


def test_fixed_point_rotary_quarter_turn():
    motion = AffineIsometry(
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]), np.zeros(3)
    )
    got = classify_fixed_point(motion, (0, 0, 0))
    assert isinstance(got, RotaryReflection)
    assert planes_equal(got.mirror, Plane((0, 0, 1), 0.0))
    assert np.linalg.norm(got.center) <= 1e-12
    assert got.angle == pytest.approx(np.pi / 2, abs=1e-12)


def test_fixed_point_rotary_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        c = oracle.random_point(rng)
        n = oracle.random_unit(rng)
        mirror = Plane(n, float(n @ c))
        angle = oracle.random_angle(rng, lo=1e-2)
        # _rotary_motion turns about the stored (canonical) normal, so the
        # reported angle matches the built one with no sign adjustment
        got = classify_fixed_point(_rotary_motion(mirror, c, angle), c)
        assert isinstance(got, RotaryReflection)
        expected = RotaryReflection(mirror=mirror, center=c, angle=angle)
        assert oracle.records_match(got, expected, 1e-8)


def test_fixed_point_requires_fixed_point():
    with pytest.raises(NotAFixedPoint):
        classify_fixed_point(translation((1, 0, 0)), (0, 0, 0))


def test_fixed_point_tiny_rotation_collapses_to_identity():
    motion = rotation_about_axis((0, 0, 0), (0, 0, 1), 1e-10)
    assert isinstance(classify_fixed_point(motion, (0, 0, 0)), Identity)


def test_fixed_point_near_half_turn_rotary_collapses_to_inversion():
    motion = _rotary_motion(Plane((0, 0, 1), 0.0), (0, 0, 0), np.pi - 1e-10)
    got = classify_fixed_point(motion, (0, 0, 0))
    assert isinstance(got, Inversion)
    assert np.linalg.norm(got.center) <= 1e-9


def test_fixed_point_tiny_rotary_angle_collapses_to_reflection():
    motion = _rotary_motion(Plane((0, 0, 1), 0.0), (0, 0, 0), 1e-10)
    got = classify_fixed_point(motion, (0, 0, 0))
    assert isinstance(got, Reflection)
    assert oracle.planes_close(got.mirror, Plane((0, 0, 1), 0.0), 1e-8)


def test_find_probe_witness_fields():
    motion = rotation_about_axis((0, 0, 0), (0, 0, 1), 0.7)
    w = find_probe(motion, (0, 0, 0))
    assert w.case_tag == "generic"
    assert np.allclose(w.b, apply(motion, w.a), atol=1e-15)
    assert np.allclose(w.b_prime, apply(motion, w.b), atol=1e-15)
    half = rotation_about_axis((0, 0, 0), (0, 0, 1), np.pi)
    assert find_probe(half, (0, 0, 0)).case_tag == "half-turn"


def test_find_probe_exhausts_on_identity():
    with pytest.raises(ProbeExhausted):
        find_probe(identity(), (0, 0, 0))


def test_plane_pair_coincident_mirrors_cancel():
    a = Plane((1, 2, 3), 0.5)
    b = Plane((-1, -2, -3), -0.5)
    assert isinstance(rotation_from_plane_pair(a, b), Identity)


def test_plane_pair_parallel_distinct_rejected():
    with pytest.raises(ParallelDistinctMirrors):
        rotation_from_plane_pair(Plane((0, 0, 1), 0.0), Plane((0, 0, 1), 1.0))


def test_plane_pair_perpendicular_gives_half_turn():
    got = rotation_from_plane_pair(Plane((1, 0, 0), 0.0), Plane((0, 1, 0), 0.0))
    assert isinstance(got, Rotation)
    assert lines_equal(got.axis, Line3((0, 0, 0), (0, 0, 1)))
    assert abs(got.angle) == pytest.approx(np.pi, abs=1e-12)


def test_plane_pair_doubles_the_dihedral():
    rng = np.random.default_rng(44)
    for _ in range(200):
        point = oracle.random_point(rng)
        n1, n2 = oracle.random_unit(rng), oracle.random_unit(rng)
        if np.linalg.norm(np.cross(n1, n2)) < 1e-3:
            continue
        alpha = Plane(n1, float(n1 @ point))
        beta = Plane(n2, float(n2 @ point))
        got = rotation_from_plane_pair(alpha, beta)
        assert isinstance(got, Rotation)
        composite = then(plane_reflection(alpha), plane_reflection(beta))
        assert iso_equal(reconstruct(got), composite, Tolerance(1e-9, 1e-9))
        assert float(np.trace(composite.linear)) == pytest.approx(
            1.0 + 2.0 * np.cos(got.angle), abs=1e-9
        )


def test_split_translation_axes_planes_vectors():
    rng = np.random.default_rng(45)
    for _ in range(100):
        u = oracle.random_point(rng)
        for splitter in (oracle.random_line(rng), oracle.random_plane(rng), oracle.random_unit(rng)):
            n, v = split_translation(u, splitter)
            assert np.linalg.norm((n + v) - u) <= 1e-15 * max(1.0, np.linalg.norm(u))
            d = (
                splitter.direction
                if isinstance(splitter, Line3)
                else splitter.normal if isinstance(splitter, Plane) else splitter
            )
            assert np.linalg.norm(np.cross(n, d)) <= 1e-12 * max(1.0, np.linalg.norm(u))
            assert abs(float(v @ d)) <= 1e-12 * max(1.0, np.linalg.norm(u) ** 2)


def test_split_translation_rejects_zero_direction():
    with pytest.raises(ValueError):
        split_translation((1, 2, 3), (0, 0, 0))


def test_classify_identity_and_translation():
    assert isinstance(classify(identity()), Identity)
    got = classify(translation((3, -2, 5)))
    assert isinstance(got, Translation)
    assert np.allclose(got.v, (3, -2, 5), atol=1e-15)


def test_classify_first_factor_is_a_pure_rotation():
    # the appended translation is perpendicular to the rotation axis, so it
    # shifts the axis sideways instead of adding a slide
    got = classify(make_f())
    assert isinstance(got, Rotation)
    d = vec3(1, -1, 0) / np.sqrt(2)
    assert np.linalg.norm(np.cross(got.axis.direction, d)) <= 1e-12
    assert got.angle == pytest.approx(np.pi / 6, abs=1e-12)
    for s in (-1.0, 0.0, 2.0):
        x = got.axis.point + s * got.axis.direction
        assert np.linalg.norm(apply(make_f(), x) - x) <= 1e-9


def test_classify_second_factor_is_a_unit_pitch_screw():
    got = classify(make_g())
    assert isinstance(got, Screw)
    assert lines_equal(got.axis, Line3((0, 0, 0), (0, 0, 1)))
    assert abs(got.angle) == pytest.approx(np.pi / 4, abs=1e-12)
    # the turn is clockwise seen from +z, so the signed angle is negative
    assert got.angle == pytest.approx(-np.pi / 4, abs=1e-12)
    assert np.allclose(got.slide, (0, 0, 1), atol=1e-12)


def test_classify_composite_is_a_screw():
    got = classify(make_h())
    assert isinstance(got, Screw)
    assert got.angle == pytest.approx(THETA, abs=1e-12)
    assert np.allclose(got.slide, (-0.539178, 0.223335, 0.833496), atol=5e-6)
    # axis points travel by exactly the slide
    for s in (-2.0, 0.0, 3.0):
        x = got.axis.point + s * got.axis.direction
        assert np.linalg.norm(apply(make_h(), x) - x - got.slide) <= 1e-9


def test_classify_glide_reflection():
    motion = then(plane_reflection(Plane((0, 0, 1), 0.0)), translation((3, 4, 7)))
    got = classify(motion)
    assert isinstance(got, GlideReflection)
    assert planes_equal(got.mirror, Plane((0, 0, 1), 3.5))
    assert np.allclose(got.slide, (3, 4, 0), atol=1e-12)


def test_classify_offset_inversion():
    motion = then(AffineIsometry(-np.eye(3), np.zeros(3)), translation((2, 4, -6)))
    got = classify(motion)
    assert isinstance(got, Inversion)
    assert np.allclose(got.center, (1, 2, -3), atol=1e-12)


def test_classify_offset_rotary_reflection():
    c = vec3(1.5, -2.0, 0.5)
    mirror = Plane((0, 0, 1), float(c[2]))
    motion = _rotary_motion(mirror, c, 0.9)
    got = classify(motion)
    assert isinstance(got, RotaryReflection)
    assert oracle.records_match(got, RotaryReflection(mirror=mirror, center=c, angle=0.9), 1e-9)


def test_classify_pure_reflection_stays_put():
    mirror = Plane((1, 1, 1), 2.0)
    got = classify(plane_reflection(mirror))
    assert isinstance(got, Reflection)
    assert oracle.planes_close(got.mirror, mirror, 1e-12)


def test_reconstruct_validates_records():
    z_axis = Line3((0, 0, 0), (0, 0, 1))
    z_plane = Plane((0, 0, 1), 0.0)
    cases = [
        Translation(v=(0.0, 0.0, 0.0)),
        Rotation(axis=z_axis, angle=0.0),
        Rotation(axis=z_axis, angle=np.inf),
        Screw(axis=z_axis, angle=1.0, slide=(1.0, 0.0, 0.0)),
        Screw(axis=z_axis, angle=0.0, slide=(0.0, 0.0, 1.0)),
        Screw(axis=z_axis, angle=1.0, slide=(0.0, 0.0, 0.0)),
        GlideReflection(mirror=z_plane, slide=(0.0, 0.0, 1.0)),
        GlideReflection(mirror=z_plane, slide=(0.0, 0.0, 0.0)),
        RotaryReflection(mirror=z_plane, center=(0.0, 0.0, 1.0), angle=1.0),
        RotaryReflection(mirror=z_plane, center=(0.0, 0.0, 0.0), angle=np.pi),
        RotaryReflection(mirror=z_plane, center=(0.0, 0.0, 0.0), angle=0.0),
    ]
    for record in cases:
        with pytest.raises(InvalidClassParameters):
            reconstruct(record)


def test_round_trip_all_variants():
    rng = np.random.default_rng(46)
    for variant in oracle.ALL_VARIANTS:
        for _ in range(25):
            record = oracle.random_record(rng, variant)
            again = classify(reconstruct(record))
            assert oracle.records_match(record, again, 1e-9), (variant, record, again)


def test_round_trip_random_motions():
    rng = np.random.default_rng(47)
    for _ in range(200):
        motion = oracle.random_motion(rng)
        rebuilt = reconstruct(classify(motion))
        assert iso_equal(motion, rebuilt, Tolerance(1e-8, 1e-8))


def test_agrees_with_spectral_oracle_sample():
    rng = np.random.default_rng(48)
    for _ in range(200):
        motion = oracle.random_motion(rng)
        assert oracle.records_match(classify(motion), oracle.spectral_classify(motion), 1e-8)


def test_proper_and_improper_never_mix():
    rng = np.random.default_rng(49)
    proper = (Identity, Translation, Rotation, Screw)
    improper = (Reflection, GlideReflection, Inversion, RotaryReflection)
    for _ in range(200):
        mirrors = int(rng.integers(0, 5))
        motion = oracle.random_motion(rng, mirrors=mirrors)
        got = classify(motion)
        expected = proper if mirrors % 2 == 0 else improper
        assert isinstance(got, expected)


def test_reconstruct_matches_composed_factors():
    # reconstruct builds one AffineIsometry from the composed linear part and
    # translation; the factor-by-factor composition must agree
    rng = np.random.default_rng(50)
    for variant in ("screw", "glide_reflection", "rotary_reflection"):
        for _ in range(100):
            record = oracle.random_record(rng, variant)
            got, want = reconstruct(record), oracle.record_motion(record)
            assert np.max(np.abs(got.linear - want.linear)) <= 1e-15, record
            assert np.max(np.abs(got.translation - want.translation)) <= 1e-15, record


def _fixed_point_motion(rng, kind, c):
    """A seeded motion of class `kind` that fixes c."""
    n = oracle.random_unit(rng)
    mirror = Plane(n, float(n @ c))
    if kind is Identity:
        return identity()
    if kind is Rotation:
        return rotation_about_axis(c, n, oracle.random_angle(rng))
    if kind is Reflection:
        return plane_reflection(mirror)
    if kind is Inversion:
        return AffineIsometry(-np.eye(3), 2.0 * c)
    return _rotary_motion(mirror, c, oracle.random_angle(rng, lo=1e-2))


def test_fixed_point_kernel_agrees_with_probe_walk():
    rng = np.random.default_rng(51)
    for kind in (Identity, Rotation, Reflection, Inversion, RotaryReflection):
        for _ in range(40):
            c = oracle.random_point(rng, 20.0)
            while float(np.linalg.norm(c)) < 2.0:
                c = oracle.random_point(rng, 20.0)
            motion = _fixed_point_motion(rng, kind, c)
            got = classify_fixed_point(motion, c)
            want = oracle.probe_classify_fixed_point(motion, c)
            assert isinstance(got, kind), got
            assert oracle.records_match(got, want, 1e-8), (got, want)


def test_far_mirror_is_a_reflection_not_a_glide():
    rng = np.random.default_rng(52)
    for _ in range(500):
        mirror = Plane(oracle.random_unit(rng), 1e6)
        got = classify(plane_reflection(mirror))
        assert isinstance(got, Reflection), got
        assert oracle.planes_close(got.mirror, mirror, 1e-8)


@pytest.mark.parametrize("angle", [np.pi, np.pi - 1e-7, -(np.pi - 1e-10)])
def test_half_turn_screw_axis_direction(angle):
    # the skew vector vanishes at a half turn, so the axis must come from the
    # symmetric part of the linear part
    rng = np.random.default_rng(53)
    for _ in range(200):
        axis = oracle.random_line(rng)
        record = Screw(axis=axis, angle=angle, slide=0.7 * np.asarray(axis.direction))
        got = classify(reconstruct(record))
        assert isinstance(got, Screw), got
        assert np.linalg.norm(np.cross(got.axis.direction, axis.direction)) <= 1e-12


# Rotation angles at the kernel's seams: zero, the eps_angle = 1e-9 collapse
# (angles kept 1 % away from it, where rounding cannot decide the class),
# the half turn, and generic angles.
_SEAM_ANGLES = (
    0.0, 1e-7, -1e-7, 1e-10, -1e-10, 0.99e-9, 1.01e-9, -1.2e-9, 2e-9,
    np.pi, np.pi - 1e-7, -(np.pi - 1e-7), np.pi - 1e-10, -(np.pi - 1e-10),
    0.4, -1.3, 2.2, -2.9,
)


def _seam_linear_parts(rng):
    """Seeded orthogonal matrices at every seam angle, proper and improper.

    For a rotation r by angle a about d: r itself; -r, a rotary reflection
    by a - pi (near an inversion for a near 0, near a reflection for a near
    pi); and r times the reflection across d, a rotary reflection by a.
    Angles near 1e-9 put the columns of r - I and -r + I within and just
    beyond eps_len.
    """
    for angle in _SEAM_ANGLES:
        for _ in range(30):
            d = oracle.random_unit(rng)
            r, _ = oracle.numpy_rotation_parts((0.0, 0.0, 0.0), d, angle)
            yield r
            yield -r
            yield r @ (np.eye(3) - 2.0 * np.outer(d, d))


def test_linear_kernel_matches_numpy_reference_at_seams():
    rng = np.random.default_rng(54)
    tol = Tolerance()
    seen = set()
    for linear in _seam_linear_parts(rng):
        kind, direction, angle = _linear_kernel(linear.tolist(), tol)
        want_kind, want_direction, want_angle = oracle.numpy_linear_kernel(linear, tol)
        assert kind is want_kind, (linear, kind, want_kind)
        seen.add(kind)
        if want_direction is None:
            assert direction is None
            continue
        assert np.max(np.abs(direction - want_direction)) <= 1e-14, linear
        # at an exact half turn the angle may read +pi or -pi, the same turn
        assert oracle.angles_close(angle, want_angle, 1e-14), (linear, angle, want_angle)
    assert seen == {Identity, Rotation, Reflection, Inversion, RotaryReflection}


def test_relocate_axis_matches_numpy_reference():
    # the 2x2 system has determinant 4 sin^2(angle / 2), so rounding moves the
    # solution by a few eps * |v| / det; Cramer and numpy's LU differ by that
    rng = np.random.default_rng(55)
    tol = Tolerance()
    eps = np.finfo(float).eps
    for linear in _seam_linear_parts(rng):
        kind, direction, angle = _linear_kernel(linear.tolist(), tol)
        if kind is not Rotation:
            continue
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)
        v = v - (v @ direction) * direction
        got = _relocate_axis(linear.tolist(), v, direction)
        want = oracle.numpy_relocate_axis(linear, v, direction)
        det = 4.0 * np.sin(angle / 2.0) ** 2
        assert np.max(np.abs(got - want)) <= 16.0 * eps * np.linalg.norm(v) / det, linear


def test_relocate_axis_raises_like_a_singular_solve():
    d = np.array([0.0, 0.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _relocate_axis(np.eye(3).tolist(), d, d)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        oracle.numpy_relocate_axis(np.eye(3), d, d)


def test_seam_round_trips_raise_nothing_unexpected():
    # classify and reconstruct on the seam matrices with seeded translations:
    # the float kernels must not leak ZeroDivisionError or OverflowError.
    # reconstruct may refuse an ill-conditioned near-seam record (ROADMAP
    # item 3), as it did before the kernels moved to floats.
    rng = np.random.default_rng(56)
    for linear in _seam_linear_parts(rng):
        for scale in (1.0, 1e3, 1e6):
            record = classify(AffineIsometry(linear, rng.normal(size=3) * scale))
            with contextlib.suppress(InvalidClassParameters):
                reconstruct(record)
