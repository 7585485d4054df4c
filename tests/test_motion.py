import numpy as np
import pytest

from trimirror import (
    PROBE_POINTS,
    AffineIsometry,
    OrientationParity,
    Plane,
    ReflectionSequence,
    Tolerance,
    apply,
    identity,
    iso_equal,
    orientation,
    plane_reflection,
    rotation_about_axis,
    rotation_about_line,
    seq_to_affine,
    then,
    translation,
    vec3,
)
from trimirror.example import make_f, make_g, make_h
from trimirror.geom import Line3, coplanar
from trimirror.motion import _rotation_parts

import oracle

A_EX = vec3(1.0, 2.0, -2.0)
B_EX = vec3(np.sqrt(6) / 2 + np.sqrt(2), np.sqrt(6) / 2, 1 - np.sqrt(3))
BP_EX = vec3(
    (7 - np.sqrt(2) + 2 * np.sqrt(3) + np.sqrt(6)) / 4,
    (-1 - np.sqrt(2) - 2 * np.sqrt(3) + np.sqrt(6)) / 4,
    (-6 + 2 * np.sqrt(3) + np.sqrt(6)) / 4,
)
# image of the origin under the screw composite, frozen from an
# independent double-precision evaluation of the two factor maps
P_EX = vec3(0.7134339075145071, 0.7134339075145069, 1.5124720131911649)


def _random_affine(rng):
    planes = [
        Plane(rng.normal(size=3), float(rng.uniform(-3, 3)))
        for _ in range(int(rng.integers(0, 5)))
    ]
    out = translation(rng.uniform(-3, 3, 3))
    for plane in planes:
        out = then(out, plane_reflection(plane))
    return out


def test_apply_empty_sequence_is_identity():
    seq = ReflectionSequence(())
    p = vec3(3, -1, 4)
    assert np.array_equal(apply(seq, p), p)
    assert orientation(seq) is OrientationParity.PROPER


def test_apply_single_plane():
    seq = ReflectionSequence((Plane((1, 0, 0), 1.0),))
    assert np.allclose(apply(seq, (0, 2, 3)), (2, 2, 3))
    assert orientation(seq) is OrientationParity.IMPROPER


def test_linear_part_of_screw_maps_orbit_points():
    h = make_h()
    k = AffineIsometry(h.linear, np.zeros(3))
    assert np.linalg.norm(apply(k, A_EX) - B_EX) <= 1e-9
    assert np.linalg.norm(apply(k, B_EX) - BP_EX) <= 1e-9


def test_linear_part_traces():
    # rotation by pi/6: trace 1 + 2 cos(pi/6)
    assert float(np.trace(make_f().linear)) == pytest.approx(1 + np.sqrt(3), abs=1e-12)
    # composite: trace 1 + 2 cos(theta) with the radical form of cos(theta)
    cos_theta = (-4 + 2 * np.sqrt(2) + 2 * np.sqrt(3) + np.sqrt(6)) / 8
    assert float(np.trace(make_h().linear)) == pytest.approx(1 + 2 * cos_theta, abs=1e-12)


def test_composite_moves_origin_to_frozen_point():
    h = make_h()
    p = apply(h, (0, 0, 0))
    assert np.linalg.norm(p - P_EX) <= 1e-12
    assert np.allclose(p, (0.713432, 0.713434, 1.512472), atol=5e-6)


def test_then_identity_laws():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = _random_affine(rng)
        for composite in (then(m, identity()), then(identity(), m)):
            assert iso_equal(composite, m, Tolerance(1e-12, 1e-12))


def test_then_reading_order():
    move = translation((1, 0, 0))
    spin = rotation_about_axis((0, 0, 0), (0, 0, 1), np.pi / 2)
    first_move = then(move, spin)
    first_spin = then(spin, move)
    assert np.allclose(apply(first_move, (0, 0, 0)), (0, 1, 0), atol=1e-12)
    assert np.allclose(apply(first_spin, (0, 0, 0)), (1, 0, 0), atol=1e-12)


def test_reflection_squares_to_identity():
    rng = np.random.default_rng(22)
    for _ in range(100):
        plane = Plane(rng.normal(size=3), float(rng.uniform(-4, 4)))
        sigma = plane_reflection(plane)
        assert iso_equal(then(sigma, sigma), identity(), Tolerance(1e-12, 1e-12))


def test_seq_to_affine_agrees_with_apply():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(0, 5))
        seq = ReflectionSequence(
            tuple(Plane(rng.normal(size=3), float(rng.uniform(-3, 3))) for _ in range(n))
        )
        affine = seq_to_affine(seq)
        parity = OrientationParity.PROPER if n % 2 == 0 else OrientationParity.IMPROPER
        assert orientation(seq) is parity
        assert orientation(affine) is parity
        for p in list(PROBE_POINTS) + [rng.uniform(-5, 5, 3) for _ in range(4)]:
            assert np.linalg.norm(apply(seq, p) - apply(affine, p)) <= 1e-10


def _then_fold(seq):
    """Reference: the sequence composed plane by plane, validating every step."""
    out = identity()
    for plane in seq.planes:
        out = then(out, plane_reflection(plane))
    return out


def test_seq_to_affine_matches_then_fold_bit_for_bit():
    rng = np.random.default_rng(24)
    empty = seq_to_affine(ReflectionSequence(()))
    assert empty.linear.tobytes() == identity().linear.tobytes()
    assert empty.translation.tobytes() == identity().translation.tobytes()
    got, want = [], []
    for _ in range(1500):
        offsets = rng.choice((-1.0, 1.0), size=5) * 10.0 ** rng.uniform(-6.0, 6.0, size=5)
        k = int(rng.integers(0, 6))
        seq = ReflectionSequence(tuple(Plane(rng.normal(size=3), d) for d in offsets[:k]))
        for out, fold in ((got, seq_to_affine), (want, _then_fold)):
            motion = fold(seq)
            out.append(motion.linear.tobytes() + motion.translation.tobytes())
    assert got == want


def test_seq_to_affine_axis_aligned():
    seq = ReflectionSequence((Plane((1, 0, 0), 0.0), Plane((0, 1, 0), 0.0)))
    affine = seq_to_affine(seq)
    expected = np.diag([-1.0, -1.0, 1.0])
    assert np.allclose(affine.linear, expected, atol=1e-15)
    assert np.allclose(affine.translation, 0.0, atol=1e-15)


def test_iso_equal_full_turn_is_identity():
    full = rotation_about_axis((3, 1, -2), (1, 2, 2), 2 * np.pi)
    assert iso_equal(full, identity(), Tolerance(1e-12, 1e-12))


def test_iso_equal_is_an_equivalence_on_samples():
    rng = np.random.default_rng(24)
    motions = [_random_affine(rng) for _ in range(8)]
    for m in motions:
        assert iso_equal(m, m)
    a, b = motions[0], motions[1]
    assert iso_equal(a, b) == iso_equal(b, a)
    shifted = then(motions[2], translation((0, 0, 1e-3)))
    assert not iso_equal(motions[2], shifted)


def test_rotation_about_axis_quarter_turn():
    rot = rotation_about_axis((0, 0, 0), (0, 0, 1), np.pi / 2)
    assert np.allclose(apply(rot, (1, 0, 0)), (0, 1, 0), atol=1e-15)
    assert np.allclose(apply(rot, (0, 0, 5)), (0, 0, 5), atol=1e-15)


def test_rotation_respects_given_direction_sign():
    plus = rotation_about_axis((0, 0, 0), (0, 0, 1), np.pi / 2)
    minus = rotation_about_axis((0, 0, 0), (0, 0, -1), np.pi / 2)
    assert np.allclose(apply(plus, (1, 0, 0)), (0, 1, 0), atol=1e-15)
    assert np.allclose(apply(minus, (1, 0, 0)), (0, -1, 0), atol=1e-15)
    assert iso_equal(minus, rotation_about_axis((0, 0, 0), (0, 0, 1), -np.pi / 2))


def test_rotation_about_line_follows_canonical_direction():
    line = Line3((0, 0, 0), (0, 0, -1))  # canonicalizes to +z
    rot = rotation_about_line(line, np.pi / 2)
    assert np.allclose(apply(rot, (1, 0, 0)), (0, 1, 0), atol=1e-15)


def test_rotation_zero_angle_is_identity():
    rot = rotation_about_axis((1, 2, 3), (4, 5, 6), 0.0)
    assert iso_equal(rot, identity(), Tolerance(1e-15, 1e-15))


def test_rotation_fixes_axis_points():
    rng = np.random.default_rng(25)
    for _ in range(50):
        point = rng.uniform(-3, 3, 3)
        direction = rng.normal(size=3)
        angle = float(rng.uniform(-np.pi, np.pi))
        rot = rotation_about_axis(point, direction, angle)
        s = float(rng.uniform(-4, 4))
        on_axis = point + s * direction
        assert np.linalg.norm(apply(rot, on_axis) - on_axis) <= 1e-12 * max(
            1.0, np.linalg.norm(on_axis)
        )


def test_rotation_rejects_bad_input():
    with pytest.raises(ValueError, match="^rotation axis direction must be nonzero$"):
        rotation_about_axis((0, 0, 0), (0, 0, 0), 1.0)
    for angle in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^rotation angle must be finite$"):
            rotation_about_axis((0, 0, 0), (0, 0, 1), angle)


def test_rotation_parts_match_numpy_reference():
    # Rodrigues' formula written out on floats against the matrix form; the
    # sums run in another order, so entries may differ by a few ulps
    rng = np.random.default_rng(60)
    eps = np.finfo(float).eps
    angles = [0.0, 1e-10, -1e-7, np.pi, -(np.pi - 1e-10), 1e-300]
    angles += list(rng.uniform(-np.pi, np.pi, 200))
    for angle in angles:
        point = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)
        direction = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 6.0)
        linear, shift = _rotation_parts(point, direction, angle)
        want_linear, want_shift = oracle.numpy_rotation_parts(point, direction, angle)
        assert np.max(np.abs(linear - want_linear)) <= 4.0 * eps, angle
        assert np.max(np.abs(shift - want_shift)) <= 8.0 * eps * np.linalg.norm(point), angle


def test_affine_isometry_absorbs_small_drift():
    r = rotation_about_axis((0, 0, 0), (1, 1, 1), 0.7).linear
    dirty = np.array(r) + 1e-8 * np.ones((3, 3))
    fixed = AffineIsometry(dirty, np.zeros(3))
    assert np.max(np.abs(fixed.linear.T @ fixed.linear - np.eye(3))) <= 1e-12


def test_affine_isometry_rejects_large_drift():
    with pytest.raises(ValueError, match="not orthogonal"):
        AffineIsometry(np.eye(3) * 1.5, np.zeros(3))
    with pytest.raises(ValueError, match="not orthogonal"):
        AffineIsometry(np.eye(3) + 1e-3, np.zeros(3))


@pytest.mark.parametrize(
    "linear, shift, message",
    [
        (np.diag([1.0, np.nan, 1.0]), np.zeros(3), "finite 3x3 matrix"),
        (np.diag([np.inf, 1.0, 1.0]), np.zeros(3), "finite 3x3 matrix"),
        (np.diag([1.0, 1.0, -np.inf]), np.zeros(3), "finite 3x3 matrix"),
        (np.eye(2), np.zeros(3), "finite 3x3 matrix"),
        (np.eye(3, 4), np.zeros(3), "finite 3x3 matrix"),
        (np.eye(3), (0.0, np.nan, 0.0), "components must be finite"),
        (np.eye(3), (np.inf, 0.0, 0.0), "components must be finite"),
        (np.eye(3), (0.0, 0.0, -np.inf), "components must be finite"),
        (np.eye(3), np.zeros(4), r"expected 3 components, got shape \(4,\)"),
        # residual 8e-11 passes unrepaired, but |det| - 1 is 1.2e-10
        ((1.0 + 4e-11) * np.eye(3), np.zeros(3), "determinant"),
    ],
)
def test_affine_isometry_rejects_malformed_parts(linear, shift, message):
    with pytest.raises(ValueError, match=message):
        AffineIsometry(linear, shift)


def test_affine_isometry_rejects_nonfinite_entries_in_every_slot():
    for slot in range(9):
        for bad in (np.nan, np.inf, -np.inf):
            linear = np.eye(3).ravel()
            linear[slot] = bad
            with pytest.raises(ValueError, match="^linear part must be a finite 3x3 matrix$"):
                AffineIsometry(linear.reshape(3, 3), np.zeros(3))


def test_affine_isometry_overflowing_finite_entries_are_not_orthogonal():
    # finite entries whose sum overflows take the numpy finiteness check,
    # which passes them; L^T L - I then overflows and reads as inf
    signs = np.array([[1, 1, -1], [-1, 1, 1], [1, -1, 1]])
    for linear in (np.full((3, 3), 1e308), np.full((3, 3), -1e308), 1e308 * signs):
        assert not np.isfinite(sum(linear.ravel().tolist()))
        with pytest.raises(ValueError, match=r"^linear part is not orthogonal \(residual inf\)$"):
            AffineIsometry(linear, np.zeros(3))


def _verdict(validate, linear):
    try:
        stored = validate(linear)
    except ValueError as exc:
        return "rejected", str(exc)
    return ("accepted" if stored.tobytes() == linear.tobytes() else "repaired"), stored.tobytes()


def test_validator_verdicts_match_numpy_reference():
    # orthogonality drift d of a seeded rotation, proper or improper, either
    # stretched (L^T L = diag(1 + d, 1, 1)) or sheared (off-diagonal d), on a
    # ladder across both thresholds: stored as given up to 1e-10, repaired up
    # to 1e-6, rejected beyond; steps sit 0.1 % off each threshold
    rng = np.random.default_rng(61)
    ladder = (1e-11, 0.999e-10, 1.001e-10, 1e-7, 0.999e-6, 1.001e-6, 1e-5)
    shear = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cases = [(1.0 + 4e-11) * np.eye(3), -(1.0 + 4e-11) * np.eye(3)]
    for _ in range(20):
        r = rotation_about_axis((0, 0, 0), rng.normal(size=3), float(rng.uniform(-3, 3))).linear
        for turn in (r, -r):
            cases.append((1.0 + 4e-11) * turn)
            for drift in ladder:
                cases.append(turn @ np.diag([np.sqrt(1.0 + drift), 1.0, 1.0]))
                cases.append(turn @ (np.eye(3) + 0.5 * drift * shear))
    seen = set()
    for linear in cases:
        got = _verdict(lambda l: AffineIsometry(l, np.zeros(3)).linear, linear)
        assert got == _verdict(oracle.numpy_validate, linear), linear
        seen.add(got[1] if got[0] == "rejected" else got[0])
    assert seen == {
        "accepted",
        "repaired",
        "linear part must have determinant +1 or -1",
        "linear part is not orthogonal (residual 1.001e-06)",
        "linear part is not orthogonal (residual 1.000e-05)",
    }


def test_translation_composes_additively():
    a = translation((1, 2, 3))
    b = translation((-4, 0, 2))
    assert iso_equal(then(a, b), translation((-3, 2, 5)), Tolerance(1e-15, 1e-15))


def test_then_is_a_homomorphism_on_probe_frame():
    rng = np.random.default_rng(26)
    for _ in range(50):
        f, g = _random_affine(rng), _random_affine(rng)
        composite = then(f, g)
        for p in PROBE_POINTS:
            direct = apply(g, apply(f, p))
            assert np.linalg.norm(apply(composite, p) - direct) <= 1e-10


def test_random_composites_stay_isometric():
    rng = np.random.default_rng(27)
    for _ in range(50):
        m = _random_affine(rng)
        p, q = rng.uniform(-8, 8, 3), rng.uniform(-8, 8, 3)
        d0 = float(np.linalg.norm(p - q))
        d1 = float(np.linalg.norm(apply(m, p) - apply(m, q)))
        assert abs(d1 - d0) <= 1e-9


def test_probe_points_not_coplanar():
    assert not coplanar(*PROBE_POINTS)


def test_factor_maps_move_origin_as_expected():
    rot = rotation_about_axis((1, 0, 0), (1, -1, 0), np.pi / 6)
    expect = apply(rot, (0, 0, 0)) + vec3(1, 1, 1)
    assert np.allclose(apply(make_f(), (0, 0, 0)), expect, atol=1e-12)
    assert np.allclose(apply(make_g(), (0, 0, 0)), (0, 0, 1), atol=1e-12)
