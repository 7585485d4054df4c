import itertools
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from trimirror import (
    PROBE_POINTS,
    AffineIsometry,
    OrientationParity,
    Plane,
    PointTriple,
    ReflectionSequence,
    Tolerance,
    TriplePair,
    apply,
    identity,
    iso_equal,
    orientation,
    plane_reflection,
    reflect_point,
    rotation_about_axis,
    rotation_about_line,
    second_motion,
    seq_to_affine,
    then,
    three_reflections,
    translation,
    vec3,
)
from trimirror.classify import Reflection, Translation, reconstruct
from trimirror.example import make_f, make_g, make_h
from trimirror.geom import Line3, coplanar, _reflect, _unit
from trimirror.motion import _ID, _ORTHO_FIX, _ORTHO_PASS, _fixed_point, _fold, _mgs, _orthogonal
from trimirror.motion import _reflection, _rigid, _rodrigues

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


def test_apply_and_reflect_point_refuse_an_image_beyond_the_float_range():
    # the image is formed on floats, which overflow silently: it is refused as
    # as_vec3 refuses inf, where it used to come back as [inf, 0, 0]
    mirror = Plane((1.0, 0.0, 0.0), 1.7e308)
    calls = [
        lambda: apply(translation((1.7e308, 0.0, 0.0)), (1.7e308, 0.0, 0.0)),
        lambda: apply(ReflectionSequence((mirror, Plane((0, 1, 0), 0.0))), (-1.7e308, 0.0, 0.0)),
        # 1e308 lies on both mirrors and came back as itself plane by plane; the
        # fold's shift passes 2e308 on the way, so it is refused, as seq_to_affine is
        lambda: apply(ReflectionSequence((Plane((1, 0, 0), 1e308),) * 2), (1e308, 0.0, 0.0)),
        lambda: reflect_point(mirror, (-1.7e308, 0.0, 0.0)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="^vector components must be finite$"):
                call()


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
            assert apply(seq, p).tobytes() == apply(affine, p).tobytes(), (seq, p)
        assert iso_equal(seq, affine, Tolerance(1e-300, 1e-300)), seq


def _then_fold(seq):
    """Reference: the sequence composed plane by plane, validating every step."""
    out = identity()
    for plane in seq.planes:
        out = then(out, plane_reflection(plane))
    return out


def _assert_within_fold_bound(seq):
    """seq_to_affine(seq) and _then_fold(seq) agree within bounds derived from
    their steps' rounding: 12 k eps in each entry of L, and 40 k S eps between
    the shifts, for k planes whose offsets' sizes sum to S.

    Both miss the exact product of the reflections of the stored floats; a step's
    error passes through the later reflections, of norm 1 + O(eps).  Per step and
    per column of L, in the 2-norm, to first order in r = eps / 2 and for unit
    columns and normals: the fold step misses by gamma(5) (1 + 2 |n|^2), 15 r
    (test_fold_step_matches_exact_reference); a then step by gamma(3) |R|_F for
    _compose, 3 sqrt 3 r, plus (2 + sqrt 3) r for plane_reflection's rounding of R,
    8.93 r: together 23.93 r, under 12 eps.  The shift, by the same counts, misses
    by gamma(6) (3 |t| + 2 |o|) and by gamma(4) (sqrt 3 |t| + 2 |o|) + (2 + sqrt 3) r
    |t| + 2 r |o|: 28.66 r |t| + 22 r |o|, and |t| <= 2 S before any step.
    """
    eps, k = np.finfo(float).eps, len(seq)
    got, want = seq_to_affine(seq), _then_fold(seq)
    assert float(np.abs(got.linear - want.linear).max()) <= 12.0 * k * eps, seq
    size = sum(abs(p.offset) for p in seq.planes)
    assert float(np.linalg.norm(got.translation - want.translation)) <= 40.0 * k * size * eps, seq


def test_seq_to_affine_matches_then_fold_within_the_step_bound():
    # seq_to_affine reflects the fold in each plane, where then multiplies
    # matrices: the two agree within the bound derived from both steps' rounding
    rng = np.random.default_rng(24)
    empty = seq_to_affine(ReflectionSequence(()))
    assert empty.linear.tobytes() == identity().linear.tobytes()
    assert empty.translation.tobytes() == identity().translation.tobytes()
    for _ in range(1500):
        offsets = rng.choice((-1.0, 1.0), size=5) * 10.0 ** rng.uniform(-6.0, 6.0, size=5)
        k = int(rng.integers(0, 6))
        _assert_within_fold_bound(
            ReflectionSequence(tuple(Plane(rng.normal(size=3), d) for d in offsets[:k])))
    # axis-aligned and other zero-component normals, through the origin or not
    aligned = [Plane(n, d) for n in oracle.zero_component_vectors(rng) for d in (0.0, 1.5, -1.5)]
    for _ in range(600):
        picks = rng.integers(0, len(aligned), size=int(rng.integers(1, 6)))
        _assert_within_fold_bound(ReflectionSequence(tuple(aligned[i] for i in picks)))
    # second_motion's sequence continues its prefix's fold: converted after
    # the prefix, or alone, it matches a fresh fold of all four planes bit for
    # bit; so does the extension of a public sequence, empty or not
    walk = np.random.default_rng(25)
    for _ in range(300):
        src = walk.uniform(-3.0, 3.0, (3, 3)) * 10.0 ** walk.uniform(-3.0, 3.0)
        turn = rotation_about_axis(walk.normal(size=3), walk.normal(size=3), walk.uniform(-3, 3))
        pair = TriplePair(PointTriple(*src), tuple(apply(turn, p) for p in src))
        public = (lambda pair: ReflectionSequence(three_reflections(pair).planes),
                  lambda pair: ReflectionSequence(()))
        for prefix in (three_reflections, *public):
            first, only = prefix(pair), prefix(pair)
            second, alone = second_motion(first, pair.dst), second_motion(only, pair.dst)
            fresh = seq_to_affine(ReflectionSequence(second.planes))
            for seq in (second, alone):
                motion = seq_to_affine(seq)
                assert motion.linear.tobytes() == fresh.linear.tobytes()
                assert motion.translation.tobytes() == fresh.translation.tobytes()
            for seq in (first, second):
                _assert_within_fold_bound(seq)


def test_folds_stay_orthogonal_far_below_the_repair_threshold():
    # seq_to_affine validates _fold's parts without repair: their drift from
    # orthogonality must stay far below _ORTHO_PASS.  To first order in r =
    # eps / 2: a stored normal is unit within 7 r (|v|^2 rounds 3 times, its
    # root and each division once more), so R^T R - I = 4 (|n|^2 - 1) n n^T is
    # within 28 r, 14 eps, per reflection; the fold step moves each column by
    # 15 r (see _assert_within_fold_bound), so F^T F - I gains 30 r, 15 eps,
    # per plane; the residual's own sums round 4 times, 4 eps in all.  That is
    # (29 k + 4) eps for k planes, within 33 eps per plane.
    rng = np.random.default_rng(26)
    eps = np.finfo(float).eps
    normals = oracle.zero_component_vectors(rng) + list(rng.normal(size=(200, 3)))
    for _ in range(2000):
        k = int(rng.integers(1, 9))
        offsets = rng.choice((-1.0, 1.0), size=k) * 10.0 ** rng.uniform(-6.0, 6.0, size=k)
        picks = rng.integers(0, len(normals), size=k)
        seq = ReflectionSequence(tuple(Plane(normals[i], d) for i, d in zip(picks, offsets)))
        a, b, c, d, e, f, g, h, i = seq._parts[:9]
        residual = max(abs(a * a + d * d + g * g - 1.0), abs(b * b + e * e + h * h - 1.0),
                       abs(c * c + f * f + i * i - 1.0), abs(a * b + d * e + g * h),
                       abs(a * c + d * f + g * i), abs(b * c + e * f + h * i))
        assert residual <= 33.0 * k * eps, seq
        assert seq_to_affine(seq)._parts is seq._parts  # not repaired: _mgs makes new floats
    assert 33.0 * 8 * eps < _ORTHO_PASS


def test_reused_fold_gives_read_only_arrays():
    # a sequence folds once; each conversion validates those parts again and
    # hands out read-only arrays, whichever sequence is converted first
    src = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    pair = TriplePair(src, ((1, 2, 3), (1, 3, 3), (0, 2, 3)))
    first = three_reflections(pair)
    second = second_motion(first, pair.dst)
    motions = [seq_to_affine(seq) for seq in (second, first, second, first)]
    for m in motions:
        assert not m.linear.flags.writeable and not m.translation.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.linear[0, 0] = 2.0
    for again, once in zip(motions[2:], motions[:2]):
        assert again.linear.tobytes() + again.translation.tobytes() == (
            once.linear.tobytes() + once.translation.tobytes()
        )


def test_sequences_are_complete_when_built():
    # a sequence folds its planes when it is built: converting or extending it
    # leaves every attribute the same object, on a three_reflections result, a
    # public sequence and an empty one alike
    src = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    pair = TriplePair(src, ((1, 2, 3), (1, 3, 3), (0, 2, 3)))
    built = three_reflections(pair)
    for seq in (built, ReflectionSequence(built.planes), ReflectionSequence(())):
        before = dict(vars(seq))
        seq_to_affine(seq)
        second_motion(seq, pair.dst)
        assert vars(seq).keys() == before.keys()
        assert all(vars(seq)[name] is value for name, value in before.items()), seq


def test_reflection_parts_match_numpy_reference_bit_for_bit():
    # the public builder, plane_reflection, against I - 2 n n^T and 2 offset n;
    # zero components make zero products, where a -0.0 would show in the bytes.
    # The fold's shift subtracts from +0.0, so its zero components are +0.0
    rng = np.random.default_rng(62)
    normals = oracle.zero_component_vectors(rng) + list(rng.normal(size=(400, 3)))
    for n in normals:
        for offset in (0.0, -0.0, 1.0, -2.5, float(rng.normal()) * 10.0 ** rng.uniform(-6.0, 6.0)):
            plane = Plane(n, offset)
            parts = plane_reflection(plane)._parts
            got = [np.array(oracle.rows_of(parts)), np.array(parts[9:])]
            want = oracle.numpy_reflection_parts(plane)
            assert got[0].tobytes() == want[0].tobytes(), (n, offset)
            assert got[1].tobytes() == (want[1] + 0.0).tobytes(), (n, offset)


def test_fold_step_matches_exact_reference():
    # One fold step reflects the fold so far, L and t, in the plane.  It and
    # the fold of the plane alone, its reflection, are pinned against the same
    # floats evaluated exactly in fractions, with r = eps / 2 and gamma(k) =
    # k r / (1 - k r) for k roundings in a row.  From the identity, each dot
    # is 2 n_j exactly: -2 x y rounds once (0.0 - v is exact), r of it;
    # 1 - 2 x^2 rounds x^2 and the difference, r (2 x^2 + |F|) (1 + r); the
    # shift 2 offset x rounds once.  The step: an entry of L loses
    # n_i 2 (n . column j).  Each product of the dot rounds at most 3 times in
    # it (its product and two sums), once more times n_i and once in the
    # difference: gamma(5) of the four terms' magnitudes.  The shift loses
    # n_i 2 (n . t - offset): gamma(6) for the products of n . t (3, then the
    # offset's difference, then times n_i and the last difference), and the
    # step is _reflect's, bit for bit.
    r = Fraction(np.finfo(float).eps) / 2

    def gamma(k):
        return k * r / (1 - k * r)

    rng = np.random.default_rng(63)
    normals = oracle.zero_component_vectors(rng) + list(rng.normal(size=(300, 3)))
    fold = _fold(())
    for i, normal in enumerate(normals):
        plane = Plane(normal, float(rng.normal()) * 10.0 ** rng.uniform(-6.0, 6.0))
        mirror = plane._n, plane.offset
        flip, shift = oracle.rows_of(_fold((mirror,))), _fold((mirror,))[9:]
        n, offset = [Fraction(x) for x in plane.normal.tolist()], Fraction(plane.offset)
        for row in range(3):
            for col in range(3):
                exact = (row == col) - 2 * n[row] * n[col]
                slack = r * abs(exact)
                if row == col:
                    slack = r * (2 * n[row] ** 2 + abs(exact)) * (1 + r)
                assert abs(Fraction(flip[row][col]) - exact) <= slack, (normal, row, col)
            exact = 2 * offset * n[row]
            assert abs(Fraction(shift[row]) - exact) <= r * abs(exact), (normal, row)
        step = _fold((mirror,), fold)
        assert step[9:] == _reflect(mirror, fold[9:]), normal
        l = [[Fraction(x) for x in row] for row in oracle.rows_of(fold)]
        t = [Fraction(x) for x in fold[9:]]
        for row in range(3):
            for col in range(3):
                terms = [l[row][col]] + [-2 * n[row] * n[k] * l[k][col] for k in range(3)]
                slack = gamma(5) * sum(map(abs, terms))
                assert abs(Fraction(step[3 * row + col]) - sum(terms)) <= slack, (i, row, col)
            terms = [t[row], 2 * n[row] * offset] + [-2 * n[row] * n[k] * t[k] for k in range(3)]
            slack = gamma(6) * sum(map(abs, terms))
            assert abs(Fraction(step[9 + row]) - sum(terms)) <= slack, (i, row)
        # fold on from this step, or start again from the identity's parts
        fold = step if i % 7 else _fold(())


def test_one_plane_fold_is_its_reflection_bit_for_bit():
    # Every fold from the identity starts with _reflection, the one-plane fold
    # in closed form, which leaves out the step's products with the identity's
    # ones and zeros: pinned bit for bit against the general step continued
    # from the identity's parts.  A zero component makes zero products, where a
    # -0.0 would show in the bytes, and so do offsets of either signed zero.
    # The mirrors are Plane's canonical pairs and the raw unit normals, either
    # sign (leading negative and -0.0 components), with zero components, tiny
    # negative ones in (-1e-12, 0), which the canonical sign skips, and
    # subnormal ones.
    rng = np.random.default_rng(64)
    vectors = oracle.zero_component_vectors(rng) + list(rng.normal(size=(500, 3)))
    for v in rng.normal(size=(300, 3)):
        for k in range(3):  # one component, then two, tiny and negative or subnormal
            for small in (-rng.uniform(0.0, 1e-12), rng.choice((1, -1)) * 2.0 ** -1074
                          * 2.0 ** rng.integers(0, 52)):
                vectors.append(v.copy())
                vectors[-1][k] = small
                vectors.append(vectors[-1].copy())
                vectors[-1][(k + 1) % 3] = small
    bits = struct.Struct("12d").pack
    for v in vectors:
        length = math.sqrt(float(v @ v))
        raw = tuple(x / length for x in v.tolist())
        flipped = tuple(-x for x in raw)
        for offset in (0.0, -0.0, 1.0, -2.5, float(rng.normal()) * 10.0 ** rng.uniform(-6.0, 6.0)):
            plane = Plane(v, offset)
            for mirror in ((plane._n, plane.offset), (raw, offset), (flipped, offset)):
                assert bits(*_reflection(*mirror)) == bits(*_fold((mirror,), _ID)), mirror


def test_every_reflection_builder_gives_the_same_bytes():
    # plane_reflection, a one-plane sequence and a Reflection record's rebuild
    # all take the one-plane fold; (1, 0, 0) at offset -1 used to differ in
    # the signs of its zero shift components, (-2.0, -0.0, -0.0) against +0.0
    rng = np.random.default_rng(65)
    for n in oracle.zero_component_vectors(rng) + [np.array([1.0, 0.0, 0.0])]:
        for offset in (0.0, 1.5, -2.5, -1.0):
            plane = Plane(n, offset)
            built = (plane_reflection(plane), seq_to_affine(ReflectionSequence((plane,))),
                     reconstruct(Reflection(mirror=plane)))
            linear, shift = ({np.array(m._parts[i]).tobytes() for m in built}
                             for i in (slice(0, 9), slice(9, 12)))
            assert len(linear) == 1 and len(shift) == 1, (n, offset)
    shift = plane_reflection(Plane((1, 0, 0), -1))._parts[9:]
    assert np.array(shift).tobytes() == np.array([-2.0, 0.0, 0.0]).tobytes()


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
    message = "^rotation axis direction must have a nonzero, finite length$"
    with pytest.raises(ValueError, match=message):
        rotation_about_axis((0, 0, 0), (0, 0, 0), 1.0)
    # the squared length overflows, silently on floats, and the unit axis would
    # come out as (0, 0, 0): a silent identity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            rotation_about_axis((0.0, 0.0, 0.0), (1e200, 0.0, 0.0), 1.0)
    for angle in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^rotation angle must be finite$"):
            rotation_about_axis((0, 0, 0), (0, 0, 1), angle)


def test_rotation_parts_match_numpy_reference():
    # Rodrigues' formula written out on floats against the matrix form, both for
    # the library's unit direction; the sums run in another order, so entries
    # may differ by a few ulps
    rng = np.random.default_rng(60)
    eps = np.finfo(float).eps
    angles = [0.0, 1e-10, -1e-7, np.pi, -(np.pi - 1e-10), 1e-300]
    angles += list(rng.uniform(-np.pi, np.pi, 200))
    for angle in angles:
        point = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)
        direction = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 6.0)
        parts = rotation_about_axis(point, direction, angle)._parts
        linear, shift = np.array(oracle.rows_of(parts)), np.array(parts[9:])
        unit = _unit(direction, "rotation axis direction")
        want_linear, want_shift = oracle.numpy_rotation_parts(point, unit, angle)
        assert np.max(np.abs(linear - want_linear)) <= 4.0 * eps, angle
        assert np.max(np.abs(shift - want_shift)) <= 8.0 * eps * np.linalg.norm(point), angle


def _turn_cases(rng):
    """Seeded (p, unit d, angle) floats: angles log-uniform from 1e-12 to pi, both
    signs, pi itself, and points from 1e-3 to 1e6 long, a third of them far along d."""
    cases = []
    for i in range(600):
        angle = math.pi if i % 50 == 0 else 10.0 ** rng.uniform(-12.0, math.log10(math.pi))
        d = oracle.random_unit(rng).tolist()
        p = (rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)).tolist()
        if i % 3 == 0:
            p = [x + 1e3 * y for x, y in zip(p, d)]
        cases.append((p, d, float(rng.choice((-1.0, 1.0))) * angle))
    return cases


def _exact_across(p, d):
    """The part of the floats p across the floats d, in fractions."""
    fp, fd = [Fraction(x) for x in p], [Fraction(x) for x in d]
    k = sum(x * y for x, y in zip(fp, fd))
    return [x - k * y for x, y in zip(fp, fd)], fd


def test_turn_shift_matches_exact_reference():
    # _rodrigues's shift against 2 h (h V - k d x V), V the part of p across d,
    # evaluated exactly in fractions from the same float p, d, h = sin(angle / 2)
    # and k = cos(angle / 2).  With r = eps / 2, to first order: the split's v
    # misses V by 5 r |p| (test_split_matches_exact_reference); the cross product
    # adds 2 sqrt 2 r |v| and carries v's miss; h v - k c adds 2 sqrt 2 r |v| and
    # carries both misses, |h| + |k| <= sqrt 2 times; the product with 2 h adds r.
    # With |v| <= |p|: 2 |h| (5 sqrt 2 + 4 sqrt 2 + 1) r |p| <= 14 eps |h| |p|.
    # The worst miss here is 2.9 eps |h| |p|; p - R p, the old shift, missed by
    # about eps |p| whatever the angle, 6e11 eps |h| |p| here.
    eps = np.finfo(float).eps
    for p, d, angle in _turn_cases(np.random.default_rng(61)):
        shift = _rodrigues(p, d, angle)[9:]
        h, k = Fraction(math.sin(0.5 * angle)), Fraction(math.cos(0.5 * angle))
        v, (d0, d1, d2) = _exact_across(p, d)
        cross = (d1 * v[2] - d2 * v[1], d2 * v[0] - d0 * v[2], d0 * v[1] - d1 * v[0])
        want = [2 * h * (h * a - k * b) for a, b in zip(v, cross)]
        miss = math.sqrt(sum(float(Fraction(g) - x) ** 2 for g, x in zip(shift, want)))
        assert miss <= 14.0 * eps * abs(float(h)) * math.hypot(*p), (p, d, angle)


def test_turn_shift_inverts_to_its_axis_point():
    # _fixed_point of _rodrigues's shift gives back the part V of p across d.
    # _fixed_point maps a miss of w across d to one 1 / (2 |h|) times as long, so
    # the shift's 14 eps |h| |p| becomes 7 eps |p|; its own rounding is pinned
    # within 8 eps |x| (test_fixed_point_matches_exact_reference, from the same
    # float cos(angle / 2) and sin(angle / 2)), and those two floats' squares sum
    # to 1 within 2 eps: 17 eps |p| in all, as |x| and |V| are at most |p|.  The
    # worst miss here is 2.3 eps |p|; with p - R p it reached 3e11 eps |p|.
    eps = np.finfo(float).eps
    for p, d, angle in _turn_cases(np.random.default_rng(61)):
        x = _fixed_point(_rodrigues(p, d, angle)[9:], d, angle)
        v = _exact_across(p, d)[0]
        miss = math.sqrt(sum(float(Fraction(g) - y) ** 2 for g, y in zip(x, v)))
        assert miss <= 17.0 * eps * math.hypot(*p), (p, d, angle)


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
        (np.eye(3) + 0j, np.zeros(3), "components must be real, not complex"),
    ],
)
def test_affine_isometry_rejects_malformed_parts(linear, shift, message):
    with pytest.raises(ValueError, match=message):
        AffineIsometry(linear, shift)


def test_affine_isometry_stretched_identity_is_judged_by_its_residual_alone():
    # (1 + s) I has residual 2 s + s^2 and |det| - 1 near 3 s: at s = 4e-11 the
    # residual 8e-11 passes unrepaired although |det| - 1 is 1.2e-10, as at 3e-11;
    # at 6e-11 the residual 1.2e-10 is past _ORTHO_PASS and the matrix is repaired
    for s in (3e-11, 4e-11):
        linear = (1.0 + s) * np.eye(3)
        assert abs(abs(np.linalg.det(linear)) - 1.0) > 0.5 * _ORTHO_PASS
        for sign in (1.0, -1.0):
            m = AffineIsometry(sign * linear, np.zeros(3))
            assert m.linear.tobytes() == (sign * linear).tobytes(), (s, sign)
    linear = (1.0 + 6e-11) * np.eye(3)
    assert np.array_equal(AffineIsometry(linear, np.zeros(3)).linear, np.eye(3))


def _residual_verdict(l) -> str:
    """The verdict on the nine floats l, L row-major, of the residual max(abs(...)) of
    L^T L - I alone, formed on every input: "kept", "repaired" or the refusal's message."""
    a, b, c, d, e, f, g, h, i = l
    residual = max(abs(a * a + d * d + g * g - 1.0), abs(b * b + e * e + h * h - 1.0),
                   abs(c * c + f * f + i * i - 1.0), abs(a * b + d * e + g * h),
                   abs(a * c + d * f + g * i), abs(b * c + e * f + h * i))
    if residual > _ORTHO_FIX:
        return f"linear part is not orthogonal (residual {residual:.3e})"
    return "repaired" if residual > _ORTHO_PASS else "kept"


def test_orthogonal_pass_test_keeps_every_residual_verdict():
    # _orthogonal passes L when each of the six terms of L^T L - I lies within
    # +-_ORTHO_PASS, by comparisons alone, and measures the residual only when
    # one does not, NaN included; every verdict, repair and message must be
    # the residual's.  An off-diagonal entry p beside a unit diagonal makes its
    # cross term exactly p: at +-_ORTHO_PASS it passes, one ulp past it is
    # repaired.  A diagonal term cannot hit the bound (1 +- _ORTHO_PASS is not
    # a float), so each diagonal entry walks the floats across it instead.
    # Entries of 1e200 overflow a cross term to inf - inf = NaN, behind an inf
    # diagonal term; and the (1 + 4e-11) I and (1 + 6e-11) I pins
    bound, past = _ORTHO_PASS, math.nextafter(_ORTHO_PASS, math.inf)
    eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    cases, want = [], {}
    for slot in (1, 2, 3, 5, 6, 7):
        for x, verdict in ((bound, "kept"), (-bound, "kept"), (past, "repaired"),
                           (-past, "repaired")):
            cases.append(eye[:slot] + [x] + eye[slot + 1:])
            want[id(cases[-1])] = verdict
    for slot in (0, 4, 8):
        for square, sign in itertools.product((1.0 + bound, 1.0 - bound), (1.0, -1.0)):
            x = math.sqrt(square)
            for _ in range(4):
                x = math.nextafter(x, -math.inf)
            for _ in range(8):
                x = math.nextafter(x, math.inf)
                cases.append(eye[:slot] + [sign * x] + eye[slot + 1:])
    big = 1e200
    cases.append([big, big, 0.0, big, -big, 0.0, 0.0, 0.0, 1.0])
    assert math.isnan(big * big + big * -big + 0.0 * 0.0)  # its first cross term
    want[id(cases[-1])] = "linear part is not orthogonal (residual inf)"
    for s, verdict in ((4e-11, "kept"), (-4e-11, "kept"), (6e-11, "repaired")):
        cases.append([(1.0 + abs(s)) * x * math.copysign(1.0, s) for x in eye])
        want[id(cases[-1])] = verdict
    seen = set()
    for l in cases:
        verdict = _residual_verdict(l)
        try:
            kept = _orthogonal(l)
        except ValueError as exc:
            got = str(exc)
        else:
            assert kept is l or kept == _mgs(l), l
            got = "kept" if kept is l else "repaired"
        assert got == verdict == want.get(id(l), verdict), l
        seen.add(got)
    assert seen == {"kept", "repaired", "linear part is not orthogonal (residual inf)"}


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


def test_affine_isometry_reports_the_linear_part_before_the_translation():
    shifts = ((np.inf, 0.0, 0.0), (-np.inf, 0.0, 0.0), (0.0, np.nan, 0.0), np.zeros(4))
    for shift in shifts:
        with pytest.raises(ValueError, match="^linear part must be a finite 3x3 matrix$"):
            AffineIsometry(np.diag([np.nan, 1.0, 1.0]), shift)
        # a finite linear part that is not orthogonal is reported first too
        message = r"^linear part is not orthogonal \(residual 3\.000e\+00\)$"
        with pytest.raises(ValueError, match=message):
            AffineIsometry(2.0 * np.eye(3), shift)


def test_library_constructors_check_the_shift_they_compute():
    # the validator kernel skips only the copy: a shift that overflows is
    # still refused with as_vec3's message (2 * 1e308 overflows on floats,
    # without a warning; numpy's add warns)
    message = "^vector components must be finite$"
    with pytest.raises(ValueError, match=message):
        plane_reflection(Plane((1.0, 0.0, 0.0), 1e308))
    with pytest.raises(ValueError, match=message):
        seq_to_affine(ReflectionSequence((Plane((1, 0, 0), 1e308), Plane((1, 0, 0), -1e308))))
    # p . d is past the largest double, so the turn's shift is not finite, at
    # any angle; the float split overflows without a warning.  Line3 refuses
    # the same axis point and direction.  then composes on floats: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for angle in (1e-3, 1.0, np.pi):
            with pytest.raises(ValueError, match=message):
                rotation_about_axis((1.7e308, 1.7e308, 0.0), (1.0, 1.0, 0.0), angle)
        with pytest.raises(ValueError, match=message):
            then(translation((1e308, 0.0, 0.0)), translation((1e308, 0.0, 0.0)))


def test_rigid_checks_each_shift_component_where_it_is():
    # _rigid reads t[0], t[1] and t[2] in place of a slice: a fold whose shift
    # overflows in any one of them is refused with as_vec3's message, on floats,
    # so without a warning; a large finite shift is kept as it is
    message = "^vector components must be finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for axis in range(3):
            n = [0.0, 0.0, 0.0]
            n[axis] = 1.0
            far = ReflectionSequence((Plane(n, 1e308), Plane(n, -1e308)))  # t overflows
            with pytest.raises(ValueError, match=message):
                seq_to_affine(far)
            near = seq_to_affine(ReflectionSequence((Plane(n, 2.0**1020), Plane(n, -2.0**1020))))
            assert near._parts[9:] == [-(2.0**1022) * x + 0.0 for x in n], axis  # exact
            for bad in (math.inf, -math.inf, math.nan):
                parts = list(_ID)
                parts[9 + axis] = bad
                with pytest.raises(ValueError, match=message):
                    _rigid(parts)
        # a Translation rebuilds through _rigid with its shift as given
        shift = (1.7e308, -1.7e308, -0.0)
        rebuilt = reconstruct(Translation(v=shift))
        assert struct.pack("3d", *rebuilt._parts[9:]) == struct.pack("3d", *shift)


def _verdict(validate, linear):
    """("rejected", message), ("accepted", bytes) or ("repaired", stored matrix)."""
    try:
        stored = validate(linear)
    except ValueError as exc:
        return "rejected", str(exc)
    if stored.tobytes() == linear.tobytes():
        return "accepted", stored.tobytes()
    return "repaired", stored


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
    # the float re-orthonormalization sums its dots in another order than numpy's,
    # so a repaired matrix may differ by rounding (test_mgs_matches_exact_reference):
    # by at most 1 eps here
    seen = set()
    for linear in cases:
        got = _verdict(lambda l: AffineIsometry(l, np.zeros(3)).linear, linear)
        want = _verdict(oracle.numpy_validate, linear)
        if got[0] == want[0] == "repaired":
            assert np.max(np.abs(got[1] - want[1])) <= 4.0 * np.finfo(float).eps, linear
        else:
            assert got == want, linear
        seen.add(got[1] if got[0] == "rejected" else got[0])
    assert seen == {
        "accepted",
        "repaired",
        "linear part is not orthogonal (residual 1.001e-06)",
        "linear part is not orthogonal (residual 1.000e-05)",
    }


def test_mgs_matches_exact_reference():
    # _mgs against Gram-Schmidt of the same float columns a_j evaluated exactly
    # in fractions, for drift in _isometry's repair range, 1e-10 to 1e-6.  With
    # r = eps / 2 and to first order (|a_j| = 1 and each projection coefficient
    # S at most 1e-6, so S times a miss is negligible): normalizing a vector
    # rounds its length by 2.5 r and each quotient by r, 3.5 r, and carries a
    # miss of the vector across it.  Column 0 misses by 3.5 r.  A coefficient
    # q_k . w carries q_k's miss and rounds by 3 r; w - s q_k adds r: column 1
    # misses by 3.5 + 3 + 1 = 7.5 r before and 11 r after normalizing.  Column
    # 2 takes 7.5 r from q_0, then 11 + 7.5 + 3 r for its q_1 coefficient and
    # r for the difference, 30 r before and 33.5 r after normalizing.  The worst
    # miss here is 1.01 eps, in column 0.
    rng = np.random.default_rng(64)
    eps = np.finfo(float).eps
    bounds = (1.75 * eps, 5.5 * eps, 16.75 * eps)
    shear = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for _ in range(300):
        r = rotation_about_axis((0, 0, 0), rng.normal(size=3), float(rng.uniform(-3, 3))).linear
        drift = 10.0 ** rng.uniform(-10.0, -6.0)
        stretch = np.diag([np.sqrt(1.0 + drift), 1.0, 1.0])
        bend = stretch if rng.uniform() < 0.5 else np.eye(3) + drift * shear
        rows = (float(rng.choice((-1.0, 1.0))) * r @ bend).tolist()
        got = np.array(oracle.rows_of(_mgs([x for row in rows for x in row])))
        exact = []
        for a in (list(map(Fraction, column)) for column in zip(*rows)):
            for q in exact:
                s = sum(x * y for x, y in zip(q, a))
                a = [x - s * y for x, y in zip(a, q)]
            length = oracle.exact_root(sum(x * x for x in a))
            exact.append([x / length for x in a])
        for j, (column, bound) in enumerate(zip(exact, bounds)):
            miss = oracle.exact_root(sum((Fraction(g) - x) ** 2 for g, x in zip(got[:, j], column)))
            assert miss <= bound * (1.0 + 1e-5), (rows, j)


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
