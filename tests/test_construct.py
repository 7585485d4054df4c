import math
import warnings

import numpy as np
import pytest

from trimirror import (
    OrientationParity,
    Plane,
    PointTriple,
    Tolerance,
    TriplePair,
    apply,
    congruent_triples,
    iso_equal,
    orientation,
    plane_reflection,
    plane_through_points,
    planes_equal,
    reflect_point,
    rotation_about_axis,
    second_motion,
    seq_to_affine,
    three_reflections,
    translation,
    then,
)
from trimirror.errors import CollinearPoints, DegenerateSource, NotCongruent
from trimirror.geom import DEFAULT_TOL, collinear

from oracle import plane_bytes, walk_three_reflections


def _random_triple(rng, scale=3.0):
    while True:
        pts = rng.uniform(-scale, scale, (3, 3))
        area = 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
        if area > 1e-2:
            return PointTriple(pts[0], pts[1], pts[2])


def _random_motion(rng):
    out = translation(rng.uniform(-3, 3, 3))
    for _ in range(int(rng.integers(0, 5))):
        plane = Plane(rng.normal(size=3), float(rng.uniform(-3, 3)))
        out = then(out, plane_reflection(plane))
    return out


def _mapping_errors(seq, src_pts, dst_pts):
    return [float(np.linalg.norm(apply(seq, s) - d)) for s, d in zip(src_pts, dst_pts)]


def test_congruent_triples_flags():
    src = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert congruent_triples(src, ((5, 5, 5), (6, 5, 5), (5, 6, 5)))
    assert congruent_triples(src, src)
    # stretching one leg breaks congruence
    assert not congruent_triples(src, ((0, 0, 0), (1.001, 0, 0), (0, 1, 0)))
    # raw sequences are accepted on both sides
    assert congruent_triples(
        ((0, 0, 0), (1, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 1, 0), (-1, 0, 0))
    )
    # one leg 0.5 longer: the edges differ by at most 0.5 exactly, which eps_len = 0.5
    # allows and the next float below it does not; each relabelling of the points puts
    # that edge in another of the three comparisons
    right = ((0, 0, 0), (3, 0, 0), (0, 4, 0))
    longer = ((0, 0, 0), (3.5, 0, 0), (0, 4, 0))
    below = Tolerance(eps_len=math.nextafter(0.5, 0))
    for k in range(3):
        turned, turned_longer = right[k:] + right[:k], longer[k:] + longer[:k]
        assert congruent_triples(turned, turned_longer, Tolerance(eps_len=0.5)), k
        assert not congruent_triples(turned, turned_longer, below), k


def test_identity_correspondence_gives_triple_plane_three_times():
    src = PointTriple((1, 0, 0), (0, 2, 0), (0, 0, 3))
    own = plane_through_points(src.a, src.b, src.c)
    seq = three_reflections(TriplePair(src, (src.a, src.b, src.c)))
    assert len(seq) == 3
    for plane in seq:
        assert planes_equal(plane, own)
    # the composite is the single reflection in that plane
    assert iso_equal(seq, plane_reflection(own), Tolerance(1e-12, 1e-12))
    assert orientation(seq) is OrientationParity.IMPROPER


def test_swap_two_points_hand_case():
    src = PointTriple((0, 0, 0), (2, 0, 0), (1, 1, 0))
    seq = three_reflections(TriplePair(src, ((2, 0, 0), (0, 0, 0), (1, 1, 0))))
    assert planes_equal(seq.planes[0], Plane((1, 0, 0), 1.0))
    assert planes_equal(seq.planes[1], Plane((0, 0, 1), 0.0))
    assert planes_equal(seq.planes[2], Plane((0, 0, 1), 0.0))
    assert iso_equal(seq, plane_reflection(Plane((1, 0, 0), 1.0)), Tolerance(1e-12, 1e-12))


def test_not_congruent_raises():
    src = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(NotCongruent):
        three_reflections(TriplePair(src, ((0, 0, 0), (2, 0, 0), (0, 1, 0))))


def test_degenerate_source_raises():
    # passes construction at a tight tolerance, collinear at the default one
    src = PointTriple((0, 0, 0), (1, 0, 0), (2, 1e-11, 0), Tolerance(1e-13, 1e-13))
    with pytest.raises(DegenerateSource):
        three_reflections(TriplePair(src, (src.a, src.b, src.c)))


def test_small_well_shaped_triangles_are_carried_onto_their_images():
    # a triangle with 1e-7 edges fixes a plane although its normal is
    # shorter than 1e-12; both motions carry it onto a translated copy of
    # itself, and onto itself
    src = PointTriple((0.0, 0.0, 0.0), (1e-7, 0.0, 0.0), (0.0, 1e-7, 0.0))
    for shift, bound in (((0.0, 0.0, 0.0), 1e-22), ((1.0, -2.0, 0.5), 2e-15)):
        dst = tuple(p + np.array(shift) for p in src.points())
        first = three_reflections(TriplePair(src, dst))
        for seq in (first, second_motion(first, dst)):
            motion = seq_to_affine(seq)
            for p, q in zip(src.points(), dst):
                assert np.linalg.norm(apply(motion, p) - q) <= bound, (shift, len(seq))


def test_stored_measurement_is_retested_at_the_callers_tolerance():
    # PointTriple keeps the triangle it measured; three_reflections tests it
    # again at its own tolerance, which must agree with collinear() there
    rng = np.random.default_rng(33)
    permissive, loose = Tolerance(1e-12, 1e-12), Tolerance(1e-7, 1e-7)
    verdicts = {tol: set() for tol in (permissive, DEFAULT_TOL, loose)}
    for _ in range(300):
        a, u = rng.uniform(-2.0, 2.0, 3), rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = np.cross(u, rng.normal(size=3))
        v /= np.linalg.norm(v)
        b = a + rng.uniform(0.5, 2.0) * u
        c = a + rng.uniform(-1.0, 3.0) * u + 10.0 ** rng.uniform(-10.5, -5.0) * v
        src = PointTriple(a, b, c, permissive)
        for tol, seen in verdicts.items():
            thin = collinear(src.a, src.b, src.c, tol)
            seen.add(thin)
            if thin:
                with pytest.raises(DegenerateSource):
                    three_reflections(TriplePair(src, src.points()), tol)
            else:
                assert len(three_reflections(TriplePair(src, src.points()), tol)) == 3
    assert verdicts == {permissive: {False}, DEFAULT_TOL: {False, True}, loose: {False, True}}


def test_random_pairs_with_stage_certificates():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        src = _random_triple(rng)
        motion = _random_motion(rng)
        dst = tuple(apply(motion, p) for p in src.points())
        seq = three_reflections(TriplePair(src, dst))
        assert len(seq) == 3
        alpha, beta, gamma = seq.planes

        # stage 1 puts A in place
        a1 = reflect_point(alpha, src.a)
        assert np.linalg.norm(a1 - dst[0]) <= 1e-9
        # stage 2 leaves A alone and puts B in place
        a2 = reflect_point(beta, a1)
        b2 = reflect_point(beta, reflect_point(alpha, src.b))
        assert np.linalg.norm(a2 - dst[0]) <= 1e-9
        assert np.linalg.norm(b2 - dst[1]) <= 1e-9
        # stage 3 finishes C without disturbing the others
        assert max(_mapping_errors(seq, src.points(), dst)) <= 1e-9
        assert orientation(seq) is OrientationParity.IMPROPER


def test_forced_branch_source_point_fixed():
    # A = A', so the first mirror degenerates to the source triple's plane
    rng = np.random.default_rng(32)
    for _ in range(100):
        src = _random_triple(rng)
        spin = rotation_about_axis(src.a, rng.normal(size=3), float(rng.uniform(0.5, 3.0)))
        dst = (src.a, apply(spin, src.b), apply(spin, src.c))
        if np.linalg.norm(dst[1] - src.b) < 1e-6:
            continue
        seq = three_reflections(TriplePair(src, dst))
        assert planes_equal(seq.planes[0], plane_through_points(src.a, src.b, src.c))
        assert max(_mapping_errors(seq, src.points(), dst)) <= 1e-9


def test_forced_branch_two_points_fixed():
    # A = A' and B = B': only C moves, by a rotation about line(A, B)
    rng = np.random.default_rng(33)
    for _ in range(100):
        src = _random_triple(rng)
        spin = rotation_about_axis(src.a, src.b - src.a, float(rng.uniform(0.5, 3.0)))
        dst = (src.a, src.b, apply(spin, src.c))
        if np.linalg.norm(dst[2] - src.c) < 1e-6:
            continue
        seq = three_reflections(TriplePair(src, dst))
        own = plane_through_points(src.a, src.b, src.c)
        assert planes_equal(seq.planes[0], own)
        assert planes_equal(seq.planes[1], own)
        assert max(_mapping_errors(seq, src.points(), dst)) <= 1e-9


def test_forced_branch_b_lands_after_first_mirror():
    # dst is a single reflection of src, so B is in place after stage 1
    rng = np.random.default_rng(34)
    done = 0
    while done < 100:
        mirror = Plane(rng.normal(size=3), float(rng.uniform(-2, 2)))
        src = _random_triple(rng)
        if abs(mirror.signed_distance(src.a)) < 0.1:
            continue
        dst = tuple(reflect_point(mirror, p) for p in src.points())
        seq = three_reflections(TriplePair(src, dst))
        assert planes_equal(seq.planes[0], mirror)
        assert max(_mapping_errors(seq, src.points(), dst)) <= 1e-9
        assert iso_equal(seq, plane_reflection(mirror), Tolerance(1e-9, 1e-9))
        done += 1


def test_forced_branch_c_on_destination_line():
    # B lands after stage 1 and C sits on line(A', B'), forcing the
    # doubly-degenerate second mirror
    rng = np.random.default_rng(35)
    done = 0
    while done < 100:
        mirror = Plane(rng.normal(size=3), float(rng.uniform(-2, 2)))
        a = rng.uniform(-3, 3, 3)
        b = rng.uniform(-3, 3, 3)
        if abs(mirror.signed_distance(a)) < 0.1 or np.linalg.norm(a - b) < 0.5:
            continue
        a2, b2 = reflect_point(mirror, a), reflect_point(mirror, b)
        c = a2 + float(rng.uniform(0.3, 2.0)) * (b2 - a2)
        if collinear(a, b, c):
            continue
        c2 = reflect_point(mirror, c)
        src = PointTriple(a, b, c)
        seq = three_reflections(TriplePair(src, (a2, b2, c2)))
        assert planes_equal(seq.planes[1], plane_through_points(a, b, c))
        assert max(_mapping_errors(seq, src.points(), (a2, b2, c2))) <= 1e-9
        done += 1


def test_second_motion_properties():
    rng = np.random.default_rng(36)
    for _ in range(200):
        src = _random_triple(rng)
        motion = _random_motion(rng)
        dst = tuple(apply(motion, p) for p in src.points())
        pair = TriplePair(src, dst)
        first = three_reflections(pair)
        partner = second_motion(first, dst)
        assert len(partner) == 4
        assert orientation(partner) is OrientationParity.PROPER
        # same action on the triple, different motion overall
        assert max(_mapping_errors(partner, src.points(), dst)) <= 1e-9
        assert not iso_equal(first, partner)
        # off-plane probe: the two images sit mirror-symmetric across the
        # destination plane, so their gap is twice the distance to it
        probe = src.a + np.array([0.517, -1.203, 2.391])
        gap = float(np.linalg.norm(apply(first, probe) - apply(partner, probe)))
        dst_plane = plane_through_points(*dst)
        assert abs(gap - 2.0 * abs(dst_plane.signed_distance(apply(first, probe)))) <= 1e-9
        as_triple = second_motion(first, PointTriple(*dst))
        # three_reflections' own measurement of pair.dst, an equal copy of it
        # and a looser tol all close with the same plane
        own = second_motion(first, pair.dst)
        copied = second_motion(first, tuple(np.array(p) for p in pair.dst))
        loose = second_motion(first, pair.dst, Tolerance(1e-6, 1e-6))
        for closing in (partner, as_triple, own, copied, loose):
            assert plane_bytes(closing.planes[3]) == plane_bytes(dst_plane)
        # any other destination is measured afresh
        moved = tuple(p + 1.0 for p in dst)
        assert plane_bytes(second_motion(first, moved).planes[3]) == plane_bytes(
            plane_through_points(*moved)
        )
        # at a tol that makes the destination thin, each way refuses alike
        thin = Tolerance(1e3, 1e-9)
        for given in (pair.dst, dst, PointTriple(*dst)):
            with pytest.raises(CollinearPoints, match="^three collinear points do not fix a plane$"):
                second_motion(first, given, thin)


def test_second_motion_of_identity_correspondence():
    src = PointTriple((1, 0, 0), (0, 2, 0), (0, 0, 3))
    first = three_reflections(TriplePair(src, (src.a, src.b, src.c)))
    partner = second_motion(first, (src.a, src.b, src.c))
    # four copies of the same mirror compose to the identity map
    assert iso_equal(partner, translation((0, 0, 0)), Tolerance(1e-12, 1e-12))


def test_second_motion_rejects_collinear_destination():
    src = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    seq = three_reflections(TriplePair(src, (src.a, src.b, src.c)))
    with pytest.raises(CollinearPoints, match="^three collinear points do not fix a plane$"):
        second_motion(seq, ((0, 0, 0), (1, 0, 0), (2, 0, 0)))


def test_three_reflections_rejects_overflowing_chords():
    # congruent triples 2e307 apart: the bisector's chord length overflows,
    # and Plane used to store a zero normal, leaving A unmoved; the walk runs
    # on floats, which overflow silently, so no warning is emitted
    src = PointTriple((1e307, 0, 0), (1e307, 1, 0), (1e307, 0, 1))
    dst = ((-1e307, 0, 0), (-1e307, 1, 0), (-1e307, 0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^plane normal must have a nonzero, finite length$"):
            three_reflections(TriplePair(src, dst))


def test_three_reflections_walks_a_triangle_whose_area_squares_overflow():
    # edges of 2e77: the doubled area 4e154 is measured at a power-of-two
    # scale, so the walk and its partner close with the triangles' own planes
    src = PointTriple((0, 0, 0), (2e77, 0, 0), (0, 2e77, 0))
    dst = ((1, 0, 0), (1, 2e77, 0), (1, 0, 2e77))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = three_reflections(TriplePair(src, dst))
        second = second_motion(first, dst)
    assert plane_bytes(second.planes[-1]) == plane_bytes(Plane((1, 0, 0), 1))
    for seq in (first, second):
        motion = seq_to_affine(seq)
        for p, q in zip(src.points(), dst):
            assert np.allclose(apply(motion, p), q, rtol=0, atol=1e-14 * 2e77)


def test_triple_pair_validation():
    src = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        TriplePair(((0, 0, 0), (1, 0, 0), (0, 1, 0)), (src.a, src.b, src.c))
    with pytest.raises(ValueError):
        TriplePair(src, ((0, 0, 0), (1, 0, 0)))


# Each branch of the mirror walk, and the stage path it should take: the
# first mirror, the second (with "on_line" for C on line A'B'), the third.
_BRANCH_PATHS = {
    "generic": ("moved", "moved", "moved"),
    "a_in_place": ("fixed", "moved", "moved"),
    "ab_in_place": ("fixed", "fixed", "moved"),
    "identity": ("fixed", "fixed", "fixed"),
    "c_on_dst_line": ("moved", "on_line"),
}


def _branch_pair(rng, branch):
    """Source and destination points near the origin that take `branch`."""
    while True:
        a, b, c = _random_triple(rng).points()
        angle = float(rng.uniform(0.5, 3.0))
        if branch == "generic":
            motion = then(rotation_about_axis(a, rng.normal(size=3), angle), _random_motion(rng))
        elif branch == "a_in_place":
            motion = rotation_about_axis(a, rng.normal(size=3), angle)
        elif branch == "ab_in_place":
            motion = rotation_about_axis(a, b - a, angle)
        elif branch == "identity":
            motion = translation((0.0, 0.0, 0.0))
        else:
            # a mirror puts A and B in place, C sits on line A'B', and a turn
            # about that line moves C' off the mirror image of C
            mirror = Plane(rng.normal(size=3), float(rng.uniform(-2.0, 2.0)))
            if abs(mirror.signed_distance(a)) < 0.1:
                continue
            a2, b2 = reflect_point(mirror, a), reflect_point(mirror, b)
            c = a2 + float(rng.uniform(1.3, 2.0)) * (b2 - a2)
            if collinear(a, b, c, Tolerance(1e-3, 1e-3)):
                continue
            motion = then(plane_reflection(mirror), rotation_about_axis(a2, b2 - a2, angle))
        return (a, b, c), tuple(apply(motion, p) for p in (a, b, c))


def test_three_reflections_matches_public_walk_bit_for_bit():
    rng = np.random.default_rng(37)
    taken = {branch: 0 for branch in _BRANCH_PATHS}
    for _ in range(200):
        for branch, path in _BRANCH_PATHS.items():
            src, dst = _branch_pair(rng, branch)
            shift = rng.normal(size=3)
            shift *= 10.0 ** rng.uniform(-6.0, 6.0) / np.linalg.norm(shift)
            pair = TriplePair(PointTriple(*(p + shift for p in src)), tuple(q + shift for q in dst))
            want, walked = walk_three_reflections(pair)
            got = three_reflections(pair)
            assert list(map(plane_bytes, got.planes)) == list(map(plane_bytes, want.planes))
            taken[branch] += walked[: len(path)] == path
    # rounding at offsets near 1e6 may tip a case into a neighbouring branch,
    # but every branch must be taken by most of its cases
    assert min(taken.values()) >= 150, taken


def test_three_reflections_overflowing_stage_image_raises_like_the_walk():
    # One ulp below the largest double, the source plane's offset rounds up
    # to the largest double, so the image of B in it lands beyond: inf.
    big = np.nextafter(np.finfo(float).max, 0.0)
    src = PointTriple((big, -0.295, 0.04), (big, -0.147, -0.919), (big, -0.612, 0.89))
    pair = TriplePair(src, src.points())
    errors = []
    with pytest.raises(ValueError, match="^vector components must be finite$"):
        reflect_point(plane_through_points(*src.points()), src.b)
    for build in (three_reflections, walk_three_reflections):
        with pytest.raises(ValueError, match="vector components must be finite") as info:
            build(pair)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
