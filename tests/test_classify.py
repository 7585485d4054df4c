import contextlib
import dataclasses
import importlib
import itertools
import math
import struct
import warnings
from fractions import Fraction

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
    ReflectionSequence,
    Rotation,
    RotaryReflection,
    Screw,
    Tolerance,
    Translation,
    apply,
    classify,
    classify_fixed_point,
    identity,
    iso_equal,
    lines_equal,
    plane_reflection,
    planes_equal,
    reconstruct,
    rotation_about_axis,
    rotation_from_plane_pair,
    seq_to_affine,
    split_translation,
    then,
    translation,
    vec3,
)
from trimirror.errors import (
    InvalidClassParameters,
    NotAFixedPoint,
    ParallelDistinctMirrors,
)
from trimirror.classify import _CENTER_SLACK, _PARAM_EPS, _fixed_point, _linear_kernel, _split
from trimirror.motion import _rodrigues
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


def test_angle_collapses_below_the_angle_floor():
    # eps_len below eps_angle: the columns of L -/+ I are longer than eps_len,
    # so the kernel's angle test, not its column test, collapses the class
    tol = Tolerance(eps_len=1e-12, eps_angle=1e-9)
    z = (0.0, 0.0, 1.0)
    turn = rotation_about_axis((0, 0, 0), z, 1e-10)
    assert classify(turn, tol) == Identity() == classify_fixed_point(turn, (0, 0, 0), tol)
    got = classify(rotation_about_axis((1.0, 2.0, 0.0), z, 1e-10), tol)  # axis off the origin
    assert isinstance(got, Translation)
    assert np.allclose(got.v, (2e-10, -1e-10, 0.0), rtol=1e-6, atol=0.0)
    rotary = _rotary_motion(Plane(z, 0.0), (0, 0, 0), np.pi - 1e-10)
    assert isinstance(classify(rotary, tol), Inversion)
    assert isinstance(classify_fixed_point(rotary, (0, 0, 0), tol), Inversion)


def _through(c, *normals) -> ReflectionSequence:
    """Mirrors through the point c with the given normals."""
    return ReflectionSequence(tuple(Plane(n, float(np.dot(n, c))) for n in normals))


def _repr17(record) -> str:
    with np.printoptions(precision=17):
        return repr(record)


def test_sequences_classify_as_their_affine_motions():
    # classify and classify_fixed_point take a ReflectionSequence as it is;
    # their records equal those of the motion seq_to_affine makes of it
    c = (1.0, -2.0, 0.5)
    parallel = ReflectionSequence((Plane((0, 1, 0), 1.0), Plane((0, 1, 0), -2.0)))
    cases = [
        (_through(c, (1, 0, 0), (1, 1, 0)), Rotation),
        (parallel, Translation),
        (_through(c, (0, 1, 1), (0, 1, 1)), Identity),
        (_through(c, (1, 0, 0), (0, 1, 0), (1, 1, 1)), RotaryReflection),
    ]
    for seq, kind in cases:
        affine = seq_to_affine(seq)
        got = classify(seq)
        assert isinstance(got, kind), got
        assert _repr17(got) == _repr17(classify(affine)), seq
        if seq is parallel:
            for motion in (seq, affine):
                with pytest.raises(NotAFixedPoint):
                    classify_fixed_point(motion, c)
        else:
            assert _repr17(classify_fixed_point(seq, c)) == _repr17(classify_fixed_point(affine, c))


def test_find_probe_witness_fields():
    motion = rotation_about_axis((0, 0, 0), (0, 0, 1), 0.7)
    w = oracle.find_probe(motion, (0, 0, 0))
    assert w.case_tag == "generic"
    assert np.allclose(w.b, apply(motion, w.a), atol=1e-15)
    assert np.allclose(w.b_prime, apply(motion, w.b), atol=1e-15)
    half = rotation_about_axis((0, 0, 0), (0, 0, 1), np.pi)
    assert oracle.find_probe(half, (0, 0, 0)).case_tag == "half-turn"


def test_find_probe_exhausts_on_identity():
    with pytest.raises(oracle.ProbeExhausted):
        oracle.find_probe(identity(), (0, 0, 0))


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


def _bits(x):
    """x's type and, nested, its floats' bytes (so -0.0 differs from 0.0), its arrays' dtype,
    shape, writability and bytes, and each value's __dict__ keys in order."""
    if isinstance(x, float):
        return struct.pack("d", x)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.flags.writeable, x.tobytes()
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_bits(v) for v in x]
    return type(x).__name__, [(k, _bits(v)) for k, v in vars(x).items()]


def _outcome(classifier, *args):
    """_bits of the fresh record (its kept floats), then of its fields and of their planes'
    and lines' fields, arrays included; or the refusal."""
    try:
        record = classifier(*args)
    except NotAFixedPoint as exc:
        return "refused", str(exc)
    kept = _bits(record)  # before a read adds an array to its __dict__
    values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    nested = [getattr(v, f.name) for v in values if isinstance(v, (Plane, Line3))
              for f in dataclasses.fields(v)]
    return kept, [_bits(v) for v in values], [_bits(v) for v in nested]


_BYTE_TOLS = (Tolerance(), Tolerance(1e-3, 1e-3), Tolerance(1e-12, 1e-12))


def test_fixed_point_records_match_the_public_constructors_bit_for_bit():
    # classify_fixed_point builds its records, axes and mirrors from the kernel's floats
    # (classify._record, geom._line, geom._plane); the public constructors, which check and
    # normalize those floats again, must build the same records, byte for byte
    rng = np.random.default_rng(2701)
    built = set()
    for scale in (1.0, 1e3, 1e6):
        for _ in range(40):
            c = oracle.random_point(rng) * scale
            n = oracle.random_unit(rng)
            mirror, angle = Plane(n, float(n @ c)), oracle.random_angle(rng)
            motions = (  # the five classes, and the angles that collapse to the simpler one
                identity(), rotation_about_axis(c, n, 1e-11), rotation_about_axis(c, n, angle),
                rotation_about_axis(c, n, np.pi), plane_reflection(mirror),
                reconstruct(Inversion(center=c)), _rotary_motion(mirror, c, angle),
                _rotary_motion(mirror, c, np.pi - 1e-11), _rotary_motion(mirror, c, 1e-11),
            )
            for motion, tol in itertools.product(motions, _BYTE_TOLS):
                got = _outcome(classify_fixed_point, motion, c, tol)
                assert got == _outcome(oracle.constructor_classify_fixed_point, motion, c, tol)
                if got[0] != "refused":
                    built.add((scale, tol, got[0][0]))
    names = ("Identity", "Rotation", "Reflection", "Inversion", "RotaryReflection")
    assert built == set(itertools.product((1.0, 1e3, 1e6), _BYTE_TOLS, names))


def test_plane_pair_records_match_the_public_constructors_bit_for_bit():
    rng = np.random.default_rng(2702)
    built = set()
    for _ in range(200):
        point = oracle.random_point(rng)
        n1, n2 = oracle.random_unit(rng), oracle.random_unit(rng)
        if np.linalg.norm(np.cross(n1, n2)) < 1e-2:
            continue
        alpha, beta = Plane(n1, float(n1 @ point)), Plane(n2, float(n2 @ point))
        for a, b in ((alpha, beta), (alpha, alpha), (alpha, Plane(-n1, -float(n1 @ point)))):
            for tol in _BYTE_TOLS:
                got = _outcome(rotation_from_plane_pair, a, b, tol)
                assert got == _outcome(oracle.constructor_rotation_from_plane_pair, a, b, tol)
                built.add(got[0][0])
    assert built == {"Identity", "Rotation"}


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


def test_split_translation_rejects_overflowing_direction():
    # the squared length overflows, silently on floats, and the unit direction
    # would come out as (0, 0, 0), splitting nothing off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^splitter direction must have a nonzero, finite"):
            split_translation((1.0, 2.0, 3.0), (1e200, 0.0, 0.0))


def test_split_translation_refuses_a_non_finite_split():
    # k = u . d overflows to inf, so n = k d and v = u - n would hold inf and nan
    u, d = (1.5e308, 1.5e308, 0.0), (1.0, 1.0, 0.0)
    for splitter in (d, Line3((0.0, 0.0, 0.0), d), Plane(d, 0.0)):
        with pytest.raises(ValueError, match="^vector components must be finite$"):
            split_translation(u, splitter)
    # a finite split keeps its bytes, k d and u - k d on the unit direction, in two fresh
    # writable arrays
    rng = np.random.default_rng(2703)
    for _ in range(100):
        u = oracle.random_point(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        line, plane = oracle.random_line(rng), oracle.random_plane(rng)
        w0, w1, w2 = bare = oracle.random_point(rng).tolist()
        length = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        for splitter, unit in ((line, line._floats[1]), (plane, plane._n),
                               (bare, (w0 / length, w1 / length, w2 / length))):
            (u0, u1, u2), (d0, d1, d2) = u.tolist(), unit
            k = u0 * d0 + u1 * d1 + u2 * d2
            n, v = split_translation(u, splitter)
            assert n.tobytes() == struct.pack("3d", k * d0, k * d1, k * d2)
            assert v.tobytes() == struct.pack("3d", u0 - k * d0, u1 - k * d1, u2 - k * d2)
            assert n.dtype == v.dtype == np.float64 and n.shape == v.shape == (3,)
            assert n.flags.writeable and v.flags.writeable and not np.shares_memory(n, v)


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
    with pytest.raises(InvalidClassParameters, match="^unrecognized class record"):
        reconstruct(z_plane)


@pytest.fixture
def floats_calls(monkeypatch):
    """The values passed to _floats through trimirror.geom or trimirror.classify."""
    calls, real = [], importlib.import_module("trimirror.geom")._floats

    def counted(value):
        calls.append(value)
        return real(value)

    for name in ("trimirror.geom", "trimirror.classify"):
        monkeypatch.setattr(importlib.import_module(name), "_floats", counted)
    return calls


def _rotary_edges(rng):
    """(record, accepted) for rotary centers just inside and just outside _PARAM_EPS and
    _CENTER_SLACK |x| off their mirror: exact on z = 0, by signed_distance on tilted mirrors."""
    z_plane, far = Plane((0, 0, 1), 0.0), _CENTER_SLACK * 1e6  # |(1e6, 0, far)| rounds to 1e6
    edges = []
    near_and_far = (((0.0, 0.0), _PARAM_EPS), ((1e6, 0.0), far))
    for (x, edge), sign in itertools.product(near_and_far, (1.0, -1.0)):
        for z, accepted in ((edge, True), (math.nextafter(edge, math.inf), False)):
            record = RotaryReflection(mirror=z_plane, center=(*x, sign * z), angle=0.5)
            edges.append((record, accepted))
    for _ in range(200):
        mirror, scale = oracle.random_plane(rng), float(rng.choice((1.0, 1e6)))
        foot = oracle.random_point(rng, scale)
        foot = foot - mirror.signed_distance(foot) * mirror.normal
        edge = max(_PARAM_EPS, _CENTER_SLACK * scale)
        center = foot + edge * float(rng.uniform(0.5, 1.5)) * mirror.normal
        miss = abs(mirror.signed_distance(center))  # the parent's measure, on the stored center
        record = RotaryReflection(mirror=mirror, center=center, angle=0.5)
        hypot = math.hypot(*record.center.tolist())
        edges.append((record, miss <= _PARAM_EPS or miss <= _CENTER_SLACK * hypot))
    return edges


def test_reconstruct_reads_kept_floats_only(floats_calls):
    # every record keeps the floats of its vectors, checked when it is built,
    # and its rebuild reads only those: the rotary one measures its center's
    # miss from the mirror on them, with the bits of signed_distance, which
    # would send the center through _floats again.  Its slack keeps its
    # edges: the centers on either side of _PARAM_EPS and of _CENTER_SLACK |x|
    z_axis, z_plane = Line3((1, 2, 0), (0, 0, 1)), Plane((0, 0, 1), 1.0)
    records = [
        Identity(),
        Translation(v=(1.0, 2.0, 3.0)),
        Rotation(axis=z_axis, angle=0.5),
        Screw(axis=z_axis, angle=0.5, slide=(0.0, 0.0, 2.0)),
        Reflection(mirror=z_plane),
        GlideReflection(mirror=z_plane, slide=(1.0, 2.0, 0.0)),
        Inversion(center=(1.0, 2.0, 3.0)),
        RotaryReflection(mirror=z_plane, center=(1.0, 2.0, 1.0), angle=0.5),
    ]
    edges = _rotary_edges(np.random.default_rng(61))
    z_plane.signed_distance((0.0, 0.0, 0.0))
    assert floats_calls, "the patch sees a _floats call through geom"
    floats_calls.clear()
    for record in records:
        reconstruct(record)
    verdicts = set()
    for record, accepted in edges:
        verdicts.add(accepted)
        if accepted:
            reconstruct(record)
        else:
            with pytest.raises(InvalidClassParameters, match="^rotary center must lie on"):
                reconstruct(record)
    assert floats_calls == []
    assert len({type(record) for record in records}) == 8 and verdicts == {True, False}


def test_records_refuse_an_axis_or_mirror_of_another_type():
    # the rebuilds trust the unit direction a Line3 or Plane keeps, so the
    # public constructors refuse any other value, as TriplePair does
    z_axis, z_plane = Line3((0, 0, 0), (0, 0, 1)), Plane((0, 0, 1), 1.0)
    with pytest.raises(ValueError, match="^axis must be a Line3$"):
        Rotation(axis=None, angle=1.0)
    with pytest.raises(ValueError, match="^axis must be a Line3$"):
        Screw(axis=z_plane, angle=1.0, slide=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="^mirror must be a Plane$"):
        Reflection(mirror=((0, 0, 1), 1.0))
    with pytest.raises(ValueError, match="^mirror must be a Plane$"):
        GlideReflection(mirror=z_axis, slide=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^mirror must be a Plane$"):
        RotaryReflection(mirror=None, center=(0.0, 0.0, 1.0), angle=1.0)
    rebuilt = reconstruct(Rotation(axis=z_axis, angle=np.pi / 2))
    assert np.allclose(apply(rebuilt, (1.0, 0.0, 0.0)), (0.0, 1.0, 0.0))


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
        kind, direction, angle = _linear_kernel(linear.ravel().tolist(), tol)
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


def _random_orthogonal_parts(rng):
    """Seeded random orthogonal matrices, proper and improper in turn."""
    for _ in range(2000):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        q = q if np.linalg.det(q) > 0.0 else -q
        yield q
        yield -q


def _kernel_matches_two_pass(rows, tol: Tolerance, zero: float = -0.0) -> type:
    """The kernel's class of rows, read by the kernel row-major, once its class, direction
    and angle keep every bit of the two-pass reference's; zero=0.0 compares the direction
    with its zeros made +0.0."""
    kind, direction, angle = _linear_kernel([x for row in rows for x in row], tol)
    want_kind, want_direction, want_angle = oracle.two_pass_linear_kernel(rows, tol)
    assert kind is want_kind, (rows, tol)
    assert (direction is None) == (want_direction is None), (rows, tol)
    if direction is not None:
        got, want = ([x + zero for x in v] for v in (direction, want_direction))
        assert np.array(got).tobytes() == np.array(want).tobytes(), (rows, tol)
    assert np.float64(angle).tobytes() == np.float64(want_angle).tobytes(), (rows, tol)
    return kind


def test_linear_kernel_matches_two_pass_reference_bit_for_bit():
    # the one-pass kernel negates the unpacked entries of an improper linear
    # part and forms the trace and skew vector once; negation is exact, so
    # the class, direction and angle must keep every bit of the two passes
    rng = np.random.default_rng(58)
    parts = itertools.chain(_seam_linear_parts(rng), _random_orthogonal_parts(rng))
    seen = {_kernel_matches_two_pass(linear.tolist(), Tolerance()) for linear in parts}
    assert seen == {Identity, Rotation, Reflection, Inversion, RotaryReflection}


def _near_signed_identities(tol: Tolerance):
    """I and -I with one diagonal entry moved off by a few ulps around eps_len and
    2 eps_len, each way, bare and with a turn of eps_len / 2 about that entry's axis
    in the other two columns, and the offsets that moved entry has from 1 or -1."""
    rows, offsets = [], set()
    turns = (0.0, 0.5 * tol.eps_len)
    grid = itertools.product((1.0, -1.0), range(3), (1.0, 2.0), (1.0, -1.0), turns)
    for s, j, k, away, t in grid:
        entry = s + away * k * tol.eps_len
        for _ in range(3):  # walk the few floats around the bound, on either side of it
            entry = math.nextafter(entry, -math.inf)
        for _ in range(6):
            entry = math.nextafter(entry, math.inf)
            linear = [[s if row == col else 0.0 for col in range(3)] for row in range(3)]
            linear[j][j] = entry
            p, q = (j + 1) % 3, (j + 2) % 3
            linear[q][p], linear[p][q] = s * t, -s * t  # the columns stay within eps_len of I's
            rows.append(linear)
            offsets.add(abs(entry - s) / tol.eps_len)
    return rows, offsets


@pytest.mark.parametrize(
    "tol",
    [Tolerance(), Tolerance(1e-3, 1e-3), Tolerance(1e-200, 1e-200), Tolerance(10.0, 1.0),
     Tolerance(1e-6, 1e-12)],
    ids=["default", "1e-3", "1e-200", "10", "1e-6-1e-12"],
)
def test_linear_kernel_diagonal_check_matches_two_pass_reference_bit_for_bit(tol):
    # the kernel runs the column tests against I and -I only where every
    # diagonal entry lies within 2 eps_len of 1 or of -1; the reference runs
    # them on every input, so each tolerance's verdicts, directions and
    # angles must keep every bit, at tiny eps_len too (1e-200).  The
    # inputs: the seam and random parts above, the first 2,000 cases of each
    # classify workload the benchmark times, and I and -I moved by just under
    # and just over eps_len and 2 eps_len on one diagonal entry.  Where
    # eps_angle < eps_len / 2 the turn of eps_len / 2 would not collapse, so
    # only the column tests make those Identity or Inversion: a check that
    # skipped a test it should run would read Rotation or RotaryReflection.
    # Those turns leave a skew component exactly zero, whose sign the two
    # kernels set apart: the kernel negates linear's, -(x - x) = -0.0, where
    # the reference takes -linear's, -x - -x = +0.0, so there the direction
    # is compared with its zeros made +0.0 and the angle bit for bit
    rng, gen = np.random.default_rng(60), oracle.perfbench_gen()
    parts = [linear.tolist() for linear in _seam_linear_parts(rng)]
    parts += [linear.tolist() for linear in _random_orthogonal_parts(rng)]
    for stream in (gen.classify_mixed, gen.classify_seams):
        for case in itertools.islice(stream(1), 2000):
            parts.append(oracle.rows_of(AffineIsometry(case.motion.linear, case.motion.t)._parts))
    for linear in parts:
        _kernel_matches_two_pass(linear, tol)
    near, offsets = _near_signed_identities(tol)
    seen = {_kernel_matches_two_pass(linear, tol, zero=0.0) for linear in near}
    if tol.eps_len >= 1e-12:  # a diagonal entry near 1 moves by 2.2e-16 at the least
        assert min(offsets) < 1.0 < max(offsets) and min(offsets) < 2.0 < max(offsets), offsets
    if tol.eps_angle < 0.5 * tol.eps_len:
        assert seen == {Identity, Rotation, Inversion, RotaryReflection}, seen


def test_tiny_tolerance_tells_a_tiny_turn_from_the_identity():
    # at eps_len = eps_angle = 1e-200 a turn by 1e-170 has columns of L - I and
    # a skew vector about 1e-170 long, whose squares underflow to zero: the
    # kernel measures a length whose squares sum below 2^-1022 with math.hypot,
    # so the turn reads as a Rotation by its own angle, not as the identity
    # (the column tests) with an unnormalized axis and a zero angle (the axis)
    tol = Tolerance(1e-200, 1e-200)
    for angle in (1e-170, -1e-170, 1e-190, 3e-160):
        m = rotation_about_axis((0, 0, 0), (0, 0, 1), angle)
        for record in (classify(m, tol), classify_fixed_point(m, (0.0, 0.0, 0.0), tol)):
            assert isinstance(record, Rotation), (angle, record)
            assert record.angle == angle and record.axis._floats[1] == (0.0, 0.0, 1.0), angle
        assert reconstruct(classify(m, tol))._parts == m._parts, angle
        assert isinstance(classify(m), Identity)  # under the default tolerance, as before


def test_split_matches_exact_reference():
    # _split(u, d) against k = u . d, n = k d, v = u - n evaluated exactly in
    # fractions from the same floats.  With unit roundoff r = eps / 2, the
    # three-term dot product misses by at most 3 r sum |u_i d_i| <= 3 r |u| |d|
    # (Higham's gamma_3 bound and Cauchy-Schwarz), and each k d_i adds its own
    # rounding, r |k| |d_i|, so |n - N| <= (3 + 1) r |u| |d|^2 = 2 eps |u|.
    # Each u_i - n_i adds r |u_i - n_i|, at most r |u| in norm, so |v - V| <=
    # 5 r |u| = 2.5 eps |u|.  |d| is 1 to a few eps, and the bounds hold to
    # first order in eps: the factor 1 + 1e-12 covers the second-order terms.
    # The worst miss here is 0.93 eps |u|, along and across.
    rng = np.random.default_rng(59)
    eps = np.finfo(float).eps
    directions = []
    for linear in _seam_linear_parts(rng):
        kind, direction, _ = _linear_kernel(linear.ravel().tolist(), Tolerance())
        if direction is not None:  # the unit d as classify makes it
            length = math.sqrt(sum(x * x for x in direction))
            directions.append([x / length for x in direction])
    directions += [oracle.random_unit(rng).tolist() for _ in range(len(directions))]
    for d in directions:
        u = (rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)).tolist()
        n, v = _split(u, d)
        fu, fd = [Fraction(x) for x in u], [Fraction(x) for x in d]
        k = sum(x * y for x, y in zip(fu, fd))
        along = [k * x for x in fd]
        across = [x - y for x, y in zip(fu, along)]
        size = math.sqrt(sum(x * x for x in u)) * (1.0 + 1e-12)
        miss_along = math.sqrt(sum(float(Fraction(g) - x) ** 2 for g, x in zip(n, along)))
        miss_across = math.sqrt(sum(float(Fraction(g) - x) ** 2 for g, x in zip(v, across)))
        assert miss_along <= 2.0 * eps * size, (u, d)
        assert miss_across <= 2.5 * eps * size, (u, d)


def test_fixed_point_matches_exact_reference():
    # _fixed_point against (w + cos(h) / sin(h) d x w) / 2, h = angle / 2,
    # evaluated exactly in fractions from the same float w, d, cos(h) and sin(h);
    # the worst miss here is 5.6 eps |x|.  8 eps |x| is never looser than the
    # old 2x2 solve's 16 eps |v| / det, since |x| = |v| / (2 |sin(h)|) and det
    # = 4 sin^2(h) <= 4.  That solve, which used the input's linear part
    # rather than the turn by angle about d, missed it by up to 2e8 eps |x|.
    rng = np.random.default_rng(55)
    tol = Tolerance()
    eps = np.finfo(float).eps
    seen = set()
    for linear in _seam_linear_parts(rng):
        kind, direction, angle = _linear_kernel(linear.ravel().tolist(), tol)
        if kind not in (Rotation, RotaryReflection):
            continue
        seen.add(kind)
        d = np.array(direction)
        u = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)
        w = (u - (u @ d) * d if kind is Rotation else u).tolist()
        got = _fixed_point(w, direction, angle)
        cot = Fraction(math.cos(0.5 * angle)) / Fraction(math.sin(0.5 * angle))
        (d0, d1, d2), (w0, w1, w2) = map(Fraction, direction), map(Fraction, w)
        cross = (d1 * w2 - d2 * w1, d2 * w0 - d0 * w2, d0 * w1 - d1 * w0)
        want = [(Fraction(x) + cot * y) / 2 for x, y in zip(w, cross)]
        size = math.sqrt(sum(float(x) ** 2 for x in want))
        miss = max(abs(Fraction(g) - x) for g, x in zip(got, want))
        assert float(miss) <= 8.0 * eps * size, (linear, w)
    assert seen == {Rotation, RotaryReflection}


def test_turn_records_fix_their_axis_point_or_center():
    # the input motion moves a Rotation's or Screw's axis point by exactly its
    # slide, and fixes a RotaryReflection's center, up to rounding.  Over
    # seeds 57 to 63 the worst miss was 32 eps max(1, |x|) (91 on the same
    # seeds without the motions fixing c), before and after the closed form
    # alike: a half turn, whose axis the kernel reads to a few eps.  A flipped
    # cot(angle / 2) or w x d for d x w misses by about |x|.
    rng = np.random.default_rng(57)
    bound = 128.0 * np.finfo(float).eps
    motions = [
        oracle.record_motion(oracle.random_record(rng, variant))
        for _ in range(200)
        for variant in ("rotation", "screw", "rotary_reflection")
    ]
    for linear in _seam_linear_parts(rng):
        turn = classify(AffineIsometry(linear, np.zeros(3)))
        for scale in (1.0, 1e3, 1e6):
            u, c = rng.normal(size=(2, 3)) * scale
            motions.append(AffineIsometry(linear, u))
            # fixing c, at a small angle u runs almost along d: the rounding
            # of its long component must not move the center along d
            motions.append(AffineIsometry(linear, c - linear @ c))
            if isinstance(turn, Rotation):  # no slide along the axis: a Rotation record
                d = turn.axis.direction
                motions.append(AffineIsometry(linear, u - (u @ d) * d))
    seen = set()
    for m in motions:
        record = classify(m)
        if isinstance(record, (Rotation, Screw)):
            x = record.axis.point
            want = x + record.slide if isinstance(record, Screw) else x
        elif isinstance(record, RotaryReflection):
            x = want = record.center
        else:
            continue
        seen.add(type(record))
        miss = np.linalg.norm(apply(m, x) - want)
        assert miss <= bound * max(1.0, np.linalg.norm(x)), (m, record)
    assert seen == {Rotation, Screw, RotaryReflection}


def test_far_rotary_centers_round_trip():
    # a rotary reflection by a small angle with a long translation u puts its
    # center x about |u| / angle away.  The mirror is placed from u's split, at
    # (d . k d) / 2 with k = u . d, within 4 eps |u| of the exact (d . u) / 2:
    # 3 r |u| / 2 from k and 13 r |k| / 2 from the rest, r = eps / 2, as the
    # classify module derives beside _CENTER_SLACK; x lies within _CENTER_SLACK
    # |x| of it, and reconstruct takes every record back.  The worst misses
    # here are 1.1 eps |u| and 0.95 eps |x|.  The mirror placed through x, as
    # before, missed (d . u) / 2 by up to 7e6 eps |u| here, and reconstruct
    # refused 2,413 of these 3,600 records against an absolute 1e-9.
    rng = np.random.default_rng(73)
    eps = np.finfo(float).eps
    for exponent in range(-7, -1):
        for scale in (1e3, 1e6):
            for _ in range(300):
                d = oracle.random_unit(rng)
                angle = float(rng.choice((-1.0, 1.0))) * 10.0**exponent
                mirror = plane_reflection(Plane(d, 0.0))
                linear = then(mirror, rotation_about_axis((0, 0, 0), d, angle)).linear
                u = rng.normal(size=3) * scale
                record = classify(AffineIsometry(linear, u))
                assert isinstance(record, RotaryReflection), (angle, u)
                reconstruct(record)
                normal = [Fraction(x) for x in record.mirror.normal.tolist()]
                offset = Fraction(record.mirror.offset)
                want = sum(n * Fraction(x) for n, x in zip(normal, u.tolist())) / 2
                assert abs(float(offset - want)) <= 4.0 * eps * np.linalg.norm(u), (angle, u)
                x = record.center.tolist()
                miss = sum(n * Fraction(c) for n, c in zip(normal, x)) - offset
                assert abs(float(miss)) <= _CENTER_SLACK * math.hypot(*x), (angle, u)


def test_rotary_rebuild_matches_exact_reference():
    # reconstruct composes a rotary record's turn after its flip with
    # motion._compose, on the 12 floats of _rodrigues and
    # plane_reflection (the one-plane fold).  Against the same float factors
    # multiplied exactly in fractions, with r = eps / 2 and gamma(k) =
    # k r / (1 - k r): an entry of the linear part sums three products left to
    # right, gamma(3) times the sum of their magnitudes; a shift entry adds the
    # turn's shift to three products, gamma(4)
    # (test_fold_step_matches_exact_reference).  The records are classify's,
    # with angles from 1e-7 to pi and translations from 1e-3 to 1e6 long, so
    # far centers are among them.
    r = Fraction(np.finfo(float).eps) / 2

    def gamma(k):
        return k * r / (1 - k * r)

    rng = np.random.default_rng(76)
    rebuilt = 0
    for _ in range(400):
        d = oracle.random_unit(rng)
        angle = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-7.0, math.log10(3.0))
        mirror = plane_reflection(Plane(d, 0.0))
        linear = then(mirror, rotation_about_axis((0, 0, 0), d, angle)).linear
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        record = classify(AffineIsometry(linear, rng.normal(size=3) * scale))
        if not isinstance(record, RotaryReflection):
            continue
        got = reconstruct(record)._parts
        rows, shift = oracle.rows_of(got), got[9:]
        turn = _rodrigues(record.center.tolist(), record.mirror._n, record.angle)
        (m, u), (l, t) = [([[Fraction(x) for x in row] for row in oracle.rows_of(parts)],
                           [Fraction(x) for x in parts[9:]])
                          for parts in (turn, plane_reflection(record.mirror)._parts)]
        for i in range(3):
            for j in range(3):
                terms = [m[i][k] * l[k][j] for k in range(3)]
                assert abs(Fraction(rows[i][j]) - sum(terms)) <= gamma(3) * sum(map(abs, terms))
            terms = [m[i][k] * t[k] for k in range(3)] + [u[i]]
            assert abs(Fraction(shift[i]) - sum(terms)) <= gamma(4) * sum(map(abs, terms)), record
        rebuilt += 1
    assert rebuilt > 300


def test_near_translation_turns_round_trip():
    # a turn by a small angle about an axis through the origin, then a
    # translation u of length s, puts the axis point or center about s / angle
    # away.  A record that stays a turn must rebuild the motion within
    # 64 eps s on the frame {0, s e_i}; the worst miss here is 12 eps s.  With
    # p - R p as the rebuilt shift it missed by up to 1.2e-7 s at angle
    # 1.01e-9.  A Translation is the tolerance's own collapse: the kernel
    # reads the identity when every column of L - I is within eps_len, so it
    # misses s e_i by at most eps_len s, and the frame origin not at all, up
    # to the rounding of applying either motion.
    rng = np.random.default_rng(75)
    tol = Tolerance()
    eps = np.finfo(float).eps
    seen = set()
    for angle in (1.01e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        for s in (1.0, 1e3, 1e6):
            for kind in ("rotation", "screw", "rotary_reflection") * 40:
                d = oracle.random_unit(rng)
                turn = rotation_about_axis((0, 0, 0), d, float(rng.choice((-1.0, 1.0))) * angle)
                if kind == "rotary_reflection":
                    turn = then(plane_reflection(Plane(d, 0.0)), turn)
                u = oracle.random_unit(rng)
                if kind == "rotation":
                    u = u - (u @ d) * d
                m = AffineIsometry(turn.linear, s * u / np.linalg.norm(u))
                record = classify(m, tol)
                seen.add(type(record))
                back = reconstruct(record)
                frame = [np.zeros(3), *(s * np.eye(3))]
                miss = max(np.linalg.norm(apply(m, p) - apply(back, p)) for p in frame)
                if isinstance(record, Translation):
                    assert miss <= (tol.eps_len + 4.0 * eps) * s, (kind, angle, s)
                else:
                    assert isinstance(record, (Rotation, Screw, RotaryReflection)), record
                    assert miss <= 64.0 * eps * s, (kind, angle, s, record)
    assert seen == {Translation, Rotation, Screw, RotaryReflection}

def test_records_below_the_default_angle_floor_round_trip():
    # at eps_angle 1e-16 classify emits turns by less than 1e-12 and rotary
    # angles within 1e-12 of 0 or pi; reconstruct takes them back, since it
    # tests the class invariants: 0 < |angle| <= pi for a turn, 0 < |angle| < pi
    # for a rotary reflection
    tol = Tolerance(1e-16, 1e-16)
    z = (0.0, 0.0, 1.0)
    cases = []
    for small in (1e-13, 5e-13):
        turn = rotation_about_axis((1.0, 2.0, 0.0), z, small)
        cases += [(turn, Rotation), (then(turn, translation((0.0, 0.0, 0.5))), Screw)]
        for angle in (small, np.pi - small):
            cases.append((_rotary_motion(Plane(z, 0.5), (1.0, 2.0, 0.5), angle), RotaryReflection))
    for m, kind in cases:
        record = classify(m, tol)
        assert isinstance(record, kind), record
        assert iso_equal(reconstruct(record), m), record


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


def test_round_trip_kernels_keep_every_check():
    # reconstruct and classify build their arrays from floats they have just
    # computed, and still refuse one that overflowed, with as_vec3's message;
    # the Inversion rebuild doubles its center on floats, which overflow
    # silently, so no warning is emitted
    message = "^vector components must be finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            reconstruct(Inversion(center=(1e308, 0.0, 0.0)))
    # classify splits the translation on floats, which overflow without a
    # numpy warning; the test run turns any RuntimeWarning into an error
    turn = rotation_about_axis((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), 1.0).linear
    screw = AffineIsometry(turn, (1.5e308, 1.5e308, 0.0))  # slide along the axis overflows
    with pytest.raises(ValueError, match=message):
        classify(screw)
    flip = plane_reflection(Plane((-0.1, 0.995, 0.0), 0.0)).linear
    glide = AffineIsometry(flip, (1.7e308, 1.7e308, 0.0))  # only the in-plane slide overflows
    with pytest.raises(ValueError, match=message):
        classify(glide)


def test_reconstruct_measures_long_vectors_without_overflow():
    # a slide or translation past 1.3e154 overflows a numpy dot product, with
    # a warning; the test run turns any RuntimeWarning into an error
    far = classify(translation((1.5e308, 1.5e308, 0.0)))
    assert isinstance(far, Translation)
    assert reconstruct(far).translation.tolist() == [1.5e308, 1.5e308, 0.0]
    screw = Screw(axis=Line3((0, 0, 0), (0, 0, 1)), angle=1.0, slide=(0.0, 0.0, 1e200))
    assert reconstruct(screw).translation.tolist() == [0.0, 0.0, 1e200]
    glide = GlideReflection(mirror=Plane((0, 0, 1), 0.0), slide=(1e200, 0.0, 0.0))
    assert reconstruct(glide).translation.tolist() == [1e200, 0.0, 0.0]


def _record_arrays(record):
    """The arrays a record holds, those of its Plane or Line3 included, and all its bytes."""
    arrays, numbers = [], []
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, Plane):
            arrays.append(value.normal)
            numbers.append(value.offset)
        elif isinstance(value, Line3):
            arrays += [value.point, value.direction]
        elif isinstance(value, np.ndarray):
            arrays.append(value)
        else:
            numbers.append(value)
    return arrays, b"".join(a.tobytes() for a in arrays) + np.array(numbers, float).tobytes()


def test_classify_records_are_frozen_and_own_their_arrays():
    # classify builds its records without the constructors' copies: the same
    # bytes as a record built from those fields by its public constructor,
    # every array read-only, and none shared with the input motion
    rng = np.random.default_rng(71)
    seen = set()
    for _ in range(40):
        for variant in oracle.ALL_VARIANTS:
            m = oracle.record_motion(oracle.random_record(rng, variant))
            record = classify(m)
            seen.add(type(record))
            arrays, got = _record_arrays(record)
            fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
            assert got == _record_arrays(type(record)(**fields))[1], record
            for a in arrays:
                assert not a.flags.writeable, record
                assert not np.shares_memory(a, m.linear), record
                assert not np.shares_memory(a, m.translation), record
    assert len(seen) == len(oracle.ALL_VARIANTS)
