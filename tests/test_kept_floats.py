"""Kept floats and arrays built on first read.

Each value the library builds keeps the Python floats its kernels read
(`Plane._n`, `Line3._floats`, `PointTriple._floats`, `TriplePair._floats`,
`AffineIsometry._parts`, a sequence's `_mirrors`, and a class record's `_v`,
`_slide` or `_center`), and builds each public array field from them when a
caller first reads it (`geom._Array`); a sequence builds its planes so too,
and a TriplePair its dst as the three rows of one 3x3 array (`geom._rows`).
These tests check that a fresh value holds no array, that every kept float
equals its array's `.tolist()` bit for bit, signed zeros included, that a
later read returns the same array, and that every array is read-only from
birth: `setflags(write=True)` raises on it, where it would succeed on an array
frozen with `setflags(write=False)`.  Copies, pickles, `dataclasses.replace`,
`repr`, frozen assignment and the constructors' signatures behave as they did
with arrays built at construction, except that a copy holds no array of its
own: it builds them, read-only, when first read.
The inputs are the benchmark's own generated cases (perfbench/gen.py imports
only numpy) and the public constructors.
"""

import copy
import dataclasses
import inspect
import itertools
import math
import pickle
import struct
import sys

import numpy as np
import pytest

from trimirror import (
    PROBE_POINTS,
    AffineIsometry,
    GlideReflection,
    Identity,
    Inversion,
    Line3,
    Plane,
    PointTriple,
    Reflection,
    ReflectionSequence,
    Rotation,
    RotaryReflection,
    Screw,
    Translation,
    TriplePair,
    classify,
    identity,
    intersect_planes,
    perpendicular_bisector_plane,
    plane_reflection,
    plane_through_points,
    reconstruct,
    rotation_about_axis,
    rotation_about_line,
    second_motion,
    seq_to_affine,
    then,
    three_reflections,
    translation,
)
from trimirror.errors import InvalidClassParameters
from trimirror.example import ANCHOR, CENTER
from trimirror.geom import _plane
from trimirror.motion import _FOLD_LIMIT

import oracle

gen = oracle.perfbench_gen()

N_CASES = 300  # per workload: three construct cycles, thirty classify-mixed cycles


def _bits(floats) -> bytes:
    """The bytes of a flat or nested sequence of floats, so that -0.0 differs from 0.0."""
    flat = [x for row in floats for x in row] if isinstance(floats[0], (list, tuple)) else floats
    return struct.pack(f"{len(flat)}d", *flat)


def _kept(value):
    """(array, kept floats or None) for every stored array of a library value."""
    if isinstance(value, Plane):
        return [(value.normal, value._n)]
    if isinstance(value, Line3):
        return [(value.point, value._floats[0]), (value.direction, value._floats[1])]
    if isinstance(value, PointTriple):
        return list(zip(value.points(), value._floats))
    if isinstance(value, TriplePair):
        return _kept(value.src) + list(zip(value.dst, value._floats))
    if isinstance(value, AffineIsometry):
        return [(value.linear, oracle.rows_of(value._parts)), (value.translation, value._parts[9:])]
    if isinstance(value, ReflectionSequence):
        return [pair for plane in value.planes for pair in _kept(plane)]
    out = []  # a class record: its vectors, and its mirror's or axis's arrays
    for field in dataclasses.fields(value):
        x = getattr(value, field.name)
        if isinstance(x, np.ndarray):
            out.append((x, getattr(value, "_" + field.name)))
        elif isinstance(x, (Plane, Line3)):
            out += _kept(x)
    return out


def _held_arrays(value) -> list:
    """The arrays a library value holds in its __dict__, its planes', axis's and src's too;
    not those of the TriplePair a sequence keeps (_dst), whose caller may read them."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for x in value for a in _held_arrays(x)]
    if dataclasses.is_dataclass(value):
        return [a for k, x in vars(value).items() if k != "_dst" for a in _held_arrays(x)]
    return []


def _check(value) -> int:
    """Assert the module's properties on every array of value; the count."""
    pairs = _kept(value)
    for (array, floats), (again, _) in zip(pairs, _kept(value)):
        assert array.dtype == np.float64 and not array.flags.writeable, value
        with pytest.raises(ValueError):
            array.setflags(write=True)
        assert len(floats) == len(array)
        assert _bits(floats) == _bits(array.tolist()), value
        assert again is array, value  # a later read finds the array the first one built
    return len(pairs)


def test_construct_values_keep_their_floats_and_read_only_arrays():
    checked = 0
    for case in itertools.islice(gen.construct_triples(1), N_CASES):
        pair = TriplePair(PointTriple(*case.src), tuple(case.dst))
        first = three_reflections(pair)
        second = second_motion(first, pair.dst)  # reads pair.dst, as the benchmark's op does
        values = (pair.src, first, second, seq_to_affine(first), seq_to_affine(second))
        assert not _held_arrays(values), case
        for value in (pair,) + values[1:]:
            checked += _check(value)
    assert checked == N_CASES * (6 + 3 + 4 + 2 + 2)


def test_construct_op_builds_planes_only_when_read(monkeypatch):
    # the benchmark's op, the pair, three_reflections, second_motion and
    # seq_to_affine of both, keeps each mirror as its floats and builds no
    # Plane; a caller's first read of .planes builds them from those floats,
    # with the bytes of the mirror walk through the public functions
    built = []

    def counted(mirror, plane=None):
        built.append(mirror)
        return _plane(mirror, plane)

    for name, module in list(sys.modules.items()):  # every Plane builder of the library
        if name.split(".")[0] == "trimirror" and hasattr(module, "_plane"):
            monkeypatch.setattr(module, "_plane", counted)
    done = []
    for case in itertools.islice(gen.construct_triples(1), 2000):
        pair = TriplePair(PointTriple(*case.src), tuple(case.dst))
        first = three_reflections(pair)
        second = second_motion(first, pair.dst)
        seq_to_affine(first), seq_to_affine(second)
        assert "planes" not in vars(first) and "planes" not in vars(second), case
        done.append((pair, first, second))
    assert not built
    for pair, first, second in done:
        for seq in (first, second):
            planes = seq.planes
            assert seq.planes is planes and len(planes) == len(seq._mirrors) == len(seq)
            for plane, (n, offset) in zip(planes, seq._mirrors):
                assert plane._n is n and plane.offset is offset
    assert len(built) == 7 * len(done)
    monkeypatch.undo()
    for pair, first, second in done:
        walked = oracle.walk_three_reflections(pair)[0].planes
        want = list(map(oracle.plane_bytes, walked)) + [
            oracle.plane_bytes(plane_through_points(*pair.dst))]
        assert list(map(oracle.plane_bytes, second.planes)) == want, pair
        assert list(map(oracle.plane_bytes, first.planes)) == want[:3], pair


def _assert_dst_rows(pair, dst) -> None:
    """dst, a read of pair.dst, is three read-only float64 rows of one 3x3 array, whose
    buffer is immutable bytes, holding pair's kept floats."""
    assert type(dst) is tuple and len(dst) == 3
    matrix = dst[0].base
    assert type(matrix) is np.ndarray and matrix.shape == (3, 3) and type(matrix.base) is bytes
    for row in dst:
        assert type(row) is np.ndarray and row.dtype == np.float64 and row.shape == (3,)
        assert row.base is matrix and not row.flags.writeable
        for array in (row, row.base):
            with pytest.raises(ValueError):
                array.setflags(write=True)
    assert b"".join(row.tobytes() for row in dst) == _bits(pair._floats)


def test_pair_dst_is_three_read_only_rows_of_one_buffer():
    for case in itertools.islice(gen.construct_triples(1), N_CASES):
        pair = TriplePair(PointTriple(*case.src), tuple(case.dst))
        dst = pair.dst
        _assert_dst_rows(pair, dst)
        assert pair.dst is dst  # a second read finds the tuple the first one built
        for copied in (copy.copy(pair), pickle.loads(pickle.dumps(pair))):
            rows = copied.dst  # built anew, read-only, from the copy's kept floats
            assert rows is not dst and rows[0].base is not dst[0].base
            _assert_dst_rows(copied, rows)
            assert _bits(copied._floats) == _bits(pair._floats)


def test_construct_op_builds_one_array_buffer(monkeypatch):
    # the benchmark's op reads pair.dst, which builds the one buffer of its
    # three rows; nothing else in the op packs a buffer, calls _vector or
    # hands numpy a sequence to read
    cases = list(itertools.islice(gen.construct_triples(1), N_CASES))
    geom, calls = sys.modules["trimirror.geom"], []

    def counted(name, build):
        def call(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)
        return call

    for name in ("_pack3", "_pack9"):  # every buffer _vector, _matrix and _rows build
        monkeypatch.setattr(geom, name, counted("buffer", getattr(geom, name)))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "trimirror" and hasattr(module, "_vector"):
            monkeypatch.setattr(module, "_vector", counted("_vector", module._vector))
    for name in ("array", "asarray", "frombuffer"):
        monkeypatch.setattr(np, name, counted("np." + name, getattr(np, name)))
    for case in cases:
        del calls[:]
        pair = TriplePair(PointTriple(*case.src), tuple(case.dst))
        first = three_reflections(pair)
        second = second_motion(first, pair.dst)
        seq_to_affine(first), seq_to_affine(second)
        assert calls == ["buffer"], case


@pytest.mark.parametrize("stream", ["classify_mixed", "classify_seams"])
def test_classify_values_keep_their_floats_and_read_only_arrays(stream):
    seen, rebuilt = set(), 0
    for case in itertools.islice(getattr(gen, stream)(1), N_CASES):
        m = AffineIsometry(case.motion.linear, case.motion.t)
        record = classify(m)
        seen.add(type(record).__name__)
        try:
            back = reconstruct(record)
        except InvalidClassParameters:  # the known glide refusal near a seam
            back = None
        assert not _held_arrays((m, record, back)), case
        _check(m)
        _check(record)
        rebuilt += back is not None and _check(back) == 2
    assert len(seen) >= 6 and rebuilt > N_CASES // 2


def _public_values() -> list:
    """Fresh values from every public constructor and builder, whose arrays nobody has read."""
    plane = Plane((0.0, -2.0, 0.0), -0.0)  # a flipped sign: the kept normal is (0, 1, 0)
    line = Line3((1.0, 2.0, 3.0), (0.0, 0.0, -1.0))
    triple = PointTriple((0, 0, 0), (1, 0, 0), (0, 1, 0))
    turn = rotation_about_axis((1.0, 2.0, 3.0), (1.0, 1.0, 0.0), 0.7)
    values = [
        plane,
        line,
        triple,
        TriplePair(triple, ((1, 2, 3), (1, 3, 3), (0, 2, 3))),
        AffineIsometry(np.eye(3), (0.0, -0.0, 1.0)),
        AffineIsometry([[0, -1, 0], [1, 0, 0], [0, 0, 1]], [1, 2, 3]),
        AffineIsometry(np.eye(3) + 1e-8, np.zeros(3)),  # re-orthonormalized rows are kept
        identity(),
        translation((1e308, -0.0, 2.0)),
        plane_reflection(plane),
        turn,
        rotation_about_line(line, -2.0),
        then(turn, plane_reflection(plane)),
        intersect_planes(plane, Plane((1, 0, 0), 2.0)),
        perpendicular_bisector_plane((0, 0, 0), (0, 2, 0)),
        plane_through_points((0, 0, 1), (1, 0, 1), (0, 1, 1)),
        Translation(v=(1.0, 0.0, 0.0)),
        Rotation(axis=line, angle=0.5),
        Screw(axis=line, angle=0.5, slide=(0.0, 0.0, 2.0)),
        GlideReflection(mirror=plane, slide=(1.0, 0.0, 0.0)),
        Inversion(center=(1.0, 2.0, 3.0)),
        RotaryReflection(mirror=Plane((0, 0, 1), 0.0), center=(1.0, 2.0, 0.0), angle=0.5),
    ]
    values.append(seq_to_affine(ReflectionSequence((plane, Plane((1, 0, 1), 2.0)))))
    pair = TriplePair(triple, ((0, 0, 0), (0, 1, 0), (1, 0, 0)))  # A in place, B and C swap
    first = three_reflections(pair)  # its planes and its partner's are not yet built
    values += [first, second_motion(first, pair.dst)]
    return values


def test_public_constructors_keep_their_floats_and_read_only_arrays():
    values = _public_values()
    assert not _held_arrays(values)
    assert sum(map(_check, values)) == 54
    plane = values[0]
    assert plane._n == (0.0, 1.0, 0.0) and plane.offset == 0.0
    for array in PROBE_POINTS + (ANCHOR, CENTER):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.setflags(write=True)


def _assert_twelve_floats(m) -> None:
    """m keeps 12 finite Python floats, L row-major, then t, and its arrays hold them bit for
    bit."""
    parts = m._parts
    assert len(parts) == 12 and all(type(x) is float and math.isfinite(x) for x in parts), m
    assert _bits(parts) == m.linear.tobytes() + m.translation.tobytes(), m


def test_every_motion_builder_keeps_twelve_finite_floats():
    # every builder stores one flat record, as the kernels read it: the public
    # builders, seq_to_affine at the plane limit (trusted) and one plane past
    # it (validated), and the eight rebuilds, of public records and of the
    # records classify makes of the benchmark's classify-mixed cases
    plane, line = Plane((0.0, -2.0, 0.0), -0.0), Line3((1.0, 2.0, 3.0), (0.0, 0.0, -1.0))
    turn = rotation_about_axis((1.0, 2.0, 3.0), (1.0, 1.0, 0.0), 0.7)
    rng = np.random.default_rng(31)
    planes = [Plane(rng.normal(size=3), float(rng.uniform(-1.0, 1.0))) for _ in range(97)]
    long = tuple(planes[i % 97] for i in range(_FOLD_LIMIT + 1))
    motions = [
        AffineIsometry(np.eye(3), (0.0, -0.0, 1.0)),
        AffineIsometry([[0, -1, 0], [1, 0, 0], [0, 0, 1]], [1, 2, 3]),
        AffineIsometry(np.eye(3) + 1e-8, np.zeros(3)),  # re-orthonormalized
        identity(),
        translation((1e308, -0.0, 2.0)),
        plane_reflection(plane),
        turn,
        rotation_about_line(line, -2.0),
        then(turn, plane_reflection(plane)),
        seq_to_affine(ReflectionSequence(())),
        seq_to_affine(ReflectionSequence(long[:_FOLD_LIMIT])),
        seq_to_affine(ReflectionSequence(long)),
    ]
    records = [
        Identity(),
        Translation(v=(1.0, -0.0, 0.0)),
        Rotation(axis=line, angle=0.5),
        Screw(axis=line, angle=0.5, slide=(0.0, 0.0, 2.0)),
        Reflection(mirror=plane),
        GlideReflection(mirror=plane, slide=(1.0, 0.0, 0.0)),
        Inversion(center=(1.0, 2.0, 3.0)),
        RotaryReflection(mirror=Plane((0, 0, 1), 0.0), center=(1.0, 2.0, 0.0), angle=0.5),
    ]
    for case in itertools.islice(gen.classify_mixed(1), 200):
        records.append(classify(AffineIsometry(case.motion.linear, case.motion.t)))
    assert len({type(r) for r in records[8:]}) == 8
    for m in motions + [reconstruct(r) for r in records]:
        _assert_twelve_floats(m)


def _state(value):
    """repr at 17 digits, and the bytes of every array with its kept floats."""
    with np.printoptions(precision=17):
        text = repr(value)
    return text, [(array.tobytes(), _bits(floats)) for array, floats in _kept(value)]


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "replace": dataclasses.replace,  # through the public constructor, from the arrays
}


@pytest.mark.parametrize("how", sorted(_COPIES))
def test_copies_round_trip_before_and_after_a_read(how):
    for k in range(len(_public_values())):  # unit normals and directions that renormalize exactly
        value = _public_values()[k]  # built anew: the values share planes, lines and triples
        fresh = _COPIES[how](value)  # of a value whose arrays nobody has read
        assert not _held_arrays(fresh), (how, value)
        assert _state(fresh) == _state(value), (how, value)
        after = _COPIES[how](value)  # of a value whose arrays have been read
        # a copy holds no array: it builds its own, read-only (a copied array
        # would be writable); a shallow copy shares the value's planes, lines
        # and triples, arrays and all, as replace() does, and a sequence's
        # tuple of planes or its pair (_dst)
        own = after if how in ("deepcopy", "pickle") else [
            x for x in vars(after).values() if not any(
                map(dataclasses.is_dataclass, x if isinstance(x, tuple) else (x,)))]
        assert not _held_arrays(own), (how, value)
        assert _state(after) == _state(value), (how, value)
        assert _check(after) == _check(value), (how, value)


def test_fields_stay_frozen_before_and_after_a_read():
    for value in _public_values():
        for _ in range(2):
            for field in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, field.name, None)
            _kept(value)  # reads every array


def test_signatures_are_unchanged():
    # the array fields' descriptors raise AttributeError on the class, so the
    # dataclass gives those fields no default and every argument stays required
    want = {
        Plane: "(normal: 'Vec3', offset: 'float') -> None",
        Line3: "(point: 'Vec3', direction: 'Vec3') -> None",
        PointTriple: "(a: 'Vec3', b: 'Vec3', c: 'Vec3', tol: 'InitVar[Tolerance | None]' = None)"
        " -> None",
        TriplePair: "(src: 'PointTriple', dst: 'tuple[Vec3, Vec3, Vec3]') -> None",
        AffineIsometry: "(linear: 'np.ndarray', translation: 'Vec3') -> None",
        ReflectionSequence: "(planes: 'tuple[Plane, ...]') -> None",
        Translation: "(v: 'Vec3') -> None",
        Rotation: "(axis: 'Line3', angle: 'float') -> None",
        Screw: "(axis: 'Line3', angle: 'float', slide: 'Vec3') -> None",
        Reflection: "(mirror: 'Plane') -> None",
        GlideReflection: "(mirror: 'Plane', slide: 'Vec3') -> None",
        Inversion: "(center: 'Vec3') -> None",
        RotaryReflection: "(mirror: 'Plane', center: 'Vec3', angle: 'float') -> None",
    }
    for cls, signature in want.items():
        assert str(inspect.signature(cls)) == signature, cls
    with pytest.raises(TypeError):
        Plane(offset=1.0)
    with pytest.raises(AttributeError):
        Plane.normal
