"""Kept floats and read-only arrays.

Each value the library builds keeps the Python floats its kernels read
(`Plane._n`, `Line3._floats`, `PointTriple._floats`, `TriplePair._floats`,
`AffineIsometry._parts`), and builds each stored array from them once.  These
tests check that every kept float equals its array's `.tolist()` bit for bit,
signed zeros included, and that every stored array is read-only from birth:
`setflags(write=True)` raises on it, where it would succeed on an array frozen
with `setflags(write=False)`.  The inputs are the benchmark's own generated
cases (perfbench/gen.py imports only numpy) and the public constructors.
"""

import dataclasses
import importlib.util
import itertools
import pathlib
import struct
import sys

import numpy as np
import pytest

from trimirror import (
    PROBE_POINTS,
    AffineIsometry,
    GlideReflection,
    Inversion,
    Line3,
    Plane,
    PointTriple,
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

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_gen", _PATH)
gen = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # for its dataclasses
_SPEC.loader.exec_module(gen)

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
        return list(zip((value.linear, value.translation), value._parts))
    if isinstance(value, ReflectionSequence):
        return [pair for plane in value.planes for pair in _kept(plane)]
    out = []  # a class record: its vectors, and its mirror's or axis's arrays
    for field in dataclasses.fields(value):
        x = getattr(value, field.name)
        if isinstance(x, np.ndarray):
            out.append((x, None))
        elif isinstance(x, (Plane, Line3)):
            out += _kept(x)
    return out


def _check(value) -> int:
    """Assert the module's two properties on every stored array of value; the count."""
    pairs = _kept(value)
    for array, floats in pairs:
        assert array.dtype == np.float64 and not array.flags.writeable, value
        with pytest.raises(ValueError):
            array.setflags(write=True)
        if floats is not None:
            assert len(floats) == len(array)
            assert _bits(floats) == _bits(array.tolist()), value
    return len(pairs)


def test_construct_values_keep_their_floats_and_read_only_arrays():
    checked = 0
    for case in itertools.islice(gen.construct_triples(1), N_CASES):
        pair = TriplePair(PointTriple(*case.src), tuple(case.dst))
        first = three_reflections(pair)
        second = second_motion(first, pair.dst)
        for value in (pair, first, second, seq_to_affine(first), seq_to_affine(second)):
            checked += _check(value)
    assert checked == N_CASES * (6 + 3 + 4 + 2 + 2)


@pytest.mark.parametrize("stream", ["classify_mixed", "classify_seams"])
def test_classify_values_keep_their_floats_and_read_only_arrays(stream):
    seen, rebuilt = set(), 0
    for case in itertools.islice(getattr(gen, stream)(1), N_CASES):
        m = AffineIsometry(case.motion.linear, case.motion.t)
        record = classify(m)
        seen.add(type(record).__name__)
        _check(m)
        _check(record)
        try:
            back = reconstruct(record)
        except InvalidClassParameters:  # the known glide refusal near a seam
            continue
        rebuilt += _check(back) == 2
    assert len(seen) >= 6 and rebuilt > N_CASES // 2


def test_public_constructors_keep_their_floats_and_read_only_arrays():
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
    assert sum(map(_check, values)) == 47
    assert plane._n == (0.0, 1.0, 0.0) and plane.offset == 0.0
    for array in PROBE_POINTS + (ANCHOR, CENTER):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.setflags(write=True)

