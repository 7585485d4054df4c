"""Hand-written constructors and the written-out kernels behind them.

The value classes (Plane, Line3, PointTriple, TriplePair, AffineIsometry,
ReflectionSequence) check their arguments and store the floats in their own
__init__, in place of the dataclass-generated one and a __post_init__.  These
tests pin the calling conventions that __init__ must keep: positional and
keyword arguments, `tol` positional, TypeError for a missing or extra
argument, and `dataclasses.replace` validating again.

`geom._floats` reads a float64 ndarray of one axis without np.asarray, its
length checked by unpacking its floats; every other input goes through
np.asarray(value, dtype=float).  Both must give the floats, or the exception
type and message, of the generic path, here written as it was before the fast
path (`generic_floats`), and of the shape test the fast path once made.  The
written-out kernels (`_triangle`, `_bisector`, `_congruent`,
`_canonical_sign`) must match their earlier forms, composed from 3-vector
helpers, bit for bit.
"""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest

from trimirror import (
    AffineIsometry,
    CollinearPoints,
    Line3,
    Plane,
    PointTriple,
    ReflectionSequence,
    Tolerance,
    TriplePair,
)
from trimirror import geom
from trimirror.construct import _congruent
from trimirror.geom import _bisector, _canonical_sign, _floats, _triangle, as_vec3

from oracle import loop_canonical_sign, zero_component_vectors


def generic_floats(value) -> list:
    """_floats as it read every input before the float64 fast path."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    x, y, z = v = v.tolist()
    if not math.isfinite(x * 0.0 + y * 0.0 + z * 0.0):
        raise ValueError("vector components must be finite")
    return v


def _outcome(read, value):
    """The floats' bytes and types, or the exception's type and message."""
    try:
        v = read(value)
    except Exception as exc:  # the comparison is the point: any type must match
        return type(exc), str(exc)
    return type(v), [type(x) for x in v], struct.pack("3d", *v)


class _Sub(np.ndarray):
    pass


def _float_arrays():
    """float64 (3,) ndarrays of every layout the fast path reads."""
    rng = np.random.default_rng(2201)
    rows = rng.normal(size=(4, 3)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(4, 1))
    wide = rng.normal(size=(3, 5))
    out = list(rows) + [wide[:, 0], wide[:, 3], rows[1:, 1], rows[::-1, 2][1:]]  # views, strided
    out += zero_component_vectors(rng)  # signed zeros
    out += [np.frombuffer(struct.pack("3d", 1.5, -0.0, 2.0)), np.broadcast_to(7.0, (3,))]
    out += [np.array([np.nan, 0.0, 1.0]), np.array([0.0, np.inf, 1.0]),
            np.array([0.0, 1.0, -np.inf]), np.array([1.7e308, 1.7e308, -1.7e308])]
    return out


def _other_inputs():
    """Inputs that must take np.asarray, as before the fast path."""
    floats = [1.5, -0.0, 2.25]
    return [
        np.array(floats, dtype=">f8"), np.array(floats, dtype="<f8").view(_Sub),
        np.array(floats, dtype=np.float32), np.array([1, 2**53 + 1, -3], dtype=np.int64),
        np.array([True, False, True]), np.array(floats, dtype=object),
        np.array([1.0, "x", 2.0], dtype=object), np.array([1.0, None, 2.0], dtype=object),
        floats, tuple(floats), [1, 2, 3], (1.0, math.nan, 2.0), [math.inf, 0.0, 0.0],
        [1.0, 2.0], [[1.0, 2.0, 3.0]], "abc", None,
        np.float64(1.0), np.zeros(()), np.zeros((1, 3)), np.zeros((3, 1)), np.zeros(4),
        np.array([np.nan, 0.0, 1.0], dtype=np.float32), np.array([np.inf, 0.0, 1.0], dtype=">f8"),
    ]


def test_floats_fast_path_matches_the_generic_path(monkeypatch):
    for value in _float_arrays() + _other_inputs():
        assert _outcome(_floats, value) == _outcome(generic_floats, value), value
    # the fast path is taken for every float64 (3,) ndarray, numpy 1.24 included,
    # where the dtype must be the very object np.dtype(float) returns
    def refuse(*args, **kwargs):
        raise AssertionError("np.asarray called on a float64 (3,) ndarray")

    arrays = _float_arrays()
    want = [_outcome(generic_floats, value) for value in arrays]
    monkeypatch.setattr(geom.np, "asarray", refuse)
    for value, outcome in zip(arrays, want):
        assert value.dtype is np.dtype(float)
        assert _outcome(_floats, value) == outcome, value


def test_floats_unpack_keeps_the_shape_messages():
    # a float64 ndarray of one axis is read by unpacking its floats, and one
    # whose length is not 3 is refused with the message the shape test gave
    # (the strings below); every other array takes np.asarray.  as_vec3 hands
    # _floats a native float64 array of any shape.
    rows = np.arange(12.0).reshape(4, 3)
    floats = [1.5, -0.0, 2.25]
    cases = [
        (np.zeros(()), "expected 3 components, got shape ()"),
        (np.zeros(0), "expected 3 components, got shape (0,)"),
        (np.zeros(2), "expected 3 components, got shape (2,)"),
        (np.zeros(4), "expected 3 components, got shape (4,)"),
        (np.zeros((1, 3)), "expected 3 components, got shape (1, 3)"),
        (np.zeros((3, 1)), "expected 3 components, got shape (3, 1)"),
        (rows[1], [3.0, 4.0, 5.0]),
        (rows[:, 1], "expected 3 components, got shape (4,)"),
        (rows[::2, 2], "expected 3 components, got shape (2,)"),
        (rows.ravel()[::4], [0.0, 4.0, 8.0]),  # a strided row view
        (np.array(floats, dtype=">f8"), floats),
        (np.zeros(2, dtype=">f8"), "expected 3 components, got shape (2,)"),
        (np.array(floats, dtype=np.float32), floats),
        (np.zeros(5, dtype=np.float32), "expected 3 components, got shape (5,)"),
        (np.array(floats).view(_Sub), floats),
        (np.array(floats[:2]).view(_Sub), "expected 3 components, got shape (2,)"),
    ]
    for value, want in cases:
        for read in (as_vec3, _floats):
            if isinstance(want, str):
                with pytest.raises(ValueError) as info:
                    read(value)
                assert type(info.value) is ValueError and str(info.value) == want, (read, value)
            else:
                got = read(value)
                got = got.tolist() if isinstance(got, np.ndarray) else got
                assert struct.pack("3d", *got) == struct.pack("3d", *want), (read, value)


def test_constructors_keep_their_calling_conventions():
    a, b, c = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 2e-10, 0.0)  # thin at the default tol
    fine = Tolerance(1e-12, 1e-12)
    with pytest.raises(CollinearPoints):
        PointTriple(a, b, c)
    positional = PointTriple(a, b, c, fine)  # as cli.triple_from_spec calls it
    keyword = PointTriple(c=c, tol=fine, b=b, a=a)
    assert positional._floats == keyword._floats == tuple(list(p) for p in (a, b, c))
    assert PointTriple(a, b, (0.0, 1.0, 0.0), None)._floats[2] == [0.0, 1.0, 0.0]
    src = PointTriple(a, b, c, fine)
    dst = ((1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.5, 2e-10, 0.0))
    assert TriplePair(src, dst)._floats == TriplePair(dst=dst, src=src)._floats
    assert Plane((0.0, 0.0, 2.0), 4.0)._n == Plane(offset=4.0, normal=(0.0, 0.0, 2.0))._n
    assert Line3((1.0, 1.0, 0.0), (0.0, 0.0, 1.0))._floats == Line3(
        direction=(0.0, 0.0, 1.0), point=(1.0, 1.0, 0.0))._floats
    eye = np.eye(3)
    assert AffineIsometry(eye, a)._parts == AffineIsometry(translation=a, linear=eye)._parts
    planes = (Plane((1.0, 0.0, 0.0), 1.0),)
    assert ReflectionSequence(planes).planes == ReflectionSequence(planes=list(planes)).planes
    calls = [
        lambda: PointTriple(a, b), lambda: PointTriple(a, b, c, fine, None),
        lambda: PointTriple(a, b, c, d=a), lambda: PointTriple(a, b, c, fine, tol=fine),
        lambda: TriplePair(src), lambda: TriplePair(src, dst, dst),
        lambda: Plane((0.0, 0.0, 1.0)), lambda: Plane((0.0, 0.0, 1.0), 1.0, 2.0),
        lambda: Plane(offset=1.0), lambda: Line3(a), lambda: Line3(a, b, c),
        lambda: AffineIsometry(eye), lambda: AffineIsometry(eye, a, a),
        lambda: ReflectionSequence(), lambda: ReflectionSequence(planes, planes),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_replace_validates_again():
    triple = PointTriple((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    moved = dataclasses.replace(triple, c=(0.0, 2.0, 0.0))
    assert moved._floats[2] == [0.0, 2.0, 0.0] and moved._measure[0] == 2.0
    assert triple._floats[2] == [0.0, 1.0, 0.0]
    with pytest.raises(CollinearPoints, match="^triple does not span a plane$"):
        dataclasses.replace(triple, c=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^vector components must be finite$"):
        dataclasses.replace(triple, c=(0.0, math.nan, 0.0))
    plane = dataclasses.replace(Plane((0.0, 0.0, 1.0), 1.0), normal=(0.0, 0.0, -2.0))
    assert plane._n == (0.0, 0.0, 1.0) and plane.offset == -0.5
    pair = TriplePair(triple, triple.points())
    with pytest.raises(ValueError, match="^dst must hold exactly three points$"):
        dataclasses.replace(pair, dst=triple.points()[:2])


def test_constructors_refuse_malformed_arguments_with_their_messages():
    triple = PointTriple((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="^src must be a PointTriple$"):
        TriplePair(triple.points(), triple.points())
    with pytest.raises(ValueError, match="^dst must hold exactly three points$"):
        TriplePair(triple, triple.points()[:2])
    with pytest.raises(ValueError, match=r"^expected 3 components, got shape \(2,\)$"):
        TriplePair(triple, ((0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    for linear in (np.eye(2), np.eye(3, 4), np.eye(3)[:, :2], [[1.0, 0.0, 0.0]] * 2):
        with pytest.raises(ValueError, match="^linear part must be a finite 3x3 matrix$"):
            AffineIsometry(linear, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^vector components must be finite$"):
        AffineIsometry(np.eye(3), (0.0, math.inf, 0.0))
    with pytest.raises(ValueError, match="^reflection sequence entries must be Plane values$"):
        ReflectionSequence((triple,))


_SEAMS = (0.0, -0.0, 1e-12, -1e-12, math.nextafter(1e-12, 1.0), -math.nextafter(1e-12, 1.0),
          5e-13, 1.0, -2.5, math.inf, -math.inf, math.nan)


def test_canonical_sign_matches_the_scan():
    for x, y, z in itertools.product(_SEAMS, repeat=3):
        assert _canonical_sign(x, y, z) == loop_canonical_sign((x, y, z)), (x, y, z)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _bits(x) -> list:
    if isinstance(x, (tuple, list)):
        return [_bits(y) for y in x]
    return struct.pack("d", x)


def test_written_out_kernels_match_their_composed_forms_bit_for_bit():
    rng = np.random.default_rng(2202)
    points = list(rng.normal(size=(900, 3)) * 10.0 ** rng.uniform(-8.0, 160.0, size=(900, 1)))
    points += zero_component_vectors(rng) + [np.array([1.7e308, -1.7e308, 0.0])]
    tol = Tolerance(1e-300, 1e-300)
    for a, b, c in zip(points, points[1:], points[2:]):
        a, b, c = a.tolist(), b.tolist(), c.tolist()
        u, v, w = ([q - p for p, q in zip(s, t)] for s, t in ((a, b), (a, c), (b, c)))
        n = _cross(u, v)
        edges = tuple(math.sqrt(_dot(e, e)) for e in (u, v, w))
        assert _bits(_triangle(a, b, c)) == _bits((n, (math.sqrt(_dot(n, n)), edges)))
        try:
            mirror = _bisector(a, b, tol)
        except ValueError as exc:  # an overflowing chord or offset
            mirror = str(exc)
        mid = [0.5 * (p + q) for p, q in zip(a, b)]
        try:
            want = Plane(u, _dot(u, mid))
        except ValueError as exc:
            want = str(exc)
        if isinstance(want, Plane) and isinstance(mirror, tuple):
            assert _bits(mirror) == _bits((want._n, want.offset)), (a, b)
        else:
            assert mirror == want, (a, b)


def test_congruent_keeps_its_verdicts_nan_included():
    values = (0.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, math.inf, math.nan)
    tol = Tolerance()
    for d, e in itertools.product(itertools.product(values, repeat=3), repeat=2):
        composed = not any(abs(x - y) > tol.eps_len for x, y in zip(d, e))
        assert _congruent(d, e, tol) == composed, (d, e)
