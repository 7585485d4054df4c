"""Validate once: motions the library builds are not re-validated.

AffineIsometry() and `then` validate their linear part in full with
`motion._orthogonal`, `then` through `motion._isometry`.  Reflections,
turns, translations, folds and classify's rebuilds come from unit mirror
normals or a unit axis and go to `motion._rigid`, which keeps their 12 floats
as they are and checks only the shift.  These tests pin that `_isometry` would
have accepted every such motion unrepaired (it returns the very record it was
given), on the benchmark's own generated cases, and derive the drift bounds
that make it so.
`_isometry` tests only the residual of L^T L - I; the determinant bound that
`_assert_within` also checks shows that a test of |det L| - 1 would add nothing.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from trimirror import (
    AffineIsometry,
    Line3,
    Plane,
    PointTriple,
    ReflectionSequence,
    TriplePair,
    classify,
    reconstruct,
    second_motion,
    seq_to_affine,
    three_reflections,
)
from trimirror import motion
from trimirror.errors import InvalidClassParameters
from trimirror.geom import _unit
from trimirror.motion import _FOLD_LIMIT, _ORTHO_PASS, _compose, _det, _isometry, _mgs
from trimirror.motion import _fold, _rodrigues

import oracle

gen = oracle.perfbench_gen()

EPS = np.finfo(float).eps
N_CASES = 2000


def _drift(parts) -> tuple[float, float]:
    """The residual of L^T L - I, summed as _isometry sums it, and ||det L| - 1|, for a
    motion's 12 floats."""
    a, b, c, d, e, f, g, h, i = parts[:9]
    residual = max(abs(a * a + d * d + g * g - 1.0), abs(b * b + e * e + h * h - 1.0),
                   abs(c * c + f * f + i * i - 1.0), abs(a * b + d * e + g * h),
                   abs(a * c + d * f + g * i), abs(b * c + e * f + h * i))
    return residual, abs(abs(_det(parts)) - 1.0)


def _assert_within(parts, bound: float, label) -> None:
    """L drifts by at most `bound` (in eps) and _isometry passes the 12 floats as they are."""
    residual, det = _drift(parts)
    assert residual <= bound * EPS, (label, residual / EPS)
    # det(L)^2 = det(I + E), E = L^T L - I, is 1 + trace(E) to first order, so
    # |det L| is within 3/2 of the residual of 1, and _det rounds by under 5 eps
    assert det <= (1.5 * bound + 5.0) * EPS, (label, det / EPS)
    assert _isometry(parts)._parts is parts, label


@pytest.fixture
def built(monkeypatch):
    """The 12 floats of every motion _rigid builds, except those _isometry hands it."""
    calls, rigid = [], motion._rigid

    def recording(parts):
        if sys._getframe(1).f_code is not _isometry.__code__:
            calls.append(parts)
        return rigid(parts)

    callers = [m for name, m in sys.modules.items() if name.startswith("trimirror.")]
    for module in callers:
        if getattr(module, "_rigid", None) is rigid:
            monkeypatch.setattr(module, "_rigid", recording)
    return calls


def _assert_isometry_passes_them_as_they_are(calls) -> int:
    count = len(calls)
    for parts in calls:
        assert _isometry(parts)._parts is parts
    calls.clear()
    return count


def test_construct_motions_are_ones_isometry_passes_as_they_are(built):
    for case in itertools.islice(gen.construct_triples(1), N_CASES):
        pair = TriplePair(PointTriple(*case.src), tuple(case.dst))
        first = three_reflections(pair)
        second = second_motion(first, pair.dst)
        seq_to_affine(first), seq_to_affine(second)
        assert _assert_isometry_passes_them_as_they_are(built) == 2, case


@pytest.mark.parametrize("stream", ["classify_mixed", "classify_seams"])
def test_rebuilt_motions_are_ones_isometry_passes_as_they_are(built, stream):
    seen = set()
    for case in itertools.islice(getattr(gen, stream)(1), N_CASES):
        m = AffineIsometry(case.motion.linear, case.motion.t)
        assert not built  # the input motion is validated in full
        record = classify(m)
        try:
            reconstruct(record)
        except InvalidClassParameters:  # the known glide refusal near a seam
            continue
        assert _assert_isometry_passes_them_as_they_are(built) == 1, case
        seen.add(type(record).__name__)
    assert len(seen) >= (8 if stream == "classify_mixed" else 7)  # seams: glides are refused


def _normals(rng) -> list:
    return oracle.zero_component_vectors(rng) + list(rng.normal(size=(300, 3)))


def _angles(rng) -> list[float]:
    seams = [1e-12, 1e-7, 0.5 * math.pi, math.pi - 1e-7, math.pi]
    return seams + [-x for x in seams] + list(rng.uniform(-math.pi, math.pi, size=8))


def test_rebuilds_stay_orthogonal_far_below_the_repair_threshold():
    # To first order in r = eps / 2, for a stored unit normal or direction n,
    # |n|^2 within 7 r of 1 (see the fold test), and sin and cos within an ulp:
    # - the flip I - 2 n n^T has R^T R - I = 4 (|n|^2 - 1) n n^T within 28 r;
    #   its entries round within 3 r, moving R^T R by under 2 sqrt(11) r < 7 r;
    #   with the residual's own 4 eps (as for folds): 22 eps.
    # - Rodrigues' R = I + s K + c K^2, K the cross matrix of n, c = 1 - cos,
    #   has R^T R - I = (c^2 (1 - |n|^2) - (s^2 + (1 - c)^2 - 1)) K^2: within
    #   4 * 7 r + 12 r = 40 r; its entries round within 7 r, moving R^T R by
    #   under 20 r; with the residual's 4 eps: 34 eps.
    # - the rotary compose T F has (T F)^T T F - I = F^T E_T F + E_F, within
    #   3 * 60 r + 35 r, and its 3-term dots move it by under 11 r: 118 eps.
    # Translations and inversions keep I and -I, which are exact.
    rng = np.random.default_rng(27)
    for v in _normals(rng):
        offset = float(rng.uniform(-3.0, 3.0))
        plane, axis = Plane(v, offset), Line3(rng.normal(size=3), v)
        flip = _fold(((plane._n, plane.offset),))  # the reflection
        _assert_within(flip, 22.0, ("flip", v))
        center = [x - offset * y for x, y in zip(rng.normal(size=3), plane._n)]
        for angle in _angles(rng):
            for d in (axis._floats[1], _unit(v, "axis")):  # a record's axis, rotation_about_axis's
                _assert_within(_rodrigues(axis._floats[0], d, angle), 34.0, ("turn", v, angle))
            rotary = _compose(_rodrigues(center, plane._n, angle), flip)
            _assert_within(rotary, 118.0, ("rotary", v, angle))
    assert 1.5 * 118.0 + 5.0 < 1e-3 * _ORTHO_PASS / EPS  # far below either threshold


def test_folds_pass_as_they_are_up_to_the_plane_limit():
    # seq_to_affine trusts (29 k + 4) eps (the fold test's bound) for L^T L - I,
    # the one test of _isometry: the plane limit is the largest k for which it
    # stays within _ORTHO_PASS
    def bound(k):
        return (29.0 * k + 4.0) * EPS

    assert bound(_FOLD_LIMIT) <= _ORTHO_PASS < bound(_FOLD_LIMIT + 1)
    rng = np.random.default_rng(28)
    normals = _normals(rng)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        picks = rng.integers(0, len(normals), size=k)
        seq = ReflectionSequence(tuple(Plane(normals[i], float(rng.uniform(-9, 9))) for i in picks))
        _assert_within(seq._parts, 29.0 * k + 4.0, seq)
        assert seq_to_affine(seq)._parts is seq._parts


def test_a_sequence_past_the_plane_limit_still_reaches_the_repair(monkeypatch):
    rng = np.random.default_rng(29)
    planes = [Plane(rng.normal(size=3), float(rng.uniform(-1.0, 1.0))) for _ in range(97)]
    at = ReflectionSequence(tuple(planes[i % 97] for i in range(_FOLD_LIMIT)))
    past = ReflectionSequence(at.planes + (planes[0],))
    for seq in (at, past):
        _assert_within(seq._parts, 29.0 * len(seq) + 4.0, len(seq))
        assert _drift(seq._parts)[0] > 0.0  # so the patched threshold below repairs it
    monkeypatch.setattr(motion, "_ORTHO_PASS", 0.0)  # _isometry now repairs any drift
    assert seq_to_affine(at)._parts is at._parts  # not validated
    repaired = seq_to_affine(past)._parts
    assert repaired[:9] == _mgs(past._parts[:9])
    assert np.array(repaired[9:]).tobytes() == np.array(past._parts[9:]).tobytes()
