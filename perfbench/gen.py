"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy: a case carries the motion as a row-major
linear part and a translation (what the library receives), the same motion
as a CLI motion document (what the `trimirror` command receives), and the
labels the checks need.  Nothing in this module imports trimirror, so the
generated inputs are independent of the code under test.

The branch shares of every corpus are stated next to its generator and
summarised in perfbench/README.md.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

CLASSES = (
    "identity",
    "translation",
    "rotation",
    "screw",
    "reflection",
    "glide_reflection",
    "inversion",
    "rotary_reflection",
)
PROPER = {"identity", "translation", "rotation", "screw"}


@dataclass(frozen=True)
class Gen:
    """A motion x -> linear @ x + t together with its CLI motion document."""

    linear: np.ndarray
    t: np.ndarray
    spec: dict

    def then(self, other: "Gen") -> "Gen":
        """This motion first, then `other` (the library's `then` order)."""
        steps = []
        for g in (self, other):
            steps.extend(g.spec["steps"] if g.spec["kind"] == "sequence" else [g.spec])
        return Gen(
            other.linear @ self.linear,
            other.linear @ self.t + other.t,
            {"kind": "sequence", "steps": steps},
        )

    def __call__(self, point) -> np.ndarray:
        return self.linear @ np.asarray(point, dtype=float) + self.t


def _list(v) -> list:
    return [float(x) for x in v]


def rotation(point, direction, angle: float) -> Gen:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    k = np.array([[0.0, -d[2], d[1]], [d[2], 0.0, -d[0]], [-d[1], d[0], 0.0]])
    r = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    p = np.asarray(point, dtype=float)
    spec = {"kind": "rotation", "point": _list(p), "dir": _list(d), "angle": float(angle)}
    return Gen(r, p - r @ p, spec)


def translation(v) -> Gen:
    v = np.asarray(v, dtype=float)
    return Gen(np.eye(3), v.copy(), {"kind": "translation", "v": _list(v)})


def reflection(normal, offset: float) -> Gen:
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    spec = {"kind": "reflection", "normal": _list(n), "offset": float(offset)}
    return Gen(np.eye(3) - 2.0 * np.outer(n, n), 2.0 * offset * n, spec)


def inversion(center) -> Gen:
    c = np.asarray(center, dtype=float)
    return Gen(-np.eye(3), 2.0 * c, {"kind": "inversion", "center": _list(c)})


def _unit(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        length = float(np.linalg.norm(v))
        if length > 1e-3:
            return v / length


def _perp_unit(rng, d) -> np.ndarray:
    """Unit vector perpendicular to the unit vector d."""
    while True:
        v = np.cross(d, _unit(rng))
        length = float(np.linalg.norm(v))
        if length > 1e-3:
            return v / length


def _signed(rng, low: float, high: float) -> float:
    return float(rng.uniform(low, high) * rng.choice((-1.0, 1.0)))


def canonical(cls: str, rng, angle: float, slide: float, reach: float) -> Gen:
    """A motion of class `cls` with the given angle and slide length.

    Axes, mirrors and centers sit at distance about `reach` from the origin.
    """
    d = _unit(rng)
    point = reach * _unit(rng)
    if cls == "identity":
        return translation(np.zeros(3))
    if cls == "translation":
        return translation(slide * d)
    if cls == "rotation":
        return rotation(point, d, angle)
    if cls == "screw":
        return rotation(point, d, angle).then(translation(slide * d))
    offset = reach * float(rng.choice((-1.0, 1.0)))
    if cls == "reflection":
        return reflection(d, offset)
    if cls == "glide_reflection":
        return reflection(d, offset).then(translation(slide * _perp_unit(rng, d)))
    if cls == "inversion":
        return inversion(point)
    if cls == "rotary_reflection":
        center = point - (point @ d) * d + offset * d
        return reflection(d, offset).then(rotation(center, d, angle))
    raise ValueError(f"unknown class {cls!r}")


# Source triple for the cases whose input is a motion rather than a pair;
# its image under the motion gives them a triple pair all the same.
FRAME = np.eye(3)


@dataclass(frozen=True)
class Case:
    """One benchmark input: a motion, a triple pair it carries, and labels."""

    motion: Gen
    family: str  # branch label: class, product<k>, seam family or construct branch
    generated: str  # class the generator built (up to a measure-zero set of inputs)
    checked: bool  # whether the output class must equal `generated`
    src: np.ndarray  # source triple, rows A, B, C
    dst: np.ndarray  # its image under `motion`
    scale: float  # characteristic length; the residual bound scales with it

    @property
    def parity(self) -> int:
        return 1 if float(np.linalg.det(self.motion.linear)) > 0.0 else -1


def spec_scale(spec: dict) -> float:
    """max(1, largest point, vector or offset magnitude in a motion document)."""
    if spec["kind"] == "sequence":
        return max(spec_scale(s) for s in spec["steps"])
    out = 1.0
    for key in ("point", "v", "center"):
        if key in spec:
            out = max(out, float(np.linalg.norm(spec[key])))
    if "offset" in spec:
        out = max(out, abs(spec["offset"]))
    return out


def _case(motion: Gen, family: str, generated: str, checked: bool, src=FRAME) -> Case:
    dst = np.array([motion(p) for p in src])
    scale = max(spec_scale(motion.spec), float(np.abs(src).max()), float(np.abs(dst).max()))
    return Case(motion, family, generated, checked, np.array(src, dtype=float), dst, scale)


# classify-mixed, in cycles of ten: the eight classes once each (80 %, 10 %
# each) at unit scale, with angles in [0.2, pi - 0.2], slides of length
# [0.2, 2] and elements within distance 2 of the origin, all far from every
# tolerance; then two products of 0 to 4 random unit-scale reflections (20 %,
# 4 % per count), whose class follows from the count for all but a
# measure-zero set of planes.
PRODUCT_CLASS = ("identity", "reflection", "rotation", "rotary_reflection", "screw")


def classify_mixed(seed: int) -> Iterator[Case]:
    rng = np.random.default_rng([seed, 1])
    while True:
        for cls in CLASSES:
            g = canonical(
                cls,
                rng,
                angle=_signed(rng, 0.2, math.pi - 0.2),
                slide=float(rng.uniform(0.2, 2.0)),
                reach=float(rng.uniform(0.0, 2.0)),
            )
            yield _case(g, cls, cls, True)
        for _ in range(2):
            k = int(rng.integers(0, 5))
            g = translation(np.zeros(3))
            for _ in range(k):
                g = g.then(reflection(_unit(rng), float(rng.uniform(-2.0, 2.0))))
            yield _case(g, f"product{k}", PRODUCT_CLASS[k], True)


# classify-seams: nine seam families in equal shares (1/9 each), each
# split equally over the scales 1, 1e3, 1e6 and over its seam levels.  The
# scale is the distance of the axis, mirror or center from the origin and
# the length of any generic slide.  Which side of a seam a case lands on is
# the tolerance's call, so only the parity and the round-trip residual are
# checked, not the class.
SEAM_SCALES = (1.0, 1e3, 1e6)
SEAM_ANGLES = (1e-7, 1e-10)  # just above and just below eps_angle = 1e-9
SEAM_PI = (0.0, 1e-7, 1e-10)  # distance below pi
SEAM_SLIDES = (1e-8, 1e-10)  # absolute lengths either side of eps_len = 1e-9
SEAM_FAMILIES = (
    ("rotation_small_angle", "rotation", SEAM_ANGLES),
    ("screw_small_angle", "screw", SEAM_ANGLES),
    ("rotation_near_pi", "rotation", SEAM_PI),
    ("screw_near_pi", "screw", SEAM_PI),
    ("screw_small_slide", "screw", SEAM_SLIDES),
    ("glide_small_slide", "glide_reflection", SEAM_SLIDES),
    ("rotary_small_angle", "rotary_reflection", SEAM_ANGLES),
    ("rotary_near_pi", "rotary_reflection", SEAM_PI[1:]),
    ("reflection_far", "reflection", (0.0,)),
)


def classify_seams(seed: int) -> Iterator[Case]:
    rng = np.random.default_rng([seed, 2])
    for i in itertools.count():
        family, cls, levels = SEAM_FAMILIES[i % len(SEAM_FAMILIES)]
        scale = SEAM_SCALES[(i // len(SEAM_FAMILIES)) % len(SEAM_SCALES)]
        level = levels[(i // (len(SEAM_FAMILIES) * len(SEAM_SCALES))) % len(levels)]
        sign = float(rng.choice((-1.0, 1.0)))
        angle = sign * float(rng.uniform(0.2, math.pi - 0.2))
        slide = scale * float(rng.uniform(0.2, 1.0))
        if family.endswith("small_angle"):
            angle = sign * level
        elif family.endswith("near_pi"):
            angle = sign * (math.pi - level)
        elif family.endswith("small_slide"):
            slide = level
        g = canonical(cls, rng, angle=angle, slide=slide, reach=scale)
        yield _case(g, family, cls, False)


# construct-triples, in cycles of ten in a seeded order: six generic pairs
# under a random motion of either parity (60 %), and one each (10 % each) of
# the four coincidence branches of three_reflections: A already in place, A
# and B in place, the identity correspondence, and the source C on the line
# A'B' once B is in place.  Triangles lie within distance 2 of the origin.
CONSTRUCT_CYCLE = ("generic",) * 6 + ("a_in_place", "ab_in_place", "identity", "c_on_dst_line")


def _triangle(rng) -> np.ndarray:
    """Three points within distance 2 of the origin, no angle below ~10 degrees."""
    while True:
        pts = rng.uniform(-2.0, 2.0, size=(3, 3))
        e = [pts[1] - pts[0], pts[2] - pts[0], pts[2] - pts[1]]
        lengths = [float(np.linalg.norm(x)) for x in e]
        area = float(np.linalg.norm(np.cross(e[0], e[1])))
        if min(lengths) > 0.5 and area > 0.35 * max(lengths) ** 2:
            return pts


def _construct_case(rng, branch: str) -> Case:
    src = _triangle(rng)
    a, b, _ = src
    angle = _signed(rng, 0.2, math.pi - 0.2)
    if branch == "generic":
        g = rotation(rng.uniform(-2.0, 2.0, size=3), _unit(rng), angle)
        g = g.then(translation(rng.uniform(-2.0, 2.0, size=3)))
        if rng.uniform() < 0.5:
            g = g.then(reflection(_unit(rng), float(rng.uniform(-2.0, 2.0))))
            return _case(g, branch, "rotary_reflection", False, src)
        return _case(g, branch, "screw", False, src)
    if branch == "a_in_place":
        return _case(rotation(a, _unit(rng), angle), branch, "rotation", False, src)
    if branch == "ab_in_place":
        return _case(rotation(a, b - a, angle), branch, "rotation", False, src)
    if branch == "identity":
        return _case(translation(np.zeros(3)), branch, "identity", False, src)
    # c_on_dst_line: mirror A and B into place through a plane P, take the
    # source C on the line A'B', and finish with a turn about that line so
    # that the destination C is generic.
    while True:
        n = _unit(rng)
        p = reflection(n, float(n @ a) + _signed(rng, 0.3, 1.0))
        a2, b2 = p(a), p(b)
        c = a2 + _signed(rng, 1.3, 2.0) * (b2 - a2)
        if float(np.linalg.norm(np.cross(b - a, c - a))) > 0.1 * float(np.linalg.norm(c - a)) ** 2:
            break
    g = p.then(rotation(a2, b2 - a2, angle))
    return _case(g, branch, "rotary_reflection", False, np.array([a, b, c]))


def construct_triples(seed: int) -> Iterator[Case]:
    rng = np.random.default_rng([seed, 3])
    while True:
        for j in rng.permutation(len(CONSTRUCT_CYCLE)):
            yield _construct_case(rng, CONSTRUCT_CYCLE[j])


# cli-process, in cycles of twenty in a seeded order: ten classify (50 %),
# three each of triples, compose and iterate (15 % each) and one example
# (5 %), each on a seeded choice among the input files.  The files hold the
# first classify-mixed motions and construct-triples pairs of the same seed.
CLI_CYCLE = ("classify",) * 10 + ("triples", "compose", "iterate") * 3 + ("example",)


def cli_files(seed: int, n: int) -> tuple[dict, list[Case]]:
    """Input documents by file name, and the cases they were written from."""
    motions = list(itertools.islice(classify_mixed(seed), n))
    pairs = list(itertools.islice(construct_triples(seed), n))
    files = {}
    for i, case in enumerate(motions):
        files[f"motion{i}.json"] = case.motion.spec
    for i, case in enumerate(pairs):
        files[f"src{i}.json"] = dict(zip("ABC", (_list(p) for p in case.src)))
        files[f"dst{i}.json"] = dict(zip("ABC", (_list(p) for p in case.dst)))
    return files, motions + pairs


def cli_argvs(seed: int, n_files: int) -> Iterator[list[str]]:
    """Subcommand argument lists over the files of cli_files(seed, n_files)."""
    rng = np.random.default_rng([seed, 4])
    while True:
        for j in rng.permutation(len(CLI_CYCLE)):
            cmd = CLI_CYCLE[j]
            i = int(rng.integers(0, n_files))
            if cmd in ("classify", "compose"):
                yield [cmd, "--input", f"motion{i}.json"]
            elif cmd == "iterate":
                start = ",".join(repr(float(x)) for x in rng.uniform(-2.0, 2.0, size=3))
                # --start=... so that a leading minus sign is not read as an option
                yield [cmd, "--input", f"motion{i}.json", f"--start={start}", "--count", "12"]
            elif cmd == "triples":
                yield [cmd, "--src", f"src{i}.json", "--dst", f"dst{i}.json"]
            else:
                yield [cmd]
