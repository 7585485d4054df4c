"""The four workloads: what one operation (op) calls, and how its output is
checked.  An op receives the generated case itself and builds the library's
input objects (AffineIsometry, TriplePair) inside its timing, so work that
moves into those constructors still counts as the op's cost.

Residual bound.  A round trip or a constructed motion passes when it moves
every point of the frame {0, s*e1, s*e2, s*e3} to within RESIDUAL_BOUND * s
of where the input motion puts it, s being the case's characteristic length
(its largest point, offset or slide, at least 1).  A correct record may
differ from its motion by what the tolerance lets classify drop: a slide up
to eps_len = 1e-9, or a turn up to eps_angle = 1e-9 rad, which moves a frame
point at most 2s from the axis by 2e-9 * s.  Rounding adds about 1e-13 * s.
1e-8 * s is three times that sum, while a wrong angle, axis, mirror, center
or class misses by a sizeable fraction of s.

Failure kinds.  Every kind counts toward the printed fail_ratio, and every
kind but the two EXCUSED ones is a failed op of the result and makes the
run incorrect: "rejected" (reconstruct refused
the record classify emitted), "raised" (any other exception),
"exit_status" (a nonzero CLI exit), "wrong_class", "parity", "residual" and
"wrong_bytes".  The EXCUSED kinds are the two known defects of the library
near seams (ROADMAP item 3), and only classify-seams cases can have them:

- "glide_rejected": reconstruct refuses a GlideReflection record that
  classify emitted, on the seam families where that happens
  (GLIDE_DEFECT_FAMILIES: slides below eps_len, rotary reflections at
  angles 1e-7 and 1e-10, mirrors at distance 1e6).  A refusal of any other
  record, or on any other family, is "rejected".
- "seam_residual": a rotary reflection at angle 1e-7 or 1e-10 may come
  back as a reflection or glide reflection (COLLAPSED_ROTARY) whose round
  trip misses by more than RESIDUAL_BOUND.  Its angle is below or near
  eps_angle, so classify finds the mirror from midpoint offsets as short
  as the probe's cut-off of 1e-10 of the probe length.  Each carries a few
  ulps of rounding, so its direction is off by about 1e-6 per ulp, and
  more when the two offsets crossed for the normal are nearly parallel:
  the error has no fixed ceiling.  In 225,000 rotary seam cases (seeds 1
  to 60), 126 missed: 8 by more than 1e-6 * s, one by 1.06e-5 * s, none
  by more.  SEAM_RESIDUAL_BOUND = 1e-3 is about a hundred times the
  largest of these, and still far below the miss of a wrong angle, axis,
  mirror or center, a sizeable fraction of s.  A miss over RESIDUAL_BOUND
  but within SEAM_RESIDUAL_BOUND * s, by a collapsed record of that
  family, is "seam_residual"; a larger miss, a miss by a record that kept
  its class, or one on any other family, is "residual".
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys

import numpy as np

import gen
from trimirror import (
    AffineIsometry,
    PointTriple,
    TriplePair,
    classify,
    reconstruct,
    second_motion,
    seq_to_affine,
    three_reflections,
)
from trimirror.errors import InvalidClassParameters

RESIDUAL_BOUND = 1e-8
SEAM_RESIDUAL_BOUND = 1e-3
EXCUSED = ("glide_rejected", "seam_residual")
GLIDE_DEFECT_FAMILIES = ("glide_small_slide", "rotary_small_angle", "reflection_far")
SEAM_RESIDUAL_FAMILIES = ("rotary_small_angle",)
COLLAPSED_ROTARY = ("reflection", "glide_reflection")


def refusal_kind(exc: Exception) -> str:
    return "rejected" if isinstance(exc, InvalidClassParameters) else "raised"


def class_name(record) -> str:
    """CLI name of a class record: GlideReflection -> glide_reflection."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(record).__name__).lower()


def parity(motion: AffineIsometry) -> int:
    return 1 if float(np.linalg.det(motion.linear)) > 0.0 else -1


def residual(case: gen.Case, motion: AffineIsometry) -> float:
    """Largest frame-point distance between case.motion and motion, over s."""
    s = case.scale
    dt = case.motion.t - motion.translation
    moved = (case.motion.linear - motion.linear) * s + dt[:, None]
    return max(float(np.linalg.norm(dt)), float(np.linalg.norm(moved, axis=0).max())) / s


def motion_of(linear: np.ndarray, t: np.ndarray) -> AffineIsometry:
    return AffineIsometry(linear, t)


def pair_of(src: np.ndarray, dst: np.ndarray) -> TriplePair:
    return TriplePair(PointTriple(*src), tuple(dst))


class Classify:
    """Op: build the motion, classify(m), then reconstruct(record)."""

    def __init__(self, stream=None) -> None:
        self.stream = stream

    def generate(self, seed: int, workdir: str):
        return self.stream(seed)

    def tag(self, case: gen.Case) -> str:
        return case.family

    def op(self, case: gen.Case, tr, tag: str):
        m = tr.call("motion.affine_isometry", motion_of, case.motion.linear, case.motion.t)
        record = tr.call("classify.classify", classify, m, tag=tag)
        return record, tr.call("classify.reconstruct", reconstruct, record)

    def refusal(self, case: gen.Case, exc: Exception) -> str:
        """Failure kind of an op that raised; classify runs again, untimed,
        to see whether the refused record is the known GlideReflection one."""
        kind = refusal_kind(exc)
        if kind == "rejected" and case.family in GLIDE_DEFECT_FAMILIES:
            record = classify(motion_of(case.motion.linear, case.motion.t))
            if class_name(record) == "glide_reflection":
                return "glide_rejected"
        return kind

    def check(self, case: gen.Case, out) -> str | None:
        record, back = out
        if case.checked and class_name(record) != case.generated:
            return "wrong_class"
        if parity(back) != case.parity:
            return "parity"
        miss = residual(case, back)
        if miss <= RESIDUAL_BOUND:
            return None
        if (
            case.family in SEAM_RESIDUAL_FAMILIES
            and class_name(record) in COLLAPSED_ROTARY
            and miss <= SEAM_RESIDUAL_BOUND
        ):
            return "seam_residual"
        return "residual"


class Construct:
    """Op: build the pair, three_reflections(pair), second_motion, and
    seq_to_affine of both."""

    def generate(self, seed: int, workdir: str):
        return gen.construct_triples(seed)

    def tag(self, case: gen.Case) -> str:
        return "generic" if case.family == "generic" else "degenerate"

    def op(self, case: gen.Case, tr, tag: str):
        pair = tr.call("construct.triple_pair", pair_of, case.src, case.dst)
        first = tr.call("construct.three_reflections", three_reflections, pair, tag=tag)
        second = tr.call("construct.second_motion", second_motion, first, pair.dst)
        return (
            tr.call("motion.seq_to_affine", seq_to_affine, first),
            tr.call("motion.seq_to_affine", seq_to_affine, second),
        )

    def refusal(self, case: gen.Case, exc: Exception) -> str:
        return refusal_kind(exc)

    def check(self, case: gen.Case, out) -> str | None:
        for motion, want in zip(out, (-1, 1)):
            if parity(motion) != want:
                return "parity"
            moved = motion.linear @ case.src.T + motion.translation[:, None]
            if float(np.abs(moved - case.dst.T).max()) > RESIDUAL_BOUND * case.scale:
                return "residual"
        return None


def cli_env(src_dir: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src_dir + (os.pathsep + path if path else ""))


def run_main(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of trimirror.cli.main(argv), in this process."""
    from trimirror.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def write_files(files: dict, workdir: str) -> None:
    for name, doc in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def absolute(argv: list[str], workdir: str) -> list[str]:
    return [os.path.join(workdir, a) if a.endswith(".json") else a for a in argv]


class Cli:
    """Op: one `trimirror` process, spawn to exit, run one at a time."""

    N_FILES = 40
    TIMEOUT_S = 60.0

    def __init__(self, src_dir: str) -> None:
        self.env = cli_env(src_dir)

    def generate(self, seed: int, workdir: str):
        files, _ = gen.cli_files(seed, self.N_FILES)
        write_files(files, workdir)
        return (absolute(argv, workdir) for argv in gen.cli_argvs(seed, self.N_FILES))

    def tag(self, argv: list[str]) -> str:
        return argv[0]

    def invoke(self, argv: list[str]) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "trimirror.cli", *argv],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=self.TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def op(self, argv: list[str], tr, tag: str):
        return tr.call("cli.invocation", self.invoke, argv, tag=tag)

    def refusal(self, argv: list[str], exc: Exception) -> str:
        return "raised"

    def check(self, argv: list[str], out) -> str | None:
        """Exit status 0 and the bytes in-process main prints (computed here,
        after the op and outside its timing)."""
        code, stdout = out
        if code != 0:
            return "exit_status"
        if stdout != run_main(argv)[1]:
            return "wrong_bytes"
        return None


STREAMS = {
    "classify-mixed": gen.classify_mixed,
    "classify-seams": gen.classify_seams,
    "construct-triples": gen.construct_triples,
}

# Cases in one cycle of each workload's generator: every branch once.
CYCLES = {
    "classify-mixed": 10,
    "classify-seams": len(gen.SEAM_FAMILIES) * len(gen.SEAM_SCALES) * 6,
    "construct-triples": len(gen.CONSTRUCT_CYCLE),
    "cli-process": len(gen.CLI_CYCLE),
}


def make(name: str, src_dir: str):
    if name == "cli-process":
        return Cli(src_dir)
    if name == "construct-triples":
        return Construct()
    return Classify(STREAMS[name])


def own_cases(name: str, seed: int, n: int) -> list[gen.Case]:
    """The first n generated cases of a workload (for cli-process, the cases
    behind its first n/2 motion files and n/2 triple-pair files)."""
    if name == "cli-process":
        return gen.cli_files(seed, max(1, n // 2))[1]
    return list(itertools.islice(STREAMS[name](seed), n))
