"""In-process A/B of each workload's op: a git revision against the working tree.

    python3 tools/op_ab.py --base HEAD [--read]

The base side is the revision --base, exported with `git archive` as
tools/pair_bench.py exports it; the head side is the working tree.  Each
side's src/trimirror is loaded under its own package name (trimirror_base,
trimirror_head), so both run in one process on the same perfbench/gen.py
cases: the first CASES of seed SEED of each workload.  The op is the one
perfbench/workloads.py times: build the motion, classify and reconstruct
(classify-mixed, classify-seams), or build the pair, three_reflections,
second_motion and seq_to_affine of both (construct-triples).  A refused
record counts as done on both sides.  A pass runs one side's op over every
case; the sides alternate for PASSES rounds, each going first on every other
round, and each reports its best pass.  With --read, the op also reads the
arrays of the motions it returns (linear and translation) inside the timing,
as the benchmark's output check does after it.  The ratio is base time over
head time: above 1, the working tree is faster.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import os
import sys
import tempfile
import time

WORKLOADS = ("classify-mixed", "classify-seams", "construct-triples")
CASES, PASSES, SEED = 2000, 40, 1


def load(path: str, name: str):
    """The module at path (a package when path is a directory), imported as `name`."""
    package = os.path.isdir(path)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py") if package else path,
        submodule_search_locations=[path] if package else None)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pair_bench = load(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pair_bench.py"),
                  "pair_bench")
ROOT = pair_bench.ROOT


def make_op(lib, workload: str, read: bool):
    """One case's op on the package `lib`."""
    refused = lib.errors.InvalidClassParameters

    def finish(motions):
        if read:
            for m in motions:
                m.linear, m.translation

    def classify_op(case):
        m = lib.AffineIsometry(case.motion.linear, case.motion.t)
        try:
            finish((lib.reconstruct(lib.classify(m)),))
        except refused:  # the known glide refusal near a seam
            pass

    def construct_op(case):
        pair = lib.TriplePair(lib.PointTriple(*case.src), tuple(case.dst))
        first = lib.three_reflections(pair)
        second = lib.second_motion(first, pair.dst)
        finish((lib.seq_to_affine(first), lib.seq_to_affine(second)))

    return construct_op if workload == "construct-triples" else classify_op


def one_pass(op, cases) -> float:
    start = time.perf_counter()
    for case in cases:
        op(case)
    return time.perf_counter() - start


def compare(libs: dict, cases: list, workload: str, read: bool, passes: int = PASSES) -> dict:
    """Best pass per side in us per op, over `passes` alternating rounds, and base / head."""
    ops = {side: make_op(lib, workload, read) for side, lib in libs.items()}
    best = dict.fromkeys(libs, float("inf"))
    for k in range(passes):
        for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
            best[side] = min(best[side], one_pass(ops[side], cases))
    us = {side: 1e6 * t / len(cases) for side, t in best.items()}
    return {"base_us": us["base"], "head_us": us["head"], "ratio": us["base"] / us["head"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--read", action="store_true", help="read the returned motions' arrays")
    args = p.parse_args(argv)
    gen = load(os.path.join(ROOT, "perfbench", "gen.py"), "perfbench_gen")
    with tempfile.TemporaryDirectory(prefix="op-ab-") as scratch:
        sha = pair_bench.export(args.base, scratch)
        libs = {"base": load(os.path.join(scratch, "src", "trimirror"), "trimirror_base"),
                "head": load(os.path.join(ROOT, "src", "trimirror"), "trimirror_head")}
        print(f"base {sha[:12]}, head working tree, {CASES} cases of seed {SEED}, "
              f"best of {PASSES} passes, read={args.read}")
        for workload in WORKLOADS:
            stream = getattr(gen, workload.replace("-", "_"))(SEED)
            got = compare(libs, list(itertools.islice(stream, CASES)), workload, args.read)
            print(f"{workload}: base {got['base_us']:.2f} us/op, head {got['head_us']:.2f} us/op,"
                  f" x{got['ratio']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
