"""In-process A/B of each workload's op: a git revision against the working tree.

    python3 tools/op_ab.py --base HEAD [--read]

The base side is the revision --base, exported with `git archive` as
tools/pair_bench.py exports it; the head side is the working tree.  Each
side's src/trimirror is loaded under its own package name (trimirror_base,
trimirror_head), so both run in one process on the same perfbench/gen.py
cases: the first CASES of seed SEED of each workload.  The op is the one
perfbench/workloads.py times, from that file itself: it is loaded once per
side with `trimirror` bound to that side's package, and its op runs with
spans.Untraced(), as an untraced benchmark run calls it.  A refused record
counts as done on both sides.  A pass runs one side's op over every case; the
sides alternate for PASSES rounds, each going first on every other round, and
each reports its best pass.  With --read, the op also reads the arrays of the
motions it returns (linear and translation) inside the timing, as the
benchmark's output check does after it.  The ratio is base time over head
time: above 1, the working tree is faster.
"""

from __future__ import annotations

import argparse
import functools
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
spans = load(os.path.join(ROOT, "perfbench", "spans.py"), "perfbench_spans")


@functools.cache
def workloads_of(lib):
    """perfbench/workloads.py loaded as its own module, with `trimirror` bound to the package lib
    (and `gen` to a fresh perfbench/gen.py) while it imports; sys.modules is restored after."""
    perfbench, bound = os.path.join(ROOT, "perfbench"), ("gen", "trimirror", "trimirror.errors")
    saved = {name: sys.modules.get(name) for name in bound}
    sys.modules.update({"trimirror": lib, "trimirror.errors": lib.errors})
    try:
        sys.modules["gen"] = load(os.path.join(perfbench, "gen.py"), lib.__name__ + "_gen")
        return load(os.path.join(perfbench, "workloads.py"), lib.__name__ + "_workloads")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def make_op(lib, workload: str, read: bool):
    """One case's op on the package `lib`: the workload's own op, untraced."""
    op, tr = workloads_of(lib).make(workload, "").op, spans.Untraced()
    refused, motion = lib.errors.InvalidClassParameters, lib.AffineIsometry

    def run(case):
        try:
            out = op(case, tr, None)
        except refused:  # the known glide refusal near a seam
            return
        if read:
            for m in out:
                if isinstance(m, motion):  # not a class record
                    m.linear, m.translation

    return run


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
