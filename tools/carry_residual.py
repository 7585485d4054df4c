"""Carry residual of the construct-triples motions, for the working tree or a git revision.

    python3 tools/carry_residual.py --seeds 1-3 --cases 20000 [--rev HEAD~1]

For each seed, the first --cases construct-triples cases of perfbench/gen.py
are built as the benchmark's construct op builds them: the pair,
three_reflections, second_motion and seq_to_affine of both sequences.  A
case's carry residual is the largest component of L p + t - p' over both
motions and the three points p of the source triple, p' their destinations,
evaluated exactly in fractions from the motions' public `linear` and
`translation` arrays, so any revision can be measured, and given in units of
eps * s, s the case's scale.  Each seed prints the median, p99 (inclusive
quantiles, as tools/pair_bench.py takes them) and max over all cases and over
its generic and degenerate (coincidence-branch) cases, and how many cases the
library refused.

The library is the working tree's src/, another source directory with --src,
or the src/ of the git revision --rev, exported with `git archive` as
tools/pair_bench.py exports one and measured in a fresh interpreter.  The cases
always come from the working tree's perfbench/gen.py.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
sys.path.insert(0, TOOLS)
import pair_bench  # noqa: E402  (export, seeds_of)

EPS = Fraction(sys.float_info.epsilon)


def carry(linear, translation, src, dst, scale: float) -> float:
    """max |L p + t - p'| over the points p of src and p' of dst, exactly, in eps * scale,
    for the rows of L and the components of t as floats or float64 values."""
    rows = [[Fraction(float(x)) for x in row] for row in linear]
    shift = [Fraction(float(x)) for x in translation]
    worst = Fraction(0)
    for p, q in zip(src, dst):
        x, y, z = map(Fraction, p)
        for (a, b, c), t, want in zip(rows, shift, q):
            worst = max(worst, abs(a * x + b * y + c * z + t - Fraction(want)))
    return float(worst / (EPS * Fraction(scale)))


def perfbench_gen():
    """The working tree's perfbench/gen.py, loaded from its path (it imports only numpy)."""
    path = os.path.join(ROOT, "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(gen)
    return gen


def measure(seed: int, cases: int) -> dict:
    """Carry residuals by branch ("generic", "degenerate") and the refused count,
    for the trimirror that this process imports."""
    from trimirror import PointTriple, TriplePair, second_motion, seq_to_affine, three_reflections

    out = {"generic": [], "degenerate": [], "refused": 0}
    stream = perfbench_gen().construct_triples(seed)
    for _ in range(cases):
        case = next(stream)
        try:
            pair = TriplePair(PointTriple(*case.src), tuple(case.dst))
            first = three_reflections(pair)
            motions = (seq_to_affine(first), seq_to_affine(second_motion(first, pair.dst)))
        except ValueError:  # the library's refusals: GeometryError is a ValueError
            out["refused"] += 1
            continue
        src, dst = case.src.tolist(), case.dst.tolist()
        residual = max(carry(m.linear, m.translation, src, dst, case.scale) for m in motions)
        out["generic" if case.family == "generic" else "degenerate"].append(residual)
    return out


def summary(values: list[float]) -> dict:
    """Median, p99 and max; p99 is the 99th of the inclusive percentiles."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return {"median": value, "p99": value, "max": value}
    p99 = statistics.quantiles(values, n=100, method="inclusive")[98]
    return {"median": statistics.median(values), "p99": p99, "max": max(values)}


def report(seed: int, result: dict) -> str:
    generic, degenerate = result["generic"], result["degenerate"]
    parts = [f"seed {seed}: {len(generic) + len(degenerate)} cases, {result['refused']} refused"]
    for name, values in (("all", generic + degenerate), ("generic", generic),
                         ("degenerate", degenerate)):
        s = summary(values)
        parts.append(f"{name} median {s['median']:.3f} p99 {s['p99']:.2f} max {s['max']:.1f}")
    return " | ".join(parts)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="construct-triples seeds, such as 1-3 or 1,5")
    p.add_argument("--cases", type=int, required=True, help="cases per seed, from the first")
    side = p.add_mutually_exclusive_group()
    side.add_argument("--rev", help="git revision whose src/ to measure")
    side.add_argument("--src", help="library source directory (default: the working tree's src/)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.rev:
        with tempfile.TemporaryDirectory(prefix="carry-residual-") as scratch:
            sha = pair_bench.export(args.rev, scratch)
            print(f"revision {sha}", flush=True)
            command = [sys.executable, os.path.abspath(__file__), "--seeds", args.seeds,
                       "--cases", str(args.cases), "--src", os.path.join(scratch, "src")]
            return subprocess.run(command, check=False).returncode
    src_dir = os.path.abspath(args.src or os.path.join(ROOT, "src"))
    sys.path.insert(0, src_dir)
    import trimirror

    if not os.path.abspath(trimirror.__file__).startswith(src_dir + os.sep):
        raise SystemExit(f"trimirror imported from {trimirror.__file__}, not from {src_dir}")
    for seed in pair_bench.seeds_of(args.seeds):
        print(report(seed, measure(seed, args.cases)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
