"""Paired benchmark runs of a parent revision and a change, written to BENCH_<pr>.json.

    python3 tools/pair_bench.py --pr N --base HEAD~1 \
        --run construct-triples=1101-1110 --run classify-mixed=1201-1205 \
        [--out BENCH_N.json]

Each side is a copy of the repository in a temporary directory, so both run
from sibling directories: the base side is the git revision --base, exported
with `git archive`; the head side is a copy of the working tree's files that
git tracks or would track.  For each workload and seed of a --run, both sides
run `perfbench/run.py --seconds 28 --trace 0` one after the other with the same
arguments, in alternating order (base first on even-numbered pairs, head first
on odd ones), so a machine that slows down for minutes slows both sides.  The
last stdout line of a run is its JSON result.

The output holds, per workload and metric: each side's median and quartiles
(inclusive method: the median of 10 values is the mean of the middle two),
the ratio of the medians (head over base), the number of pairs the head
side won, by the direction in BENCHMARK.json, and `claimable`: whether the
runs show a gain, which takes at least 10 pairs, wins in at least 9 of each
10, and a head median better than the base median by more than the base's
IQR.  It also holds every run's
metrics with its seed and order, each side's git revision and a sha256 of its
src/ tree, and the machine.  The file is rewritten after every pair, so an
interrupted session leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 28  # BENCHMARK.json's run_seconds
TRACE = 0  # untraced: per-layer spans slow the op they time


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: str) -> str:
    """The commit sha of `rev`, with its tree unpacked under `into`."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def copy_worktree(into: str) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files under `into`."""
    for rel in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        path = os.path.join(ROOT, rel)
        if rel and os.path.isfile(path):  # a tracked file may be deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(into, rel)), exist_ok=True)
            shutil.copy2(path, os.path.join(into, rel))


def src_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of the .py files under root/src."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def seeds_of(text: str) -> list[int]:
    """'1101-1105,1201' -> [1101, 1102, 1103, 1104, 1105, 1201]"""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(root: str, workload: str, seed: int) -> dict:
    """The JSON result of one perfbench run in the checkout at root, with the
    fail_ratio that run.py prints on a line of its own (not a JSON metric)."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(TRACE)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("fail_ratio "):
            result["fail_ratio"] = float(line.split()[1])
            result["failures"] = line.partition("(")[2].rstrip(")")
    return result


def directions(root: str) -> dict[str, str]:
    """'higher' or 'lower' by metric name, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread, the ratio of medians, the head's wins and whether they
    show a gain.

    `runs` holds one {"base": result, "head": result} per pair; a metric is
    summarized when every run of both sides reports it and its direction is known.
    """
    out = {}
    names = set.intersection(*(set(r[side]["metrics"]) for r in runs for side in ("base", "head")))
    for name in sorted(n for n in names if n in better):
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        head = [r["head"]["metrics"][name]["value"] for r in runs]
        sign = 1.0 if better[name] == "higher" else -1.0
        sides = {"base": spread(base), "head": spread(head)}
        wins = sum(sign * (h - b) > 0.0 for b, h in zip(base, head))
        gain = sign * (sides["head"]["median"] - sides["base"]["median"])
        pairs = len(runs)
        out[name] = {
            "better": better[name],
            **sides,
            "ratio": statistics.median(head) / statistics.median(base),
            "wins": wins,
            "claimable": pairs >= 10 and 10 * wins >= 9 * pairs and gain > sides["base"]["iqr"],
            "pairs": pairs,
        }
    return out


def failures(runs: list[dict]) -> dict:
    """Per side: whether every run was correct, the largest fail_ratio a run
    printed (None if none did), and how many runs printed none."""
    out = {}
    for side in ("base", "head"):
        ratios = [r[side]["fail_ratio"] for r in runs if "fail_ratio" in r[side]]
        out[side] = {
            "all_correct": all(r[side]["correct"] for r in runs),
            "max_fail_ratio": max(ratios, default=None),
            "runs_without_fail_ratio": len(runs) - len(ratios),
        }
    return out


def machine() -> dict:
    """The interpreter and machine the runs share (run.py runs under sys.executable)."""
    import numpy

    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "load_avg": list(os.getloadavg()),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        info["cpu"] = models[0] if models else None
    except OSError:
        info["cpu"] = None
    return info


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output file name")
    p.add_argument("--base", required=True, help="git revision of the parent side")
    p.add_argument("--run", action="append", required=True, metavar="WORKLOAD=SEEDS",
                   help="a workload and its seeds, such as construct-triples=1101-1110")
    p.add_argument("--out", default=None, help="output path (default: BENCH_<pr>.json at the root)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = []
    for item in args.run:
        workload, _, seeds = item.partition("=")
        plan.append((workload, seeds_of(seeds)))
    out_path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with tempfile.TemporaryDirectory(prefix="pair-bench-") as scratch:
        roots = {side: os.path.join(scratch, side) for side in ("base", "head")}
        for root in roots.values():
            os.mkdir(root)
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        sides = {
            "base": {"rev": export(args.base, roots["base"])},
            "head": {"rev": git("rev-parse", "HEAD"), "dirty": dirty},  # the working tree
        }
        copy_worktree(roots["head"])
        for side, root in roots.items():
            sides[side]["src_sha256"] = src_digest(root)
        better = directions(roots["head"])
        report = {
            "pr": args.pr,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "args": {"base": args.base, "run": args.run, "seconds": SECONDS, "trace": TRACE},
            "sides": sides,
            "machine": machine(),
            "workloads": {},
        }
        k = 0
        for workload, seeds in plan:
            runs = []
            for seed in seeds:
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                k += 1
                run = {"seed": seed, "order": list(order)}
                for side in order:
                    run[side] = run_once(roots[side], workload, seed)
                runs.append(run)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {run[side]['metrics']['ops_per_s']['value']:.0f} ops/s" for side in order
                ), flush=True)
                report["workloads"][workload] = {
                    "seeds": seeds[: len(runs)],
                    "metrics": summarize(runs, better),
                    "failures": failures(runs),
                    "runs": runs,
                }
                with open(out_path, "w", encoding="utf-8") as handle:
                    json.dump(report, handle, indent=1)
                    handle.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
