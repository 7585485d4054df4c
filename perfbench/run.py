"""trimirror benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller, one thread: the next op starts only after the previous one has
returned and been checked.  Inputs come from --seed alone; the library only
sees the generated inputs.  With --trace 0 the run measures the end-to-end
metrics, scaled to a nominal machine speed (see speed.py); with --trace 1
it measures the same loop untraced and then traced, adds the per-layer
calls of layers.py, and reports per-layer metrics as measured.
Human-readable lines come first; the last line of stdout is one JSON object.
The library is imported from src/ next to this directory; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from time import perf_counter
from typing import NamedTuple

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ("classify-mixed", "classify-seams", "construct-triples", "cli-process")

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 60.0  # one probe; the run must end within 180 s
OWN_CASES = 720  # own cases per traced run, about four and a half seam cycles
PANEL = 240  # cases per panel in a traced run
FRONT_REPS = 8  # analyze() calls and in-process main calls per subcommand
CALIBRATION_REPS = 5  # fresh interpreters of each kind in a traced run
# op_tail_us as (percentile, ops a run needs for it: ten beyond it).  A CLI
# run makes 80 to 135 invocations, so p90 may have only eight samples
# beyond it, and above about p82 the latency of a spawn is set by
# contention for the other core: scaled p90 medians of two sets of five
# runs half an hour apart differed by 15 %, p80 medians by 2 %.  So
# cli-process reports p80.  In-process runs reach tens of thousands of ops,
# but above p97 the latency is set by stalls from other tenants of a shared
# machine (p99 of one workload and seed doubled between runs while p50
# held), so they report p95, per chunk of 1000 ops and as the median over
# chunks: a burst moves one chunk.
TAIL = {"cli-process": (80, 50)}
DEFAULT_TAIL = (95, 1000)


def monotonic() -> float:
    """A clock shared by every process on the machine, for setup_s."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None, help="cap ops and sample sizes (self-test)")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Loop(NamedTuple):
    starts: list[float]  # perf_counter() at the start of each op
    latencies: list[float]
    kinds: Counter  # failed ops by failure kind
    refs: list[tuple[float, float]]  # (when, seconds) of each reference run
    ref: speed.Reference

    def at_nominal(self, stat) -> list[float]:
        """Latencies at nominal speed: each scaled by the nominal time over
        stat() of the reference times within the half-width of the op's
        start, so that a change of machine speed within the run is followed."""
        when = [w for w, _ in self.refs]  # in time order
        kernel = [seconds for _, seconds in self.refs]
        factors = {}
        out = []
        for start, latency in zip(self.starts, self.latencies):
            near = (
                bisect.bisect_left(when, start - self.ref.half_width),
                bisect.bisect_right(when, start + self.ref.half_width),
            )
            if near not in factors:
                factors[near] = self.ref.nominal / stat(kernel[slice(*near)] or kernel)
            out.append(latency * factors[near])
        return out


def reference(args) -> speed.Reference:
    """The machine-speed reference of a workload (see speed.py)."""
    if args.workload == "cli-process":
        import workloads

        return speed.spawn(workloads.cli_env(SRC))
    return speed.CPU


def loop(wl, stream, seconds: float, max_ops: int | None, tr, ref: speed.Reference):
    """Run ops for `seconds`: per-op latencies, failure kinds, and the
    reference times taken between ops."""
    starts, latencies, kinds, refs = [], [], Counter(), []
    next_ref = perf_counter()
    deadline = next_ref + seconds
    for op_id, case in enumerate(stream):
        if perf_counter() >= deadline or (max_ops is not None and op_id >= max_ops):
            break
        # One reference run per ref.every seconds of loop time, however
        # long the ops are, so the reference samples the run evenly.
        while next_ref <= perf_counter() < deadline:
            refs.append((perf_counter(), ref.measure()))
            next_ref += ref.every
        tag = wl.tag(case)
        with tr.op(op_id, tag):
            start = perf_counter()
            starts.append(start)
            try:
                out = wl.op(case, tr, tag)
            except Exception as exc:  # a refused op is counted and the loop goes on
                latencies.append(perf_counter() - start)
                kinds[wl.refusal(case, exc)] += 1
                continue
            latencies.append(perf_counter() - start)
            kind = wl.check(case, out)
        if kind:
            kinds[kind] += 1
    return Loop(starts, latencies, kinds, refs, ref)


def first_verified_op(args) -> int:
    """--probe-setup: run ops until one passes, trying at most one cycle of
    the workload's generator; print when, and the generation time.  Exit
    status 1 if no op of the cycle passes."""
    import spans
    import workloads

    wl = workloads.make(args.workload, SRC)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        gen_s = 0.0
        start = perf_counter()
        stream = wl.generate(args.seed, workdir)
        for case in itertools.islice(stream, workloads.CYCLES[args.workload]):
            gen_s += perf_counter() - start
            try:
                if wl.check(case, wl.op(case, spans.Untraced(), wl.tag(case))) is None:
                    print(json.dumps({"done": monotonic(), "gen_s": gen_s}))
                    return 0
            except Exception:  # not verified; the next case is tried
                pass
            start = perf_counter()
    print(f"error: no op of the first {args.workload} cycle passed its check", file=sys.stderr)
    return 1


class SetupFailed(Exception):
    pass


def setup_seconds(args) -> float:
    """Fresh interpreter start to first verified op, generation excluded."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup"]
    argv += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    spawned = monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupFailed(f"set-up probe ran over {PROBE_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        raise SetupFailed(f"set-up probe exited with status {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["done"] - spawned - report["gen_s"]


def quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values: list[float], pct: int, chunk: int) -> float:
    """Median over consecutive chunks of `chunk` values of their pct-th percentile."""
    chunks = [values[i : i + chunk] for i in range(0, len(values) - chunk + 1, chunk)]
    return statistics.median(quantile(c, pct) for c in chunks or [values])


def unexcused(kinds: Counter) -> int:
    """Failed ops that make the run incorrect: all but the known seam defects
    (workloads.EXCUSED).  Only these are the result's `failed`, so a correct
    run reports 0 however many ops it made; the known defects are printed
    on the fail_ratio line."""
    import workloads

    return sum(n for kind, n in kinds.items() if kind not in workloads.EXCUSED)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, workdir: str) -> dict:
    from spans import Untraced

    # The probes are spread over the run, one before each of as many equal
    # parts of the loop, so that they meet the same machine speeds as the
    # kernel runs their median is scaled by.
    probes = 1 if args.max_ops else SETUP_PROBES
    stream = wl.generate(args.seed, workdir)
    ref = reference(args)
    setup, run = [], Loop([], [], Counter(), [], ref)
    for _ in range(probes):
        setup.append(setup_seconds(args))
        part = loop(wl, stream, args.seconds / probes, args.max_ops, Untraced(), ref)
        run.starts.extend(part.starts)
        run.latencies.extend(part.latencies)
        run.kinds.update(part.kinds)
        run.refs.extend(part.refs)
    attempted, failing = len(run.latencies), sum(run.kinds.values())
    failed = unexcused(run.kinds)
    pct, needed = TAIL.get(args.workload, DEFAULT_TAIL)
    if attempted < needed:
        print(f"warning: {attempted} ops, fewer than the {needed} that p{pct} needs", file=sys.stderr)
    chunk = attempted if args.workload in TAIL else needed

    def figures(by_mean: list[float], by_median: list[float], setup_scale: float) -> dict:
        return {
            "ops_per_s": metric((attempted - failing) / sum(by_mean), "1/s"),
            "op_p50_us": metric(statistics.median(by_median) * 1e6, "us"),
            "op_tail_us": metric(tail(by_median, pct, chunk) * 1e6, "us"),
            "setup_s": metric(statistics.median(setup) * setup_scale, "s"),
        }

    # A mean is scaled by the reference's mean, a median or percentile by
    # its median.  setup_s is scaled by the reference's median over the
    # whole run: kernel times taken right next to a probe read unlike the
    # ones taken between ops, and moved setup_s more than the machine did.
    kernel = [seconds for _, seconds in run.refs]
    metrics = figures(
        run.at_nominal(statistics.fmean),
        run.at_nominal(statistics.median),
        ref.nominal / statistics.median(kernel),
    )
    raw = figures(run.latencies, run.latencies, 1.0)
    breakdown = ", ".join(f"{k} {v}" for k, v in sorted(run.kinds.items())) or "none"
    print(
        f"ops {attempted} attempted, {failing} failed ({failing - failed} of them known seam"
        f" defects, excused) in {sum(run.latencies):.3f} s of op time"
    )
    print(f"fail_ratio {failing / attempted:.6f} ratio (failures by kind: {breakdown})")
    print(f"op_tail_us is op_p{pct}_us; setup_s is the median of {len(setup)} fresh interpreters")
    print(
        f"speed reference over {len(kernel)} runs: median {statistics.median(kernel) * 1e3:.4f} ms,"
        f" mean {statistics.fmean(kernel) * 1e3:.4f} ms; the metrics below are at nominal speed"
        f" ({ref.nominal * 1e3:g} ms); as measured: "
        + ", ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in raw.items())
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(args, wl, workdir: str) -> dict:
    import gen
    import layers
    import workloads
    from spans import Tracer, Untraced

    half, ref = args.seconds / 2.0, reference(args)
    plain = loop(wl, wl.generate(args.seed, workdir), half, args.max_ops, Untraced(), ref)
    tr = Tracer()
    traced = loop(wl, wl.generate(args.seed, workdir), half, args.max_ops, tr, ref)
    common = min(len(plain.latencies), len(traced.latencies))
    # Each half at its own machine speed, on the same inputs.
    overhead = sum(traced.at_nominal(statistics.fmean)[:common]) / sum(
        plain.at_nominal(statistics.fmean)[:common]
    )
    glue = tr.glue_share()
    kernel = [seconds for _, seconds in plain.refs + traced.refs]

    small = args.max_ops is not None
    n_own = min(OWN_CASES, args.max_ops) if small else OWN_CASES
    cases = workloads.own_cases(args.workload, args.seed, n_own)
    counts = layers.own_cases(tr, cases)
    layers.panels(tr, args.seed, 10 if small else PANEL)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as scratch:
        layers.front_end(tr, args.seed, scratch, 1 if small else FRONT_REPS)
    calib = layers.calibrate(workloads.cli_env(SRC), 1 if small else CALIBRATION_REPS)

    med = tr.medians()

    def us(name: str, tag: str | None = None) -> dict:
        return metric(med[name if tag is None else (name, tag)] * 1e6, "us")

    m = {
        "classify.classify_us": us("classify.classify"),
        "classify.reconstruct_us": us("classify.reconstruct"),
        **{f"classify.classify_us.{c}": us("classify.classify", c) for c in gen.CLASSES},
        "classify.collapsed_ratio": metric(counts["collapsed"] / max(1, counts["classified"]), "ratio"),
        "classify.rejected": metric(counts["rejected"], "count"),
        "classify.raised": metric(counts["raised"], "count"),
        "classify.residual_exceeded": metric(counts["residual_exceeded"], "count"),
        "construct.three_reflections_us.generic": us("construct.three_reflections", "generic"),
        "construct.three_reflections_us.degenerate": us("construct.three_reflections", "degenerate"),
        "construct.second_motion_us": us("construct.second_motion"),
        "construct.triple_pair_us": us("construct.triple_pair"),
        "motion.affine_isometry_us": us("motion.affine_isometry"),
        "motion.seq_to_affine_us": us("motion.seq_to_affine"),
        "motion.then_us": us("motion.then"),
        "motion.apply_us": us("motion.apply"),
        "geom.as_vec3_us": us("geom.as_vec3"),
        "geom.plane_us": us("geom.plane"),
        "geom.line_us": us("geom.line"),
        "geom.perpendicular_bisector_plane_us": us("geom.perpendicular_bisector_plane"),
        "example.analyze_us": us("example.analyze"),
        "cli.interpreter_s": metric(calib["bare"], "s"),
        "cli.numpy_import_s": metric(calib["numpy"] - calib["bare"], "s"),
        "cli.trimirror_import_s": metric(calib["trimirror"] - calib["numpy"], "s"),
        **{f"cli.main_us.{c}": us("cli.main", c) for c in sorted(set(gen.CLI_CYCLE))},
        "bench.speed_factor": metric(ref.nominal / statistics.median(kernel), "ratio"),
        "bench.glue_share": metric(glue, "ratio"),
        "bench.trace_overhead_ratio": metric(overhead, "ratio"),
    }
    print(
        f"traced {len(traced.latencies)} ops after {len(plain.latencies)} untraced;"
        f" own cases {len(cases)}: {dict(counts)}"
    )
    if "cli.invocation" in med:
        rest = med["cli.invocation"] - calib["trimirror"] - med["cli.main"]
        print(
            f"median invocation {med['cli.invocation']:.4f} s = start {calib['bare']:.4f}"
            f" + numpy {calib['numpy'] - calib['bare']:.4f}"
            f" + trimirror {calib['trimirror'] - calib['numpy']:.4f}"
            f" + main {med['cli.main']:.4f} + rest {rest:.4f}"
        )
    out_dir = os.path.join(ROOT, ".perfbench-spans")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.jsonl")
    tr.write(path)
    print(f"{len(tr.spans)} spans written to {os.path.relpath(path, ROOT)}")
    return {"attempted": len(traced.latencies), "failed": unexcused(traced.kinds), "metrics": m}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trimirror", "__init__.py")):
        print(f"error: no trimirror sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # On SIGTERM unwind normally: subprocess.run kills and reaps its child,
    # and temporary directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.probe_setup:
        return first_verified_op(args)

    import workloads

    wl = workloads.make(args.workload, SRC)
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, 1 thread")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            result = (per_layer if args.trace else end_to_end)(args, wl, workdir)
        except SetupFailed as exc:
            print(f"error: {exc}; no op could be verified", file=sys.stderr)
            return 1
    for name, value in result["metrics"].items():
        print(f"{name} {value['value']:.6g} {value['unit']}")
    correct = result["failed"] == 0
    correct = correct and all(math.isfinite(v["value"]) for v in result["metrics"].values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
