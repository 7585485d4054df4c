"""Self-test of the benchmark at tiny op counts.

    python3 -m pytest perfbench -q

It checks that every metric BENCHMARK.json names is printed with its unit,
that a deliberately wrong output or a refused op is counted as a failed op
and makes the run incorrect, that only the two known seam defects are
excused (shown in fail_ratio, not in the result's failed), that inputs
follow the seed, and that the run fails cleanly
without the sources or when no op can be verified.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import islice

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Untraced  # noqa: E402
from trimirror import AffineIsometry  # noqa: E402
from trimirror.errors import InvalidClassParameters  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCH = json.load(handle)
# Every workload the runner knows, cli-process too, which BENCHMARK.json leaves out.
WORKLOADS = list(run.NAMES)


def test_benchmark_workloads_are_known_to_the_runner():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def tiny_ops(workload: str) -> int:
    return 3 if workload == "cli-process" else 20


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    argv += ["--seed", "7", "--seconds", "5", "--trace", str(trace)]
    argv += ["--max-ops", str(tiny_ops(workload))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in result["metrics"]:
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines())


def shifted(motion: AffineIsometry, by: float = 1.0) -> AffineIsometry:
    return AffineIsometry(motion.linear, motion.translation + np.array([by, 0.0, 0.0]))


def mirrored(motion: AffineIsometry) -> AffineIsometry:
    return AffineIsometry(-motion.linear, motion.translation)


# Deliberately wrong outputs, one per op shape.
CORRUPT = {
    workloads.Classify: lambda out: (out[0], mirrored(out[1])),
    workloads.Construct: lambda out: (shifted(out[0]), out[1]),
    workloads.Cli: lambda out: (out[0], out[1] + b" "),
}


def fail_ratio(stdout: str) -> float:
    return float(next(x for x in stdout.splitlines() if x.startswith("fail_ratio ")).split()[1])


def assert_all_failed(workload: str, stdout: str) -> None:
    """Every op failed; only a known seam defect is left out of `failed`."""
    result = last_json(stdout)
    assert fail_ratio(stdout) == 1.0
    assert result["attempted"] >= result["failed"] >= 1
    if workload != "classify-seams":
        assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def run_in_process(workload: str, want_code: int = 0) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "5", "--trace", "0"]
            + ["--max-ops", str(tiny_ops(workload))]
        )
    assert code == want_code
    return buf.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_output_counts_as_failure(workload, monkeypatch):
    cls = type(workloads.make(workload, run.SRC))
    op = cls.op
    monkeypatch.setattr(cls, "op", lambda self, *a: CORRUPT[cls](op(self, *a)))
    assert_all_failed(workload, run_in_process(workload))


def refuse(self, *args):
    raise InvalidClassParameters("refused")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_refusal_counts_as_failure_and_makes_the_run_incorrect(workload, monkeypatch):
    monkeypatch.setattr(type(workloads.make(workload, run.SRC)), "op", refuse)
    assert_all_failed(workload, run_in_process(workload))


def test_known_seam_defect_shows_in_fail_ratio_not_in_failed():
    buf = io.StringIO()
    argv = ["--workload", "classify-seams", "--seed", "3", "--seconds", "20", "--trace", "0"]
    with redirect_stdout(buf):
        assert run.main(argv + ["--max-ops", str(workloads.CYCLES["classify-seams"])]) == 0
    result = last_json(buf.getvalue())
    assert result["failed"] == 0 and result["correct"] is True
    assert fail_ratio(buf.getvalue()) > 0.0 and "glide_rejected" in buf.getvalue()


def seam_cases(family: str):
    """This family's cases among the first two cycles of classify-seams."""
    cycles = islice(gen.classify_seams(1), 2 * workloads.CYCLES["classify-seams"])
    return [c for c in cycles if c.family == family]


def test_only_the_known_glide_refusal_is_excused():
    wl = workloads.make("classify-seams", run.SRC)
    for case in seam_cases("rotary_small_angle"):
        try:
            wl.op(case, Untraced(), "")
        except InvalidClassParameters as exc:
            assert wl.refusal(case, exc) == "glide_rejected"
            break
    else:
        pytest.fail("the known GlideReflection refusal no longer occurs")
    other = seam_cases("rotation_near_pi")[0]
    assert wl.refusal(other, InvalidClassParameters("refused")) == "rejected"
    assert wl.refusal(other, ValueError("broken")) == "raised"
    assert {"rejected", "raised"}.isdisjoint(workloads.EXCUSED)


def test_only_a_small_miss_of_a_collapsed_rotary_seam_is_excused():
    wl = workloads.make("classify-seams", run.SRC)

    def outcomes(family: str):
        for case in seam_cases(family):
            try:
                record, back = wl.op(case, Untraced(), "")
            except InvalidClassParameters:
                continue  # the known glide refusal
            yield case, record, back

    def miss_kind(outcome, by: float):
        case, record, back = outcome
        return wl.check(case, (record, shifted(back, by * case.scale)))

    rotary = {workloads.class_name(o[1]): o for o in outcomes("rotary_small_angle")}
    collapsed, kept = rotary["reflection"], rotary["rotary_reflection"]
    assert miss_kind(collapsed, 1e-4) == "seam_residual"
    assert miss_kind(collapsed, 1e-2) == "residual"
    assert miss_kind(kept, 1e-4) == "residual"
    assert miss_kind(next(outcomes("rotation_small_angle")), 1e-4) == "residual"
    assert "residual" not in workloads.EXCUSED


@pytest.mark.parametrize("workload", ["classify-mixed", "classify-seams", "construct-triples"])
def test_checks_pass_on_library_output(workload):
    wl = workloads.make(workload, run.SRC)
    for case in islice(wl.generate(5, ""), 150):
        try:
            out = wl.op(case, Untraced(), wl.tag(case))
        except Exception as exc:
            assert wl.refusal(case, exc) in workloads.EXCUSED, case.family
            assert workload == "classify-seams"
            continue
        assert wl.check(case, out) is None, case.family


def test_no_verified_op_fails_the_setup_probe(monkeypatch):
    monkeypatch.setattr(workloads.Classify, "check", lambda self, case, out: "residual")
    argv = ["--probe-setup", "--workload", "classify-mixed", "--seed", "1", "--seconds", "0"]
    assert run.main(argv) == 1


def test_a_failed_setup_probe_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "PROBE_TIMEOUT_S", 1e-3)
    assert "{" not in run_in_process("classify-mixed", want_code=1)


def test_inputs_follow_the_seed():
    def first(seed):
        return [c.motion.spec for c in islice(gen.classify_mixed(seed), 12)]

    assert first(11) == first(11)
    assert first(11) != first(12)
    files, _ = gen.cli_files(4, 3)
    assert files == gen.cli_files(4, 3)[0]
    assert list(islice(gen.cli_argvs(4, 3), 40)) == list(islice(gen.cli_argvs(4, 3), 40))


def test_branch_shares_match_the_stated_cycles():
    construct = [c.family for c in islice(gen.construct_triples(1), 100)]
    assert construct.count("generic") == 60
    for branch in ("a_in_place", "ab_in_place", "identity", "c_on_dst_line"):
        assert construct.count(branch) == 10
    mixed = [c.family for c in islice(gen.classify_mixed(1), 100)]
    assert sum(f.startswith("product") for f in mixed) == 20
    assert all(mixed.count(c) == 10 for c in gen.CLASSES)
    argvs = [a[0] for a in islice(gen.cli_argvs(1, 5), 100)]
    assert argvs.count("classify") == 50 and argvs.count("example") == 5


def test_fails_cleanly_without_the_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as bare:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        argv = [sys.executable, "perfbench/run.py", "--workload", "classify-mixed"]
        argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
