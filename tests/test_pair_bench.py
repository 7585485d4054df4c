import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pair_bench.py"
_SPEC = importlib.util.spec_from_file_location("pair_bench", _PATH)
pair_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pair_bench)


def _result(**metrics):
    return {
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }


def test_seeds_of_reads_ranges_and_single_seeds():
    assert pair_bench.seeds_of("1101-1103,1201") == [1101, 1102, 1103, 1201]
    assert pair_bench.seeds_of("7") == [7]


def test_spread_uses_inclusive_quartiles():
    got = pair_bench.spread([float(v) for v in range(1, 11)])
    assert got == {"median": 5.5, "q1": 3.25, "q3": 7.75, "iqr": 4.5}
    assert pair_bench.spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}


def test_summarize_counts_wins_in_each_metric_direction():
    runs = [
        {"base": _result(ops_per_s=100.0, op_p50_us=10.0, extra=1.0),
         "head": _result(ops_per_s=120.0, op_p50_us=9.0)},
        {"base": _result(ops_per_s=100.0, op_p50_us=10.0, extra=1.0),
         "head": _result(ops_per_s=90.0, op_p50_us=10.0)},
        {"base": _result(ops_per_s=100.0, op_p50_us=10.0, extra=1.0),
         "head": _result(ops_per_s=130.0, op_p50_us=8.0)},
    ]
    better = {"ops_per_s": "higher", "op_p50_us": "lower", "extra": "lower"}
    got = pair_bench.summarize(runs, better)
    # a metric that some run lacks is left out, not summarized from part of the runs
    assert sorted(got) == ["op_p50_us", "ops_per_s"]
    assert got["ops_per_s"]["wins"] == 2 and got["ops_per_s"]["ratio"] == 1.2
    # a tie counts for neither side
    assert got["op_p50_us"]["wins"] == 2 and got["op_p50_us"]["ratio"] == 0.9
    assert got["ops_per_s"]["pairs"] == 3


def test_failures_reports_a_missing_fail_ratio_whatever_the_run_order():
    with_ratio = {**_result(), "fail_ratio": 0.25}
    without = _result()
    runs = [{"base": with_ratio, "head": without}, {"base": without, "head": without}]
    for ordered in (runs, runs[::-1]):
        got = pair_bench.failures(ordered)
        assert got["base"] == {"all_correct": True, "max_fail_ratio": 0.25, "runs_without_fail_ratio": 1}
        assert got["head"] == {"all_correct": True, "max_fail_ratio": None, "runs_without_fail_ratio": 2}
