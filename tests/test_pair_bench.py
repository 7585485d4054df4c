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
    # three pairs are too few to claim a gain, whatever they show
    assert not got["ops_per_s"]["claimable"] and not got["op_p50_us"]["claimable"]


def _pairs(base: list[float], head: list[float]) -> list[dict]:
    return [{"base": _result(op_p50_us=b), "head": _result(op_p50_us=h)} for b, h in zip(base, head)]


def test_summarize_claims_a_gain_on_nine_wins_of_ten_past_the_base_iqr():
    def claim(base, wins, by):
        """wins and claimable when the first `wins` pairs are `by` lower, the rest 1.0 higher."""
        head = [b - by for b in base[:wins]] + [b + 1.0 for b in base[wins:]]
        got = pair_bench.summarize(_pairs(base, head), {"op_p50_us": "lower"})["op_p50_us"]
        return got["wins"], got["claimable"]

    ten = [float(v) for v in range(10, 20)]  # median 14.5, inclusive IQR 4.5
    assert claim(ten, 9, 5.0) == (9, True)  # the median moves by 5.0, past the IQR
    assert claim(ten, 8, 5.0) == (8, False)  # as far, but eight wins are not enough
    assert claim(ten, 10, 4.0) == (10, False)  # ten wins, but within the IQR
    assert claim(ten, 0, 5.0) == (0, False)  # a higher median, for a lower-is-better metric
    twenty = [float(v) for v in range(10, 30)]  # median 19.5, inclusive IQR 9.5
    assert claim(twenty, 18, 12.0) == (18, True)  # twenty pairs need eighteen wins
    assert claim(twenty, 17, 12.0) == (17, False)


def test_failures_reports_a_missing_fail_ratio_whatever_the_run_order():
    with_ratio = {**_result(), "fail_ratio": 0.25}
    without = _result()
    runs = [{"base": with_ratio, "head": without}, {"base": without, "head": without}]
    for ordered in (runs, runs[::-1]):
        got = pair_bench.failures(ordered)
        assert got["base"] == {"all_correct": True, "max_fail_ratio": 0.25, "runs_without_fail_ratio": 1}
        assert got["head"] == {"all_correct": True, "max_fail_ratio": None, "runs_without_fail_ratio": 2}
