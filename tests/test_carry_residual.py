import importlib.util
import math
import pathlib
import sys

import numpy as np

from trimirror import AffineIsometry

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "carry_residual.py"
_SPEC = importlib.util.spec_from_file_location("carry_residual", _PATH)
carry_residual = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(carry_residual)

_EYE = ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0, 0.0])


def test_carry_is_exact_in_units_of_eps_times_scale():
    eps = sys.float_info.epsilon
    src = [[1.0, 2.0, 3.0], [0.5, -1.0, 0.25], [0.0, 0.0, 1.0]]
    dst = [list(p) for p in src]
    dst[1][2] += 12.0 * eps  # 48 units in the last place of 0.25: exact
    assert carry_residual.carry(*_EYE, src, dst, 4.0) == 3.0
    # a shift of 1 on a point at 2^53, which a float sum L p + t rounds away
    far = [[2.0**53, 0.0, 0.0]] * 3
    assert carry_residual.carry(_EYE[0], [1.0, 0.0, 0.0], far, far, 1.0) == 1.0 / eps
    # the public arrays of a motion, as measure() reads them
    m = AffineIsometry(np.eye(3), [1.0, 0.0, 0.0])
    assert carry_residual.carry(m.linear, m.translation, far, far, 1.0) == 1.0 / eps


def test_summary_takes_inclusive_quantiles():
    got = carry_residual.summary([float(v) for v in range(1, 101)])
    assert got == {"median": 50.5, "p99": 99.01, "max": 100.0}


def test_measure_builds_both_branches_of_the_first_cases():
    # the construct op's motions for the first 40 construct-triples cases of
    # seed 1, each within the benchmark's pass bound of 1e-8 s
    result = carry_residual.measure(1, 40)
    values = result["generic"] + result["degenerate"]
    assert result["refused"] == 0 and len(values) == 40
    assert result["generic"] and result["degenerate"]
    assert all(0.0 <= v < 1e-8 / sys.float_info.epsilon and math.isfinite(v) for v in values)
    assert carry_residual.report(1, result).startswith("seed 1: 40 cases, 0 refused | all median ")
