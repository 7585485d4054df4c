"""Machine-speed reference for the end-to-end times.

On a shared machine the speed of a core drifts with its neighbours' load.
On the 2-core 2.0 GHz Xeon virtual machine this benchmark was written on,
the same 30 s run of classify-mixed completed anywhere from 20,000 to
31,000 ops, in phases of seconds to minutes.  A fixed kernel of the same
kind of work (small numpy calls and interpreter work), timed between ops,
drifts with it: over 10 s windows the ratio of op time to kernel time moved
by 1.5 % while each alone moved by 30 %.

So a run times this kernel every `every` seconds and reports its
end-to-end figures at nominal speed, where the kernel takes `nominal`
seconds: each statistic is scaled by the same kind of statistic of the
kernel, a mean by its mean and a median or a percentile by its median.
The kernel uses numpy and the interpreter only, nothing from the
repository, so no change to trimirror can move it.  Runs print the figures
as measured as well.

A CLI op is mostly a fresh interpreter importing numpy, and its speed does
not follow the CPU kernel: in ten runs of cli-process, as the machine
slowed, invocations per run fell from 102 to 55 and the scaled p50 rose
by half.  So cli-process times spawn_seconds() instead, a fresh
interpreter that imports numpy: in twelve runs whose p50 as measured
ranged from 179 to 294 ms, the p50 scaled by it stayed within 3 % of their
median.  Sets of runs 40 minutes apart still differed by 25 %, which is
why BENCHMARK.json leaves cli-process out (README.md).
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=(64, 3))
_MATRIX = _rng.normal(size=(3, 3))


def kernel() -> float:
    acc = 0.0
    for i in range(64):
        a = np.array(_POINTS[i], dtype=float)
        b = _POINTS[(i + 1) % 64]
        c = np.cross(a, b)
        n = float(np.linalg.norm(c))
        d = _MATRIX @ a + b
        acc += n + float(d @ c) + sum(x * x for x in (n, acc % 7.0, 1.5))
    return acc


def reference_seconds() -> float:
    """Wall time of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def spawn_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return perf_counter() - start


class Reference(NamedTuple):
    """measure() times one run of the reference work, every `every` seconds
    of loop time; an op is scaled by the runs within `half_width` seconds of
    its start, to the speed at which one run takes `nominal` seconds."""

    measure: Callable[[], float]
    every: float
    nominal: float
    half_width: float


# The machine switches between speeds about 1.6x apart in phases of
# seconds; with fixed 1 s windows, the ops of a window that straddles a
# switch were scaled by the other phase's kernel and made up much of p95.
# So an op is scaled by the kernel runs within 0.1 s of its start.
CPU = Reference(reference_seconds, every=0.05, nominal=3.0e-3, half_width=0.1)


def spawn(env: dict) -> Reference:
    """One spawn per second of loop time; the window of +-3 s about an op's
    start holds about six."""
    return Reference(lambda: spawn_seconds(env), every=1.0, nominal=0.2, half_width=3.0)
