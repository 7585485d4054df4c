"""Extra calls of the traced run, so that every layer is timed on every workload.

Spans are recorded only here and in the op bodies of workloads.py, around
calls into the library's public functions:

- own cases: geom constructors, `then`, `apply` and a classify round trip on
  the workload's first generated cases; the round trip's outcomes give the
  classify counts, which repeat exactly for a seed;
- panels: a classify-mixed and a construct-triples sample of the same seed,
  so that every class and both construct branches have timings everywhere;
- front end: `analyze()` and `trimirror.cli.main` per subcommand in-process,
  and fresh interpreters that time start-up, `import numpy` and
  `import trimirror.cli`, which split a CLI invocation into its parts.
"""

from __future__ import annotations

import itertools
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import trimirror.cli  # noqa: F401  imported here so no span pays for it
import gen
import workloads
from trimirror import Line3, Plane, analyze, apply, as_vec3, then
from trimirror import perpendicular_bisector_plane


def own_cases(tr, cases: list) -> Counter:
    """Spans and classify outcome counts over the workload's own cases."""
    counts = Counter()
    classifier = workloads.Classify()
    for i, case in enumerate(cases):
        with tr.op(i, case.family, name="own"):
            a2, b2, c2 = case.dst
            normal = np.cross(b2 - a2, c2 - a2)
            tr.call("geom.as_vec3", as_vec3, case.motion.t)
            tr.call("geom.plane", Plane, normal, float(normal @ a2))
            tr.call("geom.line", Line3, a2, b2 - a2)
            tr.call("geom.perpendicular_bisector_plane", perpendicular_bisector_plane, a2, b2)
            m = workloads.motion_of(case.motion.linear, case.motion.t)
            tr.call("motion.then", then, m, m)
            tr.call("motion.apply", apply, m, a2)
            try:
                out = classifier.op(case, tr, case.family)
            except Exception as exc:  # counted, like a refused op
                counts[workloads.refusal_kind(exc)] += 1
                continue
            counts["classified"] += 1
            if workloads.class_name(out[0]) != case.generated:
                counts["collapsed"] += 1
            if classifier.check(case, out) not in (None, "wrong_class"):
                counts["residual_exceeded"] += 1
    return counts


def panels(tr, seed: int, n: int) -> None:
    classifier = workloads.Classify()
    for case in itertools.islice(gen.classify_mixed(seed), n):
        classifier.op(case, tr, case.family)
    pairs = workloads.Construct()
    for case in itertools.islice(gen.construct_triples(seed), n):
        pairs.op(case, tr, pairs.tag(case))


def front_end(tr, seed: int, workdir: str, reps: int) -> None:
    for _ in range(reps):
        tr.call("example.analyze", analyze)
    files, _ = gen.cli_files(seed, reps)
    workloads.write_files(files, workdir)
    # Each cycle of the argv stream holds every subcommand at least once.
    argvs = list(itertools.islice(gen.cli_argvs(seed, reps), len(gen.CLI_CYCLE) * reps))
    for cmd in sorted(set(gen.CLI_CYCLE)):
        for argv in [a for a in argvs if a[0] == cmd][:reps]:
            tr.call("cli.main", workloads.run_main, workloads.absolute(argv, workdir), tag=cmd)


def calibrate(env: dict, reps: int) -> dict:
    """Median seconds of fresh interpreters, interleaved to share any drift."""
    codes = {"bare": "pass", "numpy": "import numpy", "trimirror": "import trimirror.cli"}
    times = defaultdict(list)
    for _ in range(reps):
        for key, code in codes.items():
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times[key].append(perf_counter() - start)
    return {key: statistics.median(values) for key, values in times.items()}
