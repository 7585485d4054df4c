import importlib.util
import itertools
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("op_ab", _ROOT / "tools" / "op_ab.py")
op_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_ab)


def test_compare_runs_each_workload_on_two_separately_loaded_trees():
    src = str(_ROOT / "src" / "trimirror")
    libs = {side: op_ab.load(src, f"trimirror_ab_{side}") for side in ("base", "head")}
    assert libs["base"].Plane is not libs["head"].Plane  # one package per side
    gen = op_ab.load(str(_ROOT / "perfbench" / "gen.py"), "perfbench_gen_ab")
    for workload in op_ab.WORKLOADS:
        cases = list(itertools.islice(getattr(gen, workload.replace("-", "_"))(1), 12))
        for read in (False, True):
            got = op_ab.compare(libs, cases, workload, read, passes=2)
            assert got["base_us"] > 0.0 and got["head_us"] > 0.0
            assert got["ratio"] == got["base_us"] / got["head_us"]


def test_read_builds_the_returned_motions_arrays_inside_the_op():
    lib = op_ab.load(str(_ROOT / "src" / "trimirror"), "trimirror_ab_read")
    gen = op_ab.load(str(_ROOT / "perfbench" / "gen.py"), "perfbench_gen_ab")
    case = next(gen.construct_triples(1))
    built = []
    original = lib.motion._matrix
    lib.motion._matrix = lambda rows: built.append(rows) or original(rows)
    try:
        op_ab.make_op(lib, "construct-triples", read=False)(case)
        assert not built
        op_ab.make_op(lib, "construct-triples", read=True)(case)
        assert len(built) == 2  # the linear parts of both motions
    finally:
        lib.motion._matrix = original


def test_each_side_times_the_benchmarks_own_op_on_its_own_package():
    before = {name: sys.modules.get(name) for name in ("gen", "trimirror", "trimirror.errors")}
    lib = op_ab.load(str(_ROOT / "src" / "trimirror"), "trimirror_ab_own")
    workloads = op_ab.workloads_of(lib)
    assert op_ab.workloads_of(lib) is workloads  # loaded once per side
    assert workloads.__file__ == str(_ROOT / "perfbench" / "workloads.py")
    assert workloads.classify is lib.classify and workloads.seq_to_affine is lib.seq_to_affine
    assert workloads.InvalidClassParameters is lib.errors.InvalidClassParameters
    assert {name: sys.modules.get(name) for name in before} == before  # restored
