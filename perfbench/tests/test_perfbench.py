"""Self-tests of the benchmark: seeding, correctness gates, tracing, contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from l0path import cover, decomp, gen_lattice2d, gen_tridiagonal, oracle, tridiag  # noqa: E402

SMALL = {
    "path_exact": lambda: gen_tridiagonal(60, 3),
    "lattice_cover": lambda: gen_lattice2d(6, 6, 0.3, 0.1, 3),
    "lattice_tight": lambda: gen_lattice2d(5, 5, 0.3, 0.1, 3),
    "small_certify": lambda: workloads.random_dd_instance(
        np.random.Generator(np.random.Philox(key=3)), 8, 0.4
    ),
}


def _flip_z(z):
    z = z.copy()
    z[0] = 1 - z[0]
    return z


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_instance_bytes(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = wl.instance(7, 3), wl.instance(7, 3), wl.instance(8, 3)
    fields = ("a", "c", "qi", "qj", "qv")
    assert all(getattr(first, f).tobytes() == getattr(again, f).tobytes() for f in fields)
    assert any(getattr(first, f).tobytes() != getattr(other, f).tobytes() for f in fields)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_the_solver_result(name):
    wl = workloads.WORKLOADS[name]
    inst = SMALL[name]()
    assert wl.check(inst, wl.solve(inst)) is None


def test_path_gate_rejects_flipped_z():
    wl = workloads.WORKLOADS["path_exact"]
    inst = SMALL["path_exact"]()
    p, sol = wl.solve(inst)
    bad = dataclasses.replace(sol, z=_flip_z(sol.z))
    assert wl.check(inst, (p, bad)) is not None


@pytest.mark.parametrize("name", ["lattice_cover", "lattice_tight", "small_certify"])
@pytest.mark.parametrize("corrupt", ["flip_z", "raise_lower"])
def test_bound_gates_reject_corrupted_results(name, corrupt):
    wl = workloads.WORKLOADS[name]
    inst = SMALL[name]()
    out = wl.solve(inst)
    res = out[1] if name == "small_certify" else out
    if corrupt == "flip_z":
        bad = dataclasses.replace(res, z=_flip_z(res.z))
    else:
        bad = dataclasses.replace(res, lower=res.upper + 1.0)
    assert wl.check(inst, (out[0], bad) if name == "small_certify" else bad) is not None


def test_small_gate_rejects_bounds_that_miss_the_optimum():
    wl = workloads.WORKLOADS["small_certify"]
    inst = SMALL["small_certify"]()
    ref, res = wl.solve(inst)
    # a self-consistent reference point above the bracket: the empty support
    empty = np.zeros(inst.n)
    assert res.upper < 0.0 == inst.objective(empty, empty)
    worse = dataclasses.replace(ref, value=0.0, x=empty, z=empty)
    assert wl.check(inst, (worse, res)) is not None


def _traced(name, k=0):
    wl = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.instance(k):
        wl.solve(SMALL[name]())
    return tracer


def test_traced_run_restores_every_binding():
    targets = [(decomp, "h_eval"), (decomp, "f_star"), (decomp, "fixed_z_qp"),
               (cover, "b2_subgraph_general"), (tridiag, "labels_kernel"),
               (oracle, "enumerate_kernel")]
    before = [getattr(mod, attr) for mod, attr in targets]
    _traced("small_certify")
    assert [getattr(mod, attr) for mod, attr in targets] == before
    with pytest.raises(RuntimeError), spans.installed(spans.Tracer()):
        assert decomp.h_eval is not before[0]
        raise RuntimeError
    assert decomp.h_eval is before[0]


@pytest.mark.parametrize("name", ["path_exact", "lattice_tight", "small_certify"])
def test_self_times_sum_to_at_most_the_wall_time(name):
    tracer = _traced(name)
    assert all(t >= 0 for t in spans.self_times(tracer.spans))
    (row,) = spans.instance_metrics(tracer).values()
    assert row["self_sum_s"] <= row["wall_s"] + 1e-9
    assert row["decomp.h_eval_self_s"] <= row["decomp.h_eval_s"]


def test_traced_counters():
    row = spans.instance_metrics(_traced("small_certify"))[0]
    assert row["oracle.supports_enumerated"] == 2**8
    assert row["fenchel.f_star_calls"] == row["decomp.iterations"] * row["decomp.relaxed_terms"]
    assert row["decomp.refit_skipped"] == 0
    assert row["oracle.fixed_z_qp_calls"] >= 1
    path = spans.instance_metrics(_traced("path_exact"))[0]
    assert path["kernels.labels_cells"] == 60 * 61 // 2
    assert path["tridiag.solve_calls"] == 1 and path["decomp.run_s"] == 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_the_declared_metrics(trace, kind):
    proc = _run(ROOT, "--workload", "path_exact", "--seed", "1", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "path_exact", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
