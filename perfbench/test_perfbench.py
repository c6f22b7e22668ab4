"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import lapack_ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def test_lapack_binding_matches_scipy():
    d, e = _tridiagonal(150, 3)
    d0, e0 = d.copy(), e.copy()
    w, z = lapack_ref.dstedc(d, e)
    ref = sla.eigh_tridiagonal(d, e, eigvals_only=True)
    eps = np.finfo(float).eps
    assert np.abs(w - ref).max() <= 150 * eps * np.abs(ref).max()
    assert np.abs(z.T @ z - np.eye(150)).max() <= 150 * eps
    assert np.abs(lapack_ref.dsterf(d, e) - ref).max() \
        <= 150 * eps * np.abs(ref).max()
    assert np.array_equal(d, d0) and np.array_equal(e, e0)
    assert lapack_ref.self_check() <= 1.0
    assert lapack_ref.dgemm_gflops(n=200, repeats=2) > 0


def test_generation_is_deterministic_per_seed(tmp_path):
    from repro.matrices import spectrum_of_type

    d1, e1 = inputs.table3(4, 120, 7)
    d2, e2 = inputs.table3(4, 120, 7)
    assert np.array_equal(d1, d2) and np.array_equal(e1, e2)
    d3, _ = inputs.table3(4, 120, 8)
    assert not np.array_equal(d1, d3)
    lam = np.sort(spectrum_of_type(4, 120, seed=7))
    w = sla.eigh_tridiagonal(d1, e1, eigvals_only=True)
    assert np.abs(w - lam).max() < 1e-12

    specs = [(3, 64, 5), (4, 120, 7)]
    first, t_gen = inputs.load(tmp_path, specs)
    again, t_hit = inputs.load(tmp_path, specs)
    assert t_gen > 0 and t_hit == 0
    assert np.array_equal(first[1][0], d1)
    for (a, b), (c, f) in zip(first, again):
        assert np.array_equal(a, c) and np.array_equal(b, f)


def test_metric_names_match_benchmark_json():
    e2e = workloads.end_to_end([], workloads.Samples(), 0.0)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(k, u) for k, (_, u) in e2e.items()]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.workloads())


def test_tail_percentile():
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = workloads.tail(list(range(48)))
    assert (value, n) == (37, 48) and abs(pct - 100 * 37 / 47) < 1e-12


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_of_each_workload(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        p = _run("--workload", workload, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace), "--tiny")
        assert p.returncode == 0, p.stdout + p.stderr
        result = json.loads(p.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in SPEC[key]]
        assert all(np.isfinite(v["value"])
                   for v in result["metrics"].values())
    assert "error_rate      = 0 fraction" in p.stdout
    spans = HERE / "out" / f"{workload}-seed3.spans.jsonl"
    lines = [json.loads(x) for x in spans.read_text().splitlines()]
    kinds = {x["type"] for x in lines}
    assert {"span", "task"} <= kinds
    assert all("solve_id" in x["attrs"] for x in lines
               if x["type"] == "span" and x["name"] == "solve.submit")
    perfetto = json.loads((HERE / "out" /
                           f"{workload}-seed3.perfetto.json").read_text())
    assert perfetto["traceEvents"]


def _session_members(sid):
    """Pids of the processes, zombies too, in session ``sid``."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            out.append(int(stat.parent.name))
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
def test_no_process_outlives_a_run():
    # vec-t4-2000's traced pass starts the processes backend, whose
    # shared memory starts multiprocessing's resource tracker.
    p = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload",
                          "vec-t4-2000", "--seed", "3", "--seconds", "0.5",
                          "--trace", "1", "--tiny"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         start_new_session=True)
    out, err = p.communicate(timeout=300)
    assert p.returncode == 0, (out + err).decode()
    assert _session_members(p.pid) == []


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "out",
                                                  "__pycache__"))
    p = _run("--workload", "vec-t4-2000", "--seed", "1",
             "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
