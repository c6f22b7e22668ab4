"""Scheduling layer: calibration and level-adaptive panel widths.

Three promises are pinned here:

1. Scheduling is invisible to the numerics — the ready order never
   changes a single bit, and any fixed panel-width plan gives bitwise
   identical results on every backend (the bitwise-equivalence matrix).
2. The calibration module is deterministic by default, overridable, and
   participates in the DAG template-cache key.
3. On the overhead-calibrated simulated machine adaptive panel widths
   strictly improve the makespan of a low-deflation Fig-6 shape.
"""

import numpy as np
import pytest

from repro import dc_eigh
from repro.core import DCContext, DCOptions, submit_dc
from repro.core.calibrate import (DEFAULT_CALIBRATION, Calibration,
                                  get_calibration, set_calibration)
from repro.core.graph_cache import graph_template_cache, template_key
from repro.core.options import _ADAPTIVE_MIN_NB
from repro.matrices import test_matrix as table3_matrix
from repro.runtime import (Machine, SequentialScheduler, SimulatedMachine,
                           TaskGraph)


@pytest.fixture(autouse=True)
def _reset_calibration():
    yield
    set_calibration(None)


def _graph_for(d, e, opts):
    graph = TaskGraph()
    submit_dc(graph, DCContext(d, e, opts))
    return graph


# ---------------------------------------------------------------------------
# calibration


def test_default_calibration_is_deterministic():
    assert DEFAULT_CALIBRATION.source == "default"
    assert DEFAULT_CALIBRATION.task_overhead_s > 0
    assert DEFAULT_CALIBRATION.secular_sweeps > 0
    assert get_calibration() is DEFAULT_CALIBRATION


def test_set_calibration_override_roundtrip():
    cal = Calibration(flop_rate=1e9, source="test")
    set_calibration(cal)
    assert get_calibration() is cal
    set_calibration(None)
    assert get_calibration() is DEFAULT_CALIBRATION


def test_calibration_validates():
    with pytest.raises(ValueError):
        Calibration(flop_rate=0.0)
    with pytest.raises(ValueError):
        Calibration(secular_sweeps=-1.0)


def test_host_calibration_probes_run():
    # Regression: the axpy probe used ``out += y`` on the closed-over
    # buffer, which rebinds ``out`` as a local and crashed the whole
    # host probe with UnboundLocalError before any timing ran.
    from repro.core.calibrate import host_calibration
    cal = host_calibration()
    assert cal.source == "host"
    for v in (cal.flop_rate, cal.gemm_flop_rate,
              cal.task_overhead_s, cal.secular_sweeps):
        assert v > 0 and v == v  # positive, not NaN
    assert cal.givens_crossover >= 1
    assert host_calibration() is cal  # memoized once per process


def test_calibration_key_is_hashable_and_distinct():
    a = Calibration()
    b = Calibration(flop_rate=2 * a.flop_rate)
    assert hash(a.key) is not None
    assert a.key != b.key
    assert a.key == Calibration().key


# ---------------------------------------------------------------------------
# adaptive panel-width policy


def test_node_nb_fixed_when_adaptive_off():
    opts = DCOptions()
    n = 2000
    assert opts.node_nb(125, n) == opts.effective_nb(n)
    assert opts.node_nb(n, n) == opts.effective_nb(n)


def test_node_nb_explicit_nb_wins():
    opts = DCOptions(nb=48, adaptive_nb=True)
    assert opts.node_nb(2000, 2000) == 48
    assert opts.node_nb(100, 2000) == 48


def test_node_nb_deep_levels_get_full_panels():
    opts = DCOptions(adaptive_nb=True, target_parallelism=16)
    n = 4096
    # 32 concurrent merges of 128 saturate 16 workers: one panel each.
    assert opts.node_nb(128, n) == 128


def test_node_nb_spine_splits_into_narrow_panels():
    opts = DCOptions(adaptive_nb=True, target_parallelism=16)
    n = 4096
    root_nb = opts.node_nb(n, n)
    assert root_nb < n
    assert root_nb >= _ADAPTIVE_MIN_NB
    # The root must expose at least one panel per planned worker.
    assert n // root_nb >= 16


def test_node_nb_respects_cost_floor():
    opts = DCOptions(adaptive_nb=True, target_parallelism=16)
    for node_n in (256, 512, 1024, 4096):
        nb = opts.node_nb(node_n, 4096)
        assert nb >= min(node_n, _ADAPTIVE_MIN_NB)


def test_target_parallelism_validation():
    with pytest.raises(ValueError):
        DCOptions(target_parallelism=0)


# ---------------------------------------------------------------------------
# ready order


@pytest.mark.parametrize("locked", [False, True])
def test_ready_queue_orders_by_submission(locked):
    # Two fused runs: run A owns overall positions 0-3, run B 4-6.  Pushed
    # out of order, tasks must pop by overall submission position.
    from repro.runtime import ReadyQueue
    from repro.runtime.task import Task
    runs = {"A": (0, 4), "B": (4, 3)}
    entries = []
    for label, (base, count) in runs.items():
        for seq in range(count):
            t = Task(lambda: None, (), name=f"{label}{seq}")
            t.seq = seq
            entries.append((t, label, base))
    q = ReadyQueue(locked=locked)
    for i in (5, 0, 6, 3, 1, 4, 2):
        t, label, base = entries[i]
        q.push(t, label, base)
    popped = []
    while (entry := q.pop()) is not None:
        task, run = entry
        popped.append((run, task.name))
    assert popped == [(label, t.name) for t, label, _ in entries]
    assert len(q) == 0


# ---------------------------------------------------------------------------
# bitwise-equivalence matrix


@pytest.mark.parametrize("mtype", [2, 4])
def test_ready_order_never_changes_bits(mtype):
    # Sequential runs the DAG in submission order; the 16-core simulated
    # machine dispatches whatever is ready as cores free up, so the two
    # execution orders differ while the bits must not.
    d, e = table3_matrix(mtype, 150, seed=21)
    lam0, V0 = dc_eigh(d, e)
    res = dc_eigh(d, e, backend="simulated", n_workers=16,
                  full_result=True)
    seq_order = sorted(res.trace.events, key=lambda ev: ev.task_uid)
    sim_order = sorted(res.trace.events, key=lambda ev: ev.t_start)
    assert seq_order != sim_order
    np.testing.assert_array_equal(lam0, res.lam)
    np.testing.assert_array_equal(V0, res.V)


@pytest.mark.parametrize("adaptive", [False, True])
def test_backends_bitwise_identical_per_plan(adaptive):
    # Each nb-plan is one fixed DAG shape; within a plan every backend
    # must produce identical bits.  (Different nb plans may differ in
    # the last ulp — panel boundaries change the ReduceW product
    # association — which is why adaptive_nb is opt-in.)
    d, e = table3_matrix(3, 160, seed=22)
    opts = DCOptions(adaptive_nb=adaptive, target_parallelism=8)
    lam0, V0 = dc_eigh(d, e, options=opts)
    for backend, workers in (("threads", 4), ("threads", 8),
                             ("simulated", 4)):
        lam, V = dc_eigh(d, e, options=opts, backend=backend,
                         n_workers=workers)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_session_fused_batches_bitwise():
    from repro import SolverSession
    d, e = table3_matrix(2, 140, seed=23)
    lam0, V0 = dc_eigh(d, e)
    with SolverSession(backend="threads", n_workers=4) as session:
        handles = [session.submit(d, e) for _ in range(3)]
        for h in handles:
            lam, V = h.result()
            np.testing.assert_array_equal(lam0, lam)
            np.testing.assert_array_equal(V0, V)


def test_graph_cache_reuse_preserves_bits():
    d, e = table3_matrix(4, 170, seed=24)
    opts = DCOptions(reuse_graph=True)
    graph_template_cache.clear()
    lam0, V0 = dc_eigh(d, e, options=opts)          # miss: builds template
    lam1, V1 = dc_eigh(d, e, options=opts)          # hit: instantiates
    assert graph_template_cache.hits >= 1
    np.testing.assert_array_equal(lam0, lam1)
    np.testing.assert_array_equal(V0, V1)

    # The instantiated graph re-creates the submission order of a fresh
    # build: the ready queues key on it.
    fresh = _graph_for(d, e, DCOptions())
    ctx = DCContext(d, e, opts)
    cached, _ = graph_template_cache.get_or_build(
        ctx, template_key(ctx.n, ctx.opts))
    assert [(t.seq, t.name, t.tag) for t in cached.tasks] \
        == [(t.seq, t.name, t.tag) for t in fresh.tasks]


def test_template_key_separates_scheduling_plans():
    n = 512
    keys = {template_key(n, DCOptions()),
            template_key(n, DCOptions(adaptive_nb=True)),
            template_key(n, DCOptions(adaptive_nb=True,
                                      target_parallelism=4))}
    assert len(keys) == 3
    # The calibration is part of the plan: changing it must miss.
    base = template_key(n, DCOptions())
    set_calibration(Calibration(flop_rate=1e9, source="test"))
    assert template_key(n, DCOptions()) != base


# ---------------------------------------------------------------------------
# observability


def test_schedule_counters_recorded():
    from repro.obs import Collector
    col = Collector()
    d, e = table3_matrix(4, 500, seed=25)
    dc_eigh(d, e, options=DCOptions(telemetry=col))
    assert col.hist_stats("schedule.level_nb")["count"] > 0


def test_trace_export_rows_carry_task_and_tag():
    from repro.obs import chrome_trace
    d, e = table3_matrix(4, 500, seed=25)
    res = dc_eigh(d, e, backend="simulated", n_workers=4,
                  full_result=True)
    doc = chrome_trace(res.trace, None)
    rows = [ev for ev in doc["traceEvents"]
            if ev.get("ph") == "X" and ev.get("cat") == "task"]
    assert len(rows) == len(res.trace.events)
    by_uid = {ev.task_uid: ev for ev in res.trace.events}
    for row in rows:
        assert set(row["args"]) == {"task", "tag"}
        assert row["args"]["tag"] == repr(by_uid[row["args"]["task"]].tag)


# ---------------------------------------------------------------------------
# deterministic makespan improvement (small-scale mirror of the
# BENCH_schedule gate; virtual time, so stable on any host)


def test_scheduling_stack_improves_simulated_makespan():
    d, e = table3_matrix(4, 1200, seed=0)
    machine = Machine(task_overhead=DEFAULT_CALIBRATION.task_overhead_s)

    def makespan(opts):
        graph = _graph_for(d, e, opts)
        SequentialScheduler().run(graph)
        sim = SimulatedMachine(machine, n_workers=16, execute=False)
        return sim.run(graph).makespan

    base = makespan(DCOptions())
    adaptive = makespan(DCOptions(adaptive_nb=True, target_parallelism=16))
    assert adaptive < base * 0.95, (
        f"expected >= 5% improvement, "
        f"got {100 * (1 - adaptive / base):.2f}%")
