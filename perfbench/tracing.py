"""Traced pass: per-layer metrics, span tree with self times, export.

The pass measures every layer from outside, through public calls only:
``validate_tridiagonal``, ``SolverSession``, ``dc_eigh`` and
``graph_template_cache``.  It turns on the program's own telemetry
(``DCOptions(telemetry=Collector())``) and reads the per-task ``Trace``
of ``full_result=True``; the benchmark adds spans of its own (named
``bench.*``, each with a ``solve_id``) around every public call, in the
same collector, so program spans nest under them.  Nothing is traced
inside the program that it does not trace already.

Order of the pass, so that one phase never idles another's workers:

1. ``validate_tridiagonal`` on every problem (``errors``);
2. a fresh traced threads session after clearing the template cache:
   one cold solve per distinct shape (template builds), then the
   measured solves; the session is closed to flush its worker counters;
3. the same problems on traced ``dc_eigh`` (sequential), for kernel
   inflation;
4. on ``vec-t4-2000`` only, and only while ``SolverSession`` accepts
   ``backend="processes"``: warm solves on the processes backend.

Task events carry times relative to their run; they are placed on the
collector clock at the end of the ``solve.submit`` span (threads) or the
start of the ``execute`` span (sequential).
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from repro import SolverSession, dc_eigh
from repro.core.graph_cache import graph_template_cache
from repro.errors import InputError, ReproError, validate_tridiagonal
from repro.obs.export import chrome_trace, write_jsonl
from repro.obs.recorder import Collector
from repro.runtime.trace import Trace, TraceEvent

from workloads import N_WORKERS, Samples, _med, options, threads_session

#: Every kernel of the jobz='V' and jobz='N' task graphs.  A kernel that
#: a workload's graph lacks reports 0 for all three of its metrics.
KERNELS = ("ScaleT", "Partition", "LASET", "STEDC", "Compute_deflation",
           "ApplyGivens", "GivensStrip", "PermuteStrip", "PermuteV",
           "LAED4", "ComputeLocalW", "ReduceW", "CopyBackDeflated",
           "ComputeVect", "UpdateVect", "UpdateStrip", "UpdateEig",
           "SortEigenvectors", "ScaleBack")

#: (layer, metrics as (name, unit, better), what they should move).
LAYERS = [
    ("errors", [("errors.validate_s", "s", "lower")],
     "solve_s on batch-mixed; nothing on vec-t4-2000"),
    ("core.graph_cache + core.tasks",
     [("graph.build_s", "s", "lower"), ("graph.instantiate_s", "s", "lower"),
      ("graph.tasks", "count", "lower"),
      ("graph.cache_hit_rate", "fraction", "higher")],
     "build: setup_s everywhere; instantiate: solve_s/solves_per_s on "
     "batch-mixed, negligible on vec-t4-2000"),
    ("runtime",
     [("runtime.busy_s", "s", "lower"), ("runtime.idle_frac", "fraction",
                                         "lower"),
      ("runtime.overhead_s", "s", "lower"),
      ("runtime.tasks_per_s", "1/s", "higher"),
      ("runtime.cpu_util", "fraction", "higher"),
      ("runtime.parallel_speedup", "ratio", "higher")],
     "overhead: solves_per_s on batch-mixed; idle/cpu: solve_s and "
     "x_lapack on vec-t4-2000; never solve_seq_s"),
    ("kernels + core.merge task bodies",
     [(f"kernel.{k}.{m}", u, "lower") for k in KERNELS
      for m, u in (("s", "s"), ("count", "count"), ("inflation", "ratio"))]
     + [("kernel.UpdateVect.gflops", "GFLOP/s", "higher")],
     "STEDC: solve_s/solve_seq_s/x_lapack everywhere, most on val-t3-3000; "
     "UpdateVect: vec-t4-2000 only; LAED4: val-t3-3000 and vec-t4-2000; "
     "inflation: solve_s, never solve_seq_s"),
    ("core.merge (deflation)",
     [("merge.deflation", "fraction", "higher"),
      ("merge.fallbacks", "count", "lower")],
     "none (workload sanity); a fallback moves eig_err/error_rate"),
    ("core.session (WorkspacePool)",
     [("session.submit_s", "s", "lower"),
      ("session.workspace_hit_rate", "fraction", "higher"),
      ("session.workspace_high_water_mb", "MB", "lower")],
     "peak_rss_mb on vec-t4-2000 and batch-mixed, flat on val-t3-3000; "
     "submit: solve_tail_s on batch-mixed"),
    ("reference (benchmark-owned)",
     [("ref.lapack_s", "s", "lower"), ("ref.dgemm_gflops", "GFLOP/s",
                                       "higher")],
     "denominator of x_lapack; repo code must never move these"),
    ("tracing",
     [("trace.overhead_frac", "fraction", "lower"),
      ("trace.unattributed_frac", "fraction", "lower")], "none"),
]

PER_LAYER = [m for _, ms, _ in LAYERS for m in ms]

_SPAN_LAYER = {"bench.validate": "errors", "graph.build": "core.graph_cache",
               "graph.instantiate": "core.graph_cache",
               "solve.submit": "core.session", "solve": "core.session",
               "finalize": "core.session", "execute": "runtime"}


def _new_span(col: Collector, n0: int, name: str):
    return next(s for s in col.spans[n0:] if s.name == name)


class _Solve:
    """What the pass keeps of one traced solve (the DCResult is dropped
    at once so its context and buffers can be recycled)."""

    def __init__(self, sid, j, res, origin, submit_s=None, parent=None):
        self.sid, self.j = sid, j
        self.lam, self.V = res.lam, res.V
        self.events = res.trace.events
        self.busy = res.trace.busy_time
        self.n_tasks = len(res.graph.tasks)
        self.deflation = res.total_deflation
        self.uv_flops = sum(t.resolved_cost().flops for t in res.graph.tasks
                            if t.name == "UpdateVect")
        self.origin, self.parent, self.submit_s = origin, parent, submit_s


def traced_pass(wl, problems, tally, untraced: Samples, gflops: float,
                out_dir: Path, seed: int):
    """Run the traced pass; returns ``(metrics, report_lines)`` where
    metrics maps every :data:`PER_LAYER` name to ``(value, unit)``."""
    col = Collector()
    opts = options(wl).with_(telemetry=col)
    ids = itertools.count()
    validate = []
    for j, (d, e) in enumerate(problems):
        with col.span("bench.validate", solve_id=next(ids), problem=j):
            t0 = time.perf_counter()
            validate_tridiagonal(d, e)
            validate.append(time.perf_counter() - t0)

    # -- threads session: cold builds, then the measured solves ----------
    firsts = sorted({n: j for j, (_, n) in reversed(list(enumerate(
        wl.shapes)))}.values())
    graph_template_cache.clear()
    life0, cpu0 = time.perf_counter(), time.process_time()
    session = threads_session(opts)
    cold, measured, roots = [], [], []

    def submit(j):
        sid = next(ids)
        with col.span("bench.submit", solve_id=sid, problem=j):
            n0 = len(col.spans)
            h = session.submit(*problems[j], full_result=True)
        return sid, j, h, _new_span(col, n0, "solve.submit")

    def collect(pending, sink):
        for sid, j, h, sub in pending:
            with col.span("bench.result", solve_id=sid, problem=j):
                try:
                    res = h.result()
                except ReproError as exc:
                    tally.failed_solve("traced threads", exc)
                    continue
            # Tasks hang under the wait for their result.
            sink.append(_Solve(sid, j, res, sub.t1, sub.duration,
                               parent=col.spans[-1].sid))

    def under(name, sink, js):
        """Solve ``js`` inside one benchmark span."""
        with col.span(name):
            collect([submit(j) for j in js], sink)
        return col.spans[-1]

    for j in firsts:
        under("bench.cold_solve", cold, [j])
    if wl.batch:
        roots.append(under("bench.map", measured, range(len(problems))))
    else:
        roots += [under("bench.solve", measured, [j])
                  for j in range(len(problems))]
    thr_walls = [r.duration for r in roots]
    stats = session.stats()
    session.close()
    life = time.perf_counter() - life0
    cpu = time.process_time() - cpu0
    hit_rate = graph_template_cache.stats()["hit_rate"] or 0.0
    for s in cold + measured:
        tally.check(s.j, *problems[s.j], s.lam, s.V, "traced threads")
        s.lam = s.V = None

    # -- sequential dc_eigh on the same problems ------------------------
    seq = []
    for j, (d, e) in enumerate(problems):
        sid = next(ids)
        with col.span("bench.seq_solve", solve_id=sid, problem=j):
            n0 = len(col.spans)
            try:
                res = dc_eigh(d, e, options=opts, full_result=True)
            except ReproError as exc:
                tally.failed_solve("traced sequential", exc)
                continue
            ex = _new_span(col, n0, "execute")
        seq.append(_Solve(sid, j, res, ex.t0, parent=ex.sid))
        del res
        tally.check(j, d, e, seq[-1].lam, seq[-1].V, "traced sequential")
        seq[-1].lam = seq[-1].V = None

    lines = []
    if wl.name == "vec-t4-2000":
        lines += _processes(wl, problems, tally)

    # -- metrics ----------------------------------------------------------
    n_solves = len(cold) + len(measured)
    busy_total = sum(s.busy for s in cold + measured)
    tasks_total = sum(len(s.events) for s in cold + measured)
    park = col.counter("scheduler.park.time_s")
    cap = life * N_WORKERS
    if wl.batch:
        untraced_thr = untraced.thr_wall / max(1, untraced.rounds)
        # Throughput ratio: the sequential pass covers one rep only.
        speedup = (untraced.thr_done / untraced.thr_wall * untraced.seq_wall
                   / len(untraced.seq) if untraced.thr_wall and untraced.seq
                   else 0.0)
    else:
        untraced_thr = _med(untraced.thr)
        speedup = (_med(untraced.seq) / untraced_thr if untraced_thr
                   else 0.0)
    hists = col.hists
    ws = stats.get("workspace", {})
    m = {
        "errors.validate_s": _med(validate),
        "graph.build_s": _med(hists.get("graph_cache.build_s", [])),
        "graph.instantiate_s": _med(hists.get("graph_cache.instantiate_s",
                                              [])),
        "graph.tasks": _med([s.n_tasks for s in measured]),
        "graph.cache_hit_rate": hit_rate,
        "runtime.busy_s": _med([s.busy for s in measured]),
        "runtime.idle_frac": park / cap if cap else 0.0,
        "runtime.overhead_s": (cap - busy_total - park) / max(1, n_solves),
        "runtime.tasks_per_s": tasks_total / life if life else 0.0,
        "runtime.cpu_util": cpu / cap if cap else 0.0,
        "runtime.parallel_speedup": speedup,
        "merge.deflation": _med([s.deflation for s in measured]),
        "merge.fallbacks": col.counter("solve.fallbacks"),
        "session.submit_s": _med([s.submit_s for s in measured]),
        "session.workspace_hit_rate": ws.get("hit_rate") or 0.0,
        "session.workspace_high_water_mb":
            ws.get("high_water_bytes", 0) / 2 ** 20,
        "ref.lapack_s": _med(untraced.ref),
        "ref.dgemm_gflops": gflops,
        "trace.overhead_frac": (_med(thr_walls) / untraced_thr - 1.0
                                if untraced_thr else 0.0),
    }
    m.update(_kernel_metrics(measured, seq))

    tasks = _task_nodes(cold + measured + seq)
    m["trace.unattributed_frac"] = _unattributed(col, tasks, roots)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (float(m[name]), units[name]) for name in units}

    paths = _export(col, tasks, out_dir, f"{wl.name}-seed{seed}")
    lines += [f"span files      : {paths[0]}", f"                  {paths[1]}"]
    lines += _layer_table(metrics) + _self_time_table(col, tasks)
    return metrics, lines


def _processes(wl, problems, tally) -> list[str]:
    """Median warm solve on the processes backend: evidence on whether
    that backend pays for itself, reported only while it exists."""
    try:
        session = SolverSession(backend="processes", n_workers=N_WORKERS,
                                options=options(wl))
    except InputError:
        return ["runtime.processes_s: processes backend not available"]
    times = []
    with session:
        for j in [0] + list(range(len(problems))):
            d, e = problems[j]
            t0 = time.perf_counter()
            try:
                lam, V = session.submit(d, e).result()
            except ReproError as exc:
                tally.failed_solve("processes", exc)
                continue
            times.append(time.perf_counter() - t0)
            tally.check(j, d, e, lam, V, "processes")
    warm = times[1:]
    return [f"runtime.processes_s = {_med(warm):.6g} s  (median of "
            f"{len(warm)} warm solves, {N_WORKERS} worker processes)"]


def _kernel_metrics(thr, seq) -> dict:
    def per_kernel(solves):
        dur, cnt = {}, {}
        for s in solves:
            for ev in s.events:
                dur[ev.name] = dur.get(ev.name, 0.0) + ev.duration
                cnt[ev.name] = cnt.get(ev.name, 0) + 1
        return dur, cnt

    tdur, tcnt = per_kernel(thr)
    sdur, scnt = per_kernel(seq)
    n = max(1, len(thr))
    out = {}
    for k in KERNELS:
        out[f"kernel.{k}.s"] = tdur.get(k, 0.0) / n
        out[f"kernel.{k}.count"] = tcnt.get(k, 0) / n
        infl = 0.0
        if tcnt.get(k) and scnt.get(k) and sdur[k] > 0:
            infl = (tdur[k] / tcnt[k]) / (sdur[k] / scnt[k])
        out[f"kernel.{k}.inflation"] = infl
    uv = tdur.get("UpdateVect", 0.0)
    out["kernel.UpdateVect.gflops"] = (sum(s.uv_flops for s in thr) / uv
                                       / 1e9 if uv else 0.0)
    return out


def _task_nodes(solves) -> list[tuple]:
    """Every task event on the collector clock:
    ``(name, t0, t1, worker, tag, solve_id, parent span id)``."""
    return [(ev.name, s.origin + ev.t_start, s.origin + ev.t_end, ev.worker,
             ev.tag, s.sid, s.parent)
            for s in solves for ev in s.events]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _unattributed(col, tasks, roots) -> float:
    """Share of the measured threads solves' benchmark spans covered by
    neither a program span nor a task."""
    if not roots:
        return 0.0
    by_parent: dict = {}
    for s in col.spans:
        by_parent.setdefault(s.parent, []).append(s)
    total = uncovered = 0.0
    for root in roots:
        ivs, stack, sids = [], [root], {root.sid}
        while stack:
            for c in by_parent.get(stack.pop().sid, ()):
                stack.append(c)
                sids.add(c.sid)
                if not c.name.startswith("bench."):
                    ivs.append((c.t0, c.t1))
        ivs += [(t[1], t[2]) for t in tasks if t[6] in sids]
        total += root.duration
        uncovered += root.duration - _covered(ivs, root.t0, root.t1)
    return uncovered / total if total else 0.0


def _self_times(col, tasks) -> dict:
    """name -> [layer, count, total s, self s] over spans and tasks."""
    children: dict = {}
    for s in col.spans:
        children.setdefault(s.parent, []).append((s.t0, s.t1))
    for t in tasks:
        children.setdefault(t[6], []).append((t[1], t[2]))
    rows: dict = {}
    for s in col.spans:
        layer = _SPAN_LAYER.get(s.name, "benchmark"
                                if s.name.startswith("bench.") else "other")
        row = rows.setdefault(s.name, [layer, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += s.duration
        row[3] += s.duration - _covered(children.get(s.sid, ()), s.t0, s.t1)
    for name, t0, t1, *_ in tasks:
        row = rows.setdefault(name, ["kernels", 0, 0.0, 0.0])
        row[1] += 1
        row[2] += t1 - t0
        row[3] += t1 - t0
    return rows


def _layer_table(metrics) -> list[str]:
    lines = ["", "per-layer metrics (traced pass)"]
    for layer, ms, moves in LAYERS:
        lines.append(f"[{layer}]  should move: {moves}")
        for name, unit, _ in ms:
            v = metrics[name][0]
            if name.startswith("kernel.") and v == 0.0:
                continue        # kernel absent from this workload's graph
            lines.append(f"    {name:<36s} {v:>14.6g} {unit}")
    return lines


def _self_time_table(col, tasks) -> list[str]:
    rows = _self_times(col, tasks)
    lines = ["", "self time by span (traced pass; tasks are leaves)",
             f"    {'layer':<18s} {'span':<22s} {'count':>7s} "
             f"{'total s':>10s} {'self s':>10s}"]
    for name, (layer, cnt, tot, own) in sorted(rows.items(),
                                               key=lambda kv: -kv[1][3]):
        lines.append(f"    {layer:<18s} {name:<22s} {cnt:>7d} {tot:>10.4f} "
                     f"{own:>10.4f}")
    by_layer: dict = {}
    for layer, _, _, own in rows.values():
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    lines.append("    self time by layer: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in sorted(by_layer.items(),
                                            key=lambda kv: -kv[1])))
    return lines


def _export(col, tasks, out_dir: Path, stem: str) -> tuple[Path, Path]:
    """Write the spans and tasks as JSONL and as a Perfetto trace."""
    by_sid = {s.sid: s for s in col.spans}
    for s in col.spans:             # every span carries its solve's id
        p = s
        while p is not None and "solve_id" not in p.attrs:
            p = by_sid.get(p.parent)
        if p is not None and p is not s:
            s.attrs["solve_id"] = p.attrs["solve_id"]
    n_workers = 1 + max((t[3] for t in tasks), default=0)

    def trace(shift: float) -> Trace:
        tr = Trace(n_workers)
        for uid, (name, t0, t1, w, tag, sid, _) in enumerate(tasks):
            tr.record(TraceEvent(uid, name, w, t0 - shift, t1 - shift,
                                 ("solve", sid, tag)))
        return tr

    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl, perfetto = (out_dir / f"{stem}.spans.jsonl",
                       out_dir / f"{stem}.perfetto.json")
    with open(jsonl, "w") as fh:
        write_jsonl(fh, col, trace(0.0))
    # chrome_trace places task times relative to the first ``execute``
    # span; shift them so both land on the collector clock.
    exec_t0 = next((s.t0 for s in col.span_tree() if s.name == "execute"),
                   min((s.t0 for s in col.spans), default=0.0))
    with open(perfetto, "w") as fh:
        json.dump(chrome_trace(trace(exec_t0), col), fh)
    return jsonl, perfetto
