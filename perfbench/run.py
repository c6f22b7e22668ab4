#!/usr/bin/env python3
"""End-to-end benchmark of the task-flow D&C eigensolver against LAPACK.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vec-t4-2000 --seed 1 \\
        --seconds 15 --trace 0

Workloads (all closed-loop, one client; see ``workloads.py``):

``vec-t4-2000``  jobz='V', Table III type 4, n=2000; reference ``dstedc``
``val-t3-3000``  jobz='N', type 3, n=3000; reference ``dsterf``
``batch-mixed``  48 problems, n in {256,384,512,768} x types {2,3,4,6},
                 submitted together to one threads session

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` adds a traced
pass and prints the per-layer metrics (and writes span files under
``perfbench/out``).  Human-readable lines come first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every solve was correct.

BLAS is pinned to one thread and the solver uses at most two worker
threads, so the solver's workers are the only parallelism.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every n by 8 (the benchmark's own tests)")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be >= 0")
    return a


def _provenance(seed: int) -> str:
    import numpy as np
    import scipy

    blas = "?"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name', '?')} {cfg.get('version', '?')}"
    except (TypeError, KeyError):      # older numpy: no dict mode
        pass
    return (f"provenance      : nproc={os.cpu_count()} "
            f"BLAS threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas} seed={seed}")


def _reap() -> None:
    """Stop every process this run started and wait for each to end.

    The processes backend's workers are joined when its session closes,
    but ``multiprocessing`` also starts a resource-tracker process for
    shared memory, which outlives its parent until it reads EOF.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()             # closes its pipe, then waits for it


def main() -> int:
    args = _args()
    try:
        return _run(args)
    finally:
        _reap()


def _run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no solver sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import inputs
    import lapack_ref
    import workloads as W

    wls = W.workloads(args.tiny)
    if args.workload not in wls:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wls)}", file=sys.stderr)
        return 2
    wl = wls[args.workload]
    print(_provenance(args.seed))
    print(f"workload        : {wl.name} (jobz={wl.jobz}, {len(wl.shapes)} "
        f"problem(s), {W.N_WORKERS} worker threads, closed loop, 1 client)")
    check_err = lapack_ref.self_check()
    gflops = lapack_ref.dgemm_gflops()
    print(f"lapack check    : ok (max error {check_err:.3g} of n·eps·|T|); "
        f"dgemm {gflops:.2f} GFLOP/s")

    problems, t_gen = inputs.load(HERE / ".cache", wl.specs(args.seed))
    print(f"inputs          : generated in {t_gen:.2f} s "
        f"({'cache hit' if t_gen == 0 else 'cache miss'}; not a metric)")

    tally = W.Tally()
    setup, session = W.cold_starts(wl, problems, tally)
    try:
        smp = W.timed_phase(wl, problems, session, tally, args.seconds)
    finally:
        session.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = W.end_to_end(setup, smp, rss_mb)
    lines = [f"timed phase     : {smp.rounds} round(s); threads "
             f"{len(smp.thr)} solves, sequential {len(smp.seq)}, "
             f"reference {len(smp.ref)}"]
    for name, (v, unit) in e2e.items():
        lines.append(f"{name:<16s}= {v:.6g} {unit}")
    if smp.thr:
        _, pct, n = W.tail(smp.thr)
        lines.append(f"                  solve_tail_s is p{pct:.1f} of {n} "
                     f"threads latencies" + (" (the maximum: fewer than 11)"
                                             if n < 11 else ""))

    metrics = e2e
    if args.trace:
        import tracing
        t0 = time.perf_counter()
        metrics, tlines = tracing.traced_pass(wl, problems, tally, smp,
                                              gflops, HERE / "out", args.seed)
        lines.append(f"traced pass     : {time.perf_counter() - t0:.1f} s")
        lines += tlines

    for line in lines:
        print(line)
    print(f"eig_err         = {tally.eig_err:.4g} n·eps·|T|")
    if wl.jobz == "V":
        print(f"orth_err        = {tally.orth_err:.4g} n·eps")
        print(f"resid_err       = {tally.resid_err:.4g} n·eps·|T|")
    print(f"error_rate      = {tally.error_rate:.4g} fraction "
        f"({tally.failed} of {tally.attempted} solves)")
    for f in tally.failures:
        print(f"FAILED: {f}")

    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
