"""Workloads, correctness checks and the untraced timed loops.

Every workload is a closed loop with one client: the next solve starts
when the previous one has returned.  Each round solves the same problem
three ways, interleaved so that host noise hits them alike:

1. the LAPACK reference (``dstedc`` for ``jobz='V'``, ``dsterf`` for
   ``jobz='N'``), timed;
2. a warm ``SolverSession(backend="threads")``, timed;
3. ``dc_eigh`` on its default sequential backend, timed.

Checks run outside every timed interval: eigenvalues against the
reference, orthogonality and residual for eigenvectors, and bitwise
equality of every result for one problem (threads ≡ sequential).
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas

import lapack_ref
from repro import SolverSession, dc_eigh
from repro.core.graph_cache import graph_template_cache
from repro.core.options import DCOptions
from repro.errors import ReproError

EPS = np.finfo(np.float64).eps
#: A check fails when an error, in units of n·ε (·‖T‖), exceeds this.
TOL = 5.0
#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 3
#: Worker threads: never more than the host has cores.
N_WORKERS = min(2, os.cpu_count() or 1)

#: Batch submission order: the first problem (the cold start's) is the
#: largest low-deflation one, and the first four miss the template cache.
BATCH_TYPES = (4, 6, 3, 2)
BATCH_SIZES = (768, 512, 384, 256)
#: The sequential pass of a batch round covers the first rep only (one
#: problem of each type and size), to keep a run within its time budget;
#: every threads result is still checked against LAPACK.
BATCH_SEQ = len(BATCH_TYPES) * len(BATCH_SIZES)
#: Timed calls of the LAPACK reference per problem and round; the median
#: is its time.  LAPACK is 8-25x faster than the solver, so one call is
#: too short to time steadily.
REF_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    jobz: str
    #: ``(type, n)`` of every problem, in submission order.
    shapes: tuple
    #: Submit all problems together each round (service traffic) instead
    #: of solving one problem per round.
    batch: bool
    #: Minimum timed rounds per run, whatever ``--seconds`` says.
    min_rounds: int

    @property
    def reference(self):
        return lapack_ref.dsterf if self.jobz == "N" else \
            (lambda d, e: lapack_ref.dstedc(d, e)[0])

    def specs(self, seed: int) -> list[tuple[int, int, int]]:
        """``(type, n, matrix seed)`` of every problem for a run seed."""
        return [(t, n, seed * 1000 + j) for j, (t, n) in enumerate(self.shapes)]


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks every n by 8 (tests)."""
    s = 8 if tiny else 1
    batch = tuple((t, n // s) for _ in range(3)
                  for t in BATCH_TYPES for n in BATCH_SIZES)
    return {w.name: w for w in (
        Workload("vec-t4-2000", "V", ((4, 2000 // s),) * 2, False, 2),
        Workload("val-t3-3000", "N", ((3, 3000 // s),), False, 2),
        Workload("batch-mixed", "V", batch, True, 1),
    )}


def _digest(lam, V) -> bytes:
    h = hashlib.blake2b(np.ascontiguousarray(lam).tobytes())
    if V is not None:
        h.update(np.asfortranarray(V).tobytes(order="F"))
    return h.digest()


@dataclass
class Tally:
    """Attempted/failed solves and the worst errors of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    eig_err: float = 0.0
    orth_err: float = 0.0
    resid_err: float = 0.0
    refs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def fail(self, label: str, why) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def failed_solve(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(label, f"{type(exc).__name__}: {exc}")

    def check(self, j: int, d, e, lam, V, label: str) -> None:
        """Count one solve of problem ``j`` and check its result: the
        first result of a problem against the reference, every later one
        for bitwise equality with the first."""
        self.attempted += 1
        dig = _digest(lam, V)
        first = self.digests.get(j)
        if first is not None:
            if first[0] != dig:
                self.fail(label, f"problem {j} not bitwise equal to "
                                 f"{first[1]}")
        else:
            errs = errors(d, e, lam, V, self.refs[j])
            for k, v in errs.items():
                setattr(self, k, max(getattr(self, k), v))
            bad = {k: v for k, v in errs.items() if not v <= TOL}
            if bad:
                self.fail(label, f"problem {j} error above {TOL}: {bad}")
            else:
                self.digests[j] = (dig, label)
        # Collect the solve's reference cycles now, outside any timed
        # interval, so that peak RSS does not depend on when the
        # collector would have run.
        gc.collect()

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def errors(d, e, lam, V, lam_ref) -> dict[str, float]:
    """max |λ − λ_ref| / (n·ε·‖T‖), and for eigenvectors max |I − VᵀV| /
    (n·ε) and max |TV − VΛ| / (n·ε·‖T‖)."""
    n = d.shape[0]
    tnorm = max(abs(lam_ref[0]), abs(lam_ref[-1]), np.finfo(float).tiny)
    out = {"eig_err": float(np.abs(lam - lam_ref).max() / (n * EPS * tnorm))}
    if V is not None:
        g = blas.dsyrk(1.0, V, trans=1)          # upper triangle of VᵀV
        g[np.diag_indices(n)] -= 1.0
        out["orth_err"] = float(np.abs(np.triu(g)).max() / (n * EPS))
        del g
        r = d[:, None] * V - V * lam
        r[:-1] += e[:, None] * V[1:]
        r[1:] += e[:, None] * V[:-1]
        out["resid_err"] = float(np.abs(r).max() / (n * EPS * tnorm))
    return out


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile of ``samples``
    with at least 10 samples above it; the maximum when there are fewer
    than 11 samples."""
    s = sorted(samples)
    i = max(0, len(s) - 11)
    pct = 100.0 * i / (len(s) - 1) if len(s) > 10 else 100.0
    return s[i] if len(s) > 10 else s[-1], pct, len(s)


def options(wl: Workload) -> DCOptions:
    return DCOptions(jobz=wl.jobz)


def threads_session(opts: DCOptions) -> SolverSession:
    return SolverSession(backend="threads", n_workers=N_WORKERS, options=opts)


def cold_starts(wl: Workload, problems, tally: Tally):
    """``COLD_STARTS`` times: clear the graph-template cache, build a fresh
    threads session and solve the first problem.  Returns the times and
    the last session, which the timed loop then uses warm."""
    opts = options(wl)
    d, e = problems[0]
    tally.refs.setdefault(0, wl.reference(d, e))
    times, session = [], None
    for _ in range(COLD_STARTS):
        if session is not None:
            session.close()
        graph_template_cache.clear()
        t0 = time.perf_counter()
        session = threads_session(opts)
        try:
            lam, V = session.submit(d, e).result()
        except ReproError as exc:
            tally.failed_solve("cold start", exc)
            continue
        times.append(time.perf_counter() - t0)
        tally.check(0, d, e, lam, V, "cold start")
    return times, session


@dataclass
class Samples:
    """Raw timings of the untraced timed phase."""

    thr: list = field(default_factory=list)        # per-solve latency
    thr_wall: float = 0.0                          # threads wall, summed
    thr_done: int = 0                              # threads solves done
    seq: list = field(default_factory=list)        # per-solve wall
    seq_wall: float = 0.0
    ref: list = field(default_factory=list)        # per-problem wall
    ref_wall: float = 0.0                          # on the thr problems
    rounds: int = 0


def _solve_seq(problems, j, opts, tally, smp) -> None:
    d, e = problems[j]
    t0 = time.perf_counter()
    try:
        lam, V = dc_eigh(d, e, options=opts)
    except ReproError as exc:
        tally.failed_solve("sequential", exc)
        return
    dt = time.perf_counter() - t0
    smp.seq.append(dt)
    smp.seq_wall += dt
    tally.check(j, d, e, lam, V, "sequential")


def _ref(wl, problems, j, tally, smp) -> float:
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        w = wl.reference(*problems[j])
        times.append(time.perf_counter() - t0)
    dt = statistics.median(times)
    tally.refs.setdefault(j, w)
    smp.ref.append(dt)
    return dt


def _round_single(wl, problems, r, session, opts, tally, smp) -> None:
    j = r % len(problems)
    d, e = problems[j]
    ref_dt = _ref(wl, problems, j, tally, smp)
    t0 = time.perf_counter()
    try:
        lam, V = session.submit(d, e).result()
    except ReproError as exc:
        tally.failed_solve("threads", exc)
    else:
        dt = time.perf_counter() - t0
        smp.thr.append(dt)
        smp.thr_wall += dt
        smp.thr_done += 1
        smp.ref_wall += ref_dt
        tally.check(j, d, e, lam, V, "threads")
        del lam, V
    _solve_seq(problems, j, opts, tally, smp)


def _round_batch(wl, problems, session, opts, tally, smp) -> None:
    ref_wall = sum(_ref(wl, problems, j, tally, smp)
                   for j in range(len(problems)))
    t0 = time.perf_counter()
    handles = []
    for j, (d, e) in enumerate(problems):
        try:
            handles.append((j, session.submit(d, e)))
        except ReproError as exc:
            tally.failed_solve("threads submit", exc)
    results = []
    for j, h in handles:
        try:
            results.append((j, h.result(), h.latency_s))
        except ReproError as exc:
            tally.failed_solve("threads", exc)
    smp.thr_wall += time.perf_counter() - t0
    smp.ref_wall += ref_wall
    for j, (lam, V), lat in results:
        smp.thr.append(lat)
        smp.thr_done += 1
        tally.check(j, *problems[j], lam, V, "threads")
    del results
    for j in range(BATCH_SEQ):
        _solve_seq(problems, j, opts, tally, smp)


def timed_phase(wl: Workload, problems, session, tally: Tally,
                seconds: float) -> Samples:
    """Rounds until the next one would end well past ``seconds`` (at
    least ``wl.min_rounds``)."""
    opts = options(wl)
    smp = Samples()
    start = time.perf_counter()
    last = 0.0
    while (smp.rounds < wl.min_rounds
           or time.perf_counter() - start + 0.5 * last < seconds):
        a = time.perf_counter()
        if wl.batch:
            _round_batch(wl, problems, session, opts, tally, smp)
        else:
            _round_single(wl, problems, smp.rounds, session, opts, tally,
                          smp)
        last = time.perf_counter() - a
        smp.rounds += 1
    return smp


def _med(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(setup: list, smp: Samples, rss_mb: float) -> dict:
    """The end-to-end metrics of one run: ``name -> (value, unit)``."""
    tail_v = tail(smp.thr)[0] if smp.thr else 0.0
    return {
        "setup_s": (_med(setup), "s"),
        "solve_s": (_med(smp.thr), "s"),
        "solve_tail_s": (tail_v, "s"),
        "solves_per_s": (smp.thr_done / smp.thr_wall if smp.thr_wall
                         else 0.0, "1/s"),
        "solve_seq_s": (_med(smp.seq), "s"),
        "x_lapack": (smp.thr_wall / smp.ref_wall if smp.ref_wall else 0.0,
                     "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
