"""Host calibration: machine rates that turn task costs into seconds.

The cost model (:mod:`repro.core.costs`, paper Table I) counts flops and
bytes.  The level-adaptive panel width needs *seconds*, which requires
machine rates.  This module provides them two ways:

``DEFAULT_CALIBRATION``
    Deterministic constants representative of this Python/NumPy runtime
    (vectorized kernels a few Gflop/s, BLAS GEMM tens of Gflop/s,
    ~15 µs per-task dispatch as measured on the thread/worker-pool
    schedulers).  Used whenever nothing measured is available, so panel
    widths — and therefore DAG template keys — are reproducible across
    hosts.

``host_calibration()``
    Micro-benchmarks run once per process (< ~100 ms, memoized):
    effective flop rate, GEMM rate, per-task dispatch overhead, mean
    secular sweep count, and the batched-vs-streaming Givens crossover
    height.  Opt-in via ``set_calibration`` or
    ``REPRO_CALIBRATION=host`` because measured rates make panel widths
    (and graph-template keys) host-dependent.

The process-wide active calibration is resolved by :func:`get_calibration`
(override > environment > default) and consumed by
``DCOptions.node_nb``, ``cost_laed4``'s sweep default and the Givens
kernel crossover.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Calibration", "DEFAULT_CALIBRATION",
    "host_calibration", "get_calibration", "set_calibration",
]


@dataclass(frozen=True)
class Calibration:
    """Machine rates behind the adaptive panel width's cost floor.

    ``flop_rate`` / ``gemm_flop_rate``
        Sustained flops/s of vectorized elementwise kernels vs. BLAS-3
        kernels (``UpdateVect``/``STEDC``), matching the simulator's
        kernel-efficiency split.
    ``task_overhead_s``
        Per-task dispatch cost of the runtime (submission + scheduling),
        charged once per task.
    ``secular_sweeps``
        Mean LAED4 iterations per secular root; default of
        :func:`repro.core.costs.cost_laed4`.
    ``givens_crossover``
        Eigenvector-block height below which the batched Givens path
        beats the streaming path (:mod:`repro.kernels.givens`).
    ``source``
        Provenance tag: ``"default"`` or ``"host"``.
    """

    flop_rate: float = 4.0e9
    gemm_flop_rate: float = 40.0e9
    task_overhead_s: float = 15.0e-6
    secular_sweeps: float = 10.0
    givens_crossover: int = 512
    source: str = "default"

    def __post_init__(self) -> None:
        for f in ("flop_rate", "gemm_flop_rate"):
            if getattr(self, f) <= 0.0:
                raise ValueError(f"{f} must be > 0")
        if self.task_overhead_s < 0.0 or self.secular_sweeps <= 0.0:
            raise ValueError("task_overhead_s must be >= 0, "
                             "secular_sweeps > 0")
        if self.givens_crossover < 1:
            raise ValueError("givens_crossover must be >= 1")

    @property
    def key(self) -> tuple:
        """Value identity for DAG-template cache keys: two calibrations
        with the same rates produce the same panel widths, whatever
        their provenance."""
        return (round(self.flop_rate), round(self.gemm_flop_rate),
                round(self.task_overhead_s, 9),
                round(self.secular_sweeps, 3), self.givens_crossover)


#: Deterministic fallback constants (see module docstring).
DEFAULT_CALIBRATION = Calibration()


# ----------------------------------------------------------------------
# Host micro-benchmarks (memoized once per process).

_lock = threading.Lock()
_host: Optional[Calibration] = None
_override: Optional[Calibration] = None


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _probe_rates() -> tuple[float, float]:
    """(flop_rate, gemm_flop_rate) from two tiny kernels."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1 << 20)
    y = x.copy()
    out = np.empty_like(x)

    def axpy():
        np.multiply(x, 1.0000001, out=out)
        np.add(out, y, out=out)
    flop = 2.0 * x.size / max(_best_of(axpy), 1e-9)

    a = np.random.default_rng(1).standard_normal((384, 384))
    b = a.copy()

    def gemm():
        a @ b
    gemm_rate = 2.0 * 384.0 ** 3 / max(_best_of(gemm), 1e-9)
    return flop, gemm_rate


def _probe_task_overhead() -> float:
    """Per-task cost of submission + threaded dispatch (no-op tasks)."""
    from ..runtime.dag import TaskGraph
    from ..runtime.scheduler import ThreadScheduler
    from ..runtime.task import OUTPUT, DataHandle

    n = 1000

    def run():
        g = TaskGraph()
        for i in range(n):
            g.insert_task(lambda: None, [(DataHandle(), OUTPUT)],
                          name="noop")
        ThreadScheduler(n_workers=4).run(g)

    return _best_of(run, repeats=2) / n


def _probe_secular_sweeps() -> float:
    """Mean LAED4 iterations per root on a representative rank-one
    update (the calibration-time probe behind ``cost_laed4``)."""
    import numpy as np

    from ..kernels.secular import solve_secular

    rng = np.random.default_rng(42)
    k = 96
    dlamda = np.sort(rng.standard_normal(k))
    z = rng.standard_normal(k)
    z /= np.linalg.norm(z)
    res = solve_secular(dlamda, z, 0.7)
    return max(1.0, res.iterations / k)


def _probe_givens_crossover() -> int:
    """Solve the streaming-vs-batched Givens crossover height from two
    timed samples of each path (linear per-rotation model)."""
    import numpy as np

    from ..kernels.deflation import GivensRotation
    from ..kernels.givens import _apply_batched, _apply_streaming

    rng = np.random.default_rng(7)
    heights = (192, 1536)
    per_rot = {"stream": [], "batch": []}
    for h in heights:
        ncols = 64
        V = np.asfortranarray(rng.standard_normal((h, ncols)))
        chains = [[GivensRotation(i, i + 1, 0.8, 0.6)]
                  for i in range(0, ncols - 2, 2)]
        n_rot = len(chains)
        per_rot["stream"].append(
            _best_of(lambda: _apply_streaming(V.copy(), 0, h, chains))
            / n_rot)
        per_rot["batch"].append(
            _best_of(lambda: _apply_batched(V.copy(), 0, h, chains))
            / n_rot)
    h0, h1 = heights
    slope_s = (per_rot["stream"][1] - per_rot["stream"][0]) / (h1 - h0)
    slope_b = (per_rot["batch"][1] - per_rot["batch"][0]) / (h1 - h0)
    int_s = per_rot["stream"][0] - slope_s * h0
    int_b = per_rot["batch"][0] - slope_b * h0
    # Streaming has the higher fixed cost, batching the steeper slope;
    # the crossover is where the lines meet.  Degenerate fits fall back
    # to the default.
    if slope_b <= slope_s:
        cross = DEFAULT_CALIBRATION.givens_crossover
    else:
        cross = int((int_s - int_b) / (slope_b - slope_s))
    return max(128, min(4096, cross))


def host_calibration() -> Calibration:
    """Measure the host once per process (memoized, thread-safe)."""
    global _host
    with _lock:
        if _host is None:
            flop, gemm_rate = _probe_rates()
            _host = Calibration(
                flop_rate=flop,
                gemm_flop_rate=gemm_rate,
                task_overhead_s=_probe_task_overhead(),
                secular_sweeps=_probe_secular_sweeps(),
                givens_crossover=_probe_givens_crossover(),
                source="host",
            )
        return _host


def set_calibration(cal: Optional[Calibration]) -> None:
    """Install a process-wide calibration override (``None`` clears it).

    Clearing also resets caches derived from the active calibration
    (currently the Givens crossover cache)."""
    global _override
    with _lock:
        _override = cal
    from ..kernels import givens
    givens._reset_crossover_cache()


def get_calibration() -> Calibration:
    """Active calibration: override > ``REPRO_CALIBRATION`` env > default.

    ``REPRO_CALIBRATION=host`` switches to measured host rates (making
    panel widths and template keys host-dependent); any other value, or
    none, selects :data:`DEFAULT_CALIBRATION`.
    """
    if _override is not None:
        return _override
    if os.environ.get("REPRO_CALIBRATION", "").strip().lower() == "host":
        return host_calibration()
    return DEFAULT_CALIBRATION
