"""Seeded Table III inputs for the benchmark, with an on-disk cache.

A matrix of type ``t`` (types 1-9, prescribed spectrum) and size ``n`` is
built from ``repro.matrices.spectrum_of_type(t, n, seed)`` and a Gaussian
vector ``q`` drawn from the same seed.  Householder tridiagonalisation
(LAPACK ``dsytrd``) of the arrowhead matrix ``[[diag(λ), q], [qᵀ, 0]]``
leaves the bordered row in place and turns the ``diag(λ)`` block into the
Lanczos matrix of ``diag(λ)`` started from ``q/‖q‖``.  Since ``q/‖q‖`` is
uniform on the sphere, this is the same distribution of tridiagonals as a
Haar similarity ``U diag(λ) Uᵀ`` followed by ``dsytrd``, at a third of the
cost (no QR, no GEMM): about 1.6 s at n = 2000 and 7 s at n = 3000 with
one BLAS thread.

Generation runs in a child process (``python3 inputs.py CACHE_DIR
SPEC...``) so that its dense O(n²) buffers never count in the benchmark's
peak resident memory.  Each matrix is cached as ``.npz`` keyed by
(type, n, seed) and the generator version.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Bump when the construction changes, so stale cache files are ignored.
GEN_VERSION = 1


def table3(mtype: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d, e) of one seeded Table III matrix with a prescribed spectrum."""
    from scipy.linalg import lapack
    from repro.matrices import spectrum_of_type

    lam = spectrum_of_type(mtype, n, seed=seed)
    if lam is None:
        raise ValueError(f"type {mtype} has no prescribed spectrum")
    q = np.random.default_rng([GEN_VERSION, mtype, n, seed]).standard_normal(n)
    b = np.zeros((n + 1, n + 1), order="F")
    b[np.arange(n), np.arange(n)] = lam
    b[:n, n] = q
    # Upper storage reduces from the last column inwards, so the border
    # (row/column n) is the Lanczos start; reverse to put it first.
    _, d, e, _, info = lapack.dsytrd(b, lower=0, overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"dsytrd failed, info={info}")
    return d[n - 1::-1].copy(), e[n - 2::-1].copy()


def cache_path(cache_dir: Path, mtype: int, n: int, seed: int) -> Path:
    return Path(cache_dir) / f"t{mtype}-n{n}-s{seed}-v{GEN_VERSION}.npz"


def load(cache_dir: Path, specs) -> tuple[list, float]:
    """``(d, e)`` for every ``(type, n, seed)`` in ``specs``, generating
    the missing ones in one child process.  Returns the problems and the
    generation wall time (0 when everything was cached)."""
    cache_dir = Path(cache_dir)
    missing = sorted({s for s in specs
                      if not cache_path(cache_dir, *s).exists()})
    t_gen = 0.0
    if missing:
        cache_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        str(cache_dir)]
                       + [",".join(map(str, s)) for s in missing],
                       check=True)
        t_gen = time.perf_counter() - t0
    out = []
    for s in specs:
        with np.load(cache_path(cache_dir, *s)) as f:
            out.append((f["d"], f["e"]))
    return out, t_gen


def _generate(cache_dir: Path, specs) -> None:
    for s in specs:
        d, e = table3(*s)
        path = cache_path(cache_dir, *s)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp.npz")
        np.savez(tmp, d=d, e=e)
        os.replace(tmp, path)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    _generate(Path(sys.argv[1]),
              [tuple(int(x) for x in a.split(",")) for a in sys.argv[2:]])
