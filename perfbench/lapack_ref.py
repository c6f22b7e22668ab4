"""LAPACK reference solvers for the benchmark.

``dstedc`` (divide and conquer, ``compz='I'``) and ``dsterf`` (eigenvalues
only, Pal-Walker-Kahan QR) are called through the C function pointers that
``scipy.linalg.cython_lapack`` exports as capsules, so the yardstick is the
LAPACK that scipy links, with no Python in the loop.  Both functions work
on copies: the inputs are never modified.
"""

from __future__ import annotations

import ctypes
import statistics
import time

import numpy as np
from scipy.linalg import cython_lapack

__all__ = ["dstedc", "dsterf", "self_check", "dgemm_gflops"]

_api = ctypes.pythonapi
_api.PyCapsule_GetName.restype = ctypes.c_char_p
_api.PyCapsule_GetName.argtypes = [ctypes.py_object]
_api.PyCapsule_GetPointer.restype = ctypes.c_void_p
_api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]

_INT = ctypes.POINTER(ctypes.c_int)
_DBL = ctypes.POINTER(ctypes.c_double)


def _lapack(name: str, *argtypes):
    cap = cython_lapack.__pyx_capi__[name]
    addr = _api.PyCapsule_GetPointer(cap, _api.PyCapsule_GetName(cap))
    return ctypes.CFUNCTYPE(None, *argtypes)(addr)


# dstedc(compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info)
_DSTEDC = _lapack("dstedc", ctypes.c_char_p, _INT, _DBL, _DBL, _DBL, _INT,
                  _DBL, _INT, _INT, _INT, _INT)
# dsterf(n, d, e, info)
_DSTERF = _lapack("dsterf", _INT, _DBL, _DBL, _INT)


def _int(x: int):
    return ctypes.byref(ctypes.c_int(x))


def _dbl(a: np.ndarray):
    return a.ctypes.data_as(_DBL)


def _copies(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous float64 copies, with the lengths LAPACK will read."""
    w = np.array(d, dtype=np.float64).ravel()
    e = np.array(e, dtype=np.float64).ravel()
    if w.shape[0] < 1 or e.shape[0] != w.shape[0] - 1:
        raise ValueError(f"need n >= 1 and len(e) == n - 1, got "
                         f"{w.shape[0]} and {e.shape[0]}")
    return w, e


def dstedc(d, e) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs ``(w, Z)`` of the tridiagonal (d, e), ``w`` ascending."""
    w, e = _copies(d, e)
    n = w.shape[0]
    z = np.empty((n, n), order="F")
    lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
    work = np.empty(lwork)
    iwork = np.empty(liwork, dtype=np.intc)
    info = ctypes.c_int(0)
    _DSTEDC(b"I", _int(n), _dbl(w), _dbl(e), _dbl(z), _int(max(1, n)),
            _dbl(work), _int(lwork), iwork.ctypes.data_as(_INT),
            _int(liwork), ctypes.byref(info))
    if info.value != 0:
        raise RuntimeError(f"dstedc failed, info={info.value}")
    return w, z


def dsterf(d, e) -> np.ndarray:
    """All eigenvalues of the tridiagonal (d, e), ascending."""
    w, e = _copies(d, e)
    info = ctypes.c_int(0)
    _DSTERF(_int(w.shape[0]), _dbl(w), _dbl(e), ctypes.byref(info))
    if info.value != 0:
        raise RuntimeError(f"dsterf failed, info={info.value}")
    return w


def self_check(n: int = 64, seed: int = 12345) -> float:
    """Check both bindings on a random tridiagonal against numpy's dense
    ``eigh``; returns the largest error (relative to ``n·ε·‖T‖``) and
    raises ``RuntimeError`` when any check exceeds 1."""
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.linalg.eigvalsh(t)
    scale = n * np.finfo(np.float64).eps * np.abs(ref).max()
    w, z = dstedc(d, e)
    errs = {
        "dstedc eigenvalues": np.abs(w - ref).max() / scale,
        "dstedc orthogonality": np.abs(z.T @ z - np.eye(n)).max()
        / (n * np.finfo(np.float64).eps),
        "dstedc residual": np.abs(t @ z - z * w).max() / scale,
        "dsterf eigenvalues": np.abs(dsterf(d, e) - ref).max() / scale,
    }
    bad = {k: v for k, v in errs.items() if not v <= 1.0}
    if bad:
        raise RuntimeError(f"LAPACK binding self-check failed: {bad}")
    return max(errs.values())


def dgemm_gflops(n: int = 1000, repeats: int = 5, seed: int = 0) -> float:
    """Median GFLOP/s of an n×n BLAS ``dgemm`` on this host."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n ** 3 / statistics.median(times) / 1e9
