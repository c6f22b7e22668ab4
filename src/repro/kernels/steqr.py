"""QR/QL-iteration symmetric tridiagonal eigensolver (DSTEQR equivalent).

Used for the subproblems at the leaves of the D&C tree (the ``STEDC``
leaf tasks in the paper's DAG run a classical QR-iteration solve) and,
standalone, as the "QR iterations" related-work baseline.

The implementation follows the implicit-shift QL algorithm of EISPACK's
``tql2`` (the same algorithm underlying DSTEQR): for each eigenvalue,
Wilkinson-shifted implicit QL sweeps drive the off-diagonal to zero;
rotations are accumulated into the eigenvector matrix.  Eigenvalues are
returned in ascending order with matching eigenvector columns.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConvergenceError

__all__ = ["steqr", "sterf"]

_EPS = np.finfo(np.float64).eps


def steqr(d: np.ndarray, e: np.ndarray, *, compute_v: bool = True,
          max_sweeps: int = 50) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of the symmetric tridiagonal matrix ``(d, e)``.

    Parameters
    ----------
    d : (n,) diagonal.
    e : (n-1,) off-diagonal.
    compute_v : accumulate eigenvectors (returns None otherwise).
    max_sweeps : QL sweeps allowed per eigenvalue before raising.

    Returns
    -------
    (lam, V): ``lam`` ascending; columns of ``V`` are the eigenvectors
    (``V.T @ T @ V = diag(lam)``, ``V`` orthogonal).

    Like DSTEQR, the sweep direction must match the matrix grading: the
    QL iteration converges for matrices graded small-to-large downward;
    if it stalls, the reversed matrix is solved instead (equivalent to
    running QR sweeps) and the eigenvectors are flipped back.
    """
    try:
        return _tql2(d, e, compute_v=compute_v, max_sweeps=max_sweeps)
    except ConvergenceError:
        d = np.asarray(d, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        lam, V = _tql2(d[::-1].copy(), e[::-1].copy(),
                       compute_v=compute_v, max_sweeps=2 * max_sweeps)
        return lam, (V[::-1, :] if V is not None else None)


def _tql2(d: np.ndarray, e: np.ndarray, *, compute_v: bool = True,
          max_sweeps: int = 50) -> tuple[np.ndarray, np.ndarray | None]:
    d = np.array(d, dtype=np.float64, copy=True)
    n = d.shape[0]
    if np.asarray(e).shape[0] != max(0, n - 1):
        raise ValueError("e must have length n-1")
    ee = np.zeros(n, dtype=np.float64)
    if n > 1:
        ee[:n - 1] = e
    V = np.eye(n) if compute_v else None
    if n <= 1:
        return d, V

    for j in range(n):
        sweeps = 0
        while True:
            # Find the first negligible off-diagonal at or after j.
            m = j
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= _EPS * dd:
                    break
                m += 1
            if m == j:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise ConvergenceError(
                    f"steqr failed to converge for eigenvalue {j} "
                    f"after {max_sweeps} sweeps (n={n})")
            # Wilkinson shift from the top 2x2 of the active block.
            g = (d[j + 1] - d[j]) / (2.0 * ee[j])
            r = math.hypot(g, 1.0)
            g = d[m] - d[j] + ee[j] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, j - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    # Recover from underflow: split the matrix and retry.
                    d[i + 1] -= p
                    ee[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if compute_v:
                    col_i = V[:, i]
                    col_i1 = V[:, i + 1]
                    f2 = col_i1.copy()
                    col_i1[...] = s * col_i + c * f2
                    col_i[...] = c * col_i - s * f2
            if underflow:
                continue
            d[j] -= p
            ee[j] = g
            ee[m] = 0.0

    order = np.argsort(d, kind="stable")
    d = d[order]
    if compute_v:
        V = V[:, order]
    return d, V


def sterf(d: np.ndarray, e: np.ndarray, *, max_sweeps: int = 50) -> np.ndarray:
    """Eigenvalues only (DSTERF-style: same iteration, no vector updates)."""
    lam, _ = steqr(d, e, compute_v=False, max_sweeps=max_sweeps)
    return lam
