"""Eigenvector computation by twisted factorization (dlar1v equivalent).

Given an RRR ``LDLᵀ`` and an accurate eigenvalue λ *of that
representation*, the eigenvector solves ``N_r Δ_r N_rᵀ z = γ_r e_r``
where r is the twist index with minimal |γ_r|:

    z_r = 1
    z_i = −L⁺_i z_{i+1}      (i = r−1 … 0,   stationary part)
    z_{i+1} = −U⁻_i z_i      (i = r … n−2,  progressive part)

A Rayleigh-quotient correction λ ← λ + γ_r/‖z‖² sharpens the eigenvalue
until the residual |γ_r|/‖z‖ is negligible against the local gap.
"""

from __future__ import annotations

import numpy as np

from .ldl import LDL, twist_data

__all__ = ["getvec", "getvec_batch"]

_EPS = np.finfo(np.float64).eps


def getvec(rep: LDL, lam: float, gap: float,
           max_rqi: int = 6) -> tuple[np.ndarray, float, int]:
    """Eigenvector of ``rep`` for eigenvalue ``lam`` (relative to rep).

    Parameters
    ----------
    rep : the relatively robust representation.
    lam : eigenvalue of ``LDLᵀ`` (NOT including rep.sigma).
    gap : distance to the nearest other eigenvalue of the rep, used in
        the residual acceptance test.

    Returns
    -------
    (z, lam_refined, rqi_steps): normalized eigenvector, improved
    eigenvalue, and the number of Rayleigh-quotient steps taken.
    """
    n = rep.n
    if n == 1:
        return np.ones(1), float(rep.d[0]), 0
    lam = float(lam)
    best = None
    steps = 0
    for it in range(max_rqi):
        plus, dminus, uminus, gamma = twist_data(rep, lam)
        r = int(np.argmin(np.abs(gamma)))
        z = np.zeros(n)
        z[r] = 1.0
        # Stationary recurrence upward.
        for i in range(r - 1, -1, -1):
            z[i] = -plus.ell[i] * z[i + 1]
            if z[i] == 0.0 and z[i + 1] == 0.0:
                break
        # Progressive recurrence downward.
        for i in range(r, n - 1):
            z[i + 1] = -uminus[i] * z[i]
        nrm = float(np.linalg.norm(z))
        if not np.isfinite(nrm) or nrm == 0.0:
            # Degenerate recurrence: bail out with the best so far.
            break
        resid = abs(gamma[r]) / nrm
        cand = (resid, z / nrm, lam)
        if best is None or cand[0] < best[0]:
            best = cand
        # Accept when the residual is tiny against the gap (the MRRR
        # criterion ‖r‖ = O(nε·gap) guarantees orthogonality), floored
        # at the achievable relative accuracy.
        if resid <= max(32.0 * n * _EPS * gap, 8.0 * _EPS * abs(lam)):
            break
        # Rayleigh-quotient step.
        delta = gamma[r] / (nrm * nrm)
        if not np.isfinite(delta) or abs(delta) > max(abs(lam), gap):
            break
        lam = lam + delta
        steps += 1
    resid, z, lam_out = best
    return z, lam_out, steps


def _dstqds_batch(rep: LDL, lams: np.ndarray):
    """Stationary qds transform vectorized over shifts (rows loop, SIMD
    over the m eigenvalues)."""
    d, ell = rep.d, rep.ell
    n = d.shape[0]
    m = lams.shape[0]
    tiny = np.finfo(np.float64).tiny
    lplus = np.empty((max(0, n - 1), m))
    svec = np.empty((n, m))
    s = -lams.copy()
    for i in range(n - 1):
        svec[i] = s
        dplus = d[i] + s
        dplus = np.where(dplus == 0.0, tiny, dplus)
        lplus[i] = (d[i] * ell[i]) / dplus
        s = lplus[i] * ell[i] * s - lams
    svec[n - 1] = s
    return lplus, svec


def _dqds_batch(rep: LDL, lams: np.ndarray):
    """Progressive qds transform vectorized over shifts."""
    d, ell = rep.d, rep.ell
    n = d.shape[0]
    m = lams.shape[0]
    tiny = np.finfo(np.float64).tiny
    uminus = np.empty((max(0, n - 1), m))
    pvec = np.empty((n, m))
    p = d[n - 1] - lams
    pvec[n - 1] = p
    for i in range(n - 2, -1, -1):
        dminus = d[i] * ell[i] * ell[i] + p
        dminus = np.where(dminus == 0.0, tiny, dminus)
        t = d[i] / dminus
        uminus[i] = ell[i] * t
        p = p * t - lams
        pvec[i] = p
    return uminus, pvec


def _zvec_batch(lplus: np.ndarray, uminus: np.ndarray, r: np.ndarray,
                n: int, m: int) -> np.ndarray:
    """Twisted eigenvector recurrences, SIMD across columns via masking."""
    z = np.zeros((n, m))
    z[r, np.arange(m)] = 1.0
    for i in range(n - 2, -1, -1):       # stationary part, above the twist
        mask = i < r
        z[i] = np.where(mask, -lplus[i] * z[i + 1], z[i])
    for i in range(n - 1):               # progressive part, below the twist
        mask = i >= r
        z[i + 1] = np.where(mask, -uminus[i] * z[i], z[i + 1])
    return z


def getvec_batch(rep: LDL, lams: np.ndarray, gaps: np.ndarray,
                 max_rqi: int = 8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twisted-factorization eigenvectors for a batch of eigenvalues.

    One O(n) pass per recurrence, SIMD across the m eigenvalues (the
    per-λ twist indices are handled by masking).  A vectorized
    Rayleigh-quotient loop sharpens every eigenvalue until its residual
    |γ_r|/‖z‖ passes the MRRR acceptance test — this replaces a
    final-precision bisection and typically converges in 1–3 steps from
    moderately accurate inputs.

    Returns ``(Z, lam_refined, resid)`` with normalized columns.
    """
    n = rep.n
    lams = np.array(lams, dtype=np.float64, copy=True)
    gaps = np.asarray(gaps, dtype=np.float64)
    m = lams.shape[0]
    if n == 1:
        return np.ones((1, m)), rep.d[:1].repeat(m), np.zeros(m)
    cols = np.arange(m)
    best_z = np.zeros((n, m))
    best_resid = np.full(m, np.inf)
    best_lam = lams.copy()
    active = np.ones(m, dtype=bool)
    # MRRR acceptance: residual small against the GAP (orthogonality is
    # resid/gap); floored at the relative accuracy achievable w.r.t. the
    # representation's own scale.
    tol = np.maximum(32.0 * n * _EPS * gaps, 8.0 * _EPS * np.abs(lams))
    for it in range(max_rqi):
        lplus, svec = _dstqds_batch(rep, lams)
        uminus, pvec = _dqds_batch(rep, lams)
        gamma = svec + pvec + lams[None, :]
        r = np.argmin(np.abs(gamma), axis=0)
        z = _zvec_batch(lplus, uminus, r, n, m)
        nrm2 = np.sum(z * z, axis=0)
        nrm = np.sqrt(nrm2)
        ok = np.isfinite(nrm) & (nrm > 0.0)
        resid = np.where(ok, np.abs(gamma[r, cols]) / np.where(ok, nrm, 1.0),
                         np.inf)
        improved = active & ok & (resid < best_resid)
        best_resid = np.where(improved, resid, best_resid)
        best_lam = np.where(improved, lams, best_lam)
        best_z[:, improved] = z[:, improved] / nrm[improved][None, :]
        active &= resid > tol
        if not np.any(active):
            break
        # Rayleigh-quotient step; reject wild jumps (would leave the
        # eigenvalue's own interval).
        delta = gamma[r, cols] / np.where(ok, nrm2, 1.0)
        wild = (~np.isfinite(delta)) | (np.abs(delta) >
                                        np.maximum(np.abs(lams), gaps))
        active &= ~wild
        lams = np.where(active, lams + delta, lams)
    # Scalar rescue for columns that never met the tolerance.
    for j in np.where(best_resid > tol)[0]:
        zj, lam_j, _ = getvec(rep, float(best_lam[j]), float(gaps[j]))
        best_z[:, j] = zj
        best_lam[j] = lam_j
        best_resid[j] = 0.0
    return best_z, best_lam, best_resid
