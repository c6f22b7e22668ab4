"""LDLᵀ representations and differential qds transforms (MRRR core).

A *relatively robust representation* (RRR) stores ``T − σI = L D Lᵀ``
through the pivots ``D`` and multipliers ``L``; small relative changes
in (D, L) cause small relative changes in the eigenvalues the RRR is
responsible for.  New representations are derived by the differential
stationary (dstqds) and progressive (dqds) transforms, which also yield
the twisted factorization data used for eigenvector computation
(Dhillon 1997; LAPACK dlarrf/dlar1v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LDL", "ldl_factor", "dstqds", "dqds_progressive", "twist_data"]

_TINY = np.finfo(np.float64).tiny


@dataclass
class LDL:
    """Representation ``L D Lᵀ = T − sigma·I`` (sigma accumulated from
    the original matrix).  ``d`` are the n pivots, ``ell`` the n−1
    multipliers of L."""

    d: np.ndarray
    ell: np.ndarray
    sigma: float

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def element_growth(self) -> float:
        """max|D| relative to the representation scale (quality check)."""
        scale = float(np.max(np.abs(self.d))) or 1.0
        off = float(np.max(np.abs(self.ell * self.d[:-1]))) if self.ell.size else 0.0
        return max(scale, off) / max(_TINY, float(np.min(np.abs(self.d))))

    def to_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize (d, e) of LDLᵀ (tests/diagnostics)."""
        n = self.n
        d = np.empty(n)
        e = np.empty(max(0, n - 1))
        d[0] = self.d[0]
        for i in range(n - 1):
            e[i] = self.ell[i] * self.d[i]
            d[i + 1] = self.d[i + 1] + self.ell[i] * self.ell[i] * self.d[i]
        return d, e


def ldl_factor(d: np.ndarray, e: np.ndarray, sigma: float) -> LDL:
    """Factor ``T − σI = L D Lᵀ`` for tridiagonal (d, e)."""
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.shape[0]
    dd = np.empty(n)
    ll = np.empty(max(0, n - 1))
    dd[0] = d[0] - sigma
    for i in range(n - 1):
        piv = dd[i] if dd[i] != 0.0 else _TINY
        ll[i] = e[i] / piv
        dd[i + 1] = (d[i + 1] - sigma) - ll[i] * e[i]
    return LDL(dd, ll, sigma)


def dstqds(rep: LDL, sigma: float) -> tuple[LDL, np.ndarray]:
    """Differential stationary qds: ``L⁺D⁺L⁺ᵀ = LDLᵀ − σI``.

    Returns the new representation (with accumulated shift) and the
    auxiliary ``s`` vector (``s[i]`` enters the twisted factorization).
    """
    d, ell = rep.d, rep.ell
    n = d.shape[0]
    dplus = np.empty(n)
    lplus = np.empty(max(0, n - 1))
    svec = np.empty(n)
    s = -sigma
    for i in range(n - 1):
        svec[i] = s
        dplus[i] = d[i] + s
        piv = dplus[i] if dplus[i] != 0.0 else _TINY
        lplus[i] = (d[i] * ell[i]) / piv
        s = lplus[i] * ell[i] * s - sigma
    svec[n - 1] = s
    dplus[n - 1] = d[n - 1] + s
    return LDL(dplus, lplus, rep.sigma + sigma), svec


def dqds_progressive(rep: LDL, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Differential progressive qds: ``U D⁻ Uᵀ = LDLᵀ − σI`` from the
    bottom up.  Returns (dminus, uminus, pvec); ``pvec[i]`` enters the
    twisted factorization."""
    d, ell = rep.d, rep.ell
    n = d.shape[0]
    dminus = np.empty(n)
    uminus = np.empty(max(0, n - 1))
    pvec = np.empty(n)
    p = d[n - 1] - sigma
    pvec[n - 1] = p
    for i in range(n - 2, -1, -1):
        dminus[i + 1] = d[i] * ell[i] * ell[i] + p
        piv = dminus[i + 1] if dminus[i + 1] != 0.0 else _TINY
        t = d[i] / piv
        uminus[i] = ell[i] * t
        p = p * t - sigma
        pvec[i] = p
    dminus[0] = p
    return dminus, uminus, pvec


def twist_data(rep: LDL, lam: float):
    """Both qds transforms at λ plus the twist residuals γ.

    ``γ_r = s_r + p_r + λ`` is the (r, r) pivot of the twisted
    factorization ``N_r Δ_r N_rᵀ = LDLᵀ − λI`` (checks: r = 1 gives the
    progressive pivot p_1, r = n the stationary pivot d_n + s_n); the
    eigenvector solve picks the r minimizing |γ_r|.
    """
    plus, svec = dstqds(rep, lam)
    dminus, uminus, pvec = dqds_progressive(rep, lam)
    gamma = svec + pvec + lam
    return plus, dminus, uminus, gamma
