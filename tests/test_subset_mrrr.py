"""Tests for MRRR subset computation (paper Sec. I: MRRR's main asset)."""

import numpy as np
import pytest

from repro import mrrr_eigh
from repro.matrices import test_matrix as make_matrix


def tridiag(d, e):
    return np.diag(np.asarray(d, float)) + np.diag(e, 1) + np.diag(e, -1)


def check_subset(d, e, sub, tol=1e-11):
    n = len(d)
    T = tridiag(d, e)
    lam, V = mrrr_eigh(d, e, subset=sub)
    assert lam.shape == (len(sub),)
    assert V.shape == (n, len(sub))
    scale = max(1.0, np.max(np.abs(T)))
    ref = np.linalg.eigvalsh(T)[sub]
    np.testing.assert_allclose(lam, ref, atol=tol * n * scale)
    assert np.max(np.abs(V.T @ V - np.eye(len(sub)))) < tol * n
    assert np.max(np.abs(T @ V - V * lam[None, :])) < tol * n * scale


def test_subset_random():
    rng = np.random.default_rng(0)
    n = 200
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    check_subset(d, e, np.array([0, 17, 100, 199]))


def test_subset_extreme_ends():
    rng = np.random.default_rng(1)
    n = 120
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    check_subset(d, e, np.array([0]))
    check_subset(d, e, np.array([n - 1]))


def test_subset_window():
    rng = np.random.default_rng(2)
    n = 150
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    check_subset(d, e, np.arange(50, 70))


def test_subset_inside_cluster():
    # Wanted eigenvalue living inside a tight cluster: the whole cluster
    # must still be processed for orthogonality.
    m = 20
    d = np.abs(np.arange(-m, m + 1)).astype(float)
    e = np.ones(2 * m)
    check_subset(d, e, np.array([2 * m - 1]))   # upper near-duplicate pair


def test_subset_skips_unwanted_clusters_work():
    rng = np.random.default_rng(3)
    n = 250
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    res_full = mrrr_eigh(d, e, full_result=True)
    res_sub = mrrr_eigh(d, e, subset=np.array([0, 1, 2]), full_result=True)
    # Fewer Getvec work records -> the Θ(nk) claim.
    def count(r, name):
        return sum(1 for w in r.records if w.name == name)

    assert count(res_sub, "Getvec") < count(res_full, "Getvec") / 5


def test_subset_multiblock():
    rng = np.random.default_rng(4)
    n = 160
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    e[53] = 0.0
    e[101] = 0.0
    check_subset(d, e, np.array([0, 60, 110, 159]))


def test_subset_matches_full_columns():
    rng = np.random.default_rng(5)
    n = 130
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    lam_f, V_f = mrrr_eigh(d, e)
    sub = np.array([3, 50, 90])
    lam_s, V_s = mrrr_eigh(d, e, subset=sub)
    np.testing.assert_allclose(lam_s, lam_f[sub], atol=1e-13)
    for i, j in enumerate(sub):
        dot = abs(np.dot(V_s[:, i], V_f[:, j]))
        assert dot == pytest.approx(1.0, abs=1e-10)


def test_subset_on_table3_types():
    for mtype in (3, 4, 13):
        d, e = make_matrix(mtype, 120)
        check_subset(d, e, np.array([0, 60, 119]))


def test_subset_bad_input():
    d = np.ones(5)
    e = np.zeros(4)
    with pytest.raises(ValueError):
        mrrr_eigh(d, e, subset=[5])
    with pytest.raises(ValueError):
        mrrr_eigh(d, e, subset=[])
