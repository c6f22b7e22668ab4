"""F2 — Fig. 2: the task DAG of the D&C tridiagonal eigensolver.

Rebuilds the exact scenario of the figure — n = 1000, minimal partition
size 300, panel size nb = 500 — and reports the task census, the DAG
depth and the matrix-independence property."""

import numpy as np

from repro.core import DCContext, DCOptions, submit_dc
from repro.runtime import TaskGraph
from common import matrix, save_table


def build(d, e):
    g = TaskGraph()
    ctx = DCContext(d, e, DCOptions(minpart=300, nb=500))
    submit_dc(g, ctx)
    return g


def test_fig2_dag_structure(benchmark):
    d, e = matrix(6, 1000)
    g = benchmark.pedantic(build, args=(d, e), rounds=1, iterations=1)

    counts = g.kernel_counts()
    levels = g.levels()
    rows = [f"tasks={g.n_tasks}  edges={g.n_edges}  "
            f"dag-depth={len(levels)}",
            f"{'kernel':<20s} {'tasks':>6s}"]
    for k in sorted(counts):
        rows.append(f"{k:<20s} {counts[k]:>6d}")
    rows.append("")
    rows.append("tasks per DAG level (Fig. 2 rows): "
                + str([len(lev) for lev in levels]))
    save_table("fig2_dag", "\n".join(rows))

    # Figure census: 4 leaves, 3 merges, root has two panels of 500.
    assert counts["STEDC"] == 4
    assert counts["Compute_deflation"] == 3
    assert counts["LAED4"] == 4        # 1 + 1 + 2 panels
    assert counts["UpdateVect"] == 4
    g.validate_acyclic()


def test_fig2_dag_matrix_independent(benchmark):
    def build_two():
        d1, e1 = matrix(6, 1000)
        d2 = np.ones(1000)
        e2 = np.full(999, 1e-15)
        return build(d1, e1), build(d2, e2)

    g1, g2 = benchmark.pedantic(build_two, rounds=1, iterations=1)
    assert [t.name for t in g1.tasks] == [t.name for t in g2.tasks]
    assert g1.n_edges == g2.n_edges
