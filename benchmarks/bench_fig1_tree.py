"""F1 — Fig. 1: the D&C merging tree.

Reproduces the partitioning of the running example (n=1000, minimal
partition size 300 → four leaves of 250, two merge levels) and prints
the tree for a sweep of sizes."""

from repro.core import build_tree
from common import save_table


def describe(n, minpart):
    t = build_tree(n, minpart)
    leaves = [leaf.n for leaf in t.leaves()]
    levels = t.merges_by_level()
    return (f"n={n:<6d} minpart={minpart:<5d} leaves={leaves} "
            f"merge-levels={[len(lev) for lev in levels]}")


def test_fig1_merging_tree(benchmark):
    lines = benchmark.pedantic(
        lambda: [describe(1000, 300), describe(1000, 64),
                 describe(4096, 64), describe(25000, 300)],
        rounds=1, iterations=1)
    save_table("fig1_tree", "\n".join(lines))

    t = build_tree(1000, 300)
    assert [leaf.n for leaf in t.leaves()] == [250, 250, 250, 250]
    assert t.height == 2
    # Bottom-up merge order: two 500-merges then the root 1000-merge.
    sizes = [[nd.n for nd in lev] for lev in t.merges_by_level()]
    assert sizes == [[500, 500], [1000]]
