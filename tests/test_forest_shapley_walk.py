"""The forest Shapley walk against the row-materializing walk.

For random forests and extra trees, ``shapley_attribution`` gets the model's
probability at every step of every permutation walk from
``RandomForest.walk_proba``, which descends a block of trees at a time, once
per (tree, walk, count of flipped features where the instance and the
baseline part ways), without building the walked rows. The reference below
builds the rows and scores them with ``predict_proba``, as every walk did
before. Both must agree bit for bit, whatever the blocks: the walk values,
the per-feature sums and sums of squares of the marginal contributions, and
v(instance). ``_tree_walk`` is the per-tree walk the forests took before
their trees were walked together; its leaves are checked against a
per-row ``hand_walk`` of the walked rows.
"""
from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrident.classifiers import ExtraTrees, RandomForest, trees
from vrident.importance import _marginal_sums, _step_ranks, _walk_values, shapley_attribution

from tree_fixtures import hand_leaves


def _reference_walk(model, col, x, baseline, v_base, perms, chunk_perms):
    """(v, sums, sumsq, v_full) from predict_proba on the walked rows."""
    d = x.shape[0]
    n_perm = perms.shape[0]
    values, blocks = [], []
    v_full = None
    steps = np.arange(d)
    for start in range(0, n_perm, chunk_perms):
        P = perms[start : start + chunk_perms]
        b = P.shape[0]
        row_ids = np.arange(b)[:, None]
        rank = np.empty_like(P)
        rank[row_ids, P] = steps[None, :]
        mask = rank[:, None, :] <= steps[None, :, None]
        rows = np.where(mask, x[None, None, :], baseline[None, None, :])
        v = model.predict_proba(rows.reshape(b * d, d))[:, col].reshape(b, d)
        if v_full is None:
            v_full = float(v[0, -1])
        prev = np.concatenate([np.full((b, 1), v_base), v[:, :-1]], axis=1)
        marg_steps = v - prev
        marg = np.empty_like(marg_steps)
        marg[row_ids, P] = marg_steps
        values.append(v)
        blocks.append(marg)
    marg_all = np.concatenate(blocks, axis=0)
    return np.concatenate(values, axis=0), marg_all.sum(axis=0), (marg_all**2).sum(axis=0), v_full


def _tree_walk(tree, x, baseline, rank):
    """(leaves, held) of one tree along the walks ``rank``, walk by walk in
    step order: a walk stays in ``leaves[i]`` for ``held[i]`` consecutive
    steps. Only the m features of nodes where x and the baseline part ways
    can change the leaf, so the tree is descended once per (walk, count of
    those features flipped)."""
    n_walks, d = rank.shape
    split = tree.feature >= 0
    feat = np.where(split, tree.feature, 0)
    x_left = x[feat] <= tree.threshold
    b_left = baseline[feat] <= tree.threshold
    parted = np.unique(tree.feature[split & (x_left != b_left)])
    cut = np.concatenate([np.sort(rank[:, parted], axis=1), np.full((n_walks, 1), d)], axis=1)
    held = np.diff(cut, axis=1, prepend=0).ravel()
    walk = np.repeat(np.arange(n_walks), cut.shape[1])
    cut = cut.ravel()
    pos = np.zeros(cut.shape[0], dtype=np.int64)
    active = np.flatnonzero(split[pos])
    while active.size:
        node = pos[active]
        flipped = rank[walk[active], tree.feature[node]] < cut[active]
        go_left = np.where(flipped, x_left[node], b_left[node])
        pos[active] = np.where(go_left, tree.left[node], tree.right[node])
        active = active[split[pos[active]]]
    return pos, held


class RowsOnly:
    """A forest seen only through predict_proba, so the walk builds rows."""

    def __init__(self, model) -> None:
        self.model = model
        self.labels_ = model.labels_

    def predict_proba(self, X):
        return self.model.predict_proba(X)


def _fit_forest(rng, kind, n_labels, d, n_levels, n_trees):
    """A small forest on heavily tied data; one level makes every column
    constant, so every tree is a single leaf."""
    n = n_labels * int(rng.integers(2, 6))
    levels = rng.normal(size=(n_levels, d))
    X = levels[rng.integers(n_levels, size=(n, d)), np.arange(d)]
    y = np.arange(n) % n_labels
    rng.shuffle(y)
    cls = RandomForest if kind == "random_forest" else ExtraTrees
    return cls(n_trees=n_trees, seed=int(rng.integers(2**31))).fit(X, y), X


def _walk_inputs(rng, model, X):
    """An instance and a baseline with features where the two are equal and
    values lying exactly on a split threshold."""
    d = X.shape[1]
    baseline = X.mean(axis=0)
    x = X[rng.integers(X.shape[0])] + rng.normal(scale=0.5, size=d) * rng.integers(0, 2, size=d)
    same = rng.random(d) < 0.3
    x[same] = baseline[same]
    nodes = [
        (t.feature[i], t.threshold[i]) for t in model.trees_ for i in np.flatnonzero(t.feature >= 0)
    ]
    for k in rng.permutation(len(nodes))[: int(rng.integers(0, 4))]:
        f, thr = nodes[k]
        if rng.random() < 0.7:
            x[f] = thr
        else:
            baseline[f] = thr
    return x, baseline


walk_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "kind": st.sampled_from(["random_forest", "extra_trees"]),
        "n_labels": st.integers(2, 5),
        "d": st.integers(1, 12),
        "n_levels": st.integers(1, 4),
        "n_trees": st.integers(1, 6),
        "n_perm": st.integers(1, 24),
        "chunk_perms": st.integers(1, 8),
        "exact": st.booleans(),
        # None keeps the module's bound; small ones split the forest into blocks
        "walk_cells": st.sampled_from([None, 1, 7, 40, 200]),
        "x_is_baseline": st.booleans(),
    }
)


def _case(**changes):
    base = dict(
        seed=5, kind="extra_trees", n_labels=3, d=6, n_levels=3, n_trees=6, n_perm=9,
        chunk_perms=4, exact=False, walk_cells=None, x_is_baseline=False,
    )
    return {**base, **changes}


@settings(max_examples=120, deadline=None)
@given(walk_cases)
@example(_case(walk_cells=1))  # a block per tree
@example(_case(kind="random_forest", walk_cells=40))  # several trees per block
@example(_case(n_levels=1, walk_cells=7))  # every tree a single leaf
@example(_case(x_is_baseline=True, walk_cells=40))  # no tree parts
@example(_case(d=1, n_perm=3, walk_cells=1))
@example(_case(d=1, n_levels=2, kind="random_forest"))
def test_forest_walk_matches_row_walk(case):
    rng = np.random.default_rng(case["seed"])
    d = case["d"]
    model, X = _fit_forest(
        rng, case["kind"], case["n_labels"], d, case["n_levels"], case["n_trees"]
    )
    x, baseline = _walk_inputs(rng, model, X)
    if case["x_is_baseline"]:
        x = baseline.copy()
    if case["exact"] and d <= 7:
        perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
    else:
        perms = np.stack([rng.permutation(d) for _ in range(case["n_perm"])])
    col = int(rng.integers(case["n_labels"]))
    v_base = float(model.predict_proba(baseline[None, :])[0, col])
    chunk = case["chunk_perms"]

    ref_v, ref_sums, ref_sumsq, ref_full = _reference_walk(
        model, col, x, baseline, v_base, perms, chunk
    )
    cells = case["walk_cells"] or trees._WALK_CELLS
    with mock.patch.object(trees, "_WALK_CELLS", cells):
        v = _walk_values(model, col, x, baseline, perms, chunk)
    assert np.array_equal(v, ref_v)
    sums, sumsq, v_full = _marginal_sums(v, perms, v_base)
    assert np.array_equal(sums, ref_sums)
    assert np.array_equal(sumsq, ref_sumsq)
    assert v_full == ref_full
    # the generic walk, which the forests no longer take, still agrees
    assert np.array_equal(_walk_values(RowsOnly(model), col, x, baseline, perms, chunk), ref_v)

    rank = _step_ranks(perms)
    steps = np.arange(d)
    rows = np.where(rank[:, None, :] <= steps[None, :, None], x, baseline).reshape(-1, d)
    for tree in model.trees_:
        leaves, held = _tree_walk(tree, x, baseline, rank)
        assert np.array_equal(np.repeat(leaves, held), hand_leaves(tree, rows))


def test_walk_blocks_follow_the_cell_bound():
    """The bound sets how many blocks a walk takes, never its values."""
    rng = np.random.default_rng(3)
    model, X = _fit_forest(rng, "extra_trees", 3, 8, 4, 12)
    x, baseline = _walk_inputs(rng, model, X)
    rank = _step_ranks(np.stack([rng.permutation(8) for _ in range(5)]))
    values, blocks = [], []
    for cells in (1, 30, trees._WALK_CELLS):
        with mock.patch.object(trees, "_WALK_CELLS", cells), mock.patch.object(
            trees, "_walk_block", wraps=trees._walk_block
        ) as walk_block:
            values.append(model.walk_proba(x, baseline, rank, 1).tobytes())
        blocks.append(walk_block.call_count)
    # a block per tree (each has more cells than 1), several trees per block, one block
    assert blocks[0] == 12 and 1 < blocks[1] < 12 and blocks[2] == 1
    assert values[0] == values[1] == values[2]


def _result_arrays(result):
    return (
        result.values,
        result.per_instance,
        result.instance_rows,
        result.efficiency_gap,
        result.stderr,
    )


def test_forest_attribution_is_byte_identical_to_row_walk(monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 24))
    y = np.repeat(["u1", "u2", "u3"], 20)
    X[y == "u2", :4] += 1.5
    X_test = X[::3] + rng.normal(scale=0.3, size=(20, 24))
    y_test = y[::3]
    monkeypatch.setattr("vrident.importance._CHUNK_ROWS", 100)
    for model in (RandomForest(n_trees=15, seed=4), ExtraTrees(n_trees=25, seed=4)):
        model.fit(X, y)
        kwargs = dict(n_permutations=9, seed=2, max_per_label=3)
        fast = shapley_attribution(model, X_test, y_test, X.mean(axis=0), **kwargs)
        slow = shapley_attribution(RowsOnly(model), X_test, y_test, X.mean(axis=0), **kwargs)
        for a, b in zip(_result_arrays(fast), _result_arrays(slow), strict=True):
            assert a.tobytes() == b.tobytes()
        assert fast.efficiency_gap.max() <= 1e-12
