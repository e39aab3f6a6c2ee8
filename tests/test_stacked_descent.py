"""The stacked descent of tree ensembles against a per-row walk.

``trees._stack`` puts a list of trees' nodes into one ``FlatTree`` and
``trees._leaves`` descends blocks of (tree, row) cells through it, at most
``_WALK_CELLS`` cells per block. Forest ``predict_proba`` and gbm's fit and
scores all take their leaves from it, so every tree's leaves must be those of
``hand_walk``, and no prediction byte may depend on the block bound.
"""
from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrident.classifiers import ExtraTrees, GradientBoosting, RandomForest, trees

from tree_fixtures import hand_leaves

# None keeps the module's bound; 1 makes a block per tree, 7 a few rows per block
CELL_BOUNDS = (1, 7, None)


def _fit_trees(rng, kind, d, n_levels, n_trees):
    """The trees of a small model on tied data, and its training rows; one
    level makes every column constant, so every tree is a single leaf."""
    n = int(rng.integers(6, 16))
    levels = rng.normal(size=(n_levels, d))
    X = levels[rng.integers(n_levels, size=(n, d)), np.arange(d)]
    y = np.arange(n) % 3
    if kind == "gbm":
        model = GradientBoosting(n_rounds=n_trees, max_leaves=4, min_leaf=1).fit(X, y)
        return [tree for round_trees in model.trees_ for tree in round_trees], X
    cls = RandomForest if kind == "random_forest" else ExtraTrees
    return cls(n_trees=n_trees, seed=int(rng.integers(2**31))).fit(X, y).trees_, X


def _query(rng, fitted, X, n_rows):
    """Rows near the training rows, some values exactly on a split threshold."""
    d = X.shape[1]
    rows = X[rng.integers(X.shape[0], size=n_rows)] + rng.normal(size=(n_rows, d)) * (
        rng.random((n_rows, d)) < 0.5
    )
    nodes = [(t.feature[i], t.threshold[i]) for t in fitted for i in np.flatnonzero(t.feature >= 0)]
    for r in range(n_rows):
        if nodes and rng.random() < 0.5:
            f, thr = nodes[int(rng.integers(len(nodes)))]
            rows[r, f] = thr
    return rows


def _case(**overrides):
    case = {
        "seed": 0,
        "kind": "extra_trees",
        "d": 3,
        "n_levels": 3,
        "n_trees": 4,
        "n_rows": 5,
        "walk_cells": None,
    }
    case.update(overrides)
    return case


descent_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "kind": st.sampled_from(["random_forest", "extra_trees", "gbm"]),
        "d": st.integers(1, 6),
        "n_levels": st.integers(1, 4),
        "n_trees": st.integers(1, 5),
        "n_rows": st.sampled_from([0, 1, 2, 9, 40]),
        "walk_cells": st.sampled_from(CELL_BOUNDS),
    }
)


@settings(max_examples=150, deadline=None)
@given(descent_cases)
@example(_case(n_levels=1, walk_cells=1))  # every tree a single leaf
@example(_case(kind="gbm", n_levels=1, walk_cells=7))
@example(_case(n_rows=0, walk_cells=1))
@example(_case(n_rows=0, walk_cells=7))
@example(_case(n_rows=0))
@example(_case(n_rows=1, walk_cells=1))
@example(_case(kind="random_forest", n_rows=1, walk_cells=7))
@example(_case(kind="gbm", n_rows=1))
def test_leaves_match_hand_walk_tree_by_tree(case):
    rng = np.random.default_rng(case["seed"])
    fitted, X = _fit_trees(rng, case["kind"], case["d"], case["n_levels"], case["n_trees"])
    if case["n_levels"] == 1:
        assert all(tree.feature.shape == (1,) for tree in fitted)
    Xq = _query(rng, fitted, X, case["n_rows"])
    stack, root = trees._stack(fitted)
    cells = case["walk_cells"] or trees._WALK_CELLS
    with mock.patch.object(trees, "_WALK_CELLS", cells):
        leaves = list(trees._leaves(stack, root, Xq))
    assert len(leaves) == len(fitted)
    for tree, start, stacked in zip(fitted, root, leaves):
        assert stacked.shape == (case["n_rows"],)
        assert np.array_equal(stacked - start, hand_leaves(tree, Xq))


def test_predictions_do_not_depend_on_the_block_bound():
    """Forest probabilities and gbm's fit, scores and probabilities are the
    same bytes under every bound, and equal the per-tree sums in tree order:
    forest trees in turn, gbm round by round, then class by class."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(48, 5))
    y = np.repeat(["a", "b", "c", "d"], 12)
    Xq = np.vstack([X[:7], rng.normal(size=(16, 5))])
    forest = RandomForest(n_trees=6, seed=1).fit(X, y)
    extra = ExtraTrees(n_trees=6, seed=1).fit(X, y)
    outputs = []
    for cells in CELL_BOUNDS:
        with mock.patch.object(trees, "_WALK_CELLS", cells or trees._WALK_CELLS):
            gbm = GradientBoosting(n_rounds=4, max_leaves=5, min_leaf=2).fit(X, y)
            outputs.append(
                [
                    forest.predict_proba(Xq).tobytes(),
                    extra.predict_proba(Xq).tobytes(),
                    np.array(gbm.train_loss_).tobytes(),
                    gbm._decision_scores(Xq).tobytes(),
                    gbm.predict_proba(Xq).tobytes(),
                ]
            )
    assert outputs[0] == outputs[1] == outputs[2]

    for model in (forest, extra):
        acc = np.zeros((Xq.shape[0], 4))
        for tree in model.trees_:
            acc += tree.value[hand_leaves(tree, Xq)]
        assert model.predict_proba(Xq).tobytes() == (acc / len(model.trees_)).tobytes()
    F = np.zeros((Xq.shape[0], 4))
    for round_trees in gbm.trees_:
        for c, tree in enumerate(round_trees):
            F[:, c] += gbm.learning_rate * tree.value[hand_leaves(tree, Xq), 0]
    assert gbm._decision_scores(Xq).tobytes() == F.tobytes()

