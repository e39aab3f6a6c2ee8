"""The presorted gbm split search against a per-node argsort reference.

``GradientBoosting`` sorts every column once per fit and hands each child
node its rows by a stable partition of the parent's column orders. The
reference below re-sorts the node's rows at every node instead, as the
search did before presorting. Both must grow bit-identical trees, ties
included, so the inputs here are heavily tied.
"""
from __future__ import annotations

import heapq
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.classifiers import GradientBoosting
from vrident.classifiers import boosting
from vrident.classifiers.boosting import _EPS, _grow_regression_tree, _presort
from vrident.classifiers.trees import FlatTree, _TreeBuffers


def _reference_best_split(Xn, g, h, min_leaf):
    n = Xn.shape[0]
    if n < 2 * min_leaf:
        return None
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    gl = np.cumsum(g[order], axis=0)[:-1]
    hl = np.cumsum(h[order], axis=0)[:-1]
    g_tot = g.sum()
    h_tot = h.sum()
    gr = g_tot - gl
    hr = h_tot - hl
    gain = gl**2 / (hl + _EPS) + gr**2 / (hr + _EPS) - g_tot**2 / (h_tot + _EPS)
    n_left = np.arange(1, n)[:, None]
    valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & ((n - n_left) >= min_leaf)
    gain[~valid] = -np.inf
    best = gain.max()
    if not (best > 0):
        return None
    cand = np.argwhere(gain == best)
    boundary, feat = cand[np.lexsort((cand[:, 0], cand[:, 1]))][0]
    thr = 0.5 * (xs[boundary, feat] + xs[boundary + 1, feat])
    return float(best), int(feat), float(thr)


def _reference_tree(X, g, h, max_leaves, min_leaf) -> FlatTree:
    buf = _TreeBuffers()
    root = buf.alloc()
    counter = 0
    heap = []

    def push(nid, idx):
        nonlocal counter
        split = _reference_best_split(X[idx], g[idx], h[idx], min_leaf)
        if split is not None:
            gain, feat, thr = split
            heapq.heappush(heap, (-gain, counter, nid, idx, feat, thr))
            counter += 1

    all_idx = np.arange(X.shape[0])
    leaves = {root: all_idx}
    push(root, all_idx)
    while heap and len(leaves) < max_leaves:
        _, _, nid, idx, feat, thr = heapq.heappop(heap)
        mask = X[idx, feat] <= thr
        buf.feature[nid] = feat
        buf.threshold[nid] = thr
        lid = buf.alloc()
        rid = buf.alloc()
        buf.left[nid] = lid
        buf.right[nid] = rid
        del leaves[nid]
        for child, cidx in ((lid, idx[mask]), (rid, idx[~mask])):
            leaves[child] = cidx
            push(child, cidx)
    for nid, idx in leaves.items():
        buf.value[nid] = -g[idx].sum() / (h[idx].sum() + _EPS)
    return buf.pack(1)


def _assert_same_tree(a: FlatTree, b: FlatTree) -> None:
    for field in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _tied_matrix(rng, n, d, n_levels):
    """n rows over d columns, each column drawn from n_levels values, with
    rows resampled from a smaller pool so that whole rows repeat."""
    levels = rng.normal(size=(n_levels, d))
    pool = levels[rng.integers(n_levels, size=(max(1, n // 2), d)), np.arange(d)]
    return pool[rng.integers(pool.shape[0], size=n)]


tree_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(1, 48),
        "d": st.integers(1, 6),
        "n_levels": st.integers(2, 4),
        "min_leaf": st.integers(1, 6),
        "max_leaves": st.integers(2, 31),
    }
)


@settings(max_examples=150, deadline=None)
@given(tree_cases)
def test_presorted_tree_matches_per_node_argsort(case):
    rng = np.random.default_rng(case["seed"])
    X = _tied_matrix(rng, case["n"], case["d"], case["n_levels"])
    g = rng.normal(size=case["n"])
    h = rng.uniform(0.0, 0.25, size=case["n"])
    order, xs = _presort(X)
    tree = _grow_regression_tree(X, order, xs, g, h, case["max_leaves"], case["min_leaf"])
    _assert_same_tree(tree, _reference_tree(X, g, h, case["max_leaves"], case["min_leaf"]))


def _reference_grow(X, order, xs, g, h, max_leaves, min_leaf):
    return _reference_tree(X, g, h, max_leaves, min_leaf)


@settings(max_examples=40, deadline=None)
@given(tree_cases, st.integers(2, 4), st.integers(1, 4))
def test_presorted_fit_matches_per_node_argsort(case, n_classes, n_rounds):
    rng = np.random.default_rng(case["seed"])
    n = max(case["n"], 2)
    X = _tied_matrix(rng, n, case["d"], case["n_levels"])
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    params = dict(n_rounds=n_rounds, max_leaves=case["max_leaves"], min_leaf=case["min_leaf"])
    fast = GradientBoosting(**params).fit(X, y)
    with mock.patch.object(boosting, "_grow_regression_tree", _reference_grow):
        slow = GradientBoosting(**params).fit(X, y)
    assert fast.train_loss_ == slow.train_loss_
    for fast_round, slow_round in zip(fast.trees_, slow.trees_, strict=True):
        for a, b in zip(fast_round, slow_round, strict=True):
            _assert_same_tree(a, b)
