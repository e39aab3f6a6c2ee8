"""The forest split search against the per-node search it replaced.

``RandomForest`` and ``ExtraTrees`` grow all their trees in lock step and
search each step's nodes together, in padded blocks, through the boundary
rule and Gini cost that ``trees.py`` shares with gradient boosting. The
reference below is the earlier grower, kept as it was: it grows one tree
at a time, gathers every column of the node's rows, ranks tied exhaustive
splits by a lexsort and scores the random search on its own. Both must grow
identical trees, ties included, so the inputs here are heavily tied.
"""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gbm_presort import _assert_same_tree, _tied_matrix

from vrident.classifiers import ExtraTrees, RandomForest, save_model
from vrident.classifiers import trees
from vrident.classifiers.trees import _TreeBuffers
from vrident.core import philox_stream


def _reference_split_exhaustive(Xn, yn, n_classes, feats):
    """Lowest weighted child Gini over all midpoints of the candidates.

    Returns (original feature, threshold, left mask over node rows) or None
    when every candidate is constant within the node.
    """
    n = Xn.shape[0]
    Xs = Xn[:, feats]
    order = np.argsort(Xs, axis=0, kind="stable")
    Xsorted = np.take_along_axis(Xs, order, axis=0)
    counts_sorted = yn[order][:, :, None] == np.arange(n_classes)
    cum = np.cumsum(counts_sorted, axis=0, dtype=np.float64)
    left_counts = cum[:-1]
    right_counts = cum[-1][None, :, :] - left_counts
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    sq_left = np.einsum("ikc,ikc->ik", left_counts, left_counts)
    sq_right = np.einsum("ikc,ikc->ik", right_counts, right_counts)
    # weighted Gini: n_side * (1 - sum p^2) = n_side - sq/n_side
    w = (n_left - sq_left / n_left) + (n_right - sq_right / n_right)
    w[Xsorted[1:] <= Xsorted[:-1]] = np.inf
    best = w.min()
    if not np.isfinite(best):
        return None
    cand = np.argwhere(w == best)
    # ties: lowest feature index (feats ascending), then lowest threshold
    boundary, j = cand[np.lexsort((cand[:, 0], cand[:, 1]))][0]
    thr = 0.5 * (Xsorted[boundary, j] + Xsorted[boundary + 1, j])
    feat = int(feats[j])
    return feat, float(thr), Xn[:, feat] <= thr


def _reference_split_random(Xn, yn, n_classes, feats, rng):
    """One uniform threshold in [min, max) per candidate, best by Gini."""
    Xs = Xn[:, feats]
    lo = Xs.min(axis=0)
    hi = Xs.max(axis=0)
    spread = hi > lo
    if not spread.any():
        return None
    thr = rng.uniform(lo, hi)
    mask = Xs <= thr
    onehot = (yn[:, None] == np.arange(n_classes)).astype(np.float64)
    c_left = mask.T.astype(np.float64) @ onehot
    c_right = onehot.sum(axis=0)[None, :] - c_left
    n_left = c_left.sum(axis=1)
    n_right = c_right.sum(axis=1)
    valid = spread & (n_left > 0) & (n_right > 0)
    if not valid.any():
        return None
    safe_l = np.maximum(n_left, 1.0)
    safe_r = np.maximum(n_right, 1.0)
    w = (n_left - (c_left**2).sum(axis=1) / safe_l) + (
        n_right - (c_right**2).sum(axis=1) / safe_r
    )
    w = np.where(valid, w, np.inf)
    j = int(np.argmin(w))  # first minimum: lowest feature index
    return int(feats[j]), float(thr[j]), mask[:, j]


def _reference_grow_tree(
    X, y_idx, n_classes, rng, sample_idx, max_features, randomized, min_samples_split=2
):
    buf = _TreeBuffers()
    stack = [(buf.alloc(), sample_idx)]
    d = X.shape[1]
    k = min(max_features, d)
    while stack:
        nid, idx = stack.pop()
        yn = y_idx[idx]
        counts = np.bincount(yn, minlength=n_classes).astype(np.float64)
        if idx.size < min_samples_split or counts.max() == idx.size:
            buf.value[nid] = counts / idx.size
            continue
        feats = np.sort(rng.choice(d, size=k, replace=False))
        Xn = X[idx]
        if randomized:
            split = _reference_split_random(Xn, yn, n_classes, feats, rng)
        else:
            split = _reference_split_exhaustive(Xn, yn, n_classes, feats)
        if split is None:
            buf.value[nid] = counts / idx.size
            continue
        feat, thr, mask = split
        buf.feature[nid] = feat
        buf.threshold[nid] = thr
        lid = buf.alloc()
        rid = buf.alloc()
        buf.left[nid] = lid
        buf.right[nid] = rid
        stack.append((rid, idx[~mask]))
        stack.append((lid, idx[mask]))
    return buf.pack(n_classes)


def _tied_data(rng, n, d, n_levels, n_classes):
    """Heavily tied rows (see ``_tied_matrix``) and labels in which every
    class appears at least once."""
    X = _tied_matrix(rng, n, d, n_levels)
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    return X, y


node_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n_classes": st.integers(2, 5),
        "n": st.integers(2, 40),
        "d": st.integers(1, 12),
        "n_levels": st.integers(2, 4),
        "k": st.integers(1, 12),
    }
)


@settings(max_examples=300, deadline=None)
@given(node_cases)
def test_node_searches_match_the_reference(case):
    rng = np.random.default_rng(case["seed"])
    n_classes = case["n_classes"]
    X, y = _tied_data(rng, case["n"], case["d"], case["n_levels"], n_classes)
    feats = np.sort(rng.choice(case["d"], size=min(case["k"], case["d"]), replace=False))
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    # a block of one node: (node, candidate, row) columns, (node, row) labels
    Xb = X[:, feats].T[None]
    draw = int(rng.integers(2**31))
    for search, reference in (
        (trees._search_exhaustive, lambda: _reference_split_exhaustive(X, y, n_classes, feats)),
        (
            trees._search_random,
            lambda: _reference_split_random(X, y, n_classes, feats, np.random.default_rng(draw)),
        ),
    ):
        rngs = [np.random.default_rng(draw)]
        ok, j, thr = search(Xb, y[None], counts[None], np.array([case["n"]]), rngs)
        want = reference()
        if want is None:
            assert not ok[0]
        else:
            assert ok[0]
            assert (int(feats[j[0]]), float(thr[0])) == want[:2]


boundary_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "nodes": st.lists(st.integers(1, 3), max_size=2),  # leading node axes
        "d": st.integers(1, 4),
        "m": st.integers(1, 6),
        "lo": st.integers(0, 3),
        "tail": st.integers(0, 2),  # sorted values past the last boundary
        "n_levels": st.integers(1, 3),  # one level: no valid boundary at all
        "transposed": st.booleans(),  # gbm hands in a transposed view
    }
)


@settings(max_examples=300, deadline=None)
@given(boundary_cases)
def test_best_boundary_matches_a_scan_in_feature_then_boundary_order(case):
    rng = np.random.default_rng(case["seed"])
    lead, d, m, lo = tuple(case["nodes"]), case["d"], case["m"], case["lo"]
    width = lo + m + 1 + case["tail"]
    xs = np.sort(rng.integers(0, case["n_levels"], size=(*lead, d, width)), axis=-1) * 0.5
    # few distinct scores, so that ties are common
    score = rng.choice([-np.inf, -1.0, 0.0, 0.25, 2.0], size=(*lead, d, m))
    if case["transposed"]:
        score = np.ascontiguousarray(score.swapaxes(-1, -2)).swapaxes(-1, -2)
    given_score = score.copy()
    best, f, thr = trees._best_boundary(score, xs, lo)
    np.testing.assert_array_equal(score, given_score)
    for node in np.ndindex(*lead):
        x, s = xs[node], score[node]
        # the first strictly better boundary wins; none at all leaves (0, 0) at -inf
        top, at = -np.inf, (0, 0)
        for fi in range(d):
            for j in range(m):
                if x[fi, lo + j] < x[fi, lo + j + 1] and s[fi, j] > top:
                    top, at = s[fi, j], (fi, j)
        fi, j = at
        assert (best[node], f[node]) == (top, fi)
        assert thr[node] == 0.5 * (x[fi, lo + j] + x[fi, lo + j + 1])


forest_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "model": st.sampled_from([(RandomForest, True), (RandomForest, False), (ExtraTrees, False)]),
        "n_classes": st.integers(2, 5),
        "rows_per_class": st.integers(1, 12),
        "d": st.integers(1, 12),
        "n_levels": st.integers(2, 4),
        "max_features": st.none() | st.integers(1, 12),
        "n_trees": st.integers(1, 12),
    }
)


def _reference_forest(X, y, n_classes, cls, params):
    """Tree t of ``cls(**params)``, grown alone by the reference grower from
    the stream ``philox_stream(seed, (t,))``, bootstrap draw first."""
    n, d = X.shape
    k = params.get("max_features", math.ceil(math.sqrt(d)))
    bootstrap = params.get("bootstrap", cls is RandomForest)
    grown = []
    for t in range(params["n_trees"]):
        rng = philox_stream(params["seed"], (t,))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        grown.append(_reference_grow_tree(X, y, n_classes, rng, idx, k, cls is ExtraTrees))
    return grown


def _assert_forest_matches_the_reference(X, y, n_classes, cls, params):
    """Every tree equals the reference's, whatever the block bound: one
    node per block, the default, and every step in one block."""
    reference = _reference_forest(X, y, n_classes, cls, params)
    for cells in (1, trees._GROW_CELLS, 1 << 40):
        with mock.patch.object(trees, "_GROW_CELLS", cells):
            fast = cls(**params).fit(X, y)
        for a, b in zip(fast.trees_, reference, strict=True):
            _assert_same_tree(a, b)
    return fast


@settings(max_examples=200, deadline=None)
@given(forest_cases)
def test_forest_trees_match_the_reference_grower(case):
    rng = np.random.default_rng(case["seed"])
    d = case["d"]
    n = case["n_classes"] * case["rows_per_class"]
    X, y = _tied_data(rng, n, d, case["n_levels"], case["n_classes"])
    cls, bootstrap = case["model"]
    params = dict(n_trees=case["n_trees"], seed=case["seed"])
    if case["max_features"] is not None:  # None is the default ceil(sqrt(d))
        params["max_features"] = min(case["max_features"], d)
    if cls is RandomForest:
        params["bootstrap"] = bootstrap
    _assert_forest_matches_the_reference(X, y, case["n_classes"], cls, params)


def test_trees_that_finish_early_leave_the_others_intact():
    """Two rows of class 1 among 40: some bootstrap samples miss both, so
    their tree is one pure leaf that never joins the lock step, while
    another tree of the forest splits 8 nodes, one per step."""
    rng = np.random.default_rng(4)
    X = _tied_matrix(rng, 40, 6, 3)
    y = np.zeros(40, dtype=np.int64)
    y[[7, 23]] = 1
    params = dict(n_trees=12, seed=15, bootstrap=True, max_features=2)
    forest = _assert_forest_matches_the_reference(X, y, 2, RandomForest, params)
    sizes = [t.feature.shape[0] for t in forest.trees_]
    assert min(sizes) == 1
    assert max(sizes) >= 17


@pytest.mark.parametrize("cls", [RandomForest, ExtraTrees])
def test_saved_forest_bytes_do_not_depend_on_the_block_bound(tmp_path, cls):
    X, y = _tied_data(np.random.default_rng(5), 60, 8, 3, 4)
    saved = set()
    for cells in (1, 1000, trees._GROW_CELLS, 1 << 40):
        path = tmp_path / f"{cells}.json"
        with mock.patch.object(trees, "_GROW_CELLS", cells):
            save_model(cls(n_trees=12, seed=3).fit(X, y), str(path))
        saved.add(path.read_bytes())
    assert len(saved) == 1
