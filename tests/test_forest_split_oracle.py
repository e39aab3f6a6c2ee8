"""The forest split search against the per-node search it replaced.

``RandomForest`` and ``ExtraTrees`` pick each split through the boundary
rule and Gini cost that ``trees.py`` shares with gradient boosting, and
gather only the candidate columns of a node. The reference below is the
earlier grower, kept as it was: it gathers every column of the node's rows,
ranks tied exhaustive splits by a lexsort and scores the random search on
its own. Both must grow identical trees, ties included, so the inputs here
are heavily tied.
"""
from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gbm_presort import _assert_same_tree, _tied_matrix

from vrident.classifiers import ExtraTrees, RandomForest
from vrident.classifiers import trees
from vrident.classifiers.trees import _TreeBuffers


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


def _reference_grow(X, y_idx, n_classes, rng, sample_idx, max_features, search):
    randomized = search is trees._best_split_random
    return _reference_grow_tree(X, y_idx, n_classes, rng, sample_idx, max_features, randomized)


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
    Xc = X[:, feats]
    draw = int(rng.integers(2**31))
    for search, reference in (
        (trees._best_split_exhaustive, lambda: _reference_split_exhaustive(X, y, n_classes, feats)),
        (
            trees._best_split_random,
            lambda: _reference_split_random(X, y, n_classes, feats, np.random.default_rng(draw)),
        ),
    ):
        got = search(Xc, y, counts, np.random.default_rng(draw))
        want = reference()
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (int(feats[got[0]]), got[1]) == want[:2]


forest_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "model": st.sampled_from([(RandomForest, True), (RandomForest, False), (ExtraTrees, False)]),
        "n_classes": st.integers(2, 5),
        "rows_per_class": st.integers(1, 12),
        "d": st.integers(1, 12),
        "n_levels": st.integers(2, 4),
        "max_features": st.none() | st.integers(1, 12),
        "n_trees": st.integers(1, 4),
    }
)


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
    fast = cls(**params).fit(X, y)
    with mock.patch.object(trees, "_grow_classification_tree", _reference_grow):
        slow = cls(**params).fit(X, y)
    for a, b in zip(fast.trees_, slow.trees_, strict=True):
        _assert_same_tree(a, b)
