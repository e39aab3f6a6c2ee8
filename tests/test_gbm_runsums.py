"""gbm's running sums and its dropped constant columns, against references.

The split search sums each node's g and h along the sorted rows with one
vector add per position, not ``np.cumsum`` per feature; a fit searches only
the columns that vary over its training rows. Neither may change a bit of
the sums, the trees, the losses or the probabilities.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gbm_presort import _assert_same_tree, _reference_tree, _tied_matrix, tree_cases
from tree_fixtures import hand_leaves

from vrident.classifiers import FlatTree, GradientBoosting
from vrident.classifiers import boosting
from vrident.classifiers.base import _softmax

# ties, both zeros, subnormals and magnitudes 1e-300 to 1e300 apart, bounded
# so that 64 of them cannot overflow
sum_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, n),
            st.integers(1, 5),
            st.integers(0, 2**32 - 1),
            st.lists(sum_values, min_size=2 * n + 6, max_size=2 * n + 6),
        )
    )
)
def test_running_sums_equal_cumsum_bit_for_bit(case):
    n, hi, d, seed, values = case
    rng = np.random.default_rng(seed)
    g = np.array(values[: n + 3])  # the node holds n of these n + 3 rows
    h = np.array(values[n + 3 :])
    rows = rng.permutation(n + 3)[:n]
    order = np.stack([rows[rng.permutation(n)] for _ in range(d)])
    work = boosting._workspace(n + 3, d)
    for buffer in work[1:]:
        buffer.fill(np.nan)  # a stale value read would show
    sums = boosting._running_sums(boosting._pairs(g, h), order, hi, work)
    assert sums.shape == (hi, 2 * d)
    assert sums[:, 0::2].T.tobytes() == np.cumsum(g[order], axis=1)[:, :hi].tobytes()
    assert sums[:, 1::2].T.tobytes() == np.cumsum(h[order], axis=1)[:, :hi].tobytes()


def _reference_fit(X, y, n_rounds, learning_rate, max_leaves, min_leaf):
    """Trees and losses of GradientBoosting, each tree grown on every column
    of X by the per-node argsort reference."""
    labels, y_idx = np.unique(y, return_inverse=True)
    n, k = X.shape[0], labels.shape[0]
    onehot = np.eye(k)[y_idx]
    F = np.zeros((n, k))
    trees, losses = [], [boosting._log_loss(F, y_idx)]
    for _ in range(n_rounds):
        P = _softmax(F)
        grad, hess = P - onehot, P * (1.0 - P)
        round_trees = [
            _reference_tree(X, grad[:, c], hess[:, c], max_leaves, min_leaf) for c in range(k)
        ]
        for c, tree in enumerate(round_trees):
            F[:, c] += learning_rate * tree.value[hand_leaves(tree, X), 0]
        trees.append(round_trees)
        losses.append(boosting._log_loss(F, y_idx))
    return trees, losses


def _with_constant_columns(X, X_test, n_constant, seed):
    """X and X_test with n_constant columns inserted at random positions,
    constant over X's rows and random in X_test's; and where X's columns went."""
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    kept = np.sort(rng.choice(d + n_constant, size=d, replace=False))
    wide = np.repeat(rng.normal(size=(1, d + n_constant)), X.shape[0], axis=0)
    wide[:, kept] = X
    wide_test = rng.normal(size=(X_test.shape[0], d + n_constant))
    wide_test[:, kept] = X_test
    return wide, wide_test, kept


# (tree case, classes, constant columns, seed of their values and places)
constant_cases = st.tuples(
    tree_cases, st.integers(2, 4), st.integers(1, 6), st.integers(0, 2**32 - 1)
)


@settings(max_examples=40, deadline=None)
@given(constant_cases)
def test_fit_with_constant_columns_matches_the_all_column_reference(args):
    case, n_classes, n_constant, seed = args
    rng = np.random.default_rng(case["seed"])
    n, d = max(case["n"], 2), case["d"]
    X = _tied_matrix(rng, n, d, case["n_levels"])
    X, _, _ = _with_constant_columns(X, np.zeros((0, d)), n_constant, seed)
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    params = dict(
        n_rounds=3, learning_rate=0.3, max_leaves=case["max_leaves"], min_leaf=case["min_leaf"]
    )
    fit = GradientBoosting(**params).fit(X, y)
    trees, losses = _reference_fit(X, y, **params)
    assert fit.train_loss_ == losses
    for fit_round, ref_round in zip(fit.trees_, trees, strict=True):
        for a, b in zip(fit_round, ref_round, strict=True):
            _assert_same_tree(a, b)


@settings(max_examples=40, deadline=None)
@given(constant_cases)
def test_constant_columns_change_no_tree(args):
    case, n_classes, n_constant, seed = args
    rng = np.random.default_rng(case["seed"])
    n, d = max(case["n"], 2), case["d"]
    X = _tied_matrix(rng, n, d, case["n_levels"])
    X_test = rng.normal(size=(7, d))
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    wide, wide_test, kept = _with_constant_columns(X, X_test, n_constant, seed)
    params = dict(n_rounds=3, max_leaves=case["max_leaves"], min_leaf=case["min_leaf"])
    narrow = GradientBoosting(**params).fit(X, y)
    widened = GradientBoosting(**params).fit(wide, y)
    assert widened.train_loss_ == narrow.train_loss_
    for narrow_round, wide_round in zip(narrow.trees_, widened.trees_, strict=True):
        for a, b in zip(narrow_round, wide_round, strict=True):
            feature = np.where(a.feature < 0, a.feature, kept[a.feature])
            _assert_same_tree(FlatTree(feature, a.threshold, a.left, a.right, a.value), b)
    assert widened.predict_proba(wide_test).tobytes() == narrow.predict_proba(X_test).tobytes()


def test_all_constant_columns_give_single_leaf_trees():
    X = np.full((12, 4), 2.5)
    y = np.arange(12) % 3
    model = GradientBoosting(n_rounds=3, min_leaf=1).fit(X, y)
    assert len(model.trees_) == 3
    for round_trees in model.trees_:
        assert [tree.feature.tolist() for tree in round_trees] == [[-1]] * 3
    assert model.predict_proba(np.zeros((2, 4))).shape == (2, 3)
