from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np
import pytest

from vrident.classifiers import (
    MODEL_FORMAT_VERSION,
    MODEL_KINDS,
    ExtraTrees,
    FlatTree,
    GradientBoosting,
    LogisticOneVsRest,
    QuadraticDiscriminant,
    RandomForest,
    SoftVotingEnsemble,
    load_model,
    make_model,
    save_model,
)
from vrident.classifiers.logistic import (
    _fit_binary,
    _sigmoid,
    binary_gradient,
    binary_objective,
)
from vrident.classifiers.trees import _tree_rng


def blobs(seed=0, n_per=25, centers=((0.0, 0.0), (4.0, 0.0), (0.0, 4.0)), scale=0.6):
    """Well-separated Gaussian clusters, one string label per center."""
    rng = np.random.default_rng(seed)
    X = []
    y = []
    for i, c in enumerate(centers):
        X.append(rng.normal(loc=c, scale=scale, size=(n_per, len(c))))
        y.extend([f"user{i}"] * n_per)
    return np.vstack(X), np.array(y)


def cheap_model(kind, seed=0):
    if kind == "random_forest":
        return RandomForest(n_trees=5, seed=seed)
    if kind == "extra_trees":
        return ExtraTrees(n_trees=5, seed=seed)
    if kind == "gbm":
        return GradientBoosting(n_rounds=5, min_leaf=2, seed=seed)
    if kind == "ensemble":
        return SoftVotingEnsemble(
            [LogisticOneVsRest(seed=seed), QuadraticDiscriminant(seed=seed)]
        )
    return make_model(kind, seed=seed)


class FixedProba:
    """Test stand-in emitting a constant probability row."""

    kind = "fixed"

    def __init__(self, proba, labels):
        self._proba = np.asarray(proba, dtype=np.float64)
        self.labels_ = np.asarray(labels)

    def fit(self, X, y):
        return self

    def predict_proba(self, X):
        return np.tile(self._proba, (np.asarray(X).shape[0], 1))


# ---------------------------------------------------------------- base


def test_fit_rejects_single_label():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="2 distinct labels"):
        LogisticOneVsRest().fit(X, np.array(["a"] * 4))


def test_fit_rejects_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        LogisticOneVsRest().fit(np.zeros((4, 2)), np.array(["a", "b"]))


def test_fit_rejects_non_finite():
    X = np.zeros((4, 2))
    X[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        QuadraticDiscriminant().fit(X, np.array(["a", "a", "b", "b"]))


def test_predict_rejects_width_mismatch():
    X, y = blobs()
    model = LogisticOneVsRest().fit(X, y)
    with pytest.raises(ValueError, match="expected 2 features"):
        model.predict_proba(np.zeros((3, 5)))


def test_unfitted_predict_is_an_error():
    with pytest.raises(ValueError, match="not fitted"):
        RandomForest().predict_proba(np.zeros((1, 2)))


def test_labels_sorted_at_fit():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array(["zeta", "alpha", "zeta", "alpha"])
    model = QuadraticDiscriminant().fit(X, y)
    assert list(model.labels_) == ["alpha", "zeta"]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rows_are_distributions(kind):
    X, y = blobs(seed=3)
    model = cheap_model(kind, seed=1).fit(X, y)
    rng = np.random.default_rng(7)
    P = model.predict_proba(rng.normal(size=(40, 2), scale=3.0))
    assert P.shape == (40, 3)
    assert (P >= 0).all()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_refit_is_deterministic(kind):
    X, y = blobs(seed=5)
    Xq = np.random.default_rng(9).normal(size=(15, 2), scale=2.0)
    p1 = cheap_model(kind, seed=4).fit(X, y).predict_proba(Xq)
    p2 = cheap_model(kind, seed=4).fit(X, y).predict_proba(Xq)
    assert np.array_equal(p1, p2)


def test_predict_tie_breaks_to_lowest_label_index():
    model = FixedProba([0.5, 0.5], ["a", "b"])
    ens = SoftVotingEnsemble([model, FixedProba([0.5, 0.5], ["a", "b"])])
    assert list(ens.predict(np.zeros((2, 1)))) == ["a", "a"]


# ---------------------------------------------------------------- logistic


def test_zero_weights_give_half_probability():
    assert _sigmoid(np.array([0.0]))[0] == 0.5
    X_aug = np.hstack([np.random.default_rng(0).normal(size=(10, 3)), np.ones((10, 1))])
    y01 = np.array([0.0, 1.0] * 5)
    # mean log-loss of the 0.5 predictor is log 2
    assert binary_objective(np.zeros(4), X_aug, y01, lam=1.0) == pytest.approx(math.log(2))


def test_separated_1d_weight_sign():
    X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = LogisticOneVsRest().fit(X, y)
    # row 1 is the one-vs-rest problem for label 1 (the positive side)
    assert model.weights_[1, 0] > 0
    assert model.weights_[0, 0] < 0


def test_gradient_matches_central_differences():
    """Analytic gradient against an independent finite-difference oracle."""
    rng = np.random.default_rng(42)
    X_aug = np.hstack([rng.normal(size=(20, 9)), np.ones((20, 1))])
    y01 = (rng.random(20) > 0.5).astype(np.float64)
    w = rng.normal(size=10) * 0.5
    lam = 1.0
    eps = 1e-6
    fd = np.zeros(10)
    for i in range(10):
        step = np.zeros(10)
        step[i] = eps
        fd[i] = (
            binary_objective(w + step, X_aug, y01, lam)
            - binary_objective(w - step, X_aug, y01, lam)
        ) / (2 * eps)
    analytic = binary_gradient(w, X_aug, y01, lam)
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-4


def test_logistic_converges_on_easy_problem():
    X, y = blobs(seed=2)
    model = LogisticOneVsRest().fit(X, y)
    assert all(model.converged_)
    assert (model.predict(X) == y).mean() > 0.9


def test_logistic_argmax_matches_score_argmax():
    """Per-row normalization cannot move the argmax."""
    X, y = blobs(seed=8)
    model = LogisticOneVsRest().fit(X, y)
    Xq = np.random.default_rng(1).normal(size=(25, 2), scale=3.0)
    scores = model.scores(Xq)
    by_scores = model.labels_[np.argmax(scores, axis=1)]
    assert np.array_equal(model.predict(Xq), by_scores)
    # scaling every score by c > 0 leaves predictions unchanged
    scaled = model.labels_[np.argmax(scores * 7.3, axis=1)]
    assert np.array_equal(model.predict(Xq), scaled)


def _fit_binary_reference(X_aug, y01, lam, tol, max_iter):
    """The Newton fit with the Hessian built as one expression, as before
    _fit_binary built it in place."""
    n, d1 = X_aug.shape
    w = np.zeros(d1)
    reg = np.ones(d1)
    reg[-1] = 0.0
    converged = False
    for _ in range(max_iter):
        grad = binary_gradient(w, X_aug, y01, lam)
        if np.linalg.norm(grad) <= tol:
            converged = True
            break
        p = _sigmoid(X_aug @ w)
        curv = p * (1.0 - p)
        hess = (X_aug * curv[:, None]).T @ X_aug / n + lam * np.diag(reg)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        slope = float(grad @ step)
        if slope <= 0:
            step = grad
            slope = float(grad @ grad)
        j0 = binary_objective(w, X_aug, y01, lam)
        t = 1.0
        while t > 1e-12:
            w_new = w - t * step
            if binary_objective(w_new, X_aug, y01, lam) <= j0 - 1e-4 * t * slope:
                break
            t *= 0.5
        w = w_new
    else:
        converged = bool(np.linalg.norm(binary_gradient(w, X_aug, y01, lam)) <= tol)
    return w, converged


@pytest.mark.parametrize("lam", [1.0, 0.05, 0.0])
@pytest.mark.parametrize("n, d", [(20, 6), (12, 40)])
def test_logistic_hessian_in_place_is_bit_identical(lam, n, d):
    """Negative columns, an all-zero and an all-negative-zero column, and
    the unpenalized bias: the in-place Hessian gives the same weights."""
    rng = np.random.default_rng(n * d)
    X = rng.normal(size=(n, d))
    X[:, 0] = 0.0
    X[:, 1] = -0.0
    X[:, 2] = -np.abs(X[:, 2])
    X[:, 3] = -1.0
    X_aug = np.hstack([X, np.ones((n, 1))])
    y01 = (rng.random(n) < 0.5).astype(np.float64)
    y01[:2] = (0.0, 1.0)
    w, ok = _fit_binary(X_aug, y01, lam, 1e-6, 25)
    ref_w, ref_ok = _fit_binary_reference(X_aug, y01, lam, 1e-6, 25)
    assert w.tobytes() == ref_w.tobytes()
    assert ok == ref_ok


# ---------------------------------------------------------------- qda


def test_qda_symmetric_means_give_even_split():
    # equal spread around -1 and +1, query exactly between
    X = np.array([[-1.5], [-1.0], [-0.5], [0.5], [1.0], [1.5]])
    y = np.array(["a", "a", "a", "b", "b", "b"])
    model = QuadraticDiscriminant().fit(X, y)
    proba = model.predict_proba(np.array([[0.0]]))[0]
    assert proba[0] == pytest.approx(0.5, abs=1e-12)
    assert proba[1] == pytest.approx(0.5, abs=1e-12)


def test_qda_confident_at_class_mean():
    rng = np.random.default_rng(11)
    Xa = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(40, 2))
    Xb = rng.normal(loc=(8.0, 8.0), scale=0.3, size=(40, 2))
    X = np.vstack([Xa, Xb])
    y = np.array(["a"] * 40 + ["b"] * 40)
    model = QuadraticDiscriminant().fit(X, y)
    proba = model.predict_proba(Xa.mean(axis=0, keepdims=True))[0]
    assert proba[0] > 0.99


def qda_oracle(X_train, y_train, X_query, ridge=1e-6):
    """Direct per-class Gaussian density evaluation, no shared code paths:
    covariance solve instead of a stored precision matrix, det() for the
    normalizer instead of slogdet."""
    labels = np.unique(y_train)
    d = X_train.shape[1]
    logs = np.empty((X_query.shape[0], labels.shape[0]))
    for c, lab in enumerate(labels):
        rows = X_train[y_train == lab]
        mu = rows.mean(axis=0)
        centered = rows - mu
        cov = centered.T @ centered / rows.shape[0]
        tr = float(np.trace(cov))
        alpha = ridge * (tr / d) if tr > 0 else ridge
        cov = cov + alpha * np.eye(d)
        diff = X_query - mu
        quad = np.sum(diff * np.linalg.solve(cov, diff.T).T, axis=1)
        logs[:, c] = -0.5 * (d * np.log(2 * np.pi) + np.log(np.linalg.det(cov)) + quad)
    shifted = np.exp(logs - logs.max(axis=1, keepdims=True))
    return labels, shifted / shifted.sum(axis=1, keepdims=True)


def test_qda_matches_brute_force_densities():
    X, y = blobs(seed=13, n_per=30)
    model = QuadraticDiscriminant().fit(X, y)
    Xq = np.random.default_rng(14).normal(size=(60, 2), scale=3.0)
    labels, proba_oracle = qda_oracle(X, y, Xq)
    assert np.array_equal(model.labels_, labels)
    pred_oracle = labels[np.argmax(proba_oracle, axis=1)]
    assert np.array_equal(model.predict(Xq), pred_oracle)
    np.testing.assert_allclose(model.predict_proba(Xq), proba_oracle, atol=1e-9)


def test_qda_matches_oracle_on_four_class_3d():
    rng = np.random.default_rng(21)
    centers = [(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)]
    X = np.vstack([rng.normal(loc=c, scale=0.8, size=(20, 3)) for c in centers])
    y = np.repeat([f"u{i}" for i in range(4)], 20)
    model = QuadraticDiscriminant().fit(X, y)
    Xq = rng.normal(size=(50, 3), scale=3.0)
    labels, proba_oracle = qda_oracle(X, y, Xq)
    pred_oracle = labels[np.argmax(proba_oracle, axis=1)]
    assert np.array_equal(model.predict(Xq), pred_oracle)


def test_qda_requires_two_windows_per_user():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array(["solo", "pair", "pair"])
    with pytest.raises(ValueError, match="'solo'"):
        QuadraticDiscriminant().fit(X, y)


def test_qda_constant_features_survive_loading():
    # zero covariance trace falls back to a plain ridge diagonal
    X = np.array([[1.0, 5.0]] * 3 + [[2.0, 5.0]] * 3)
    y = np.array(["a"] * 3 + ["b"] * 3)
    model = QuadraticDiscriminant().fit(X, y)
    proba = model.predict_proba(np.array([[1.0, 5.0]]))
    assert np.isfinite(proba).all()
    assert proba[0, 0] > 0.99


def test_qda_restore_of_fitted_state_keeps_log_densities():
    rng = np.random.default_rng(31)
    X = np.vstack([rng.normal(loc=c, scale=1.0, size=(12, 6)) for c in (0.0, 2.0, 4.0)])
    y = np.repeat(["a", "b", "c"], 12)
    model = QuadraticDiscriminant().fit(X, y)
    restored = QuadraticDiscriminant()
    restored.labels_, restored.n_features_ = model.labels_, model.n_features_
    restored.restore(json.loads(json.dumps(model.fitted_state())))
    Xq = rng.normal(size=(25, 6), scale=3.0)
    assert np.array_equal(restored.log_densities(Xq), model.log_densities(Xq))


# ---------------------------------------------------------------- trees


def hand_walk(tree: FlatTree, row: np.ndarray) -> int:
    node = 0
    while tree.feature[node] >= 0:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return node


def test_flat_tree_apply_matches_hand_walk():
    X, y = blobs(seed=17)
    model = RandomForest(n_trees=3, seed=2).fit(X, y)
    Xq = np.random.default_rng(5).normal(size=(30, 2), scale=3.0)
    for tree in model.trees_:
        applied = tree.apply(Xq)
        manual = np.array([hand_walk(tree, row) for row in Xq])
        assert np.array_equal(applied, manual)


def test_single_tree_memorizes_two_points():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array(["a", "b"])
    model = RandomForest(n_trees=1, bootstrap=False, max_features=2, seed=0).fit(X, y)
    assert (model.predict(X) == y).all()
    np.testing.assert_allclose(model.predict_proba(X), np.eye(2), atol=0)


def test_forest_proba_is_mean_of_leaf_distributions():
    """Five samples, hand-averaged across trees in pure python."""
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array(["a", "a", "b", "b", "b"])
    model = RandomForest(n_trees=7, seed=3).fit(X, y)
    Xq = np.array([[0.5], [2.5], [4.0]])
    expected = np.zeros((3, 2))
    for tree in model.trees_:
        for i, row in enumerate(Xq):
            expected[i] += tree.value[hand_walk(tree, row)]
    expected /= len(model.trees_)
    np.testing.assert_allclose(model.predict_proba(Xq), expected, atol=0)


def test_bootstrap_stream_is_reproducible():
    """Tree 0 of a bootstrap forest equals a no-bootstrap forest trained on
    the resample drawn from the documented per-tree stream."""
    X, y = blobs(seed=23, n_per=20)
    seed = 11
    rng = _tree_rng(seed, 0)
    idx = rng.integers(0, X.shape[0], size=X.shape[0])
    assert np.unique(y[idx]).shape[0] == 3  # resample keeps all classes
    auto = RandomForest(n_trees=1, seed=seed, bootstrap=True, max_features=2).fit(X, y)
    manual = RandomForest(n_trees=1, seed=seed, bootstrap=False, max_features=2).fit(
        X[idx], y[idx]
    )
    Xq = np.random.default_rng(0).normal(size=(25, 2), scale=3.0)
    assert np.array_equal(auto.predict_proba(Xq), manual.predict_proba(Xq))


def test_duplicate_columns_split_on_lowest_feature():
    base = np.array([[0.0], [1.0], [2.0], [3.0]])
    X = np.hstack([base, base])  # identical gains on features 0 and 1
    y = np.array(["a", "a", "b", "b"])
    model = RandomForest(n_trees=1, bootstrap=False, max_features=2, seed=0).fit(X, y)
    assert model.trees_[0].feature[0] == 0


def test_rf_seed_changes_forest():
    X, y = blobs(seed=29)
    Xq = np.random.default_rng(2).normal(size=(20, 2), scale=3.0)
    p_a = RandomForest(n_trees=10, seed=0).fit(X, y).predict_proba(Xq)
    p_b = RandomForest(n_trees=10, seed=1).fit(X, y).predict_proba(Xq)
    assert not np.array_equal(p_a, p_b)


def test_extra_trees_constant_features_fall_back_to_prior():
    X = np.full((6, 3), 2.0)
    y = np.array(["a", "a", "a", "a", "b", "b"])
    model = ExtraTrees(n_trees=4, seed=0).fit(X, y)
    proba = model.predict_proba(np.full((2, 3), 2.0))
    np.testing.assert_allclose(proba, [[4 / 6, 2 / 6]] * 2, atol=0)


def test_extra_trees_separable_accuracy():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(120, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, "pos", "neg")
    X_test = rng.normal(size=(80, 2))
    y_test = np.where(X_test[:, 0] + X_test[:, 1] > 0, "pos", "neg")
    model = ExtraTrees(n_trees=50, seed=1).fit(X, y)
    assert (model.predict(X_test) == y_test).mean() >= 0.95


def test_extra_trees_has_no_bootstrap():
    model = ExtraTrees(n_trees=2, seed=0)
    assert model.bootstrap is False


# ---------------------------------------------------------------- gbm


def test_gbm_round_zero_is_uniform():
    X, y = blobs(seed=37)
    model = GradientBoosting(n_rounds=0).fit(X, y)
    proba = model.predict_proba(X[:5])
    np.testing.assert_allclose(proba, np.full((5, 3), 1 / 3), atol=0)
    assert model.train_loss_ == [pytest.approx(math.log(3))]


def test_gbm_loss_non_increasing():
    X, y = blobs(seed=41, n_per=30)
    model = GradientBoosting(n_rounds=25, min_leaf=2).fit(X, y)
    losses = np.array(model.train_loss_)
    assert losses.shape == (26,)
    assert (np.diff(losses) <= 1e-9).all()


def test_gbm_memorizes_six_point_line():
    # min_leaf must allow a split of 6 points at all (default 5 cannot)
    X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = GradientBoosting(n_rounds=20, min_leaf=1).fit(X, y)
    assert (model.predict(X) == y).all()


def test_gbm_min_leaf_blocks_all_splits():
    X, y = blobs(seed=43, n_per=4)  # 12 samples total
    model = GradientBoosting(n_rounds=3, min_leaf=10).fit(X, y)
    Xq = np.random.default_rng(3).normal(size=(6, 2), scale=3.0)
    proba = model.predict_proba(Xq)
    # every tree is a single leaf, so all rows get the same distribution
    assert np.array_equal(proba, np.tile(proba[0], (6, 1)))


def test_gbm_scaled_scores_keep_argmax():
    X, y = blobs(seed=47)
    model = GradientBoosting(n_rounds=8, min_leaf=2).fit(X, y)
    Xq = np.random.default_rng(4).normal(size=(20, 2), scale=3.0)
    F = model.decision_scores(Xq)
    scaled_pred = model.labels_[np.argmax(F * 3.7, axis=1)]
    assert np.array_equal(model.predict(Xq), scaled_pred)


def test_gbm_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n_rounds"):
        GradientBoosting(n_rounds=-1)
    with pytest.raises(ValueError, match="learning_rate"):
        GradientBoosting(learning_rate=0.0)
    with pytest.raises(ValueError, match="max_leaves"):
        GradientBoosting(max_leaves=1)
    for min_leaf in (0, -1):
        with pytest.raises(ValueError, match="min_leaf"):
            GradientBoosting(min_leaf=min_leaf)


@pytest.mark.parametrize("cls", [RandomForest, ExtraTrees])
def test_forests_reject_bad_parameters(cls):
    with pytest.raises(ValueError, match="n_trees must be >= 1, got 0"):
        cls(n_trees=0)
    for bad in (0, -1, 1.5, True, "2"):
        message = f"max_features must be an integer >= 1 or None, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(max_features=bad)
    assert cls(max_features=np.int64(3)).max_features == 3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GradientBoosting(n_rounds=2.5), "n_rounds must be an integer, got 2.5"),
        (lambda: RandomForest(n_trees=1.5), "n_trees must be an integer, got 1.5"),
        (lambda: LogisticOneVsRest(max_iter=1.5), "max_iter must be an integer, got 1.5"),
        (lambda: RandomForest(bootstrap="no"), "bootstrap must be true or false, got 'no'"),
        (lambda: LogisticOneVsRest(lam=float("nan")), "lam must be a finite number, got nan"),
    ],
    ids=["gbm_n_rounds", "forest_n_trees", "logistic_max_iter", "forest_bootstrap", "logistic_lam"],
)
def test_constructors_refuse_values_they_would_coerce(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# ---------------------------------------------------------------- ensemble


def test_ensemble_averages_probabilities():
    members = [
        FixedProba([0.6, 0.4], ["u1", "u2"]),
        FixedProba([0.2, 0.8], ["u1", "u2"]),
    ]
    ens = SoftVotingEnsemble(members)
    proba = ens.predict_proba(np.zeros((1, 1)))
    np.testing.assert_allclose(proba, [[0.4, 0.6]], atol=1e-15)
    assert ens.predict(np.zeros((1, 1)))[0] == "u2"


def test_ensemble_unanimous_certainty_passes_through():
    members = [FixedProba([0.0, 1.0], ["a", "b"]) for _ in range(5)]
    ens = SoftVotingEnsemble(members)
    np.testing.assert_allclose(ens.predict_proba(np.zeros((3, 1))), [[0.0, 1.0]] * 3)


def test_ensemble_rejects_label_mismatch():
    members = [
        FixedProba([0.5, 0.5], ["a", "b"]),
        FixedProba([0.5, 0.5], ["a", "c"]),
    ]
    with pytest.raises(ValueError, match="different labels"):
        SoftVotingEnsemble(members).predict_proba(np.zeros((1, 1)))


def test_ensemble_needs_two_members():
    with pytest.raises(ValueError, match="at least 2"):
        SoftVotingEnsemble([FixedProba([1.0], ["a"])])


def test_ensemble_fits_members_in_place():
    X, y = blobs(seed=53)
    members = [LogisticOneVsRest(), QuadraticDiscriminant()]
    ens = SoftVotingEnsemble(members).fit(X, y)
    assert members[0].labels_ is not None
    manual = (members[0].predict_proba(X) + members[1].predict_proba(X)) / 2
    np.testing.assert_allclose(ens.predict_proba(X), manual, atol=0)


def test_default_ensemble_has_five_members():
    ens = make_model("ensemble", seed=9)
    kinds = [m.kind for m in ens.members]
    assert kinds == ["logistic", "qda", "random_forest", "extra_trees", "gbm"]
    assert all(m.seed == 9 for m in ens.members)


# ---------------------------------------------------------------- registry / io


def test_make_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        make_model("svm")


@pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if k != "ensemble"])
def test_save_load_round_trip(tmp_path, kind):
    X, y = blobs(seed=59)
    model = cheap_model(kind, seed=6).fit(X, y)
    path = str(tmp_path / f"{kind}.json")
    save_model(model, path)
    loaded = load_model(path)
    Xq = np.random.default_rng(6).normal(size=(20, 2), scale=3.0)
    assert np.array_equal(loaded.predict_proba(Xq), model.predict_proba(Xq))
    assert np.array_equal(loaded.labels_, model.labels_)
    assert loaded.seed == model.seed


def test_save_load_round_trip_ensemble(tmp_path):
    X, y = blobs(seed=61)
    model = cheap_model("ensemble").fit(X, y)
    path = str(tmp_path / "ens.json")
    save_model(model, path)
    loaded = load_model(path)
    Xq = np.random.default_rng(8).normal(size=(10, 2), scale=3.0)
    assert np.array_equal(loaded.predict_proba(Xq), model.predict_proba(Xq))


# sha256 of each saved file below; captured with numpy 2.4.6 on x86-64. A
# change to any of them changes the model file format.
GOLDEN_MODEL_SHA256 = {
    "logistic": "4629255086f8330f4095d94affcfa6dfafeae2629281529f35841c5d013101dc",
    "qda": "1e255ffda01fb4c2d9e69af1e2e2bb41d74a1344220921aa7be01681334c2d31",
    "random_forest": "d0e75fd44b2d0adc26a911d14baead415275f482753bda11f99d2255b3e1753f",
    "extra_trees": "57e71f01d1573942738792197433889fdf622166c23aad5f492c2c0b1787dcff",
    "gbm": "45035f4cdaf1dd6bcb1cb281300af2da265d8708839fcd5ee8f9cb5ba98ca8f3",
    "ensemble": "cbdc508d32cb222afe4d38fd430e52c6bce6ece2d5430557f90639424bd733ac",
}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_saved_model_bytes_are_pinned(tmp_path, kind):
    X, y = blobs(seed=73)
    if kind == "ensemble":
        model = SoftVotingEnsemble(
            [cheap_model(k, seed=2) for k in MODEL_KINDS if k != "ensemble"]
        )
    else:
        model = cheap_model(kind, seed=2)
    path = tmp_path / f"{kind}.json"
    save_model(model.fit(X, y), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MODEL_SHA256[kind]


@pytest.mark.parametrize("failure", ["encode", "rename"])
def test_failed_save_keeps_previous_model(tmp_path, monkeypatch, failure):
    X, y = blobs(seed=63)
    path = tmp_path / "m.json"
    save_model(LogisticOneVsRest().fit(X, y), str(path))
    before = path.read_bytes()
    model = cheap_model("gbm").fit(X, y)
    if failure == "encode":
        model.min_leaf = object()  # not JSON-serializable
    else:
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
    with pytest.raises((TypeError, OSError)):
        save_model(model, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_save_rejects_unfitted_model():
    with pytest.raises(ValueError, match="unfitted"):
        save_model(LogisticOneVsRest(), "/tmp/never-written.json")


def test_load_rejects_version_mismatch(tmp_path):
    X, y = blobs(seed=67)
    model = LogisticOneVsRest().fit(X, y)
    path = str(tmp_path / "m.json")
    save_model(model, path)
    with open(path) as fh:
        obj = json.load(fh)
    obj["format_version"] = MODEL_FORMAT_VERSION + 1
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError, match="format version"):
        load_model(path)


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("logistic", lambda m: m["params"].update(bogus=1), "logistic model file: unknown param 'bogus'"),
        ("logistic", lambda m: m.pop("weights"), "logistic model file: missing key 'weights'"),
        ("gbm", lambda m: m["params"].pop("min_leaf"), "gbm model file: missing param 'min_leaf'"),
        ("extra_trees", lambda m: m["params"].update(bootstrap=True), "extra_trees fixes it at False"),
        (
            "extra_trees",
            lambda m: m["trees"][1]["feature"].__setitem__(0, 9),
            "extra_trees model file: 'trees'[1]: 'feature' of node 0 is 9, "
            "but the model has 2 features",
        ),
        (
            "extra_trees",
            lambda m: m["trees"][0].update(value=[row[:1] for row in m["trees"][0]["value"]]),
            "extra_trees model file: 'trees'[0]: 'value' has shape",
        ),
        (
            "random_forest",
            lambda m: m["trees"][0]["value"][0].pop(),
            "random_forest model file: 'trees'[0]: 'value' is not a rectangular array of numbers",
        ),
        (
            "random_forest",
            lambda m: m["trees"][2]["threshold"].pop(),
            "random_forest model file: 'trees'[2]: 'threshold' has shape",
        ),
        (
            "random_forest",
            lambda m: m["trees"][0]["left"].__setitem__(0, 0),
            "random_forest model file: 'trees'[0]: 'left' child of node 0 is 0",
        ),
        (
            "random_forest",
            lambda m: m["trees"][0]["right"].__setitem__(0, len(m["trees"][0]["right"])),
            "random_forest model file: 'trees'[0]: 'right' child of node 0 is",
        ),
        ("random_forest", lambda m: m["trees"].pop(), "'trees' holds 4 trees, but n_trees is 5"),
        (
            "gbm",
            lambda m: m["trees"][0][1].update(value=[v * 2 for v in m["trees"][0][1]["value"]]),
            "gbm model file: 'trees'[0][1]: 'value' has shape",
        ),
        ("gbm", lambda m: m["trees"][3].pop(), "gbm model file: 'trees'[3] holds 2 trees"),
        (
            "logistic",
            lambda m: m.update(weights=[w[:2] for w in m["weights"]]),
            "logistic model file: 'weights' has shape (3, 2), expected (3, 3)",
        ),
        (
            "qda",
            lambda m: m.update(means=m["means"][:2]),
            "qda model file: 'means' has shape (2, 2), expected (3, 2)",
        ),
        (
            "qda",
            lambda m: m.update(precisions=[p[:1] for p in m["precisions"]]),
            "qda model file: 'precisions' has shape (3, 1, 2), expected (3, 2, 2)",
        ),
        ("qda", lambda m: m["logdets"].append(0.0), "qda model file: 'logdets' has shape (4,)"),
        (
            "logistic",
            lambda m: m["labels"].update(values=m["labels"]["values"][::-1]),
            "logistic model file: 'labels' must hold at least 2 strictly increasing labels, "
            "got ['user2', 'user1', 'user0']",
        ),
        (
            "logistic",
            lambda m: m["labels"].update(values=["user0", "user0", "user2"]),
            "logistic model file: 'labels' must hold at least 2 strictly increasing labels",
        ),
        (
            "qda",
            lambda m: m["labels"].update(values=[["user0", "user1", "user2"]]),
            "qda model file: 'labels' must hold at least 2 strictly increasing labels",
        ),
        (
            "logistic",
            lambda m: m["labels"].update(dtype="bogus"),
            "logistic model file: 'labels': data type 'bogus' not understood",
        ),
        (
            "logistic",
            lambda m: m.update(labels=m["labels"]["values"]),
            "logistic model file: 'labels' must be an object, got list",
        ),
        (
            "logistic",
            lambda m: m.update(n_features="2"),
            "logistic model file: 'n_features' must be an integer, got '2'",
        ),
        (
            "qda",
            lambda m: m.update(n_features=0),
            "qda model file: 'n_features' must be >= 1, got 0",
        ),
        ("gbm", lambda m: m.update(seed=1.5), "gbm model file: 'seed' must be an integer, got 1.5"),
        ("logistic", lambda m: m.pop("n_features"), "logistic model file: missing key 'n_features'"),
        ("ensemble", lambda m: m.pop("members"), "ensemble model file: missing key 'members'"),
        (
            "ensemble",
            lambda m: m.update(members=3),
            "ensemble model file: 'members' must be a list, got int",
        ),
        (
            "ensemble",
            lambda m: m.update(weights=[0.5, 0.5]),
            "ensemble model file: unknown key 'weights'",
        ),
    ],
    ids=[
        "extra-param",
        "missing-state",
        "missing-param",
        "fixed-param",
        "tree-feature-out-of-range",
        "tree-value-too-narrow",
        "tree-value-ragged",
        "tree-arrays-unequal",
        "tree-child-not-after-parent",
        "tree-child-out-of-range",
        "forest-tree-count",
        "gbm-value-too-wide",
        "gbm-round-tree-count",
        "logistic-weights",
        "qda-means",
        "qda-precisions",
        "qda-logdets",
        "labels-swapped",
        "labels-repeated",
        "labels-not-flat",
        "labels-bad-dtype",
        "labels-not-object",
        "n-features-string",
        "n-features-zero",
        "seed-float",
        "n-features-missing",
        "ensemble-members-missing",
        "ensemble-members-not-list",
        "ensemble-unknown-key",
    ],
)
def test_load_rejects_malformed_model(tmp_path, kind, edit, message):
    X, y = blobs(seed=79)
    path = tmp_path / "m.json"
    save_model(cheap_model(kind).fit(X, y), str(path))
    obj = json.loads(path.read_text())
    edit(obj["model"])
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "model file must hold a JSON object, got list"),
        ('{"format_version": %d}' % MODEL_FORMAT_VERSION, "model file: missing key 'model'"),
        (
            '{"format_version": %d, "model": []}' % MODEL_FORMAT_VERSION,
            "model file: 'model' must be an object, got list",
        ),
        (
            '{"format_version": %d, "model": {"kind": "ensemble", "members": [7]}}'
            % MODEL_FORMAT_VERSION,
            "model file: 'model' must be an object, got int",
        ),
    ],
)
def test_load_rejects_non_object_model_files(tmp_path, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(str(path))


def test_load_rejects_unknown_kind(tmp_path):
    X, y = blobs(seed=71)
    model = LogisticOneVsRest().fit(X, y)
    path = str(tmp_path / "m.json")
    save_model(model, path)
    with open(path) as fh:
        obj = json.load(fh)
    obj["model"]["kind"] = "mystery"
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model(path)
