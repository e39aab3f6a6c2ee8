from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrident
from vrident import _blas
from vrident.classifiers import (
    MODEL_FORMAT_VERSION,
    MODEL_KINDS,
    ExtraTrees,
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
from vrident.classifiers.serialize import _model_obj
from vrident.classifiers.trees import _leaves, _stack
from vrident.core import philox_stream
from vrident.ingest import generate_synthetic_cohort, write_cohort

from test_qda_reference import dense_fit, dense_log_densities
from tree_fixtures import hand_walk


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


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_rejects_a_matrix_with_no_columns(kind):
    y = np.arange(12) % 3
    with pytest.raises(ValueError, match=r"1 feature column, got shape \(12, 0\)"):
        make_model(kind).fit(np.zeros((12, 0)), y)


def test_predict_rejects_width_mismatch():
    X, y = blobs()
    model = LogisticOneVsRest().fit(X, y)
    with pytest.raises(ValueError, match="expected 2 features"):
        model.predict_proba(np.zeros((3, 5)))


def test_unfitted_predict_is_an_error():
    with pytest.raises(ValueError, match="not fitted"):
        RandomForest().predict_proba(np.zeros((1, 2)))


@pytest.mark.parametrize("kind", ["logistic", "qda", "gbm"])
def test_predict_proba_checks_its_matrix(kind):
    X, y = blobs(seed=61)
    with pytest.raises(ValueError, match=f"^{kind} model is not fitted$"):
        cheap_model(kind).predict_proba(X)
    score = cheap_model(kind).fit(X, y).predict_proba
    with pytest.raises(ValueError, match="^expected 2 features, got 9$"):
        score(np.zeros((3, 9)))
    with pytest.raises(ValueError, match="^expected 2 features, got 1$"):
        score(np.zeros((3, 1)))
    bad = X[:3].copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="^feature matrix contains non-finite values$"):
        score(bad)
    assert score(X[:3].tolist()).shape == (3, 3)


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
    scores = model._scores(Xq)
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
    w, ok = _fit_binary(X_aug, y01, lam, 1e-6, 25, *_work_buffers(X_aug))
    ref_w, ref_ok = _fit_binary_reference(X_aug, y01, lam, 1e-6, 25)
    assert w.tobytes() == ref_w.tobytes()
    assert ok == ref_ok


def _work_buffers(X_aug):
    """Fresh (scaled rows, Hessian) work buffers of _fit_binary, filled with
    garbage: a fit must not read what they held before."""
    d1 = X_aug.shape[1]
    return np.full(X_aug.shape, np.nan), np.full((d1, d1), -7.0)


def _fit_binary_fresh_hessian(X_aug, y01, lam, tol, max_iter):
    """The Newton fit as it was before its Hessian had one buffer per fit:
    a new Hessian at every step."""
    n, d1 = X_aug.shape
    w = np.zeros(d1)
    reg = np.ones(d1)
    reg[-1] = 0.0
    diag = np.diag_indices(d1)
    converged = False
    for _ in range(max_iter):
        grad = binary_gradient(w, X_aug, y01, lam)
        if np.linalg.norm(grad) <= tol:
            converged = True
            break
        p = _sigmoid(X_aug @ w)
        curv = p * (1.0 - p)
        hess = (X_aug * curv[:, None]).T @ X_aug
        hess /= n
        hess += 0.0
        hess[diag] += lam * reg
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 30),
    d=st.integers(1, 40),
    lam=st.sampled_from([0.0, 1e-3, 0.05, 1.0, 10.0]),
    positive=st.floats(0.0, 1.0),
)
def test_logistic_buffers_give_the_fresh_hessian_weights(seed, n, d, lam, positive):
    """One Hessian buffer per fit, reused by every class and step, gives the
    bytes of a new Hessian at every step; lam 0 may leave the Hessian
    singular, where both fall back to the gradient."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.choice([0.0, 1.0, 30.0], size=d)
    X_aug = np.hstack([X, np.ones((n, 1))])
    buffers = _work_buffers(X_aug)
    for c in range(2):
        y01 = (rng.random(n) < positive).astype(np.float64)
        w, ok = _fit_binary(X_aug, y01, lam, 1e-6, 8, *buffers)
        ref_w, ref_ok = _fit_binary_fresh_hessian(X_aug, y01, lam, 1e-6, 8)
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
    restored.restore(json.loads(json.dumps(_model_obj(model))))
    Xq = rng.normal(size=(25, 6), scale=3.0)
    assert np.array_equal(restored._log_densities(Xq), model._log_densities(Xq))


@pytest.mark.parametrize(
    "X, y, ridge, message",
    [
        (
            np.array([[0.0], [1.0], [2.0]]),
            np.array(["solo", "pair", "pair"]),
            1e-6,
            "user 'solo' has 1 training window(s); QDA needs at least 2",
        ),
        (
            np.array([[0.0], [1.0], [2.0]]),
            np.array([7, 3, 3]),
            1e-6,
            "user 7 has 1 training window(s); QDA needs at least 2",
        ),
        # tr > 0, but ridge * tr / d rounds to 0.0
        (
            np.array([[0.0], [2e-161], [0.0], [1.0], [3.0]]),
            np.array(["tiny", "tiny", "wide", "wide", "wide"]),
            1e-6,
            "covariance for user 'tiny' is not positive definite",
        ),
        # s^2 = 0.5 and n * alpha = 5e-18 for user "a", so w = 1/(1 + 1e-17)
        # rounds to 1 and the precision would ignore that direction
        (
            np.array([[0.0], [1.0], [5.0], [7.0]]),
            np.array(["a", "a", "b", "b"]),
            1e-17,
            "covariance for user 'a' is not positive definite",
        ),
    ],
    ids=["one-window", "one-window-int-label", "load-underflows", "weight-rounds-to-1"],
)
def test_qda_errors_name_the_user(X, y, ridge, message):
    with pytest.raises(ValueError) as excinfo:
        QuadraticDiscriminant(ridge=ridge).fit(X, y)
    assert str(excinfo.value) == message


def full_size_classes(n_c, d=511, k=3, seed=5):
    """k classes of n_c feature rows in [0, 1]^d, as MinMaxScaler leaves
    them, plus 4 query rows per class near its mean."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(k, d))
    X = np.vstack([c + rng.normal(scale=0.05, size=(n_c, d)) for c in centers])
    Xq = np.repeat(centers, 4, axis=0) + rng.normal(scale=0.05, size=(4 * k, d))
    return X, np.repeat([f"user{c}" for c in range(k)], n_c), Xq


@pytest.mark.parametrize("n_c", [2, 48])
def test_qda_log_densities_match_dense_fit_at_full_size(n_c):
    # evaluate_matrix's 2 windows per user and the full-size cell's 48, in
    # 511 features at the default ridge
    X, y, Xq = full_size_classes(n_c)
    got = QuadraticDiscriminant().fit(X, y)._log_densities(Xq)
    want = dense_log_densities(dense_fit(X, y, 1e-6), Xq)
    np.testing.assert_allclose(got, want, rtol=1e-8)
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


def test_saved_qda_file_holds_no_d_by_d_array(tmp_path):
    d = 511
    X, y, Xq = full_size_classes(48, d)
    keep = np.r_[0:2, 48:144]  # user0 keeps 2 windows, so the factors are ragged
    model = QuadraticDiscriminant().fit(X[keep], y[keep])
    path = tmp_path / "qda.json"
    save_model(model, str(path))
    saved = json.loads(path.read_text())["model"]
    shapes = {key: np.shape(saved[key]) for key in ("means", "loads", "logdets")}
    for key in ("vts", "weights"):
        shapes[key] = [np.shape(a) for a in saved[key]]
    assert shapes == {
        "means": (3, d),
        "loads": (3,),
        "logdets": (3,),
        "vts": [(2, d), (48, d), (48, d)],
        "weights": [(2,), (48,), (48,)],
    }
    assert np.array_equal(load_model(str(path))._log_densities(Xq), model._log_densities(Xq))


def test_load_refuses_a_format_version_1_qda_file(tmp_path):
    # a qda file as format version 1 saved it, with a dense precision per class
    path = tmp_path / "qda_v1.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "model": {
                    "kind": "qda",
                    "seed": 0,
                    "labels": {"dtype": "<U1", "values": ["a", "b"]},
                    "n_features": 1,
                    "params": {"ridge": 1e-6},
                    "means": [[0.5], [5.5]],
                    "precisions": [[[4.0]], [[4.0]]],
                    "logdets": [-1.3862943611198906, -1.3862943611198906],
                },
            }
        )
    )
    with pytest.raises(ValueError) as excinfo:
        load_model(str(path))
    assert str(excinfo.value) == "model file has format version 1, this build reads version 2"


# ---------------------------------------------------------------- trees


def test_leaves_match_hand_walk():
    X, y = blobs(seed=17)
    model = RandomForest(n_trees=3, seed=2).fit(X, y)
    Xq = np.random.default_rng(5).normal(size=(30, 2), scale=3.0)
    stack, root = _stack(model.trees_)
    leaves = list(_leaves(stack, root, Xq))
    assert len(leaves) == len(model.trees_)
    for tree, start, stacked in zip(model.trees_, root, leaves):
        manual = np.array([hand_walk(tree, row) for row in Xq])
        assert np.array_equal(stacked - start, manual)


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
    rng = philox_stream(seed, (0,))
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
    F = model._decision_scores(Xq)
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


def test_ensemble_of_fitted_members_has_labels_at_construction():
    X, y = blobs(seed=59)
    members = [LogisticOneVsRest().fit(X, y), QuadraticDiscriminant().fit(X, y)]
    assert np.array_equal(SoftVotingEnsemble(members).labels_, members[0].labels_)
    assert SoftVotingEnsemble([LogisticOneVsRest(), members[1]]).labels_ is None
    other = QuadraticDiscriminant().fit(X, np.where(y == "user0", "user9", y))
    with pytest.raises(ValueError, match="member 1 was fitted on different labels"):
        SoftVotingEnsemble([members[0], other])


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


def test_ensemble_fitted_only_through_its_members_is_not_fitted():
    X, y = blobs(seed=67)
    members = [LogisticOneVsRest(), QuadraticDiscriminant()]
    ens = SoftVotingEnsemble(members)
    with pytest.raises(ValueError, match="^ensemble model is not fitted$"):
        ens.predict_proba(X)
    for m in members:
        m.fit(X, y)
    # the labels are taken at construction or by fit, never by predict_proba
    with pytest.raises(ValueError, match="^ensemble model is not fitted$"):
        ens.predict_proba(X)


def test_ensemble_refuses_a_matrix_of_the_wrong_width():
    X, y = blobs(seed=67)
    ens = cheap_model("ensemble").fit(X, y)
    assert ens.n_features_ == 2
    with pytest.raises(ValueError, match="^expected 2 features, got 3$"):
        ens.predict_proba(np.zeros((4, 3)))
    fitted = SoftVotingEnsemble([LogisticOneVsRest().fit(X, y), cheap_model("qda").fit(X, y)])
    with pytest.raises(ValueError, match="^expected 2 features, got 1$"):
        fitted.predict(np.zeros((4, 1)))


def test_ensemble_refuses_members_fitted_on_different_widths():
    X, y = blobs(seed=67)
    wide = np.hstack([X, X[:, :1]])
    members = [LogisticOneVsRest().fit(X, y), QuadraticDiscriminant().fit(wide, y)]
    expected = r"^members were fitted on different feature counts \[2, 3\]$"
    with pytest.raises(ValueError, match=expected):
        SoftVotingEnsemble(members)


def test_ensemble_fit_refuses_a_single_label():
    # a matrix with no columns is refused by test_fit_rejects_a_matrix_with_no_columns
    with pytest.raises(ValueError, match="^training needs >= 2 distinct labels, got 1$"):
        cheap_model("ensemble").fit(np.zeros((4, 2)), np.array(["a"] * 4))


def test_ensemble_of_members_without_a_width_averages_any_matrix():
    ens = SoftVotingEnsemble(
        [FixedProba([0.6, 0.4], ["u1", "u2"]), FixedProba([0.2, 0.8], ["u1", "u2"])]
    )
    assert ens.n_features_ is None
    for width in (1, 4):
        np.testing.assert_allclose(ens.predict_proba(np.zeros((2, width))), [[0.4, 0.6]] * 2)


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
    "logistic": "63d9eb21dde3cc3e803b1b00c5ad656c97b4bdad24842ede054ce7e71a8e8b68",
    "qda": "fb9714277bf9ccd8ec571eb4a50e21281279f281b3a733ffa5ee427cf44873a9",
    "random_forest": "ca81095a66c6c9650d7c29c789c8665c41cdb87f92520f4b9206449738a4d9a8",
    "extra_trees": "94f4812bc5daf82f0aaf066218dc44194a5489b068530b27076da1b4dacce2ed",
    "gbm": "6ba434ea8503cca8bdfa3b1b6f59829163b6c064fd9c501fee4329c37aa72321",
    "ensemble": "3f597b12556eff4d37c746263708bc12e1d21ff3d22cb8c30dee915e45d16d00",
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


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_loaded_model_saves_the_same_bytes(tmp_path, kind):
    X, y = blobs(seed=73)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(cheap_model(kind, seed=2).fit(X, y), str(first))
    save_model(load_model(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


# sha256 of every file `vrident evaluate` writes for each run of
# REPORT_RUNS on a 10-user x 1-min synthetic cohort at seed 1, captured at
# one BLAS thread with the numpy and OpenBLAS core below on x86-64. The
# logistic and ensemble bytes also depend on the OpenBLAS core type, so
# those runs are compared on the recorded core only.
GOLDEN_REPORT_SHA256 = {
    "numpy": "2.4.6",
    "openblas_core": "SkylakeX",
    "runs": {
        "qda_forests_gbm": {
            "confusion_game_a.combined.extra_trees.s0.csv": "19b8e79a617a81a5d8d50f8e4e4c8ac145f7300a87904e4d7bc7765a29e01ab2",
            "confusion_game_a.combined.gbm.s0.csv": "a45a6394bd9b682339767d54f2b47d79ed5b21c0d2ea103a84635cab133278a3",
            "confusion_game_a.combined.qda.s0.csv": "a69616941e1fef608ac3166e72bc6d7db81d86c8ddc3b68ca7416474864494ac",
            "confusion_game_a.combined.random_forest.s0.csv": "bb2f1ab442862310124809ba5d808c2ba59459a91d099655404d98b4ec8b8591",
            "confusion_game_a.movement.extra_trees.s0.csv": "19b8e79a617a81a5d8d50f8e4e4c8ac145f7300a87904e4d7bc7765a29e01ab2",
            "confusion_game_a.movement.gbm.s0.csv": "a45a6394bd9b682339767d54f2b47d79ed5b21c0d2ea103a84635cab133278a3",
            "confusion_game_a.movement.qda.s0.csv": "4c6b4ac992a6473d0ecaeb49506b9ee1a11c5be1f0db94db282d84c24340ea0e",
            "confusion_game_a.movement.random_forest.s0.csv": "79ee21b4876a85842666d0d20b59a1621b09b86265dfc637ed9deff2b850102d",
            "confusion_game_a.traffic.extra_trees.s0.csv": "19b8e79a617a81a5d8d50f8e4e4c8ac145f7300a87904e4d7bc7765a29e01ab2",
            "confusion_game_a.traffic.gbm.s0.csv": "eae58c267c0978bc9c7494d3642e1bf202147c0632c2ef7a4981cd48a5717878",
            "confusion_game_a.traffic.qda.s0.csv": "8e1f13a7057fc4df8d822a9ec7eaf83ca8605bb220c5a028c3c0bd6eb0d9fffa",
            "confusion_game_a.traffic.random_forest.s0.csv": "19b8e79a617a81a5d8d50f8e4e4c8ac145f7300a87904e4d7bc7765a29e01ab2",
            "report.json": "a1af6796aabafc246f5025c8d276af5ee08208bca9a657ab4763ad0ccaecfcd3",
            "subsets_game_a.combined.extra_trees.s0.csv": "2db16fd3637a8aee46628b9bb12a7580109221a2e6b85010fc70144b444c775f",
            "subsets_game_a.combined.gbm.s0.csv": "6ebf94a61a57c7237995db73dfd0731275aefc8497af7a9981f6b1d42c9b2825",
            "subsets_game_a.combined.qda.s0.csv": "e9745c38a6383867c4ab9816dab57ad6d52edc9fe607cd85d9fc52a447214c1e",
            "subsets_game_a.combined.random_forest.s0.csv": "423fba79e824e366cfeff1001d321f39598c592e286a707691411ca404775bcf",
            "subsets_game_a.movement.extra_trees.s0.csv": "2db16fd3637a8aee46628b9bb12a7580109221a2e6b85010fc70144b444c775f",
            "subsets_game_a.movement.gbm.s0.csv": "6ebf94a61a57c7237995db73dfd0731275aefc8497af7a9981f6b1d42c9b2825",
            "subsets_game_a.movement.qda.s0.csv": "a67d42e9c7e2278dacc7e742fd5c31a4962c7f2cc5d9af4689ddddc57fd68891",
            "subsets_game_a.movement.random_forest.s0.csv": "c651be07621f7712afb14086756cceb5ea43a176f7cb5a0caba5919125bf39c3",
            "subsets_game_a.traffic.extra_trees.s0.csv": "2db16fd3637a8aee46628b9bb12a7580109221a2e6b85010fc70144b444c775f",
            "subsets_game_a.traffic.gbm.s0.csv": "433900022abda81de31e57c0aaca0ed9bdf9c8f57df384b559f258fa27b420e3",
            "subsets_game_a.traffic.qda.s0.csv": "3f9bbb52d1de5e60a071f3e383f8b18df550d69601da02982dfdd9e3d4cc04a1",
            "subsets_game_a.traffic.random_forest.s0.csv": "2db16fd3637a8aee46628b9bb12a7580109221a2e6b85010fc70144b444c775f",
            "summary_s0.csv": "9b440f1cb17023eab1d797d888e633d2dea55b890398234c6ab4031be6df733d",
            "voting_game_a.combined.extra_trees.s0.csv": "30204bb65a1541468f8023d823db63355aebedc04103dbb560d29e45dbe393da",
            "voting_game_a.combined.gbm.s0.csv": "3f212989a2a77c0fe515ac5d7f1c7df346db9eb4c5efb3ced2e6fbca34015254",
            "voting_game_a.combined.qda.s0.csv": "3964cb961a31366eba9c8b7dd2e643f9c92c1a327f308ca5b2784752bcc051ff",
            "voting_game_a.combined.random_forest.s0.csv": "348ffd2033e58e3aa102e3dfc3a8254076f57c955f408a4753527f7842411d6d",
            "voting_game_a.movement.extra_trees.s0.csv": "30204bb65a1541468f8023d823db63355aebedc04103dbb560d29e45dbe393da",
            "voting_game_a.movement.gbm.s0.csv": "3f212989a2a77c0fe515ac5d7f1c7df346db9eb4c5efb3ced2e6fbca34015254",
            "voting_game_a.movement.qda.s0.csv": "10e7079d368ff3013ef49238a2d146bdd3cc7523bd86a8d82708a92e41a6944b",
            "voting_game_a.movement.random_forest.s0.csv": "404a0cd55b368a8c80a7c72e2410830dfd9e9bc15af2d1932c1cf3ac71bc0c3c",
            "voting_game_a.traffic.extra_trees.s0.csv": "30204bb65a1541468f8023d823db63355aebedc04103dbb560d29e45dbe393da",
            "voting_game_a.traffic.gbm.s0.csv": "88814cc9a56d29ab3b6d7965771184fd6f437a3416ccac41e22c3bf1e17ae0d0",
            "voting_game_a.traffic.qda.s0.csv": "4852cf2f69dafa72699165a6812438f5a24013ed57dd76f403a581a703a6cf22",
            "voting_game_a.traffic.random_forest.s0.csv": "30204bb65a1541468f8023d823db63355aebedc04103dbb560d29e45dbe393da",
        },
        "logistic": {
            "confusion_game_a.combined.logistic.s0.csv": "de0dbc9aed701f680a23a291b757892752a7f1a2803ffea66b2d5f0df925b9e2",
            "confusion_game_a.movement.logistic.s0.csv": "4df81b60056dac9c9a62b8212bf3318a3837db565f5f983aa688a8b29bd64ba9",
            "confusion_game_a.traffic.logistic.s0.csv": "1f09e1c0b23b753b7e19f2681f97870e51bf4c502896f1a83ca2dc94ce8bcd03",
            "report.json": "d9d5602d08c5c5e32edcf3407e6485cfed262eed72bf4b8748dd87a0cb06871f",
            "subsets_game_a.combined.logistic.s0.csv": "1e795869bcfa743b98ca24cbd54bae75d8a5fc1ac00d38926ace022a0bda3bd9",
            "subsets_game_a.movement.logistic.s0.csv": "1e795869bcfa743b98ca24cbd54bae75d8a5fc1ac00d38926ace022a0bda3bd9",
            "subsets_game_a.traffic.logistic.s0.csv": "c74e9e478d0fa9ebadd79f8b91d2be958a435216b338651b020de0026f85b115",
            "summary_s0.csv": "e2b7bfcb11ed3275c7cf6c0f06854b069a4154c545145b83683194f9557d7a1d",
            "voting_game_a.combined.logistic.s0.csv": "d0e630f748e77d2b391051c1f7ec4c68071c013058284defb0530f9d08903152",
            "voting_game_a.movement.logistic.s0.csv": "d0e630f748e77d2b391051c1f7ec4c68071c013058284defb0530f9d08903152",
            "voting_game_a.traffic.logistic.s0.csv": "23e7e3009c29fa9aa9bb918bcefbb48f2fa507f906dca1cd45644f6c384af5e6",
        },
        "ensemble": {
            "confusion_game_a.combined.ensemble.s0.csv": "a241d9c22299d85567862fed68c6270556ec692c8facfa60bb964c31295fac42",
            "report.json": "76d18f1924395187654be1ea63149f6a7076ee789038c6c3f1c8a24ba9cad2f8",
            "subsets_game_a.combined.ensemble.s0.csv": "5f272566f6e917df63b029b731281137298ed09acb50b0283963e8f3c79fbdb7",
            "summary_s0.csv": "719b61f887af65896f33a065be03ea3c28609398312bc55a37db8554e9163874",
            "voting_game_a.combined.ensemble.s0.csv": "94e986b5c072211ee4161cbc2539d69cc804587df2fec6f5c8582f143bfa16e0",
        },
    },
}

# run name -> (feature sets, model kinds); small forests and gbm keep the
# first run short, and the ensemble's members run at their defaults
REPORT_RUNS = {
    "qda_forests_gbm": (
        ["movement", "traffic", "combined"],
        ["qda", "random_forest", "extra_trees", "gbm"],
    ),
    "logistic": (["movement", "traffic", "combined"], ["logistic"]),
    "ensemble": (["combined"], ["ensemble"]),
}


@pytest.fixture(scope="module")
def report_cohort(tmp_path_factory):
    """A directory holding the cohort; runs start there, so that the
    relative paths report.json records are the same on every host."""
    root = tmp_path_factory.mktemp("report_cohort")
    write_cohort(generate_synthetic_cohort(10, minutes=1.0, seed=1), root / "cohort")
    return root


def evaluate_digests(root, run, blas_threads, out_dir):
    """Run `vrident evaluate` for ``run`` from ``root`` in a new process
    under ``OPENBLAS_NUM_THREADS=blas_threads``, writing into ``out_dir``;
    the sha256 of each file it writes."""
    feature_sets, kinds = REPORT_RUNS[run]
    config = {
        "manifest": "cohort/manifest.json",
        "feature_sets": feature_sets,
        "model_kinds": kinds,
        "model_params": {
            "random_forest": {"n_trees": 5},
            "extra_trees": {"n_trees": 5},
            "gbm": {"n_rounds": 3},
        },
        "train_s": 30,
        "test_s": 30,
        "vote_k": [1, 3],
        "subset_sizes": [5, 10],
        "out_dir": "reports",
    }
    (root / f"{run}.json").write_text(json.dumps(config))
    env = {k: v for k, v in os.environ.items() if k != "VRIDENT_JOBS"}
    env["VRIDENT_OUT_DIR"] = str(out_dir)
    src = str(Path(vrident.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run(
        [sys.executable, "-m", "vrident.cli", "evaluate", "--config", f"{run}.json"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def openblas_core():
    lib = _blas.openblas()
    if lib is None:
        return None
    core = lib.scipy_openblas_get_corename64_
    core.argtypes, core.restype = [], ctypes.c_char_p
    return core().decode()


def skip_off_the_recorded_core(run):
    core, pinned = openblas_core(), GOLDEN_REPORT_SHA256["openblas_core"]
    if run != "qda_forests_gbm" and core != pinned:
        pytest.skip(f"{run} bytes were pinned on OpenBLAS core {pinned}, this host has {core}")


@pytest.mark.parametrize("run", REPORT_RUNS)
def test_report_bytes_are_pinned(report_cohort, tmp_path, run):
    skip_off_the_recorded_core(run)
    got = evaluate_digests(report_cohort, run, 1, tmp_path / "out")
    assert got == GOLDEN_REPORT_SHA256["runs"][run], (
        f"pinned with numpy {GOLDEN_REPORT_SHA256['numpy']}, this is {np.__version__}"
    )


@pytest.mark.parametrize("run", ["logistic", "ensemble"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(report_cohort, tmp_path, run):
    skip_off_the_recorded_core(run)
    if _blas._swap() is None:
        pytest.skip("numpy bundles no OpenBLAS here, so BLAS is not pinned")
    got = evaluate_digests(report_cohort, run, 2, tmp_path / "out")
    assert got == GOLDEN_REPORT_SHA256["runs"][run]


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
            lambda m: m["vts"][1].append([0.0, 1.0]),
            "qda model file: 'vts[1]' has shape (3, 2), expected (r, 2) with r <= 2",
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
        "qda-vts",
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
    "kind, edit, message",
    [
        ("logistic", lambda f: f["model"].update(bogus=1), "logistic model file: unknown key 'bogus'"),
        ("logistic", lambda f: f.update(extra=1), "model file: unknown key 'extra'"),
        ("qda", lambda f: f["model"]["labels"].update(order=1), "'labels': unknown key 'order'"),
        ("qda", lambda f: f["model"]["labels"].pop("dtype"), "'labels': missing key 'dtype'"),
        (
            "extra_trees",
            lambda f: f["model"]["trees"][1].update(depth=2),
            "extra_trees model file: 'trees'[1]: unknown key 'depth'",
        ),
        (
            "gbm",
            lambda f: f["model"]["trees"][2][0].pop("left"),
            "gbm model file: 'trees'[2][0]: missing key 'left'",
        ),
        (
            "random_forest",
            lambda f: f["model"].update(trees=3),
            "random_forest model file: 'trees' must be a list, got int",
        ),
        (
            "extra_trees",
            lambda f: f["model"]["trees"].__setitem__(0, 7),
            "extra_trees model file: 'trees'[0] must be an object, got int",
        ),
        ("gbm", lambda f: f["model"].update(trees=3), "gbm model file: 'trees' must be a list, got int"),
        (
            "gbm",
            lambda f: f["model"]["trees"].__setitem__(1, {}),
            "gbm model file: 'trees'[1] must be a list, got dict",
        ),
        (
            "logistic",
            lambda f: f["model"].update(converged=5),
            "logistic model file: 'converged' has shape (), expected (3,)",
        ),
        (
            "logistic",
            lambda f: f["model"]["converged"].pop(),
            "logistic model file: 'converged' has shape (2,), expected (3,)",
        ),
        (
            "gbm",
            lambda f: f["model"].update(train_loss=3),
            "gbm model file: 'train_loss' has shape (), expected (6,)",
        ),
        (
            "gbm",
            lambda f: f["model"]["train_loss"].append(0.5),
            "gbm model file: 'train_loss' has shape (7,), expected (6,)",
        ),
        (
            "qda",
            lambda f: f["model"].update(params=[1e-6]),
            "qda model file: 'params' must be an object, got list",
        ),
        ("qda", lambda f: f["model"].update(kind=["qda"]), "unknown model kind ['qda']"),
        # wrong-typed values used to be cast silently (null -> NaN, "no" ->
        # True, 1.7 -> 1, "0.25" -> 0.25) or, for 2**70, raise OverflowError
        (
            "logistic",
            lambda f: f["model"]["weights"][1].__setitem__(0, None),
            "logistic model file: 'weights' must hold only numbers",
        ),
        (
            "logistic",
            lambda f: f["model"].update(converged=["no", "no", "no"]),
            "logistic model file: 'converged' must hold only true or false",
        ),
        (
            "random_forest",
            lambda f: f["model"]["trees"][0]["feature"].__setitem__(0, 1.7),
            "random_forest model file: 'trees'[0]: 'feature' must hold only 64-bit integers",
        ),
        (
            "extra_trees",
            lambda f: f["model"]["trees"][0]["threshold"].__setitem__(0, "0.25"),
            "extra_trees model file: 'trees'[0]: 'threshold' must hold only numbers",
        ),
        (
            "random_forest",
            lambda f: f["model"]["trees"][0]["feature"].__setitem__(0, 2**70),
            "random_forest model file: 'trees'[0]: 'feature' must hold only 64-bit integers",
        ),
        # numpy reads true/false beside numbers as 1/0
        (
            "logistic",
            lambda f: f["model"]["weights"][1].__setitem__(0, True),
            "logistic model file: 'weights' must hold only numbers",
        ),
        (
            "extra_trees",
            lambda f: f["model"]["trees"][0]["feature"].__setitem__(0, True),
            "extra_trees model file: 'trees'[0]: 'feature' must hold only 64-bit integers",
        ),
        (
            "logistic",
            lambda f: f["model"]["converged"].__setitem__(0, 1),
            "logistic model file: 'converged' must hold only true or false",
        ),
        (
            "qda",
            lambda f: f["model"]["vts"][2][1].__setitem__(0, False),
            "qda model file: 'vts[2]' must hold only numbers",
        ),
        (
            "qda",
            lambda f: f["model"]["weights"][0].__setitem__(1, True),
            "qda model file: 'weights[0]' must hold only numbers",
        ),
        (
            "qda",
            lambda f: f["model"].update(vts=3),
            "qda model file: 'vts' must be a list, got int",
        ),
        ("qda", lambda f: f["model"]["vts"].pop(), "qda model file: 'vts' holds 2 arrays, expected 3"),
        (
            "qda",
            lambda f: f["model"]["weights"].append([0.5]),
            "qda model file: 'weights' holds 4 arrays, expected 3",
        ),
        (
            "qda",
            lambda f: f["model"]["vts"].__setitem__(0, [0.0, 1.0]),
            "qda model file: 'vts[0]' has shape (2,), expected (r, 2) with r <= 2",
        ),
        (
            "qda",
            lambda f: f["model"]["vts"][0].pop(),
            "qda model file: 'weights[0]' has shape (2,), expected (1,)",
        ),
        (
            "qda",
            lambda f: f["model"]["weights"][1].__setitem__(0, 1.0),
            "qda model file: 'weights[1]' must lie in [0, 1)",
        ),
        (
            "qda",
            lambda f: f["model"]["weights"][1].__setitem__(1, -0.5),
            "qda model file: 'weights[1]' must lie in [0, 1)",
        ),
        (
            "qda",
            lambda f: f["model"]["loads"].__setitem__(2, 0.0),
            "qda model file: 'loads' must be finite and > 0",
        ),
        (
            "qda",
            lambda f: f["model"]["loads"].__setitem__(0, float("inf")),
            "qda model file: 'loads' must be finite and > 0",
        ),
        (
            "qda",
            lambda f: f["model"]["vts"][1][0].__setitem__(1, float("nan")),
            "qda model file: 'vts[1]' must hold only finite numbers",
        ),
        (
            "qda",
            lambda f: f["model"]["means"][0].__setitem__(0, float("nan")),
            "qda model file: 'means' must hold only finite numbers",
        ),
        (
            "qda",
            lambda f: f["model"]["logdets"].__setitem__(1, -float("inf")),
            "qda model file: 'logdets' must hold only finite numbers",
        ),
    ],
    ids=[
        "model-unknown-key",
        "top-level-unknown-key",
        "labels-unknown-key",
        "labels-missing-key",
        "tree-unknown-key",
        "gbm-tree-missing-key",
        "forest-trees-not-list",
        "forest-tree-not-object",
        "gbm-trees-not-list",
        "gbm-round-not-list",
        "converged-not-list",
        "converged-short",
        "train-loss-not-list",
        "train-loss-long",
        "params-not-object",
        "kind-not-string",
        "weights-null",
        "converged-strings",
        "feature-float",
        "threshold-string",
        "feature-huge",
        "weights-bool",
        "feature-bool",
        "converged-number",
        "qda-vts-bool",
        "qda-weights-bool",
        "qda-vts-not-list",
        "qda-vts-short",
        "qda-weights-long",
        "qda-vts-flat",
        "qda-weights-longer-than-vts",
        "qda-weight-one",
        "qda-weight-negative",
        "qda-load-zero",
        "qda-load-inf",
        "qda-vts-nan",
        "qda-means-nan",
        "qda-logdets-inf",
    ],
)
def test_load_names_the_key_of_a_malformed_model_file(tmp_path, kind, edit, message):
    X, y = blobs(seed=79)
    path = tmp_path / "m.json"
    save_model(cheap_model(kind).fit(X, y), str(path))
    obj = json.loads(path.read_text())
    edit(obj)
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
