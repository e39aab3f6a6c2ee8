"""QDA's thin-SVD fit against the dense reference fit.

The reference builds each class's loaded covariance, Cov + alpha*I, and
inverts it with ``np.linalg.inv`` and ``np.linalg.slogdet``, which is how
the fit worked before it moved to a thin SVD of the centered rows.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.classifiers import QuadraticDiscriminant


def dense_fit(X, y, ridge):
    """Per-class (mean, precision, logdet) from the dense loaded covariance."""
    d = X.shape[1]
    out = []
    for lab in np.unique(y):
        rows = X[y == lab]
        mu = rows.mean(axis=0)
        centered = rows - mu
        cov = centered.T @ centered / rows.shape[0]
        tr = float(np.trace(cov))
        cov += (ridge * (tr / d) if tr > 0 else ridge) * np.eye(d)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        out.append((mu, np.linalg.inv(cov), logdet))
    return out


def rebuilt_precision(model, c):
    """Class c's dense precision (I - V^T diag(w) V)/alpha, rebuilt from the
    factors the model stores (V^T is ``vts_[c]``)."""
    vt = model.vts_[c]
    precision = (vt.T * -model.weights_[c]) @ vt
    precision[np.diag_indices(vt.shape[1])] += 1.0
    return precision / model.loads_[c]


def dense_log_densities(fit, Xq):
    d = Xq.shape[1]
    cols = []
    for mu, precision, logdet in fit:
        diff = Xq - mu
        quad = np.einsum("ij,jk,ik->i", diff, precision, diff)
        cols.append(-0.5 * (d * math.log(2.0 * math.pi) + logdet + quad))
    return np.stack(cols, axis=1)


def class_blobs(seed, k, n_c, d, spread=3.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=spread, size=(k, d))
    mixes = rng.normal(size=(k, d, d)) / math.sqrt(d) + np.eye(d)
    X = np.vstack([centers[c] + rng.normal(size=(n_c, d)) @ mixes[c] for c in range(k)])
    return X, np.repeat(np.arange(k), n_c), centers


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 4),
    d=st.integers(1, 12),
    extra=st.integers(1, 30),
    ridge=st.sampled_from([1e-2, 0.1, 1.0, 10.0]),
)
def test_fit_matches_dense_inverse_on_well_conditioned_classes(seed, k, d, extra, ridge):
    # more rows than features, and a load of at least 1% of the mean
    # variance: the SVD form (I - V^T W V)/alpha rounds by about eps/alpha,
    # so the tolerance is relative to each precision's largest entry
    X, y, _ = class_blobs(seed, k, d + extra, d)
    model = QuadraticDiscriminant(ridge=ridge).fit(X, y)
    for c, (mu, precision, logdet) in enumerate(dense_fit(X, y, ridge)):
        np.testing.assert_array_equal(model.means_[c], mu)
        scale = np.abs(precision).max()
        np.testing.assert_allclose(
            rebuilt_precision(model, c), precision, rtol=1e-10, atol=1e-10 * scale
        )
        assert model.logdets_[c] == pytest.approx(logdet, rel=1e-10, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 5),
    d=st.integers(8, 96),
    n_c=st.integers(2, 7),
    ridge=st.sampled_from([1e-6, 1e-4, 1e-2, 1.0]),
)
def test_log_densities_match_dense_fit_with_fewer_rows_than_features(seed, k, d, n_c, ridge):
    # evaluate_matrix's regime: 2 training windows per user in 511 features,
    # so each class covariance has rank n_c - 1 before the load
    X, y, centers = class_blobs(seed, k, n_c, d)
    Xq = np.repeat(centers, 3, axis=0) + np.random.default_rng(seed).normal(size=(3 * k, d))
    model = QuadraticDiscriminant(ridge=ridge).fit(X, y)
    got = model._log_densities(Xq)
    want = dense_log_densities(dense_fit(X, y, ridge), Xq)
    np.testing.assert_allclose(got, want, rtol=1e-8)
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


def test_class_without_spread_gets_the_plain_ridge():
    d, ridge = 5, 1e-3
    rng = np.random.default_rng(4)
    X = np.vstack([np.tile(rng.normal(size=d), (4, 1)), rng.normal(size=(6, d))])
    y = np.array(["still"] * 4 + ["moving"] * 6)
    model = QuadraticDiscriminant(ridge=ridge).fit(X, y)
    c = list(model.labels_).index("still")
    assert np.array_equal(rebuilt_precision(model, c), np.eye(d) / ridge)
    assert model.logdets_[c] == pytest.approx(d * math.log(ridge), rel=1e-15)


def test_load_that_underflows_is_not_positive_definite():
    # tr > 0 but ridge * tr / d rounds to 0.0, which no precision can follow
    X = np.array([[0.0], [2e-161], [0.0], [1.0], [3.0]])
    y = np.array(["tiny", "tiny", "wide", "wide", "wide"])
    with pytest.raises(ValueError, match="'tiny'.* is not positive definite"):
        QuadraticDiscriminant().fit(X, y)


def test_svd_failure_names_the_user(monkeypatch):
    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    X = np.array([[0.0], [1.0], [5.0], [6.0]])
    y = np.array(["a", "a", "b", "b"])
    with pytest.raises(ValueError, match="'a'.*SVD did not converge"):
        QuadraticDiscriminant().fit(X, y)
