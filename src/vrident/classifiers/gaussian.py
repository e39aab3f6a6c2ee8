"""Quadratic discriminant analysis with diagonal covariance loading.

Each class is fitted from a thin SVD of its n centered rows, C = U S V^T
with V of shape (d, r) and r = len(s) = min(n, d), so no LU factorization
is needed. With alpha the ridge load, the loaded covariance
V diag(s^2/n) V^T + alpha*I has the inverse
(I - V diag(s^2/(s^2 + n*alpha)) V^T)/alpha and the log-determinant
(d - r)*log(alpha) + sum(log(s^2/n + alpha)) (Hager, SIAM Review 1989;
ridge loading as in Friedman, JASA 1989).
"""
from __future__ import annotations

import math

import numpy as np

from .base import Classifier, check_params, saved_array


class QuadraticDiscriminant(Classifier):
    """Per-user Gaussian fit: mean plus covariance loaded with
    ridge*(trace/d) on the diagonal so 511-feature covariances estimated
    from a few dozen windows stay invertible. Priors are uniform; posterior
    probabilities come from the class log-densities through a log-sum-exp.
    """

    kind = "qda"
    param_names = ("ridge",)
    state_names = ("means", "precisions", "logdets")

    def __init__(self, ridge: float = 1e-6, seed: int = 0) -> None:
        check_params(QuadraticDiscriminant.__init__, locals())
        super().__init__(seed)
        if ridge <= 0:
            raise ValueError(f"ridge must be positive, got {ridge}")
        self.ridge = float(ridge)
        self.means_: np.ndarray | None = None  # (k, d)
        # one (d, d) precision per class: a single (k, d, d) block would
        # need k*d*d contiguous floats at once
        self.precisions_: list[np.ndarray] | None = None
        self.logdets_: np.ndarray | None = None  # (k,)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        k = self.labels_.shape[0]
        d = X.shape[1]
        self.means_ = np.zeros((k, d))
        self.precisions_ = []
        self.logdets_ = np.zeros(k)
        for c in range(k):
            rows = X[y_idx == c]
            n = rows.shape[0]
            if n < 2:
                raise ValueError(
                    f"user {self.labels_[c]!r} has {n} training window(s); QDA needs at least 2"
                )
            mu = rows.mean(axis=0)
            try:
                _, sv, vt = np.linalg.svd(rows - mu, full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"SVD of user {self.labels_[c]!r}'s rows failed: {exc}") from None
            s2 = sv * sv
            tr = float(s2.sum()) / n
            alpha = self.ridge * (tr / d) if tr > 0 else self.ridge
            logdet = math.nan
            if alpha > 0:
                logdet = (d - sv.shape[0]) * math.log(alpha) + float(np.log(s2 / n + alpha).sum())
            if not math.isfinite(logdet):
                raise ValueError(
                    f"covariance for user {self.labels_[c]!r} is not positive definite"
                )
            precision = (vt.T * (-s2 / (s2 + n * alpha))) @ vt
            precision[np.diag_indices(d)] += 1.0
            precision /= alpha
            self.means_[c] = mu
            self.precisions_.append(precision)
            self.logdets_[c] = logdet

    def log_densities(self, X) -> np.ndarray:
        """Per-class Gaussian log-density of each row, shape (n, k)."""
        if self.means_ is None:
            raise ValueError("qda model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        d = X.shape[1]
        out = np.empty((X.shape[0], self.means_.shape[0]))
        for c in range(self.means_.shape[0]):
            diff = X - self.means_[c]
            quad = np.einsum("ij,jk,ik->i", diff, self.precisions_[c], diff)
            out[:, c] = -0.5 * (d * math.log(2.0 * math.pi) + self.logdets_[c] + quad)
        return out

    def _proba(self, X: np.ndarray) -> np.ndarray:
        # uniform prior adds a constant, which log-sum-exp cancels
        ll = self.log_densities(X)
        shifted = ll - ll.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def restore(self, state: dict) -> None:
        k, d = self.labels_.shape[0], self.n_features_
        where = "qda model file"
        self.means_ = saved_array(where, "means", state["means"], np.float64, (k, d))
        self.precisions_ = list(
            saved_array(where, "precisions", state["precisions"], np.float64, (k, d, d))
        )
        self.logdets_ = saved_array(where, "logdets", state["logdets"], np.float64, (k,))
