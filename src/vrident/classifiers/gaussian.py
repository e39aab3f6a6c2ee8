"""Quadratic discriminant analysis with diagonal covariance loading, kept in
low-rank form.

Each class is fitted from a thin SVD of its n centered rows, C = U S V^T
with V^T of shape (r, d) and r = len(s) = min(n, d), so no LU factorization
is needed and no d x d array is formed. With alpha the ridge load, the
loaded covariance V diag(s^2/n) V^T + alpha*I has the inverse
(I - V diag(w) V^T)/alpha with w = s^2/(s^2 + n*alpha) in [0, 1), and the
log-determinant (d - r)*log(alpha) + sum(log(s^2/n + alpha)) (Hager, SIAM
Review 1989; ridge loading as in Friedman, JASA 1989). A class keeps its
mean, V^T, w, alpha and log-determinant, and a row x scores the quadratic
form (|u|^2 - ((V^T u)^2) . w)/alpha with u = x - mean in O(d*r).
"""
from __future__ import annotations

import math

import numpy as np

from .base import Classifier, _softmax, check_params, saved_array, saved_list


class QuadraticDiscriminant(Classifier):
    """Per-user Gaussian fit: mean plus covariance loaded with
    ridge*(trace/d) on the diagonal so 511-feature covariances estimated
    from a few dozen windows stay invertible. Priors are uniform; posterior
    probabilities come from the class log-densities through a log-sum-exp.
    """

    kind = "qda"
    param_names = ("ridge",)
    state_names = ("means", "vts", "weights", "loads", "logdets")

    def __init__(self, ridge: float = 1e-6, seed: int = 0) -> None:
        check_params(QuadraticDiscriminant.__init__, locals())
        super().__init__(seed)
        if ridge <= 0:
            raise ValueError(f"ridge must be positive, got {ridge}")
        self.ridge = float(ridge)
        self.means_: np.ndarray | None = None  # (k, d)
        # per class, ragged in r_c = min(n_c, d): V^T (r_c, d) and w (r_c,)
        self.vts_: list[np.ndarray] | None = None
        self.weights_: list[np.ndarray] | None = None
        self.loads_: np.ndarray | None = None  # (k,) alpha
        self.logdets_: np.ndarray | None = None  # (k,)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        k = self.labels_.shape[0]
        d = X.shape[1]
        self.means_ = np.zeros((k, d))
        self.vts_, self.weights_ = [], []
        self.loads_ = np.zeros(k)
        self.logdets_ = np.zeros(k)
        for c in range(k):
            user = self.labels_[c].item()
            rows = X[y_idx == c]
            n = rows.shape[0]
            if n < 2:
                raise ValueError(f"user {user!r} has {n} training window(s); QDA needs at least 2")
            mu = rows.mean(axis=0)
            try:
                _, sv, vt = np.linalg.svd(rows - mu, full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"SVD of user {user!r}'s rows failed: {exc}") from None
            s2 = sv * sv
            tr = float(s2.sum()) / n
            alpha = self.ridge * (tr / d) if tr > 0 else self.ridge
            logdet = math.nan
            if alpha > 0:
                logdet = (d - sv.shape[0]) * math.log(alpha) + float(np.log(s2 / n + alpha).sum())
            w = s2 / (s2 + n * alpha)
            # a weight that rounds to 1 would drop its direction from the precision
            if not (math.isfinite(logdet) and (w < 1.0).all()):
                raise ValueError(f"covariance for user {user!r} is not positive definite")
            self.means_[c] = mu
            self.vts_.append(vt)
            self.weights_.append(w)
            self.loads_[c] = alpha
            self.logdets_[c] = logdet

    def _log_densities(self, X: np.ndarray) -> np.ndarray:
        """Per-class Gaussian log-density of each row, shape (n, k)."""
        d = X.shape[1]
        out = np.empty((X.shape[0], self.means_.shape[0]))
        for c in range(self.means_.shape[0]):
            u = X - self.means_[c]
            p = u @ self.vts_[c].T
            quad = (np.einsum("ij,ij->i", u, u) - (p * p) @ self.weights_[c]) / self.loads_[c]
            out[:, c] = -0.5 * (d * math.log(2.0 * math.pi) + self.logdets_[c] + quad)
        return out

    def _proba(self, X: np.ndarray) -> np.ndarray:
        # uniform prior adds a constant, which the softmax cancels
        return _softmax(self._log_densities(X))

    def restore(self, state: dict) -> None:
        k, d = self.labels_.shape[0], self.n_features_
        where = "qda model file"
        means = saved_array(where, "means", state["means"], np.float64, (k, d))
        vts, weights = [], []
        for key in ("vts", "weights"):
            n_saved = len(saved_list(f"{where}: {key!r}", state[key]))
            if n_saved != k:
                raise ValueError(f"{where}: {key!r} holds {n_saved} arrays, expected {k}")
        for c in range(k):
            vt = saved_array(where, f"vts[{c}]", state["vts"][c], np.float64)
            if vt.ndim != 2 or vt.shape[1] != d or vt.shape[0] > d:
                raise ValueError(
                    f"{where}: 'vts[{c}]' has shape {vt.shape}, expected (r, {d}) with r <= {d}"
                )
            w = saved_array(where, f"weights[{c}]", state["weights"][c], np.float64, vt.shape[:1])
            if not ((w >= 0.0) & (w < 1.0)).all():
                raise ValueError(f"{where}: 'weights[{c}]' must lie in [0, 1)")
            vts.append(_finite(where, f"vts[{c}]", vt))
            weights.append(w)
        loads = saved_array(where, "loads", state["loads"], np.float64, (k,))
        if not (np.isfinite(loads) & (loads > 0.0)).all():
            raise ValueError(f"{where}: 'loads' must be finite and > 0")
        logdets = saved_array(where, "logdets", state["logdets"], np.float64, (k,))
        self.means_ = _finite(where, "means", means)
        self.vts_, self.weights_, self.loads_ = vts, weights, loads
        self.logdets_ = _finite(where, "logdets", logdets)


def _finite(where: str, key: str, values: np.ndarray) -> np.ndarray:
    """``values`` unless one of them is NaN or infinite, which json reads."""
    if not np.isfinite(values).all():
        raise ValueError(f"{where}: {key!r} must hold only finite numbers")
    return values
