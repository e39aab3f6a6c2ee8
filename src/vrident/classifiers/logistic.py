"""One-vs-rest logistic regression with Tikhonov-regularized weights.

Each user's binary problem minimizes mean log-loss + (lam/2)*||w||^2 with an
unpenalized bias, solved by damped Newton iterations (backtracking line
search) to a gradient 2-norm of tol. The problem is strictly convex (lam > 0
plus positive sigmoid curvature on the bias), so the optimizer choice affects
speed but nothing observable beyond the tolerance.
"""
from __future__ import annotations

import numpy as np

from .base import Classifier, check_params, saved_array


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def binary_objective(w_aug: np.ndarray, X_aug: np.ndarray, y01: np.ndarray, lam: float) -> float:
    """Mean log-loss plus the ridge term (bias excluded). Stable for large |z|."""
    z = X_aug @ w_aug
    loss = float(np.mean(np.logaddexp(0.0, z) - y01 * z))
    return loss + 0.5 * lam * float(w_aug[:-1] @ w_aug[:-1])


def binary_gradient(w_aug: np.ndarray, X_aug: np.ndarray, y01: np.ndarray, lam: float) -> np.ndarray:
    z = X_aug @ w_aug
    p = _sigmoid(z)
    grad = X_aug.T @ (p - y01) / X_aug.shape[0]
    grad[:-1] += lam * w_aug[:-1]
    return grad


def _fit_binary(X_aug, y01, lam, tol, max_iter, scaled, hess):
    """Damped Newton fit of one binary problem. ``scaled`` (the shape of
    X_aug) and ``hess`` (d+1, d+1) are work buffers, overwritten at every
    step, so that a fit's steps reuse the same memory."""
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
        np.multiply(X_aug, curv[:, None], out=scaled)
        np.matmul(scaled.T, X_aug, out=hess)
        hess /= n
        # adding lam * diag(reg) also added +0.0 off the diagonal, which turns
        # a -0.0 into +0.0 and leaves every other value as it is
        hess += 0.0
        hess[diag] += lam * reg
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        slope = float(grad @ step)
        if slope <= 0:  # not a descent direction; fall back to the gradient
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


class LogisticOneVsRest(Classifier):
    kind = "logistic"
    param_names = ("lam", "tol", "max_iter")
    state_names = ("weights", "converged")

    def __init__(
        self, lam: float = 1.0, tol: float = 1e-6, max_iter: int = 100, seed: int = 0
    ) -> None:
        check_params(LogisticOneVsRest.__init__, locals())
        super().__init__(seed)
        if lam < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        self.lam = float(lam)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.weights_: np.ndarray | None = None  # (n_labels, d+1), bias last
        self.converged_: list[bool] = []

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        X_aug = np.hstack([X, np.ones((X.shape[0], 1))])
        d1 = X_aug.shape[1]
        self.weights_ = np.zeros((self.labels_.shape[0], d1))
        self.converged_ = []
        # one scaled-rows and one Hessian buffer serve every class and step
        work = np.empty_like(X_aug), np.empty((d1, d1))
        for c in range(self.labels_.shape[0]):
            y01 = (y_idx == c).astype(np.float64)
            w, ok = _fit_binary(X_aug, y01, self.lam, self.tol, self.max_iter, *work)
            self.weights_[c] = w
            self.converged_.append(ok)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """Per-user sigmoid scores before normalization, shape (n, n_labels)."""
        return _sigmoid(np.hstack([X, np.ones((X.shape[0], 1))]) @ self.weights_.T)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        s = self._scores(X)
        return s / s.sum(axis=1, keepdims=True)

    def restore(self, state: dict) -> None:
        k, where = self.labels_.shape[0], "logistic model file"
        self.weights_ = saved_array(
            where, "weights", state["weights"], np.float64, (k, self.n_features_ + 1)
        )
        self.converged_ = saved_array(where, "converged", state["converged"], bool, (k,)).tolist()
