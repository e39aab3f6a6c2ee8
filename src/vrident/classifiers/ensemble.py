"""Soft-voting ensemble over an arbitrary list of fitted or unfitted models."""
from __future__ import annotations

import numpy as np

from .base import check_matrix


class SoftVotingEnsemble:
    """Averages member predict_proba outputs with equal weight.

    Members may arrive unfitted (fit() trains each in order on the same
    data) or already fitted (call predict_proba directly).
    Every member must expose labels_, predict_proba, and fit; after
    fitting, all label vectors must be identical or prediction refuses to
    average incompatible columns.
    """

    kind = "ensemble"

    def __init__(self, members: list) -> None:
        if len(members) < 2:
            raise ValueError(f"ensemble needs at least 2 members, got {len(members)}")
        self.members = list(members)
        self.labels_: np.ndarray | None = None

    def _sync_labels(self) -> None:
        first = self.members[0].labels_
        if first is None:
            raise ValueError("ensemble members are not fitted")
        for i, m in enumerate(self.members[1:], start=1):
            if m.labels_ is None:
                raise ValueError("ensemble members are not fitted")
            if m.labels_.shape != first.shape or not np.array_equal(m.labels_, first):
                raise ValueError(
                    f"member {i} was fitted on different labels than member 0"
                )
        self.labels_ = first

    def fit(self, X, y) -> "SoftVotingEnsemble":
        for m in self.members:
            m.fit(X, y)
        self._sync_labels()
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.labels_ is None:
            self._sync_labels()
        X = check_matrix(X)
        total = self.members[0].predict_proba(X)
        for m in self.members[1:]:
            total = total + m.predict_proba(X)
        return total / len(self.members)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.labels_[np.argmax(proba, axis=1)]
