"""Soft-voting ensemble over an arbitrary list of fitted or unfitted models."""
from __future__ import annotations

import numpy as np

from .base import Classifier


class SoftVotingEnsemble(Classifier):
    """Averages member predict_proba outputs with equal weight.

    Members may arrive unfitted (fit() trains each in order on the same
    data) or all fitted, in which case ``labels_`` and ``n_features_`` are
    set, and checked, at construction. Every member must expose labels_,
    predict_proba, and fit; members fitted on different labels, or on
    different feature counts where they record one, are refused.
    """

    kind = "ensemble"

    def __init__(self, members: list) -> None:
        if len(members) < 2:
            raise ValueError(f"ensemble needs at least 2 members, got {len(members)}")
        self.members = list(members)
        self.labels_: np.ndarray | None = None
        self.n_features_: int | None = None
        if all(m.labels_ is not None for m in self.members):
            self._sync()

    def _sync(self) -> None:
        """Take ``labels_`` and ``n_features_`` from the fitted members."""
        first = self.members[0].labels_
        for i, m in enumerate(self.members[1:], start=1):
            if m.labels_.shape != first.shape or not np.array_equal(m.labels_, first):
                raise ValueError(f"member {i} was fitted on different labels than member 0")
        widths = {getattr(m, "n_features_", None) for m in self.members} - {None}
        if len(widths) > 1:
            raise ValueError(f"members were fitted on different feature counts {sorted(widths)}")
        self.labels_ = first
        if widths:
            self.n_features_ = widths.pop()

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        y = self.labels_[y_idx]
        for m in self.members:
            m.fit(X, y)
        self._sync()

    def _proba(self, X: np.ndarray) -> np.ndarray:
        total = self.members[0].predict_proba(X)
        for m in self.members[1:]:
            total = total + m.predict_proba(X)
        return total / len(self.members)
