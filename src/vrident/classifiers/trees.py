"""Random forest and extremely randomized trees.

Both grow unpruned classification trees until nodes are pure (or below
min-samples-split) using Gini impurity over a random subset of ceil(sqrt(d))
candidate features per node. The forest searches all midpoints between
consecutive distinct values of each candidate; the extra-trees variant draws
a single uniform threshold in [min, max) per candidate instead, and trains
on the full sample (no bootstrap). Left branches take values <= threshold.
Equal-impurity ties resolve to the lowest feature index, then the lowest
threshold, so training is deterministic given the seed: tree t uses an
independent Philox stream keyed by SeedSequence(entropy=seed, spawn_key=(t,)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import Classifier


@dataclass
class FlatTree:
    """Arrays-of-nodes tree: feature[i] < 0 marks a leaf. ``value`` holds the
    leaf payload per node (class distribution rows here; scalars for the
    boosting regression trees)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of X."""
        pos = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[pos] >= 0)
        while active.size:
            node = pos[active]
            vals = X[active, self.feature[node]]
            pos[active] = np.where(vals <= self.threshold[node], self.left[node], self.right[node])
            active = active[self.feature[pos[active]] >= 0]
        return pos

    def to_json(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FlatTree":
        return cls(
            feature=np.array(obj["feature"], dtype=np.int64),
            threshold=np.array(obj["threshold"], dtype=np.float64),
            left=np.array(obj["left"], dtype=np.int64),
            right=np.array(obj["right"], dtype=np.int64),
            value=np.array(obj["value"], dtype=np.float64),
        )


class _TreeBuffers:
    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: dict[int, np.ndarray] = {}

    def alloc(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        return len(self.feature) - 1

    def pack(self, value_width: int) -> FlatTree:
        n = len(self.feature)
        value = np.zeros((n, value_width))
        for nid, v in self.value.items():
            value[nid] = v
        return FlatTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=value,
        )


def _best_split_exhaustive(Xn, yn, n_classes, feats):
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


def _best_split_random(Xn, yn, n_classes, feats, rng):
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


def _grow_classification_tree(
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
            split = _best_split_random(Xn, yn, n_classes, feats, rng)
        else:
            split = _best_split_exhaustive(Xn, yn, n_classes, feats)
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


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(tree_index,)))
    )


class RandomForest(Classifier):
    """Bagged Gini trees; probability = mean of leaf class distributions."""

    kind = "random_forest"
    param_names = ("n_trees", "bootstrap", "max_features")

    def __init__(
        self,
        n_trees: int = 100,
        seed: int = 0,
        bootstrap: bool = True,
        max_features: int | None = None,
    ) -> None:
        super().__init__(seed)
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.bootstrap = bool(bootstrap)
        self.max_features = max_features
        self.trees_: list[FlatTree] = []

    _randomized = False

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n, d = X.shape
        n_classes = int(self.labels_.shape[0])
        k = self.max_features if self.max_features is not None else math.ceil(math.sqrt(d))
        self.trees_ = []
        for t in range(self.n_trees):
            rng = _tree_rng(self.seed, t)
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            self.trees_.append(
                _grow_classification_tree(
                    X, y_idx, n_classes, rng, idx, k, randomized=self._randomized
                )
            )

    def _proba(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros((X.shape[0], self.labels_.shape[0]))
        for tree in self.trees_:
            acc += tree.value[tree.apply(X)]
        return acc / len(self.trees_)

    def fitted_state(self) -> dict:
        return {"trees": [t.to_json() for t in self.trees_]}

    def restore(self, state: dict) -> None:
        self.trees_ = [FlatTree.from_json(t) for t in state["trees"]]


class ExtraTrees(RandomForest):
    """No bootstrap; a single uniform-random threshold per candidate feature."""

    kind = "extra_trees"
    _randomized = True

    def __init__(self, n_trees: int = 800, seed: int = 0, max_features: int | None = None) -> None:
        super().__init__(n_trees=n_trees, seed=seed, bootstrap=False, max_features=max_features)
