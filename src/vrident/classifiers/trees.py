"""Random forest and extremely randomized trees, and the split rule that
every tree learner here shares.

Both forests grow unpruned Gini trees until nodes are pure, over a random
subset of ceil(sqrt(d)) candidate features per node. The forest searches
all midpoints between consecutive distinct values of each candidate; extra
trees draw one uniform threshold in [min, max) per candidate instead and
train on the full sample (no bootstrap). Left branches take values <=
threshold. Tree t uses an independent Philox stream keyed by
SeedSequence(entropy=seed, spawn_key=(t,)), so training is deterministic.

One boundary rule, ``_best_boundary``, serves the forest search and
gradient boosting: no split between equal values, a midpoint threshold,
and ties to the lowest candidate feature, then the lowest boundary (extra
trees also take the first minimum over candidates). ``_gini_cost`` scores
both forest searches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import Classifier, check_matrix, check_params, saved_array


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

    def walk_leaves(
        self, x: np.ndarray, baseline: np.ndarray, rank: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaves reached along permutation walks from ``baseline`` to ``x``,
        without building the walked rows.

        ``rank[p, f]`` is the step at which walk p switches feature f from
        ``baseline[f]`` to ``x[f]``; after step j the walked row holds x on
        the features with ``rank[p] <= j`` and the baseline on the rest.
        Where x and the baseline take the same side of a node, flipping its
        feature cannot change the path; only the m features of nodes where
        they part ways can. A walk therefore passes through at most m + 1
        leaves, one per count of those features flipped, and the tree is
        descended once per (walk, count).

        Returns ``(leaves, held)``, walk by walk in step order: a walk stays
        in ``leaves[i]`` for ``held[i]`` consecutive steps, so
        ``np.repeat(leaves, held).reshape(rank.shape)`` is, at every step,
        the leaf ``apply`` gives the walked row.
        """
        n_walks, d = rank.shape
        split = self.feature >= 0
        feat = np.where(split, self.feature, 0)
        x_left = x[feat] <= self.threshold
        b_left = baseline[feat] <= self.threshold
        parted = np.unique(self.feature[split & (x_left != b_left)])
        # cut[p, c]: the step at which walk p flips the (c+1)-th parted
        # feature, so exactly c of them are flipped on steps
        # [cut[p, c-1], cut[p, c]); the last count holds up to step d
        cut = np.concatenate(
            [np.sort(rank[:, parted], axis=1), np.full((n_walks, 1), d)], axis=1
        )
        held = np.diff(cut, axis=1, prepend=0).ravel()
        walk = np.repeat(np.arange(n_walks), cut.shape[1])
        cut = cut.ravel()
        pos = np.zeros(cut.shape[0], dtype=np.int64)
        active = np.flatnonzero(split[pos])
        while active.size:
            node = pos[active]
            flipped = rank[walk[active], self.feature[node]] < cut[active]
            go_left = np.where(flipped, x_left[node], b_left[node])
            pos[active] = np.where(go_left, self.left[node], self.right[node])
            active = active[split[pos[active]]]
        return pos, held

    def to_json(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict, n_features: int, width: int, where: str) -> "FlatTree":
        """The tree saved by to_json, checked so that ``apply`` on rows of
        ``n_features`` values only reads nodes that exist and always ends
        in a leaf with ``width`` values; otherwise a ValueError naming
        ``where`` and the key."""
        feature = saved_array(where, "feature", obj["feature"], np.int64)
        if feature.ndim != 1 or feature.size == 0:
            raise ValueError(f"{where}: 'feature' has shape {feature.shape}, expected (n_nodes,)")
        n = feature.shape[0]
        tree = cls(
            feature=feature,
            threshold=saved_array(where, "threshold", obj["threshold"], np.float64, (n,)),
            left=saved_array(where, "left", obj["left"], np.int64, (n,)),
            right=saved_array(where, "right", obj["right"], np.int64, (n,)),
            value=saved_array(where, "value", obj["value"], np.float64, (n, width)),
        )
        bad = np.flatnonzero(feature >= n_features)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"{where}: 'feature' of node {i} is {feature[i]}, "
                f"but the model has {n_features} features"
            )
        # children after their parent: every descent moves forward and stops
        split = np.flatnonzero(feature >= 0)
        for key, child in (("left", tree.left), ("right", tree.right)):
            bad = split[(child[split] <= split) | (child[split] >= n)]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"{where}: {key!r} child of node {i} is {child[i]}, "
                    f"expected a node in {i + 1}..{n - 1}"
                )
        return tree


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

    def split(self, nid: int, feat: int, thr: float) -> tuple[int, int]:
        """Turn leaf ``nid`` into a split on ``feat <= thr``; returns the new
        (left, right) children."""
        self.feature[nid] = feat
        self.threshold[nid] = thr
        self.left[nid] = lid = self.alloc()
        self.right[nid] = rid = self.alloc()
        return lid, rid

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


def _best_boundary(score, xs, lo=0):
    """The boundary rule shared by every tree learner.

    ``score[f, j]`` (higher is better) scores the boundary after sorted
    position ``lo + j`` of candidate f, whose sorted values are ``xs[f]``.
    No split falls between equal values: those boundaries score -inf (in
    place). The first argmax wins, i.e. the lowest candidate, then the
    lowest boundary. Returns (score, candidate row, midpoint threshold).
    """
    m = score.shape[1]
    score[xs[:, lo + 1 : lo + m + 1] <= xs[:, lo : lo + m]] = -np.inf
    f, j = np.unravel_index(np.argmax(score), score.shape)
    b = lo + j
    return score[f, j], int(f), float(0.5 * (xs[f, b] + xs[f, b + 1]))


def _gini_cost(left_counts, totals, n_left, n):
    """Weighted child Gini n_side * (1 - sum p^2) = n_side - sq/n_side,
    summed over both sides, from the class counts left of each split and
    the node's class totals; an empty side costs 0."""
    n_right = n - n_left
    right_counts = totals - left_counts
    sq_left = np.einsum("...c,...c->...", left_counts, left_counts)
    sq_right = np.einsum("...c,...c->...", right_counts, right_counts)
    return (n_left - sq_left / np.maximum(n_left, 1.0)) + (
        n_right - sq_right / np.maximum(n_right, 1.0)
    )


def _best_split_exhaustive(Xc, yn, counts, rng):
    """Lowest weighted child Gini over all midpoints of the candidate
    columns ``Xc`` (node rows, candidates); (column, threshold) or None
    when every candidate is constant within the node. ``rng`` is unused:
    both searches take the same arguments."""
    n = Xc.shape[0]
    order = np.argsort(Xc.T, axis=1, kind="stable")
    xs = np.take_along_axis(Xc.T, order, axis=1)
    onehot = yn[order][:, :, None] == np.arange(counts.shape[0])
    left_counts = np.cumsum(onehot, axis=1, dtype=np.float64)[:, :-1]
    n_left = np.arange(1, n, dtype=np.float64)
    best, j, thr = _best_boundary(-_gini_cost(left_counts, counts, n_left, n), xs)
    return (j, thr) if np.isfinite(best) else None


def _best_split_random(Xc, yn, counts, rng):
    """One uniform threshold in [min, max) per candidate column, best by
    Gini (first minimum: lowest candidate)."""
    lo, hi = Xc.min(axis=0), Xc.max(axis=0)
    spread = hi > lo
    if not spread.any():
        return None
    thr = rng.uniform(lo, hi)
    onehot = (yn[:, None] == np.arange(counts.shape[0])).astype(np.float64)
    c_left = (Xc <= thr).T.astype(np.float64) @ onehot
    n_left = c_left.sum(axis=1)
    valid = spread & (n_left > 0) & (n_left < yn.shape[0])
    if not valid.any():
        return None
    w = np.where(valid, _gini_cost(c_left, counts, n_left, yn.shape[0]), np.inf)
    j = int(np.argmin(w))
    return j, float(thr[j])


def _grow_classification_tree(X, y_idx, n_classes, rng, sample_idx, max_features, search):
    """Depth-first Gini tree on rows ``sample_idx``; each impure node draws
    ``max_features`` candidates and splits where ``search`` says."""
    buf = _TreeBuffers()
    stack = [(buf.alloc(), sample_idx)]
    d = X.shape[1]
    k = min(max_features, d)
    while stack:
        nid, idx = stack.pop()
        yn = y_idx[idx]
        counts = np.bincount(yn, minlength=n_classes).astype(np.float64)
        split = None
        if counts.max() < idx.size:
            feats = np.sort(rng.choice(d, size=k, replace=False))
            split = search(X[np.ix_(idx, feats)], yn, counts, rng)
        if split is None:
            buf.value[nid] = counts / idx.size
            continue
        j, thr = split
        feat = int(feats[j])
        mask = X[idx, feat] <= thr
        lid, rid = buf.split(nid, feat, thr)
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
    _search = staticmethod(_best_split_exhaustive)

    def __init__(
        self,
        n_trees: int = 100,
        seed: int = 0,
        bootstrap: bool = True,
        max_features: int | None = None,
    ) -> None:
        # before the type check, so that a bad max_features gets the message
        # that also states its range
        whole = isinstance(max_features, (int, np.integer)) and not isinstance(max_features, bool)
        if not (max_features is None or whole and max_features >= 1):
            raise ValueError(f"max_features must be an integer >= 1 or None, got {max_features!r}")
        check_params(RandomForest.__init__, locals())
        super().__init__(seed)
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.bootstrap = bool(bootstrap)
        self.max_features = max_features
        self.trees_: list[FlatTree] = []

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n, d = X.shape
        n_classes = int(self.labels_.shape[0])
        k = self.max_features if self.max_features is not None else math.ceil(math.sqrt(d))
        self.trees_ = []
        for t in range(self.n_trees):
            rng = _tree_rng(self.seed, t)
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            self.trees_.append(
                _grow_classification_tree(X, y_idx, n_classes, rng, idx, k, self._search)
            )

    def _proba(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros((X.shape[0], self.labels_.shape[0]))
        for tree in self.trees_:
            acc += tree.value[tree.apply(X)]
        return acc / len(self.trees_)

    def walk_proba(self, x, baseline, rank: np.ndarray, col: int) -> np.ndarray:
        """Probability column ``col`` at every step of permutation walks from
        ``baseline`` to ``x`` (see FlatTree.walk_leaves): entry [p, j] equals,
        bit for bit, ``predict_proba`` of the walked row at step j, as the
        same leaf values are summed in the same tree order as in _proba."""
        if self.labels_ is None:
            raise ValueError(f"{self.kind} model is not fitted")
        x, baseline = check_matrix(np.stack([x, baseline]), self.n_features_)
        acc = np.zeros(rank.shape)
        for tree in self.trees_:
            leaves, held = tree.walk_leaves(x, baseline, rank)
            acc += np.repeat(tree.value[leaves, col], held).reshape(rank.shape)
        return acc / len(self.trees_)

    def fitted_state(self) -> dict:
        return {"trees": [t.to_json() for t in self.trees_]}

    def restore(self, state: dict) -> None:
        k, where = self.labels_.shape[0], f"{self.kind} model file: 'trees'"
        trees = state["trees"]
        if len(trees) != self.n_trees:
            raise ValueError(f"{where} holds {len(trees)} trees, but n_trees is {self.n_trees}")
        self.trees_ = [
            FlatTree.from_json(t, self.n_features_, k, f"{where}[{i}]") for i, t in enumerate(trees)
        ]


class ExtraTrees(RandomForest):
    """No bootstrap; a single uniform-random threshold per candidate feature."""

    kind = "extra_trees"
    _search = staticmethod(_best_split_random)

    def __init__(self, n_trees: int = 800, seed: int = 0, max_features: int | None = None) -> None:
        super().__init__(n_trees=n_trees, seed=seed, bootstrap=False, max_features=max_features)
