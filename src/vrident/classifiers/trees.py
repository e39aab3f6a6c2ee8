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
from dataclasses import dataclass, fields

import numpy as np

from .base import Classifier, check_params, saved_array, saved_list, saved_object

#: (tree, walk, count) cells that one block of a forest walk descends at
#: once, and nodes its pass for parted features stacks at once (see
#: RandomForest.walk_proba); bounds the walk's memory, and no result
#: depends on it
_WALK_CELLS = 1 << 16


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
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict, n_features: int, width: int, where: str) -> "FlatTree":
        """The tree saved by to_json, checked so that ``apply`` on rows of
        ``n_features`` values only reads nodes that exist and always ends
        in a leaf with ``width`` values; otherwise a ValueError naming
        ``where`` and the key."""
        saved_object(where, obj, [f.name for f in fields(cls)])
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


def _runs(counts, bound):
    """(start, stop) of consecutive runs of items whose ``counts`` sum to at
    most ``bound``; an item over the bound makes a run of its own."""
    bounds, total = [0], 0
    for i, c in enumerate(counts):
        if total and total + c > bound:
            bounds.append(i)
            total = 0
        total += c
    bounds.append(len(counts))
    return list(zip(bounds[:-1], bounds[1:]))


def _stacked_sides(block, x, baseline):
    """The stacked node features of a block of trees, and the side (left or
    not) that x and the baseline take at each node. A leaf's feature -1
    reads the last value; callers mask leaves out."""
    feature = np.concatenate([t.feature for t in block])
    threshold = np.concatenate([t.threshold for t in block])
    return feature, x[feature] <= threshold, baseline[feature] <= threshold


def _walk_block(acc, block, x, baseline, col, parted, n_parted, ranks):
    """Add a block of trees' leaf values at every step of the walks into
    ``acc``, tree by tree (see RandomForest.walk_proba).

    ``parted`` lists each tree's ``n_parted`` parted features in turn, and
    ``ranks`` is the flattened (walks, d + 1) rank matrix with step d in
    its last column. A cell is a (tree, walk, count) triple, in that
    order. Its ``cut`` is the step at which the walk flips the tree's
    (count+1)-th parted feature (d after the last), so the walk holds that
    cell's leaf for the ``held`` steps since the previous cut. One sort of
    rank + (tree, walk) * (d + 1) orders every tree's cuts within each
    walk, and one descent moves every cell through the block's stacked
    nodes, from one parted node to the next: the nodes in between send x
    and the baseline the same way.
    """
    n_walks, d = acc.shape
    feature, x_left, b_left = _stacked_sides(block, x, baseline)
    split = feature >= 0
    sizes = [t.feature.shape[0] for t in block]
    root = np.cumsum(sizes) - sizes
    off = np.repeat(root, sizes)
    left = np.concatenate([t.left for t in block]) + off
    right = np.concatenate([t.right for t in block]) + off
    value = np.concatenate([t.value[:, col] for t in block])
    # jump[node]: the first node at or below ``node`` that is a leaf or parts
    # x and the baseline, following the side both take (pointer doubling)
    same = split & (x_left == b_left)
    jump = np.where(same, np.where(x_left, left, right), np.arange(split.size))
    while True:
        further = jump[jump]
        if np.array_equal(further, jump):
            break
        jump = further
    # child[2 * node + flipped]: where the walked row goes from a parted node,
    # by the side the baseline (not flipped) or x (flipped) takes, jumped
    sides = np.stack([b_left, x_left], axis=1)
    child = jump[np.where(sides, left[:, None], right[:, None])].ravel()

    width = n_parted + 1
    # each tree's parted features, then column d
    cols = np.insert(parted, np.cumsum(n_parted), d)
    n_cells = n_walks * width
    cell_start = np.cumsum(n_cells) - n_cells
    tree = np.repeat(np.arange(len(block)), n_cells)
    walk, count = np.divmod(np.arange(n_cells.sum()) - cell_start[tree], width[tree])
    row = walk * (d + 1)
    shift = (tree * n_walks + walk) * (d + 1)
    cut = ranks[row + cols[(np.cumsum(width) - width)[tree] + count]]
    cut += shift
    cut.sort()
    cut -= shift
    held = np.diff(cut, prepend=0)
    first = count == 0
    held[first] = cut[first]

    pos = jump[root][tree]
    active = np.flatnonzero(split[pos])
    while active.size:
        node = pos[active]
        flipped = ranks[row[active] + feature[node]] < cut[active]
        pos[active] = child[2 * node + flipped]
        active = active[split[pos[active]]]
    leaf_value = value[pos]
    flat = acc.reshape(-1)
    for s, e in zip(cell_start.tolist(), (cell_start + n_cells).tolist()):
        flat += np.repeat(leaf_value[s:e], held[s:e])


class RandomForest(Classifier):
    """Bagged Gini trees; probability = mean of leaf class distributions."""

    kind = "random_forest"
    param_names = ("n_trees", "bootstrap", "max_features")
    state_names = ("trees",)
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
        ``baseline`` to ``x``, without building the walked rows.

        ``rank[p, f]`` is the step at which walk p switches feature f from
        ``baseline[f]`` to ``x[f]``; after step j the walked row holds x on
        the features with ``rank[p] <= j`` and the baseline on the rest.
        Where x and the baseline take the same side of a node, flipping its
        feature cannot change the path; only the m features of a tree's
        nodes where they part ways can. A walk therefore passes through at
        most m + 1 leaves of that tree, one per count of those features
        flipped, and the tree is descended once per (walk, count) cell.

        Every tree's parted features come from one pass over the nodes, at
        most ``_WALK_CELLS`` nodes at a time; then the trees are walked a
        block at a time (see ``_walk_block``), at most ``_WALK_CELLS`` cells
        per block unless one tree has more.
        Entry [p, j] equals, bit for bit, ``predict_proba`` of the walked
        row at step j, whatever the blocks: the same leaf values are summed
        in the same tree order as in _proba.
        """
        x, baseline = self._checked(np.stack([x, baseline]))
        trees = self.trees_
        n_walks, d = rank.shape
        sizes = [t.feature.shape[0] for t in trees]
        keys = []
        for a, b in _runs(sizes, _WALK_CELLS):
            feature, x_left, b_left = _stacked_sides(trees[a:b], x, baseline)
            parts = np.flatnonzero((feature >= 0) & (x_left != b_left))
            tree = a + np.searchsorted(np.cumsum(sizes[a:b]), parts, side="right")
            keys.append(tree * d + feature[parts])
        # every tree's parted features as (tree, feature) keys, tree by tree
        keys = np.unique(np.concatenate(keys))
        n_parted = np.bincount(keys // d, minlength=len(trees))
        ranks = np.hstack([rank, np.full((n_walks, 1), d)]).reshape(-1)
        acc = np.zeros(rank.shape)
        for a, b in _runs((n_walks * (n_parted + 1)).tolist(), _WALK_CELLS):
            lo, hi = np.searchsorted(keys, [a * d, b * d])
            _walk_block(acc, trees[a:b], x, baseline, col, keys[lo:hi] % d, n_parted[a:b], ranks)
        return acc / len(trees)

    def restore(self, state: dict) -> None:
        k, where = self.labels_.shape[0], f"{self.kind} model file: 'trees'"
        trees = saved_list(where, state["trees"])
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
