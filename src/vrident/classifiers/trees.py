"""Random forest and extremely randomized trees, and the split rule that
every tree learner here shares.

Both forests grow unpruned Gini trees until nodes are pure, over a random
subset of ceil(sqrt(d)) candidate features per node. The forest searches
all midpoints between consecutive distinct values of each candidate; extra
trees draw one uniform threshold in [min, max) per candidate instead and
train on the full sample (no bootstrap). Left branches take values <=
threshold. Tree t draws from ``core.philox_stream(seed, (t,))``.

A fit grows all its trees in lock step (``_grow_forest``). Each tree keeps
its own depth-first stack and node numbering. At each step every unfinished
tree pops its next impure node, and the step's nodes are searched together,
in blocks of at most ``_GROW_CELLS`` (node, candidate, row) cells with each
node's rows padded to the block's largest node. The trees are bit for bit
those of growing each tree alone, whatever the blocks:

- each tree draws from its own stream in the same order: its bootstrap
  sample, then per impure node its candidates and, for extra trees when
  some candidate spreads, their thresholds. A pure node draws nothing, so
  it is a leaf as soon as it is made;
- class counts are integers, exact in float64 whatever the order of their
  sums, and so are the sums of squared counts that the Gini cost takes;
- pads are neutral: a pad repeats its node's first row and has no class,
  so it moves no minimum, maximum or count, and the forest search sorts
  pads last and scores no boundary at or past a node's last row.

One boundary rule, ``_best_boundary``, serves the forest search and
gradient boosting: no split between equal values, a midpoint threshold,
and ties to the lowest candidate feature, then the lowest boundary (extra
trees also take the first minimum over candidates). ``_gini_cost`` scores
both forest searches.

One stacked descent (``_stack``, ``_leaves``) serves forest prediction,
boosting and the forest Shapley walk. Leaf values are still summed tree by
tree, in tree order, so no sum depends on the descent's blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..core import philox_stream
from .base import Classifier, check_params, saved_array, saved_list, saved_object

#: cells that one block of a stacked descent moves at once: (tree, row)
#: cells of a prediction (see _leaves) and (tree, walk, count) cells of a
#: forest walk (see RandomForest.walk_proba); bounds the descents' memory,
#: and no result depends on it
_WALK_CELLS = 1 << 16
#: (node, candidate, row) cells that one block of a forest fit's step
#: searches at once (see _grow_forest); bounds the search's memory, and no
#: result depends on it
_GROW_CELLS = 1 << 15


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

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict, n_features: int, width: int, where: str) -> "FlatTree":
        """The tree saved by to_json, checked so that a descent of rows of
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

    ``score[..., f, j]`` (higher is better) scores the boundary after sorted
    position ``lo + j`` of candidate f, whose sorted values are
    ``xs[..., f, :]``; leading axes, if any, index nodes searched together.
    No split falls between equal values: those boundaries score -inf. Each
    node takes its first argmax, i.e. the lowest candidate, then the lowest
    boundary. ``score`` is left as it is. Returns (score, candidate row,
    midpoint threshold), each of the leading shape.
    """
    m = score.shape[-1]
    score = np.where(xs[..., lo + 1 : lo + m + 1] <= xs[..., lo : lo + m], -np.inf, score)
    f, j = np.divmod(score.reshape(*score.shape[:-2], -1).argmax(axis=-1), m)
    node = np.indices(f.shape, sparse=True)
    b = lo + j
    return score[(*node, f, j)], f, 0.5 * (xs[(*node, f, b)] + xs[(*node, f, b + 1)])


def _gini_cost(sq_left, sq_right, n_left, n):
    """Weighted child Gini n_side * (1 - sum p^2) = n_side - sq/n_side,
    summed over both sides, from each side's sum of squared class counts;
    an empty side costs 0. The sums are exact integers, however formed."""
    n_right = n - n_left
    return (n_left - sq_left / np.maximum(n_left, 1.0)) + (
        n_right - sq_right / np.maximum(n_right, 1.0)
    )


def _take_last(a, index):
    """``np.take_along_axis(a, index, axis=-1)`` by one flat take; the
    leading axes of ``a`` broadcast against those of ``index``."""
    a = np.ascontiguousarray(a)
    flat, step = index, a.shape[-1]
    for axis in range(a.ndim - 2, -1, -1):
        if a.shape[axis] > 1:
            shape = [1] * a.ndim
            shape[axis] = a.shape[axis]
            flat = flat + (np.arange(a.shape[axis]) * step).reshape(shape)
        step *= a.shape[axis]
    return a.take(flat)


def _search_exhaustive(Xb, yb, counts, sizes, rngs):
    """Lowest weighted child Gini over all midpoints of each node's
    candidate columns (the block's arrays are described in _search_step).

    Pads sort last as +inf, and the boundaries at or past a node's last row
    score -inf. Rows of equal value may sort in any order: no boundary
    falls between them, and the rows left of any other boundary are the
    same set. ``rngs`` is unused: both searches take the same arguments.
    """
    n_nodes, _, width = Xb.shape
    n_classes = counts.shape[1]
    pos = np.arange(width)
    Xb = np.where(pos < sizes[:, None, None], Xb, np.inf)
    order = np.argsort(Xb, axis=2)
    xs = _take_last(Xb, order)
    ys = _take_last(yb[:, None, :], order)
    # the r-th row of a class on the left raises the left side's sum of
    # squared class counts by 2r + 1; rows sort by class, then position
    by_class = np.argsort(ys * width + pos, axis=2)
    totals = np.zeros((n_nodes, 1, n_classes + 1), dtype=np.int64)
    totals[:, 0, :n_classes] = counts
    first = np.cumsum(totals, axis=2) - totals
    r = np.empty_like(ys)
    np.put_along_axis(r, by_class, pos - _take_last(first, _take_last(ys, by_class)), axis=2)
    sq_left = np.cumsum(2 * r + 1, axis=2)[:, :, :-1]
    # right counts are totals T - left counts L, so their sum of squares is
    # sum T^2 - 2 sum T L + sum L^2, where sum T L adds the T of each left row's class
    t_left = np.cumsum(_take_last(totals, ys), axis=2)[:, :, :-1]
    sq_right = np.einsum("...c,...c->...", totals, totals)[..., None] - 2 * t_left + sq_left
    n_left = pos[1:].astype(np.float64)
    n = sizes[:, None, None]
    cost = _gini_cost(sq_left.astype(np.float64), sq_right.astype(np.float64), n_left, n)
    best, j, thr = _best_boundary(np.where(n_left < n, -cost, -np.inf), xs)
    return np.isfinite(best), j, thr


def _search_random(Xb, yb, counts, sizes, rngs):
    """One uniform threshold in [min, max) per candidate column, drawn from
    the node's stream when some candidate spreads; best by Gini, first
    minimum (lowest candidate)."""
    lo, hi = Xb.min(axis=2), Xb.max(axis=2)
    spread = hi > lo
    thr = np.zeros(lo.shape)
    for i in np.flatnonzero(spread.any(axis=1)).tolist():
        thr[i] = rngs[i].uniform(lo[i], hi[i])
    onehot = (yb[:, :, None] == np.arange(counts.shape[1])).astype(np.float64)
    c_left = (Xb <= thr[:, :, None]).astype(np.float64) @ onehot
    n_left = c_left.sum(axis=2)
    n = sizes[:, None]
    valid = spread & (n_left > 0) & (n_left < n)
    c_right = counts[:, None, :] - c_left
    sq_left = np.einsum("...c,...c->...", c_left, c_left)
    sq_right = np.einsum("...c,...c->...", c_right, c_right)
    w = np.where(valid, _gini_cost(sq_left, sq_right, n_left, n), np.inf)
    j = np.argmin(w, axis=1)
    return valid.any(axis=1), j, thr[np.arange(j.size), j]


_SEARCHES = {"random_forest": _search_exhaustive, "extra_trees": _search_random}


def _blocks(sizes, k):
    """(start, stop) of consecutive runs of nodes with ascending row counts
    ``sizes`` whose padded (node, candidate, row) block holds at most
    ``_GROW_CELLS`` cells for k candidates; a node over the bound makes a
    block of its own."""
    starts = [0]
    for i, n in enumerate(sizes):
        if i > starts[-1] and (i + 1 - starts[-1]) * k * n > _GROW_CELLS:
            starts.append(i)
    return list(zip(starts, starts[1:] + [len(sizes)])) if sizes else []


def _search_step(X, y_idx, rows, sizes, counts, rngs, k, search):
    """Split feature (-1 for none) and threshold of each node of a step,
    node i holding ``sizes[i]`` of ``rows`` in turn and drawing from
    ``rngs[i]``.

    ``search`` takes a block of nodes: their candidate columns ``Xb``
    (node, candidate, row) and labels ``yb`` (node, row), padded to the
    block's largest node, then their class counts, row counts and streams.
    A pad repeats its node's first row and is labelled n_classes, so it
    adds to no class count. It returns per node whether it splits, the
    candidate and the threshold.
    """
    d = X.shape[1]
    starts = np.cumsum(sizes) - sizes
    feat = np.full(sizes.size, -1)
    thr = np.full(sizes.size, np.inf)
    # nodes of like size pad least; each tree has one node per step, so
    # their order draws nothing differently
    by_size = np.argsort(sizes, kind="stable")
    for a, b in _blocks(sizes[by_size].tolist(), k):
        node = by_size[a:b]
        node_rngs = [rngs[i] for i in node.tolist()]
        feats = np.sort([rng.choice(d, size=k, replace=False) for rng in node_rngs], axis=1)
        n = sizes[node]
        pos = np.arange(n[-1])
        pad = pos >= n[:, None]
        at = rows[starts[node, None] + np.where(pad, 0, pos)]
        Xb = X.take(at[:, None, :] * d + feats[:, :, None])
        yb = np.where(pad, counts.shape[1], y_idx[at])
        ok, j, cut = search(Xb, yb, counts[node], n, node_rngs)
        feat[node[ok]] = feats[ok, j[ok]]
        thr[node[ok]] = cut[ok]
    return feat, thr


def _grow_forest(X, y_idx, n_classes, rngs, samples, max_features, search):
    """Depth-first Gini trees, tree t on rows ``samples[t]`` with stream
    ``rngs[t]``, grown in lock step (see the module docstring); ``search``
    is ``_search_exhaustive`` or ``_search_random``."""
    X = np.ascontiguousarray(X)  # gathered by flat index
    d = X.shape[1]
    k = min(max_features, d)
    bufs = [_TreeBuffers() for _ in rngs]
    # a tree's stack holds its impure nodes still to search, as (node, rows,
    # class counts); a pure node draws nothing, so it is a leaf at once
    stacks = [[] for _ in rngs]
    for buf, stack, idx in zip(bufs, stacks, samples):
        counts = np.bincount(y_idx[idx], minlength=n_classes).astype(np.float64)
        if counts.max() < idx.size:
            stack.append((buf.alloc(), idx, counts))
        else:
            buf.value[buf.alloc()] = counts / idx.size
    live = [t for t, stack in enumerate(stacks) if stack]
    while live:
        nids, idxs, counts = zip(*[stacks[t].pop() for t in live])
        m = len(live)
        counts = np.array(counts)
        sizes = np.array([idx.size for idx in idxs])
        rows = np.concatenate(idxs)
        feat, thr = _search_step(X, y_idx, rows, sizes, counts, [rngs[t] for t in live], k, search)
        # child 2i (left) and 2i + 1 (right) of node i: their rows, in their
        # order in the node, and class counts; a node that does not split
        # has all its rows on the left
        owner = np.repeat(np.arange(m), sizes)
        side = 2 * owner + (X.take(rows * d + np.maximum(feat, 0)[owner]) > thr[owner])
        child_counts = np.bincount(side * n_classes + y_idx[rows], minlength=2 * m * n_classes)
        child_counts = child_counts.reshape(2 * m, n_classes).astype(np.float64)
        child_sizes = np.bincount(side, minlength=2 * m)
        rows = rows[np.argsort(side, kind="stable")]
        bounds = [0, *np.cumsum(child_sizes).tolist()]
        pure = (child_counts.max(axis=1) == child_sizes).tolist()
        value = counts / sizes[:, None]
        child_value = child_counts / np.maximum(child_sizes, 1)[:, None]
        for i, (t, nid, f, th) in enumerate(zip(live, nids, feat.tolist(), thr.tolist())):
            if f < 0:
                bufs[t].value[nid] = value[i]
                continue
            lid, rid = bufs[t].split(nid, f, th)
            for c, cid in ((2 * i + 1, rid), (2 * i, lid)):
                if pure[c]:
                    bufs[t].value[cid] = child_value[c]
                else:
                    stacks[t].append((cid, rows[bounds[c] : bounds[c + 1]], child_counts[c]))
        live = [t for t in live if stacks[t]]
    return [buf.pack(n_classes) for buf in bufs]


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


def _stack(trees):
    """The nodes of ``trees`` as one FlatTree, each tree's children offset by
    the nodes before it, and the node of each tree's root."""
    sizes = [t.feature.shape[0] for t in trees]
    root = np.cumsum(sizes) - sizes
    nodes = {f.name: np.concatenate([getattr(t, f.name) for t in trees]) for f in fields(FlatTree)}
    nodes["left"] += np.repeat(root, sizes)
    nodes["right"] += np.repeat(root, sizes)
    return FlatTree(**nodes), root


def _leaves(stack, root, X):
    """The leaf that every row of X reaches in each tree of ``stack`` rooted
    at ``root``, one array of rows per tree in tree order. The trees are
    descended together, at most ``_WALK_CELLS`` (tree, row) cells at a time
    unless one tree has more rows."""
    (n, d), split, flat = X.shape, stack.feature >= 0, X.ravel()
    # child[2 * node + go_left]: the node's right, then its left child
    child = np.stack([stack.right, stack.left], axis=1).ravel()
    for a, b in _runs([n] * root.size, _WALK_CELLS):
        at, pos = np.tile(np.arange(n) * d, b - a), np.repeat(root[a:b], n)
        active = np.flatnonzero(split[pos])
        while active.size:
            node = pos[active]
            go_left = flat.take(at[active] + stack.feature[node]) <= stack.threshold[node]
            pos[active] = child[2 * node + go_left]
            active = active[split[pos[active]]]
        yield from pos.reshape(b - a, n)


def _walk_block(acc, stack, root, jump, child, col, keys, n_parted, ranks):
    """Add a block of trees' leaf values at every step of the walks into
    ``acc``, tree by tree (see RandomForest.walk_proba).

    The block's trees are rooted at ``root`` in the forest's ``stack``
    (``jump`` and ``child`` as in walk_proba). ``keys`` holds each tree's
    ``n_parted`` parted features in turn, as tree * d + feature, and
    ``ranks`` is the flattened (walks, d + 1) rank matrix with step d in
    its last column. A cell is a (tree, walk, count) triple, in that order.
    Its ``cut`` is the step at which the walk flips the tree's (count+1)-th
    parted feature (d after the last), so the walk holds that cell's leaf
    for the ``held`` steps since the previous cut. One sort of
    rank + (tree, walk) * (d + 1) orders every tree's cuts within each
    walk, and one descent moves every cell from one parted node to the
    next: the nodes in between send x and the baseline the same way.
    """
    n_walks, d = acc.shape
    width = n_parted + 1
    # each tree's parted features, then column d
    cols = np.insert(keys % d, np.cumsum(n_parted), d)
    n_cells = n_walks * width
    cell_start = np.cumsum(n_cells) - n_cells
    tree = np.repeat(np.arange(root.size), n_cells)
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

    split = stack.feature >= 0
    pos = jump[root][tree]
    active = np.flatnonzero(split[pos])
    while active.size:
        node = pos[active]
        flipped = ranks[row[active] + stack.feature[node]] < cut[active]
        pos[active] = child[2 * node + flipped]
        active = active[split[pos[active]]]
    leaf_value = stack.value[pos, col]
    flat = acc.reshape(-1)
    for s, e in zip(cell_start.tolist(), (cell_start + n_cells).tolist()):
        flat += np.repeat(leaf_value[s:e], held[s:e])


class RandomForest(Classifier):
    """Bagged Gini trees; probability = mean of leaf class distributions."""

    kind = "random_forest"
    param_names = ("n_trees", "bootstrap", "max_features")
    state_names = ("trees",)

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
        rngs = [philox_stream(self.seed, (t,)) for t in range(self.n_trees)]
        samples = [rng.integers(0, n, size=n) if self.bootstrap else np.arange(n) for rng in rngs]
        self.trees_ = _grow_forest(X, y_idx, n_classes, rngs, samples, k, _SEARCHES[self.kind])

    def _proba(self, X: np.ndarray) -> np.ndarray:
        stack, root = _stack(self.trees_)
        acc = np.zeros((X.shape[0], self.labels_.shape[0]))
        for leaf in _leaves(stack, root, X):
            acc += stack.value[leaf]
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

        One pass over the forest's stacked nodes finds every tree's parted
        features and where a walk goes from each node; then the trees are
        walked a block at a time (see ``_walk_block``), at most
        ``_WALK_CELLS`` cells per block unless one tree has more.
        Entry [p, j] equals, bit for bit, ``predict_proba`` of the walked
        row at step j, whatever the blocks: the same leaf values are summed
        in the same tree order as in _proba.
        """
        rows = self._checked(np.stack([x, baseline]))
        n_walks, d = rank.shape
        stack, root = _stack(self.trees_)
        split = stack.feature >= 0
        # a leaf's feature -1 reads the last value; ``split`` masks leaves out
        x_left, b_left = rows[:, stack.feature] <= stack.threshold
        parts = np.flatnonzero(split & (x_left != b_left))
        # every tree's parted features as (tree, feature) keys, tree by tree
        keys = np.unique((np.digitize(parts, root) - 1) * d + stack.feature[parts])
        n_parted = np.bincount(keys // d, minlength=root.size)
        # jump[node]: the first node at or below ``node`` that is a leaf or parts
        # x and the baseline, following the side both take (pointer doubling)
        same = split & (x_left == b_left)
        jump = np.where(same, np.where(x_left, stack.left, stack.right), np.arange(split.size))
        while True:
            further = jump[jump]
            if np.array_equal(further, jump):
                break
            jump = further
        # child[2 * node + flipped]: where the walked row goes from a parted node,
        # by the side the baseline (not flipped) or x (flipped) takes, jumped
        sides = np.stack([b_left, x_left], axis=1)
        child = jump[np.where(sides, stack.left[:, None], stack.right[:, None])].ravel()
        ranks = np.hstack([rank, np.full((n_walks, 1), d)]).reshape(-1)
        acc = np.zeros(rank.shape)
        for a, b in _runs((n_walks * (n_parted + 1)).tolist(), _WALK_CELLS):
            lo, hi = np.searchsorted(keys, [a * d, b * d])
            _walk_block(acc, stack, root[a:b], jump, child, col, keys[lo:hi], n_parted[a:b], ranks)
        return acc / root.size

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

    def __init__(self, n_trees: int = 800, seed: int = 0, max_features: int | None = None) -> None:
        super().__init__(n_trees=n_trees, seed=seed, bootstrap=False, max_features=max_features)
