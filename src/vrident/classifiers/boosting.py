"""Multiclass gradient boosting on the softmax log-loss.

Per round one regression tree per user is fitted to that class's residual
(one-hot minus softmax). Trees grow leaf-wise (best first) up to max_leaves
with at least min_leaf samples per side; both the split gain and the leaf
values are second-order (Newton) estimates:

    gain = G_L^2/(H_L+eps) + G_R^2/(H_R+eps) - G^2/(H+eps),  value = -G/(H+eps)

with G/H the summed gradients p - y and hessians p(1-p). Scores start at
zero (uniform probabilities), and each accepted tree moves them by
learning_rate * leaf value, one tree at a time: round by round, and class
by class within a round. A fit finds a round's k trees' leaves in one
stacked descent (``trees._leaves``), a prediction every tree's.

The exact split search sorts each column once per fit, not at every node
(the "column block" of XGBoost's exact greedy method, Chen & Guestrin 2016,
section 4.1). Each node carries its rows of every column in sorted order;
a split hands them to the children by a stable partition of the parent's
order. A stable partition of a stable sort is the stable sort of the
subset, so every node sees its rows in the same order, ties included, as
a fresh stable argsort of those rows would give. The cumulative sums, the
gains, the tie-break and the thresholds are therefore bit-for-bit those of
a per-node sort, and so are the trees. The boundary rule (no split between
equal values, first best boundary: lowest feature, then lowest boundary,
midpoint threshold) is the forests' ``trees._best_boundary``.

The left sums of g and h are running sums over a node's sorted positions:
each row's (g, h) pair is gathered once, position-major, and position j's
sums are position j - 1's plus row j, one vector add over every feature's
g and h at once. Each feature's sums take the same additions in the same
order as ``np.cumsum`` along its sorted rows, so they are bit-for-bit the
same, without a serial chain of adds per feature. The gather, the sums and
the gains are written into one workspace per tree, sized for its root,
which every node search of that tree reuses.

A column that is constant over the training rows cannot split (every one of
its boundaries falls between equal values), so a fit presorts and searches
only the columns that vary and maps each tree's features back to the
columns of X. Which columns are constant depends on the data: on the
synthetic cohort 126 of the 511 ``combined`` columns are (all features of
the synthetic quaternion x and z channels), on recorded traces few or none
may be. When no column varies, every column is kept and each tree is one leaf.

The k class trees of a round depend only on that round's softmax, so they
grow concurrently on up to min(k, CPUs // jobs) threads: CPUs is the
process's CPU affinity, and jobs the number of processes ``run_matrix``
fans cells out over. The split search's large gathers and element-wise
passes release the interpreter lock; the running sums take it once per
sorted position. Each tree is a pure function of its inputs, and the scores
take the trees' leaf values in class order afterwards, so trees, losses and
saved models do not depend on the thread count or on CPU affinity.
"""
from __future__ import annotations

import heapq
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .base import Classifier, _softmax, check_params, saved_array, saved_list
from .trees import FlatTree, _TreeBuffers, _best_boundary, _leaves, _stack

_EPS = 1e-16

#: Processes sharing this process's CPUs. ``run_matrix``'s worker processes set
#: it to their job count, so that processes times tree threads fit the CPUs.
_jobs = 1


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _tree_threads(k: int) -> int:
    """Threads growing a round's k class trees: min(k, CPUs // jobs), at least 1."""
    return max(1, min(k, _available_cpus() // _jobs))


def _log_loss(F: np.ndarray, y_idx: np.ndarray) -> float:
    z = F - F.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1)) + F.max(axis=1)
    return float(np.mean(lse - F[np.arange(F.shape[0]), y_idx]))


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column orders of X and the values in that order, both feature-major
    (d, n). The sort is stable, so equal values keep ascending row order."""
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")
    return order, np.take_along_axis(Xt, order, axis=1)


def _pairs(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each row's (g, h) as one complex number, bit for bit, so that a single
    gather fetches both."""
    return np.stack((g, h), axis=-1).view(np.complex128)[:, 0]


def _workspace(n: int, d: int) -> tuple[np.ndarray, ...]:
    """One tree's work buffers, (n, d) each for a root of n rows over d
    features: the gather's index, the gathered (g, h) pairs, and the right
    sums of g and of h. A tree searches its nodes one after another and keeps
    no view of these, so every search reuses them; fresh arrays per node
    would page-fault again at every node."""
    return (
        np.empty((n, d), dtype=np.intp),
        np.empty((n, d), dtype=np.complex128),
        np.empty((n, d)),
        np.empty((n, d)),
    )


def _running_sums(gh: np.ndarray, order: np.ndarray, hi: int, work) -> np.ndarray:
    """Left sums of g and h after each of the first ``hi`` sorted positions of
    every feature, as a (hi, 2d) view into ``work``: position j's row holds
    feature f's g sum in lane 2f and its h sum in lane 2f + 1.

    ``gh`` is ``_pairs(g, h)``, ``order`` a node's (d, n) sorted rows and
    ``work`` a ``_workspace`` of at least hi rows. The rows are gathered
    position-major and summed by one vector add per position, so every lane
    adds the same values in the same order as ``np.cumsum(g[order], axis=1)``
    does, bit for bit, without its serial chain of adds per feature.
    """
    index, pairs = work[0][:hi], work[1][:hi]
    np.copyto(index, order.T[:hi])
    # the indices are in range: under mode="wrap" take writes straight to
    # ``pairs``, where the default mode="raise" buffers its output first
    sums = np.take(gh, index, out=pairs, mode="wrap").view(np.float64)
    rows = list(sums)
    for prev, row in zip(rows, rows[1:]):
        np.add(prev, row, out=row)
    return sums


def _best_reg_split(order, xs, gh, g_tot, h_tot, min_leaf, work):
    """Best Newton-gain split of one node, or None when no boundary clears
    min_leaf on both sides with positive gain.

    ``order`` and ``xs`` are the node's presorted rows and values per
    feature, (d, n); ``gh`` is ``_pairs(g, h)`` and ``g_tot``/``h_tot`` the
    node's gradient and hessian sums; ``work`` is the tree's ``_workspace``.
    Boundary b puts the first b + 1 sorted rows on the left; the boundary
    rule is ``trees._best_boundary``.
    """
    n = order.shape[1]
    if n < 2 * min_leaf:
        return None
    lo, hi = min_leaf - 1, n - min_leaf  # boundaries leaving min_leaf per side
    sums = _running_sums(gh, order, hi, work)[lo:]
    gl = sums[:, 0::2].T  # (d, m) views
    hl = sums[:, 1::2].T
    gr = np.subtract(g_tot, gl, out=work[2][: hi - lo].T)
    hr = np.subtract(h_tot, hl, out=work[3][: hi - lo].T)
    # gl**2 / (hl + eps) + gr**2 / (hr + eps) - g_tot**2 / (h_tot + eps), the
    # same operations in the same order, in place
    gain = np.square(gl, out=gl)
    hl += _EPS
    gain /= hl
    np.square(gr, out=gr)
    hr += _EPS
    gr /= hr
    gain += gr
    gain -= g_tot**2 / (h_tot + _EPS)
    best, feat, thr = _best_boundary(gain, xs, lo)
    return (float(best), feat, thr) if best > 0 else None


def _grow_regression_tree(X, order, xs, g, h, max_leaves, min_leaf) -> FlatTree:
    """Leaf-wise tree on the presorted columns ``order``/``xs`` of X (see
    ``_presort`` and the module docstring)."""
    buf = _TreeBuffers()
    root = buf.alloc()
    counter = 0
    heap = []
    n, d = X.shape
    member = np.zeros(n, dtype=bool)
    gh = _pairs(g, h)
    work = _workspace(n, d)

    def push(nid, idx, order, xs):
        nonlocal counter
        split = _best_reg_split(order, xs, gh, g[idx].sum(), h[idx].sum(), min_leaf, work)
        if split is not None:
            gain, feat, thr = split
            heapq.heappush(heap, (-gain, counter, nid, idx, order, xs, feat, thr))
            counter += 1

    all_idx = np.arange(n)
    leaves = {root: all_idx}
    push(root, all_idx, order, xs)
    while heap and len(leaves) < max_leaves:
        _, _, nid, idx, order, xs, feat, thr = heapq.heappop(heap)
        mask = X[idx, feat] <= thr
        lid, rid = buf.split(nid, feat, thr)
        del leaves[nid]
        lidx, ridx = idx[mask], idx[~mask]
        leaves[lid] = lidx
        leaves[rid] = ridx
        if len(leaves) >= max_leaves:
            break  # no further split is taken, so the children need no search
        member[lidx] = True
        go_left = member[order].ravel()
        member[lidx] = False
        for child, cidx, side in ((lid, lidx, go_left), (rid, ridx, ~go_left)):
            if cidx.size >= 2 * min_leaf:
                # flat positions in row-major order keep each column's order
                pos = np.flatnonzero(side)
                push(child, cidx, order.take(pos).reshape(d, -1), xs.take(pos).reshape(d, -1))
    for nid, idx in leaves.items():
        buf.value[nid] = -g[idx].sum() / (h[idx].sum() + _EPS)
    return buf.pack(1)


class GradientBoosting(Classifier):
    kind = "gbm"
    param_names = ("n_rounds", "learning_rate", "max_leaves", "min_leaf")
    state_names = ("trees", "train_loss")

    def __init__(
        self,
        n_rounds: int = 100,
        learning_rate: float = 0.1,
        max_leaves: int = 31,
        min_leaf: int = 5,
        seed: int = 0,
    ) -> None:
        check_params(GradientBoosting.__init__, locals())
        super().__init__(seed)
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        if not 0 < learning_rate <= 1:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if max_leaves < 2:
            raise ValueError(f"max_leaves must be >= 2, got {max_leaves}")
        if min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
        self.n_rounds = int(n_rounds)
        self.learning_rate = float(learning_rate)
        self.max_leaves = int(max_leaves)
        self.min_leaf = int(min_leaf)
        self.trees_: list[list[FlatTree]] = []  # [round][class]
        self.train_loss_: list[float] = []

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n = X.shape[0]
        k = self.labels_.shape[0]
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y_idx] = 1.0
        F = np.zeros((n, k))
        self.trees_ = []
        self.train_loss_ = [_log_loss(F, y_idx)]
        # a column constant over the training rows scores -inf at every
        # boundary, so no split takes it: the trees grow on the other columns
        # (on all of them when none varies) and their features map back
        cols = np.flatnonzero(X.min(axis=0) < X.max(axis=0))
        if cols.size == 0:
            cols = np.arange(X.shape[1])
        Xv = X[:, cols]
        order, xs = _presort(Xv)
        with ThreadPoolExecutor(max_workers=_tree_threads(k)) as pool:
            for _ in range(self.n_rounds):
                P = _softmax(F)
                grad = P - onehot
                hess = P * (1.0 - P)
                # grad.T[c] is grad[:, c]; the trees come back in class order
                round_trees = list(
                    pool.map(
                        lambda g, h: _grow_regression_tree(
                            Xv, order, xs, g, h, self.max_leaves, self.min_leaf
                        ),
                        grad.T,
                        hess.T,
                    )
                )
                for tree in round_trees:
                    tree.feature = np.where(tree.feature < 0, tree.feature, cols[tree.feature])
                stack, root = _stack(round_trees)
                for c, leaf in enumerate(_leaves(stack, root, X)):
                    F[:, c] += self.learning_rate * stack.value[leaf, 0]
                self.trees_.append(round_trees)
                self.train_loss_.append(_log_loss(F, y_idx))

    def _decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Accumulated boosting scores before the softmax, shape (n, k)."""
        F = np.zeros((X.shape[0], self.labels_.shape[0]))
        if self.trees_:
            stack, root = _stack([tree for round_trees in self.trees_ for tree in round_trees])
            for t, leaf in enumerate(_leaves(stack, root, X)):
                F[:, t % F.shape[1]] += self.learning_rate * stack.value[leaf, 0]
        return F

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self._decision_scores(X))

    def restore(self, state: dict) -> None:
        k, where = self.labels_.shape[0], "gbm model file: 'trees'"
        rounds = saved_list(where, state["trees"])
        if len(rounds) != self.n_rounds:
            raise ValueError(f"{where} holds {len(rounds)} rounds, but n_rounds is {self.n_rounds}")
        self.trees_ = []
        for r, rnd in enumerate(rounds):
            if len(saved_list(f"{where}[{r}]", rnd)) != k:
                raise ValueError(f"{where}[{r}] holds {len(rnd)} trees, expected {k}, one per label")
            self.trees_.append(
                [
                    FlatTree.from_json(t, self.n_features_, 1, f"{where}[{r}][{c}]")
                    for c, t in enumerate(rnd)
                ]
            )
        self.train_loss_ = saved_array(
            "gbm model file", "train_loss", state["train_loss"], np.float64, (self.n_rounds + 1,)
        ).tolist()
