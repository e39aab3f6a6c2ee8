"""A per-row tree walk in plain Python, the reference for every stacked
descent of ``FlatTree`` nodes."""
from __future__ import annotations

import numpy as np


def hand_walk(tree, row: np.ndarray) -> int:
    """The leaf that ``row`` reaches in ``tree``, one node at a time."""
    node = 0
    while tree.feature[node] >= 0:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return node


def hand_leaves(tree, X: np.ndarray) -> np.ndarray:
    """``hand_walk`` of every row of X."""
    return np.array([hand_walk(tree, row) for row in X], dtype=np.int64)
