"""Shapley-value feature attribution for fitted models.

The value function is the model's predicted probability of the instance's
true user. Attribution walks feature permutations from a baseline vector
(training mean by convention) to the instance, crediting each feature with
the change it causes when it flips; the per-feature mean over permutations
estimates the Shapley value, averaged over (a deterministic subsample of)
test instances. Because each permutation walk telescopes from v(baseline)
to v(instance), attributions sum to exactly that difference per instance,
for the sampling and enumeration paths alike.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ingest import atomic_write_text

_EXACT_LIMIT = 5040  # 7!
_CHUNK_ROWS = 8192  # rows a model without a tree walk scores at once


@dataclass
class AttributionResult:
    feature_names: tuple[str, ...]
    values: np.ndarray  # (d,) mean Shapley value per feature
    per_instance: np.ndarray  # (n_instances, d)
    instance_rows: np.ndarray  # indices into the X_test that was passed in
    efficiency_gap: np.ndarray  # (n_instances,) |sum(attr) - (v_full - v_base)|
    stderr: np.ndarray  # (d,) Monte Carlo standard error of ``values``
    baseline: np.ndarray
    method: str
    n_permutations: int
    seed: int


def _subsample_rows(y: np.ndarray, max_per_label: int) -> np.ndarray:
    """First ``max_per_label`` row indices of each label, in original order."""
    taken: dict = {}
    keep = []
    for i, label in enumerate(y.tolist()):
        count = taken.get(label, 0)
        if count < max_per_label:
            taken[label] = count + 1
            keep.append(i)
    return np.array(keep, dtype=np.int64)


def _instance_rng(seed: int, position: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(position,)))
    )


def _step_ranks(perms: np.ndarray) -> np.ndarray:
    """rank[p, f]: the step at which walk p flips feature f (perms inverted)."""
    n_perm, d = perms.shape
    rank = np.empty_like(perms)
    rank[np.arange(n_perm)[:, None], perms] = np.arange(d)[None, :]
    return rank


def _walk_values(model, col, x, baseline, perms, chunk_perms):
    """v[p, j]: probability column ``col`` once walk p has completed step j,
    i.e. of the row holding x on the first j + 1 features of perms[p] and
    the baseline elsewhere. ``walk_proba``, where the model has it, skips
    building the rows; other models score them, ``chunk_perms`` walks at a time."""
    rank = _step_ranks(perms)
    if hasattr(model, "walk_proba"):
        return model.walk_proba(x, baseline, rank, col)
    d = x.shape[0]
    steps = np.arange(d)
    blocks = []
    for start in range(0, rank.shape[0], chunk_perms):
        R = rank[start : start + chunk_perms]
        b = R.shape[0]
        # mask[p, j, f]: has feature f flipped to the instance value once the
        # walk of permutation p completed step j?
        mask = R[:, None, :] <= steps[None, :, None]
        rows = np.where(mask, x[None, None, :], baseline[None, None, :])
        blocks.append(model.predict_proba(rows.reshape(b * d, d))[:, col].reshape(b, d))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)


def _marginal_sums(v, perms, v_base):
    """Per-feature sums and sums of squares of the marginal contributions of
    the walks ``v`` (see _walk_values), and v(instance)."""
    n_perm = v.shape[0]
    prev = np.concatenate([np.full((n_perm, 1), v_base), v[:, :-1]], axis=1)
    marg = np.empty(v.shape)
    marg[np.arange(n_perm)[:, None], perms] = v - prev
    # one fixed-order reduction over all permutations, so neither the walk
    # nor its chunk size shows up in the result
    return marg.sum(axis=0), (marg**2).sum(axis=0), float(v[0, -1])


def shapley_attribution(
    model,
    X_test,
    y_test,
    baseline,
    n_permutations: int = 200,
    seed: int = 0,
    method: str = "sampling",
    max_per_label: int = 50,
    feature_names=None,
) -> AttributionResult:
    """Per-feature Shapley values of ``model`` over the test instances.

    ``method="sampling"`` draws ``n_permutations`` feature orders per
    instance from a per-instance Philox stream (deterministic given seed);
    ``method="exact"`` enumerates all d! orders and ignores both the seed
    and ``n_permutations`` (refused above 7 features).

    A model with a ``walk_proba`` method (random forests and extra trees)
    walks without building the masked rows; every other model scores the
    rows, and ``_CHUNK_ROWS`` bounds how many it scores at once. Neither
    choice changes a bit of the result. A non-finite baseline value or
    value in a walked test row is reported, by row and feature name,
    before any walk starts.
    """
    X = np.asarray(X_test, dtype=np.float64)
    y = np.asarray(y_test)
    baseline = np.asarray(baseline, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D test matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    d = X.shape[1]
    if baseline.shape != (d,):
        raise ValueError(f"baseline has shape {baseline.shape}, expected ({d},)")
    if feature_names is None:
        width = len(str(max(d - 1, 0)))
        feature_names = tuple(f"f{i:0{width}d}" for i in range(d))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != d:
            raise ValueError(f"got {len(feature_names)} feature names for {d} features")
    if method not in ("sampling", "exact"):
        raise ValueError(f"method must be 'sampling' or 'exact', got {method!r}")
    if method == "sampling" and n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if method == "exact":
        if math.factorial(d) > _EXACT_LIMIT:
            raise ValueError(f"exact enumeration handles at most 7 features, got {d}")
        exact_perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
        n_permutations = exact_perms.shape[0]
    if max_per_label < 1:
        raise ValueError(f"max_per_label must be >= 1, got {max_per_label}")

    labels = model.labels_
    cols = np.searchsorted(labels, y)
    cols = np.clip(cols, 0, labels.shape[0] - 1)
    bad = labels[cols] != y
    if bad.any():
        missing = sorted(set(y[bad].tolist()))
        raise ValueError(f"labels unknown to the model: {missing}")

    keep = _subsample_rows(y, max_per_label)
    # every walked row holds only baseline and kept-row values, so checking
    # them here, before any walk, checks every row a walk can score
    bad = np.flatnonzero(~np.isfinite(baseline))
    if bad.size:
        f = int(bad[0])
        raise ValueError(
            f"baseline feature {feature_names[f]!r} is not finite ({float(baseline[f])!r})"
        )
    bad = np.argwhere(~np.isfinite(X[keep]))
    if bad.size:
        row, f = int(keep[bad[0, 0]]), int(bad[0, 1])
        raise ValueError(
            f"test row {row}, feature {feature_names[f]!r}, is not finite ({float(X[row, f])!r})"
        )
    chunk_perms = max(1, _CHUNK_ROWS // max(d, 1))
    base_probas = model.predict_proba(baseline[None, :])[0]

    per_instance = np.zeros((keep.shape[0], d))
    gaps = np.zeros(keep.shape[0])
    total_sum = np.zeros(d)
    total_sumsq = np.zeros(d)
    for pos, row in enumerate(keep.tolist()):
        col = int(cols[row])
        v_base = float(base_probas[col])
        if method == "exact":
            perms = exact_perms
        else:
            rng = _instance_rng(seed, pos)
            perms = np.stack([rng.permutation(d) for _ in range(n_permutations)])
        v = _walk_values(model, col, X[row], baseline, perms, chunk_perms)
        sums, sumsq, v_full = _marginal_sums(v, perms, v_base)
        mean = sums / n_permutations
        per_instance[pos] = mean
        gaps[pos] = abs(float(mean.sum()) - (v_full - v_base))
        total_sum += sums
        total_sumsq += sumsq

    n_samples = keep.shape[0] * n_permutations
    grand_mean = total_sum / n_samples
    variance = np.maximum(total_sumsq / n_samples - grand_mean**2, 0.0)
    return AttributionResult(
        feature_names=feature_names,
        values=per_instance.mean(axis=0),
        per_instance=per_instance,
        instance_rows=keep,
        efficiency_gap=gaps,
        stderr=np.sqrt(variance / n_samples),
        baseline=baseline,
        method=method,
        n_permutations=n_permutations,
        seed=seed,
    )


def ranked_features(result: AttributionResult) -> list[tuple[str, float]]:
    """All features by descending absolute mean value, ties by name."""
    pairs = list(zip(result.feature_names, result.values.tolist()))
    return sorted(pairs, key=lambda p: (-abs(p[1]), p[0]))


def top_k_features(result: AttributionResult, k: int) -> list[tuple[str, float]]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = len(result.feature_names)
    if k > d:
        raise ValueError(f"k={k} exceeds the {d} features")
    return ranked_features(result)[:k]


def write_attribution_csv(path: str, result: AttributionResult) -> None:
    lines = ["feature,mean_shapley,rank"]
    for rank, (name, value) in enumerate(ranked_features(result), start=1):
        lines.append(f"{name},{repr(value)},{rank}")
    atomic_write_text(path, "\n".join(lines) + "\n")
