"""Hypothesis properties of voting, the parallel cell runner and the subset
curve.

``majority_vote_eval`` with k=1 casts one vote per window, so it must equal
plain per-window accuracy on any prediction streams. ``run_matrix`` fans
cells out to worker processes, so jobs=2 must give the same reports as
jobs=1 on any cohort. ``user_subset_experiment`` given the cell's
identification report must give the same result as fitting the all-users
group itself.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.evaluation import (
    ExperimentSpec,
    PredictionStream,
    accuracy,
    majority_vote_eval,
    report_to_dict,
    run_identification,
    run_matrix,
    user_subset_experiment,
)
from vrident.ingest import generate_synthetic_cohort

LABELS = np.array(["A", "B", "C", "D"])
SMALL_MODELS = {
    "random_forest": {"n_trees": 10},
    "extra_trees": {"n_trees": 10},
    "gbm": {"n_rounds": 3},
}


@st.composite
def prediction_streams(draw):
    k = draw(st.integers(2, 4))
    labels = LABELS[:k]
    streams = []
    for true in draw(st.lists(st.sampled_from(list(labels)), min_size=1, max_size=5)):
        n = draw(st.integers(1, 12))
        preds = draw(st.lists(st.sampled_from(list(labels)), min_size=n, max_size=n))
        weights = draw(
            st.lists(st.floats(0.0, 1.0), min_size=n * k, max_size=n * k)
        )
        probas = np.asarray(weights).reshape(n, k)
        streams.append(
            PredictionStream(true_label=true, preds=np.asarray(preds), probas=probas, labels=labels)
        )
    return streams


@settings(max_examples=100, deadline=None)
@given(streams=prediction_streams())
def test_vote_k1_equals_per_window_accuracy(streams):
    y_true = np.concatenate([np.full(s.preds.shape[0], s.true_label) for s in streams])
    y_pred = np.concatenate([s.preds for s in streams])
    assert majority_vote_eval(streams, 1) == accuracy(y_true, y_pred)


def _outcome(result):
    if isinstance(result, Exception):
        return type(result), str(result)
    return report_to_dict(result)


@settings(max_examples=4, deadline=None)
@given(
    n_users=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    feature_sets=st.lists(
        st.sampled_from(["movement", "traffic", "combined"]), min_size=1, max_size=2, unique=True
    ),
    kinds=st.lists(
        st.sampled_from(["logistic", "qda", "random_forest", "gbm"]),
        min_size=1, max_size=2, unique=True,
    ),
)
def test_matrix_jobs_2_matches_jobs_1(n_users, seed, feature_sets, kinds):
    cohort = generate_synthetic_cohort(n_users, minutes=0.5, seed=seed)
    specs = [
        ExperimentSpec(
            game_id="game_a", feature_set=fs, model_kind=kind, seed=seed, train_s=20.0,
            test_s=10.0, model_params=SMALL_MODELS.get(kind, {}),
        )
        for fs in feature_sets
        for kind in kinds
    ]
    serial = run_matrix(specs, cohort, jobs=1)
    assert not any(isinstance(r, Exception) for r in serial)
    parallel = run_matrix(specs, cohort, jobs=2)
    assert [_outcome(r) for r in parallel] == [_outcome(r) for r in serial]


@settings(max_examples=10, deadline=None)
@given(
    unit=st.integers(2, 3),
    n_units=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["logistic", "qda", "random_forest", "extra_trees"]),
    feature_set=st.sampled_from(["traffic", "combined"]),
)
def test_subset_reusing_identification_report_matches_refit(
    unit, n_units, seed, kind, feature_set
):
    cohort = generate_synthetic_cohort(unit * n_units, minutes=0.5, seed=seed)
    spec = ExperimentSpec(
        game_id="game_a", feature_set=feature_set, model_kind=kind, seed=seed,
        train_s=20.0, test_s=10.0, model_params=SMALL_MODELS.get(kind, {}),
    )
    sizes = tuple(unit * m for m in range(1, n_units + 1))
    refit = user_subset_experiment(spec, cohort, sizes, unit)
    reused = user_subset_experiment(
        spec, cohort, sizes, unit, full_report=run_identification(spec, cohort)
    )
    assert dataclasses.asdict(reused) == dataclasses.asdict(refit)
