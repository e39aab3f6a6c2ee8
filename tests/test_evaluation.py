from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import random
import re

import numpy as np
import pytest

from vrident.classifiers import make_model
from vrident.core import Dataset, SplitError
from vrident.evaluation import (
    DEFAULT_SUBSET_SIZES,
    EvaluationReport,
    ExperimentSpec,
    PredictionStream,
    accuracy,
    confusion_matrix,
    cross_game_eval,
    game_recognition_eval,
    macro_f1,
    majority_vote_eval,
    per_label_metrics,
    report_to_dict,
    run_identification,
    run_matrix,
    user_subset_experiment,
    write_confusion_csv,
    write_curve_csv,
    write_json,
    write_table_csv,
)
from vrident.evaluation import _trace_split
from vrident.features import MinMaxScaler, build_features
from vrident.ingest import GameProfile, generate_synthetic_cohort

SHORT = dict(train_s=120.0, test_s=60.0)  # fits the 3-minute test cohorts


def only_users(dataset, users):
    return Dataset(
        traces=[r for r in dataset.traces if r.user_id in users],
        game_categories=dataset.game_categories,
    )


def game_a_specs(feature_sets, model_kinds, **spec_kwargs):
    return [
        ExperimentSpec(game_id="game_a", feature_set=fs, model_kind=mk, **spec_kwargs, **SHORT)
        for fs in feature_sets
        for mk in model_kinds
    ]


@pytest.fixture(scope="module")
def cohort():
    return generate_synthetic_cohort(4, minutes=3.0, seed=1)


@pytest.fixture(scope="module")
def base_report(cohort):
    spec = ExperimentSpec(game_id="game_a", model_kind="random_forest",
                          model_params={"n_trees": 15}, **SHORT)
    return run_identification(spec, cohort)


# ---- metrics ----


def test_accuracy_all_correct():
    assert accuracy(["a", "b"], ["a", "b"]) == 1.0


def test_accuracy_two_of_three():
    assert accuracy([1, 1, 2], [1, 2, 2]) == pytest.approx(2 / 3)


def test_accuracy_disjoint_labels():
    assert accuracy(["a", "a"], ["b", "b"]) == 0.0


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        accuracy([1, 2], [1])


def test_accuracy_empty():
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])


def test_macro_f1_perfect():
    assert macro_f1(["a", "b", "a"], ["a", "b", "a"]) == 1.0


def test_macro_f1_hand_fixture():
    # F1(A) = 2/3, F1(B) = 4/5, macro = 11/15
    value = macro_f1(["A", "A", "B", "B"], ["A", "B", "B", "B"])
    assert value == pytest.approx(11 / 15, abs=1e-12)


def test_macro_f1_never_predicted_label_scores_zero():
    # F1(A) = 0.8, F1(B) = 0 -> macro 0.4
    value = macro_f1(["A", "A", "B"], ["A", "A", "A"], labels=["A", "B"])
    assert value == pytest.approx(0.4, abs=1e-12)


def test_macro_f1_rejects_uncovered_labels():
    with pytest.raises(ValueError, match="missing"):
        macro_f1(["A", "B"], ["A", "B"], labels=["A"])


def test_confusion_matrix_counts():
    conf = confusion_matrix(["a", "a", "b", "b"], ["a", "b", "b", "b"], ["a", "b"])
    assert conf.tolist() == [[1, 1], [0, 2]]


def test_confusion_matrix_rejects_unknown_label():
    with pytest.raises(ValueError, match="outside the label set"):
        confusion_matrix(["a"], ["c"], ["a", "b"])


def test_per_label_metrics_consistency():
    conf = np.array([[3, 1], [2, 4]])
    metrics = per_label_metrics(conf, ["x", "y"])
    assert metrics["x"]["recall"] == pytest.approx(3 / 4)
    assert metrics["x"]["precision"] == pytest.approx(3 / 5)
    assert metrics["y"]["precision"] == pytest.approx(4 / 5)
    assert metrics["y"]["recall"] == pytest.approx(4 / 6)


# ---- spec validation ----


def test_spec_rejects_unknown_feature_set():
    with pytest.raises(ValueError, match="unknown feature set"):
        ExperimentSpec(game_id="g", feature_set="everything")


def test_spec_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model kind"):
        ExperimentSpec(game_id="g", model_kind="svm")


@pytest.mark.parametrize("k", [0, 2, -3])
def test_spec_rejects_bad_vote_k(k):
    with pytest.raises(ValueError, match="vote_k"):
        ExperimentSpec(game_id="g", vote_k=k)


@pytest.mark.parametrize("window_s", [0.0, -10.0, float("nan"), float("inf"), -float("inf")])
def test_spec_rejects_non_positive_window(window_s):
    # the message build_features and core.whole_windows give for the same value
    message = f"window_s must be a finite positive number, got {window_s}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(game_id="g", window_s=window_s)


# ---- run_identification ----


def test_identification_separates_default_profiles(base_report):
    assert base_report.accuracy >= 0.9
    assert base_report.labels == ("user00", "user01", "user02", "user03")


def test_confusion_rows_match_test_counts(base_report):
    for lab, row_sum in zip(base_report.labels, base_report.confusion.sum(axis=1)):
        assert row_sum == base_report.test_counts[lab]


def test_accuracy_equals_confusion_trace(base_report):
    conf = base_report.confusion
    assert base_report.accuracy == conf.trace() / conf.sum()


def test_trace_order_changes_neither_game_order_nor_report(cohort):
    traces = list(cohort.traces)
    random.Random(7).shuffle(traces)
    assert [t.user_id for t in traces] != [t.user_id for t in cohort.traces]
    shuffled = Dataset(traces=traces, game_categories=cohort.game_categories)
    in_order = shuffled.for_game("game_a")
    assert [t.user_id for t in in_order] == ["user00", "user01", "user02", "user03"]
    assert all(a is b for a, b in zip(in_order, cohort.for_game("game_a")))
    spec = ExperimentSpec(game_id="game_a", model_kind="logistic", **SHORT)
    blobs = [
        json.dumps(report_to_dict(run_identification(spec, ds)), sort_keys=True)
        for ds in (cohort, shuffled)
    ]
    assert blobs[0] == blobs[1]


def test_report_is_byte_deterministic(cohort):
    spec = ExperimentSpec(game_id="game_a", model_kind="extra_trees",
                          model_params={"n_trees": 10}, **SHORT)
    blobs = [
        json.dumps(report_to_dict(run_identification(spec, cohort)), sort_keys=True)
        for _ in range(2)
    ]
    assert blobs[0] == blobs[1]


def test_identification_rejects_single_user(cohort):
    solo = only_users(cohort, ["user00"])
    spec = ExperimentSpec(game_id="game_a", **SHORT)
    with pytest.raises(ValueError, match="at least 2 users"):
        run_identification(spec, solo)


def test_identification_rejects_short_trace(cohort):
    spec = ExperimentSpec(game_id="game_a")  # default 480+120 s on a 180 s trace
    with pytest.raises(SplitError, match="short"):
        run_identification(spec, cohort)


def test_identification_rejects_misaligned_span(cohort):
    spec = ExperimentSpec(game_id="game_a", train_s=125.0, test_s=60.0)
    with pytest.raises(ValueError, match="multiple"):
        run_identification(spec, cohort)


def test_identification_names_user_without_training_windows(cohort):
    # user00 loses every movement sample before 120 s, so the dropout filter
    # discards all of its training windows but keeps its test windows
    traces = []
    for tr in cohort.for_game("game_a"):
        if tr.user_id == "user00":
            keep = tr.movement_t >= SHORT["train_s"]
            tr = dataclasses.replace(tr, movement_t=tr.movement_t[keep], movement=tr.movement[keep])
        traces.append(tr)
    dataset = Dataset(traces=traces, game_categories=cohort.game_categories)
    spec = ExperimentSpec(game_id="game_a", model_kind="logistic", **SHORT)
    with pytest.raises(ValueError, match="no training windows .*'user00'"):
        run_identification(spec, dataset)


def test_identification_accepts_inexact_float_multiples(cohort, monkeypatch):
    # 0.3 / 0.1 == 2.9999999999999996 must count as three 0.1 s windows, and a
    # 1.0 s trace must hold ten of them although 1.0 // 0.1 == 9.0
    rec = cohort.for_game("game_a")[0]
    rec = dataclasses.replace(rec, duration_s=1.0)
    spec = ExperimentSpec(
        game_id="game_a", feature_set="traffic", train_s=0.3, test_s=0.7, window_s=0.1, bin_s=0.1
    )

    def window_numbers(*args):
        # each row holds its own window number, so the split rows show which
        # windows they are
        feats = build_features(*args)
        return dataclasses.replace(feats, values=feats.window_index[:, None].astype(float))

    monkeypatch.setattr("vrident.evaluation.build_features", window_numbers)
    train, test = _trace_split(spec, rec)
    assert train[:, 0].tolist() == [0, 1, 2]
    assert test[:, 0].tolist() == [3, 4, 5, 6, 7, 8, 9]
    bad = dataclasses.replace(spec, train_s=0.25)
    with pytest.raises(ValueError, match="train_s=0.25"):
        _trace_split(bad, rec)


@pytest.mark.parametrize("bin_s", [0.0, float("nan")])
def test_identification_rejects_bad_bin(cohort, bin_s):
    spec = ExperimentSpec(game_id="game_a", feature_set="traffic", bin_s=bin_s, **SHORT)
    with pytest.raises(ValueError, match=f"bin_s={bin_s} does not evenly divide window_s=10.0"):
        run_identification(spec, cohort)


def test_vote_k_beyond_test_windows_fails(cohort):
    spec = ExperimentSpec(game_id="game_a", model_kind="logistic", vote_k=13, **SHORT)
    with pytest.raises(ValueError, match="exceeds"):
        run_identification(spec, cohort)  # only 6 test windows per trace


# ---- majority voting ----


def make_stream(true, preds, probas, labels=("A", "B", "C")):
    labels = np.asarray(labels)
    return PredictionStream(
        true_label=true,
        preds=np.asarray(preds),
        probas=np.asarray(probas, dtype=np.float64),
        labels=labels,
    )


def test_vote_k1_equals_per_window(base_report):
    assert majority_vote_eval(base_report.streams, 1) == base_report.accuracy


def test_vote_simple_majority():
    probas = [[0.9, 0.1, 0.0], [0.8, 0.2, 0.0], [0.1, 0.9, 0.0]]
    stream = make_stream("A", ["A", "A", "B"], probas)
    assert majority_vote_eval([stream], 3) == 1.0


def test_vote_tie_breaks_by_summed_probability():
    # three-way tie; summed probability favors C
    probas = [[0.5, 0.2, 0.3], [0.1, 0.5, 0.4], [0.2, 0.2, 0.6]]
    stream = make_stream("C", ["A", "B", "C"], probas)
    assert majority_vote_eval([stream], 3) == 1.0
    stream_b = make_stream("B", ["A", "B", "C"], probas)
    assert majority_vote_eval([stream_b], 3) == 0.0


def vote_oracle(stream, k):
    """Brute-force re-derivation: Counter plurality, then summed probability,
    then label order."""
    labels = list(stream.labels)
    hits = []
    for start in range(len(stream.preds) - k + 1):
        window = list(stream.preds[start : start + k])
        counts = collections.Counter(window)
        top = max(counts.values())
        tied = [lab for lab in labels if counts.get(lab, 0) == top]
        if len(tied) > 1:
            sums = stream.probas[start : start + k].sum(axis=0)
            best = max(sums[labels.index(lab)] for lab in tied)
            tied = [lab for lab in tied if sums[labels.index(lab)] == best]
        hits.append(tied[0] == stream.true_label)
    return sum(hits) / len(hits)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_vote_matches_exhaustive_enumeration(k):
    rng = np.random.default_rng(99)
    labels = ("A", "B", "C")
    streams = []
    for true in labels:
        preds = rng.choice(labels, size=12)
        probas = rng.random((12, 3))
        probas /= probas.sum(axis=1, keepdims=True)
        streams.append(make_stream(true, preds, probas))
    expected = np.mean([vote_oracle(s, k) for s in streams])
    # every stream has the same position count, so the stream mean matches
    assert majority_vote_eval(streams, k) == pytest.approx(expected, abs=1e-15)


def test_vote_rejects_even_k(base_report):
    with pytest.raises(ValueError, match="odd"):
        majority_vote_eval(base_report.streams, 2)


def test_vote_rejects_oversized_k():
    stream = make_stream("A", ["A"] * 3, np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError, match="exceeds"):
        majority_vote_eval([stream], 5)


def test_vote_rejects_empty_streams():
    with pytest.raises(ValueError, match="no prediction streams"):
        majority_vote_eval([], 1)


# ---- user subsets ----


def test_subset_structure_and_dedup(cohort):
    spec = ExperimentSpec(game_id="game_a", model_kind="logistic", **SHORT)
    result = user_subset_experiment(spec, cohort, sizes=(2, 4), unit=2)
    users = ("user00", "user01", "user02", "user03")
    assert result.group_users[2] == [users[:2], users[2:]]
    # size 4: both cyclic groups collapse to the full user set
    assert result.group_users[4] == [users, users]
    assert result.group_accuracy[4][0] == result.group_accuracy[4][1]
    assert set(result.mean_accuracy) == {2, 4}
    assert result.sizes == (2, 4)


def test_subset_rejects_indivisible_user_count(cohort):
    spec = ExperimentSpec(game_id="game_a", **SHORT)
    with pytest.raises(ValueError, match="divisible"):
        user_subset_experiment(spec, cohort, sizes=(3,), unit=3)


def test_subset_rejects_bad_size(cohort):
    spec = ExperimentSpec(game_id="game_a", **SHORT)
    with pytest.raises(ValueError, match="size 6"):
        user_subset_experiment(spec, cohort, sizes=(6,), unit=2)


def test_subset_rejects_report_of_another_cell(cohort):
    spec = ExperimentSpec(game_id="game_a", model_kind="logistic", **SHORT)
    other_seed = run_identification(dataclasses.replace(spec, seed=1), cohort)
    with pytest.raises(ValueError, match="seed=1.*seed=0"):
        user_subset_experiment(spec, cohort, sizes=(2,), unit=2, full_report=other_seed)
    three = only_users(cohort, ["user00", "user01", "user02"])
    other_users = run_identification(spec, three)
    with pytest.raises(ValueError, match=r"\('user00', 'user01', 'user02'\).*'user03'\)"):
        user_subset_experiment(spec, cohort, sizes=(2,), unit=2, full_report=other_users)


def test_default_subset_sizes_cover_thirty():
    assert DEFAULT_SUBSET_SIZES == (5, 10, 15, 20, 25, 30)


# ---- cross-game transfer ----


@pytest.fixture(scope="module")
def two_games():
    games = (
        GameProfile(game_id="ga", category="fast"),
        GameProfile(game_id="gb", category="slow", dl_rate_scale=3.0),
    )
    return generate_synthetic_cohort(4, minutes=3.0, seed=2, games=games)


def test_cross_game_same_game_equals_identification(two_games):
    spec = ExperimentSpec(game_id="ga", model_kind="logistic", **SHORT)
    direct = run_identification(spec, two_games).accuracy
    assert cross_game_eval(spec, two_games, "ga", "ga") == direct


def test_cross_game_rejects_user_mismatch(two_games):
    traces = [
        r for r in two_games.traces if not (r.game_id == "gb" and r.user_id == "user03")
    ]
    broken = Dataset(traces=traces, game_categories=dict(two_games.game_categories))
    spec = ExperimentSpec(game_id="ga", **SHORT)
    with pytest.raises(ValueError, match="different user sets"):
        cross_game_eval(spec, broken, "ga", "gb")


def test_cross_game_rejects_single_user(two_games):
    solo = only_users(two_games, ["user01"])
    spec = ExperimentSpec(game_id="ga", **SHORT)
    with pytest.raises(ValueError, match="at least 2 users"):
        cross_game_eval(spec, solo, "ga", "gb")


def reference_cross_game(spec, dataset, train_game, test_game):
    """Cross-game accuracy as its own scale/fit/predict over every window."""

    def all_rows(game):
        rows, labels = [], []
        for rec in sorted(dataset.for_game(game), key=lambda r: r.user_id):
            feats = build_features(rec, spec.feature_set, spec.window_s, spec.bin_s)
            rows.extend(feats.values)
            labels.extend([rec.user_id] * len(feats))
        return np.vstack(rows), np.array(labels)

    X_train, y_train = all_rows(train_game)
    X_test, y_test = all_rows(test_game)
    scaler = MinMaxScaler().fit(X_train)
    model = make_model(spec.model_kind, seed=spec.seed, **spec.model_params)
    model.fit(scaler.transform(X_train), y_train)
    return accuracy(y_test, model.predict(scaler.transform(X_test)))


@pytest.mark.parametrize(
    "kind,params", [("logistic", {}), ("random_forest", {"n_trees": 15})]
)
@pytest.mark.parametrize("train_game,test_game", [("ga", "gb"), ("gb", "ga")])
def test_cross_game_equals_all_rows_reference(two_games, kind, params, train_game, test_game):
    spec = ExperimentSpec(game_id=train_game, model_kind=kind, model_params=params, **SHORT)
    got = cross_game_eval(spec, two_games, train_game, test_game)
    assert got == reference_cross_game(spec, two_games, train_game, test_game)


def test_cross_game_permuted_channels_near_chance():
    """Reversing the movement channel order in game B destroys transfer by
    construction; accuracy collapses to roughly chance (1/6 here)."""
    ds = generate_synthetic_cohort(6, minutes=3.0, seed=5)
    traces = list(ds.traces)
    for rec in ds.traces:
        flipped = dataclasses.replace(
            rec, game_id="gb", movement=rec.movement[:, ::-1].copy()
        )
        traces.append(flipped)
    both = Dataset(traces=traces, game_categories={"game_a": "fast", "gb": "fast"})
    spec = ExperimentSpec(game_id="game_a", feature_set="movement",
                          model_kind="random_forest", model_params={"n_trees": 25},
                          **SHORT)
    acc = cross_game_eval(spec, both, "game_a", "gb")
    assert acc <= 1 / 6 + 0.15


# ---- game recognition ----


def test_game_recognition_distinct_rates(two_games):
    spec = ExperimentSpec(game_id="ga", feature_set="traffic", model_kind="random_forest",
                          model_params={"n_trees": 25}, **SHORT)
    assert game_recognition_eval(spec, two_games) == 1.0


def test_game_recognition_rejects_single_game(cohort):
    spec = ExperimentSpec(game_id="game_a", **SHORT)
    with pytest.raises(ValueError, match="at least 2 games"):
        game_recognition_eval(spec, cohort)


def test_game_recognition_identical_games_near_chance():
    games = (GameProfile(game_id="ga", category="fast"),
             GameProfile(game_id="gb", category="fast"))
    ds = generate_synthetic_cohort(4, minutes=3.0, seed=6, games=games)
    spec = ExperimentSpec(game_id="ga", model_kind="logistic", **SHORT)
    acc = game_recognition_eval(spec, ds)
    assert abs(acc - 0.5) <= 0.2


# ---- matrices and reports ----


def test_matrix_covers_every_cell_once(cohort):
    specs = game_a_specs(["movement", "traffic"], ["logistic", "qda"], seed=3)
    reports = run_matrix(specs, cohort)
    seen = [(r.spec.game_id, r.spec.feature_set, r.spec.model_kind) for r in reports]
    expected = [
        ("game_a", fs, mk)
        for fs, mk in itertools.product(["movement", "traffic"], ["logistic", "qda"])
    ]
    assert seen == expected
    assert len(set(seen)) == len(seen)


def test_matrix_parallel_matches_serial(cohort):
    specs = game_a_specs(["movement"], ["logistic", "qda"])
    serial = run_matrix(specs, cohort, jobs=1)
    parallel = run_matrix(specs, cohort, jobs=2)
    for a, b in zip(serial, parallel):
        assert report_to_dict(a) == report_to_dict(b)


def test_matrix_isolates_a_failing_cell(cohort):
    specs = [
        ExperimentSpec(game_id=game, feature_set="traffic", model_kind=kind, **SHORT)
        for game, kind in (("game_a", "logistic"), ("no_such_game", "logistic"), ("game_a", "qda"))
    ]
    serial = run_matrix(specs, cohort, jobs=1)
    parallel = run_matrix(specs, cohort, jobs=2)
    for results in (serial, parallel):
        assert type(results[1]) is ValueError
        assert str(results[1]) == "no traces for game 'no_such_game'"
    for a, b in zip(serial[::2], parallel[::2]):
        assert report_to_dict(a) == report_to_dict(b)


def test_matrix_rejects_bad_jobs(cohort):
    with pytest.raises(ValueError, match="jobs"):
        run_matrix([], cohort, jobs=0)


def test_write_json_round_trip(tmp_path, base_report):
    path = str(tmp_path / "report.json")
    write_json(path, report_to_dict(base_report))
    loaded = json.load(open(path))
    assert loaded["accuracy"] == base_report.accuracy
    assert loaded["labels"] == list(base_report.labels)


def test_write_confusion_csv(tmp_path, base_report):
    path = str(tmp_path / "confusion.csv")
    write_confusion_csv(path, base_report)
    lines = open(path).read().splitlines()
    assert lines[0] == "true_label," + ",".join(base_report.labels)
    assert len(lines) == 1 + len(base_report.labels)
    first_row = [int(v) for v in lines[1].split(",")[1:]]
    assert first_row == base_report.confusion[0].tolist()


def test_write_table_csv(tmp_path, cohort):
    specs = game_a_specs(["movement", "traffic"], ["logistic"])
    reports = run_matrix(specs, cohort)
    path = str(tmp_path / "table.csv")
    write_table_csv(path, reports)
    lines = open(path).read().splitlines()
    assert lines[0] == (
        "game,model,movement,traffic,movement_norm_height,combined,combined_norm_height"
    )
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[:2] == ["game_a", "logistic"]
    assert float(cells[2]) == reports[0].accuracy
    # unevaluated feature sets stay empty
    assert cells[4] == ""


def test_write_curve_csv(tmp_path):
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, ("k", "accuracy"), [(1, 0.5), (3, 0.75)])
    assert open(path).read() == "k,accuracy\n1,0.5\n3,0.75\n"
