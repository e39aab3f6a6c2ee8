"""Acceptance gate: one test per numbered criterion, each printing a
[criterion N] PASS line with the measured values and runtime. Criterion 9
needs a real dataset directory and is skipped unless QUESTSET_DIR is set.
"""
import collections
import itertools
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stats_fixtures import SUMMARY_STAT_CASES
from vrident.classifiers import (
    MODEL_KINDS,
    ExtraTrees,
    GradientBoosting,
    QuadraticDiscriminant,
    RandomForest,
    make_model,
)
from vrident.classifiers.logistic import binary_gradient, binary_objective
from vrident.evaluation import (
    ExperimentSpec,
    PredictionStream,
    cell_matrices,
    cross_game_eval,
    game_recognition_eval,
    majority_vote_eval,
    run_identification,
    user_subset_experiment,
)
from vrident.features import (
    COMBINED_FEATURE_NAMES,
    MOVEMENT_FEATURE_NAMES,
    TRAFFIC_FEATURE_NAMES,
    build_features,
    feature_names,
)
from vrident.importance import shapley_attribution, top_k_features
from vrident.ingest import default_profiles, generate_synthetic_cohort, load_dataset

_CACHE: dict = {}


def memo(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def passed(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS: {detail}")


def separable_report():
    def build():
        dataset = generate_synthetic_cohort(10, minutes=10.0, seed=7)
        spec = ExperimentSpec(game_id="game_a")
        return run_identification(spec, dataset)

    return memo("separable", build)


# ---- 1: feature vector shapes ---------------------------------------------------


def test_criterion_1_feature_shapes():
    dataset = memo("tiny", lambda: generate_synthetic_cohort(2, minutes=0.5, seed=0))
    trace = dataset.traces[0]
    t0 = time.perf_counter()
    lengths = {}
    for fs, expected in (("movement", 483), ("traffic", 28), ("combined", 511)):
        feats = build_features(trace, fs)
        assert len(feats), f"no windows for {fs}"
        assert feats.values.shape == (len(feats), expected)
        assert len(feature_names(fs)) == expected
        lengths[fs] = expected
    assert feature_names("combined") == MOVEMENT_FEATURE_NAMES + TRAFFIC_FEATURE_NAMES
    assert COMBINED_FEATURE_NAMES[0] == "mv.head_px.raw.mean"
    assert len(set(COMBINED_FEATURE_NAMES)) == 511
    took = time.perf_counter() - t0
    assert took < 1.0, f"took {took:.2f}s"
    passed(1, f"movement/traffic/combined = 483/28/511, stable names ({took:.2f}s < 1s)")


# ---- 2: summary statistics oracle ------------------------------------------------


def test_criterion_2_summary_stats_oracle():
    from vrident.features import _stats_columns

    def summary_stats(values):
        return _stats_columns(np.asarray(values, dtype=np.float64)[:, None])[0]

    t0 = time.perf_counter()
    assert len(SUMMARY_STAT_CASES) >= 20
    worst = 0.0
    for values, expected in SUMMARY_STAT_CASES:
        got = summary_stats(values)
        err = max(abs(g - e) for g, e in zip(got, expected))
        worst = max(worst, err)
        assert err <= 1e-9, f"{values}: off by {err}"
    spot = summary_stats([1.0, 2.0, 3.0, 4.0])
    assert abs(spot[3] - 1.75) <= 1e-9
    assert abs(spot[6] - 1.118033988749895) <= 1e-9
    took = time.perf_counter() - t0
    assert took < 1.0, f"took {took:.2f}s"
    passed(
        2,
        f"{len(SUMMARY_STAT_CASES)} fixtures within 1e-9 (worst {worst:.1e}); "
        f"[1,2,3,4] q25=1.75 std=1.1180 ({took:.2f}s < 1s)",
    )


# ---- 3: classifier oracles --------------------------------------------------------


def blobs(seed, n_per, centers, scale=0.6):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for i, c in enumerate(centers):
        X.append(rng.normal(0.0, scale, (n_per, len(c))) + np.asarray(c))
        y.extend([f"c{i}"] * n_per)
    return np.vstack(X), np.array(y)


def qda_oracle_predict(model, X_train, y_train, X):
    labels = np.unique(y_train)
    d = X.shape[1]
    scores = np.zeros((X.shape[0], labels.shape[0]))
    for j, lab in enumerate(labels):
        rows = X_train[y_train == lab]
        mu = rows.mean(axis=0)
        centered = rows - mu
        cov = centered.T @ centered / rows.shape[0]
        trace = float(np.trace(cov))
        alpha = model.ridge * (trace / d) if trace > 0 else model.ridge
        cov = cov + alpha * np.eye(d)
        diff = X - mu
        solved = np.linalg.solve(cov, diff.T).T
        quad = np.einsum("ij,ij->i", diff, solved)
        scores[:, j] = -0.5 * (d * math.log(2 * math.pi) + math.log(np.linalg.det(cov)) + quad)
    return labels[np.argmax(scores, axis=1)]


def test_criterion_3_classifier_oracles():
    t0 = time.perf_counter()
    # QDA vs direct density evaluation (d=3, 4 classes)
    X, y = blobs(2, 30, [(0, 0, 0), (3, 0, 1), (0, 3, -1), (3, 3, 2)])
    qda = QuadraticDiscriminant().fit(X, y)
    grid = np.vstack([X, np.random.default_rng(5).normal(1.5, 2.0, (200, 3))])
    assert np.array_equal(qda.predict(grid), qda_oracle_predict(qda, X, y, grid))

    # LR analytic gradient vs central finite differences
    rng = np.random.default_rng(8)
    Xb = rng.normal(0.0, 1.0, (40, 5))
    Xb = np.hstack([Xb, np.ones((40, 1))])
    yb = (rng.random(40) < 0.5).astype(np.float64)
    w = rng.normal(0.0, 0.5, 6)
    grad = binary_gradient(w, Xb, yb, lam=1.0)
    eps = 1e-6
    worst_rel = 0.0
    for i in range(6):
        step = np.zeros(6)
        step[i] = eps
        fd = (binary_objective(w + step, Xb, yb, 1.0) - binary_objective(w - step, Xb, yb, 1.0)) / (2 * eps)
        rel = abs(grad[i] - fd) / max(1.0, abs(fd))
        worst_rel = max(worst_rel, rel)
    assert worst_rel < 1e-4

    # GBM log-loss non-increasing across all 100 rounds
    Xg, yg = blobs(4, 20, [(0, 0), (2.5, 0), (1.2, 2.2)])
    gbm = GradientBoosting(n_rounds=100, seed=0).fit(Xg, yg)
    diffs = np.diff(gbm.train_loss_)
    assert len(gbm.train_loss_) == 101
    assert np.all(diffs <= 1e-9)

    # RF/ET determinism under a fixed seed
    Xt, yt = blobs(6, 25, [(0, 0), (2, 2), (0, 3)])
    for cls in (RandomForest, ExtraTrees):
        a = cls(n_trees=10, seed=3).fit(Xt, yt).predict_proba(Xt)
        b = cls(n_trees=10, seed=3).fit(Xt, yt).predict_proba(Xt)
        assert np.array_equal(a, b)
    took = time.perf_counter() - t0
    assert took < 30.0, f"took {took:.2f}s"
    passed(
        3,
        f"QDA exact vs density oracle; LR grad rel err {worst_rel:.1e} < 1e-4; "
        f"GBM loss monotone over 100 rounds; RF/ET seed-deterministic ({took:.1f}s < 30s)",
    )


# ---- 4: synthetic cohort identification --------------------------------------------


def test_criterion_4_cohort_identification():
    t0 = time.perf_counter()
    report = separable_report()
    assert all(count == 12 for count in report.test_counts.values())
    assert report.accuracy >= 0.95, f"separable accuracy {report.accuracy}"

    clone = generate_synthetic_cohort(10, minutes=10.0, seed=7, clone=True)
    clone_report = run_identification(ExperimentSpec(game_id="game_a"), clone)
    assert clone_report.accuracy <= 0.25, f"clone accuracy {clone_report.accuracy}"
    took = time.perf_counter() - t0
    assert took < 180.0, f"took {took:.1f}s"
    passed(
        4,
        f"separable {report.accuracy:.3f} >= 0.95 on 12-window split, "
        f"clone {clone_report.accuracy:.3f} <= 0.25 (chance 0.10) ({took:.1f}s < 180s)",
    )


# ---- 5: majority voting --------------------------------------------------------------


def vote_oracle(streams, k):
    correct = total = 0
    for stream in streams:
        n = stream.preds.shape[0]
        for start in range(n - k + 1):
            window = stream.preds[start : start + k].tolist()
            counts = collections.Counter(window)
            top = max(counts.values())
            tied = {lab for lab, c in counts.items() if c == top}
            if len(tied) == 1:
                winner = tied.pop()
            else:
                sums = stream.probas[start : start + k].sum(axis=0)
                best = -np.inf
                winner = None
                for j, lab in enumerate(stream.labels.tolist()):
                    if lab in tied and sums[j] > best:
                        best = sums[j]
                        winner = lab
            correct += winner == stream.true_label
            total += 1
    return correct / total


def test_criterion_5_voting():
    t0 = time.perf_counter()
    report = separable_report()
    assert majority_vote_eval(report.streams, 1) == report.accuracy

    labels = np.array(["a", "b", "c"])
    rng = np.random.default_rng(3)
    streams = []
    for true in ("a", "b", "c", "a"):
        preds = rng.choice(labels, 12)
        probas = rng.random((12, 3))
        probas /= probas.sum(axis=1, keepdims=True)
        streams.append(PredictionStream(true, preds, probas, labels))
    for k in (1, 3, 5):
        assert majority_vote_eval(streams, k) == vote_oracle(streams, k)

    acc_1 = majority_vote_eval(report.streams, 1)
    acc_11 = majority_vote_eval(report.streams, 11)
    assert acc_11 >= acc_1
    took = time.perf_counter() - t0
    assert took < 60.0, f"took {took:.1f}s"
    passed(
        5,
        f"k=1 equals per-window accuracy; enumeration oracle matches for k in (1,3,5); "
        f"k=11 {acc_11:.3f} >= k=1 {acc_1:.3f} ({took:.1f}s < 60s)",
    )


# ---- 6: user-count scaling -------------------------------------------------------------


def squeezed_profiles(n_users: int, lam: float):
    """Default profiles with every numeric parameter pulled toward the middle
    user by factor ``lam``, so the cohort is hard enough that accuracy
    actually degrades as the user count grows."""
    import dataclasses

    base = default_profiles(n_users)
    mid = base[n_users // 2]
    out = []
    for p in base:
        vals = {}
        for f in dataclasses.fields(p):
            v = getattr(p, f.name)
            if isinstance(v, float):
                m = getattr(mid, f.name)
                vals[f.name] = m + lam * (v - m)
            else:
                vals[f.name] = v
        out.append(replace(p, **vals))
    return out


def test_criterion_6_subset_scaling():
    t0 = time.perf_counter()
    dataset = generate_synthetic_cohort(
        30, minutes=10.0, seed=0, profiles=squeezed_profiles(30, 0.05)
    )
    spec = ExperimentSpec(
        game_id="game_a", model_kind="extra_trees", model_params={"n_trees": 100}
    )
    result = user_subset_experiment(spec, dataset)
    assert result.sizes == (5, 10, 15, 20, 25, 30)
    assert all(len(result.group_users[s]) == 6 for s in result.sizes)
    means = [result.mean_accuracy[s] for s in result.sizes]
    for prev, nxt in zip(means, means[1:]):
        assert nxt <= prev + 0.05, f"curve rose: {means}"
    took = time.perf_counter() - t0
    assert took < 600.0, f"took {took:.1f}s"
    curve = ", ".join(f"{s}:{result.mean_accuracy[s]:.3f}" for s in result.sizes)
    passed(6, f"6 groups per size; mean curve non-increasing within 0.05 ({curve}) ({took:.1f}s < 600s)")


# ---- 7: Shapley attribution ---------------------------------------------------------------


class _Curvy:
    labels_ = np.array(["a", "b"])

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        z = X[:, 0] * X[:, 1] + 0.5 * X[:, 2] - 0.25 * X[:, 3] ** 2
        s = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - s, s])


def test_criterion_7_shapley():
    t0 = time.perf_counter()
    X = np.array([[0.9, -0.6, 0.7, 1.2]])
    y = np.array(["b"])
    exact = shapley_attribution(_Curvy(), X, y, np.zeros(4), method="exact")
    mc = shapley_attribution(_Curvy(), X, y, np.zeros(4), n_permutations=5000, seed=11)
    gap_toy = float(np.max(np.abs(exact.values - mc.values)))
    assert gap_toy < 0.01
    assert np.all(exact.efficiency_gap <= 1e-9)
    assert np.all(mc.efficiency_gap <= 1e-9)

    base = default_profiles(4)
    mid = base[2]
    profiles = [replace(mid, user_id=p.user_id, dl_rate_hz=p.dl_rate_hz) for p in base]
    dataset = generate_synthetic_cohort(4, minutes=3.0, seed=13, profiles=profiles)
    spec = ExperimentSpec(game_id="game_a", model_kind="logistic", train_s=120.0, test_s=60.0)
    X_train, y_train, X_test, y_test = cell_matrices(spec, dataset)
    model = make_model("logistic").fit(X_train, y_train)
    result = shapley_attribution(
        model, X_test, y_test, X_train.mean(axis=0),
        n_permutations=20, seed=3, max_per_label=2,
        feature_names=feature_names("combined"),
    )
    top_name, _ = top_k_features(result, 1)[0]
    assert top_name.startswith("tr."), f"top feature was {top_name}"
    assert np.all(result.efficiency_gap <= 1e-9)
    took = time.perf_counter() - t0
    assert took < 120.0, f"took {took:.1f}s"
    passed(
        7,
        f"efficiency gaps <= 1e-9 (telescoping walk, within any 3-SE bound); "
        f"exact vs MC(5000) max diff {gap_toy:.4f} < 0.01; dl-rate cohort ranks "
        f"{top_name} first ({took:.1f}s < 120s)",
    )


# ---- 8: normalization -------------------------------------------------------------------------


def test_criterion_8_normalization():
    t0 = time.perf_counter()
    dataset = memo("four", lambda: generate_synthetic_cohort(4, minutes=3.0, seed=1))
    spec = ExperimentSpec(game_id="game_a", train_s=120.0, test_s=60.0)
    X_train, _, _, _ = cell_matrices(spec, dataset)
    assert float(X_train.min()) >= 0.0
    assert float(X_train.max()) <= 1.0

    trace = dataset.traces[0]
    scaled_mv = trace.movement.copy()
    y_cols = [1, 8, 15]  # vertical position channel of head, left, right
    scaled_mv[:, y_cols] *= 2.0  # power of two keeps the arithmetic exact
    scaled = replace(trace, movement=scaled_mv)
    original = build_features(trace, "movement_norm_height").values
    rescaled = build_features(scaled, "movement_norm_height").values
    # pairwise-distance geometry is defined over unnormalized positions, so
    # only the mv.dist_* columns may respond to the scaling
    dist_mask = np.array([n.startswith("mv.dist_") for n in MOVEMENT_FEATURE_NAMES])
    assert np.array_equal(original[:, ~dist_mask], rescaled[:, ~dist_mask])
    plain_a = build_features(trace, "movement").values
    plain_b = build_features(scaled, "movement").values
    assert not np.allclose(plain_a, plain_b)
    took = time.perf_counter() - t0
    assert took < 60.0, f"took {took:.1f}s"
    passed(
        8,
        "train features within [0,1]; height-normalized features bit-identical "
        f"under y*2 (distance geometry exempt by contract) ({took:.1f}s)",
    )


# ---- 9: optional dataset reproduction ----------------------------------------------------------


QUESTSET_SPOTS = {
    "beat_saber": (0.958, 0.03),
    "forklift": (0.997, 0.02),
}
QUESTSET_TRAFFIC_GAMES = ("medal_of_honor", "cooking_simulator", "forklift")


@pytest.mark.skipif(
    "QUESTSET_DIR" not in os.environ,
    reason="set QUESTSET_DIR to a dataset directory to run the reproduction tier",
)
def test_criterion_9_questset_spot_checks():
    root = Path(os.environ["QUESTSET_DIR"])
    dataset = load_dataset(root / "manifest.json")
    games = sorted({r.game_id for r in dataset.traces})

    for game, (target, tol) in QUESTSET_SPOTS.items():
        report = run_identification(
            ExperimentSpec(game_id=game, feature_set="movement"), dataset
        )
        assert abs(report.accuracy - target) <= tol, (game, report.accuracy)

    for game in QUESTSET_TRAFFIC_GAMES:
        best = max(
            run_identification(
                ExperimentSpec(game_id=game, feature_set="traffic", model_kind=kind),
                dataset,
            ).accuracy
            for kind in MODEL_KINDS
        )
        assert best >= 0.75, (game, best)

    for kind in MODEL_KINDS:
        for train_game, test_game in itertools.permutations(games, 2):
            acc = cross_game_eval(
                ExperimentSpec(game_id=train_game, model_kind=kind),
                dataset,
                train_game,
                test_game,
            )
            assert acc < 0.3, (kind, train_game, test_game, acc)

    assert game_recognition_eval(ExperimentSpec(game_id=games[0]), dataset) == 1.0
    passed(9, "dataset spot checks within stated tolerances")
