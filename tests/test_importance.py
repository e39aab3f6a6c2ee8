"""Tests for Shapley feature attribution."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from vrident.classifiers import make_model
from vrident.features import MinMaxScaler, build_features, feature_names
from vrident.importance import (
    AttributionResult,
    _instance_rng,
    ranked_features,
    shapley_attribution,
    top_k_features,
    write_attribution_csv,
)
from vrident.ingest import default_profiles, generate_synthetic_cohort


class LinearToy:
    """Two-class stub whose positive-class score is w @ x."""

    labels_ = np.array([0, 1])

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)

    def predict_proba(self, X):
        s = np.asarray(X, dtype=np.float64) @ self.w
        return np.column_stack([1.0 - s, s])


class CurvyToy:
    """Two-class stub with feature interactions and curvature."""

    labels_ = np.array(["a", "b"])

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        z = X[:, 0] * X[:, 1] + 0.5 * X[:, 2] - 0.25 * X[:, 3] ** 2
        s = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - s, s])


def proba_of(model, col, x):
    return float(model.predict_proba(np.asarray(x, dtype=np.float64)[None, :])[0, col])


# ---- closed-form and brute-force oracles -------------------------------------


def test_linear_model_attribution_is_closed_form_at_any_permutation_count():
    w = np.array([0.5, -0.25, 0.125])
    x = np.array([1.0, 2.0, 4.0])
    baseline = np.array([0.0, 1.0, 0.0])
    expected = w * (x - baseline)
    for kwargs in ({"n_permutations": 3}, {"method": "exact"}):
        res = shapley_attribution(LinearToy(w), x[None, :], np.array([1]), baseline, **kwargs)
        assert np.allclose(res.values, expected, atol=1e-12)


def test_null_player_is_attributed_zero():
    x = np.array([2.0, 5.0, -1.0])
    baseline = np.array([0.0, 5.0, 0.0])
    res = shapley_attribution(
        CurvyToy(), np.array([[2.0, 5.0, -1.0, 0.5]]), np.array(["b"]),
        np.array([0.0, 5.0, 0.0, 0.5]), n_permutations=40, seed=1,
    )
    # features 1 and 3 equal the baseline, so no walk ever moves the value
    assert res.values[1] == 0.0
    assert res.values[3] == 0.0
    del x, baseline


def test_exact_enumeration_matches_subset_definition():
    model = CurvyToy()
    x = np.array([0.8, -0.3, 1.1, 0.4])
    baseline = np.array([0.1, 0.2, -0.5, 0.0])
    res = shapley_attribution(model, x[None, :], np.array(["b"]), baseline, method="exact")

    d = 4
    fact = math.factorial

    def v(coalition):
        row = baseline.copy()
        for f in coalition:
            row[f] = x[f]
        return proba_of(model, 1, row)

    expected = np.zeros(d)
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for r in range(d):
            for subset in itertools.combinations(others, r):
                weight = fact(r) * fact(d - r - 1) / fact(d)
                expected[i] += weight * (v(subset + (i,)) - v(subset))
    assert np.allclose(res.values, expected, atol=1e-12)


def test_sampling_agrees_with_exact_enumeration_on_four_features():
    model = CurvyToy()
    X = np.array([[0.9, -0.6, 0.7, 1.2]])
    y = np.array(["b"])
    baseline = np.zeros(4)
    exact = shapley_attribution(model, X, y, baseline, method="exact")
    mc = shapley_attribution(model, X, y, baseline, n_permutations=5000, seed=11)
    assert np.max(np.abs(exact.values - mc.values)) < 0.01


def test_vectorized_walk_matches_scalar_replay_of_the_same_stream():
    model = CurvyToy()
    x = np.array([1.3, -0.4, 0.6, 0.9])
    baseline = np.array([0.2, 0.1, 0.0, -0.3])
    seed, n_perm = 5, 7
    res = shapley_attribution(
        model, x[None, :], np.array(["b"]), baseline, n_permutations=n_perm, seed=seed
    )

    rng = _instance_rng(seed, 0)
    perms = [rng.permutation(4) for _ in range(n_perm)]
    totals = np.zeros(4)
    for perm in perms:
        row = baseline.copy()
        prev = proba_of(model, 1, row)
        for f in perm:
            row[f] = x[f]
            now = proba_of(model, 1, row)
            totals[f] += now - prev
            prev = now
    assert np.allclose(res.values, totals / n_perm, atol=1e-12)


def test_symmetric_features_get_equal_values_under_enumeration():
    w = np.array([0.3, 0.3, -0.2])
    res = shapley_attribution(
        LinearToy(w), np.array([[1.5, 1.5, 0.4]]), np.array([1]), np.zeros(3),
        method="exact",
    )
    assert res.values[0] == pytest.approx(res.values[1], abs=1e-12)


# ---- efficiency and determinism ----------------------------------------------


def test_walks_telescope_so_attributions_sum_to_the_value_gap():
    model = CurvyToy()
    X = np.array([[0.9, -0.6, 0.7, 1.2], [0.1, 0.4, -0.2, 0.8]])
    y = np.array(["b", "a"])
    baseline = np.full(4, 0.25)
    res = shapley_attribution(model, X, y, baseline, n_permutations=25, seed=2)
    assert np.all(res.efficiency_gap <= 1e-9)
    for pos, row in enumerate(res.instance_rows.tolist()):
        col = 1 if y[row] == "b" else 0
        gap = proba_of(model, col, X[row]) - proba_of(model, col, baseline)
        assert float(res.per_instance[pos].sum()) == pytest.approx(gap, abs=1e-9)


def test_same_seed_reproduces_and_other_seed_differs():
    model = CurvyToy()
    X = np.array([[0.9, -0.6, 0.7, 1.2]])
    y = np.array(["b"])
    a = shapley_attribution(model, X, y, np.zeros(4), n_permutations=30, seed=9)
    b = shapley_attribution(model, X, y, np.zeros(4), n_permutations=30, seed=9)
    c = shapley_attribution(model, X, y, np.zeros(4), n_permutations=30, seed=10)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.per_instance, b.per_instance)
    assert not np.array_equal(a.values, c.values)


def test_permutation_chunking_does_not_change_the_result():
    model = CurvyToy()
    X = np.array([[0.9, -0.6, 0.7, 1.2]])
    y = np.array(["b"])
    wide = shapley_attribution(model, X, y, np.zeros(4), n_permutations=16, seed=4)
    narrow = shapley_attribution(
        model, X, y, np.zeros(4), n_permutations=16, seed=4, chunk_rows=8
    )
    assert np.array_equal(wide.values, narrow.values)
    assert np.array_equal(wide.stderr, narrow.stderr)


def test_instances_are_capped_per_label_keeping_the_first_rows():
    model = LinearToy(np.array([0.4, 0.1]))
    X = np.arange(14.0).reshape(7, 2)
    y = np.array([1, 1, 0, 1, 0, 0, 0])
    res = shapley_attribution(model, X, y, np.zeros(2), n_permutations=2, max_per_label=2)
    assert res.instance_rows.tolist() == [0, 1, 2, 4]
    assert res.per_instance.shape == (4, 2)


# ---- validation ---------------------------------------------------------------


def test_baseline_length_is_checked():
    with pytest.raises(ValueError, match="baseline"):
        shapley_attribution(
            LinearToy(np.ones(2)), np.ones((1, 2)), np.array([1]), np.zeros(3)
        )


def test_label_missing_from_model_is_rejected():
    with pytest.raises(ValueError, match="unknown to the model"):
        shapley_attribution(
            LinearToy(np.ones(2)), np.ones((1, 2)), np.array([7]), np.zeros(2)
        )


def test_bad_arguments_are_rejected():
    model, X, y, b = LinearToy(np.ones(2)), np.ones((1, 2)), np.array([1]), np.zeros(2)
    with pytest.raises(ValueError, match="method"):
        shapley_attribution(model, X, y, b, method="montecarlo")
    with pytest.raises(ValueError, match="n_permutations"):
        shapley_attribution(model, X, y, b, n_permutations=0)
    with pytest.raises(ValueError, match="max_per_label"):
        shapley_attribution(model, X, y, b, max_per_label=0)
    with pytest.raises(ValueError, match="feature names"):
        shapley_attribution(model, X, y, b, feature_names=("only_one",))
    with pytest.raises(ValueError, match="y has shape"):
        shapley_attribution(model, X, np.array([1, 0]), b)


class CountingToy(LinearToy):
    calls = 0

    def predict_proba(self, X):
        self.calls += 1
        return super().predict_proba(X)


def test_non_finite_walked_values_are_named_before_any_walk():
    X = np.arange(12.0).reshape(4, 3)
    y = np.array([0, 1, 0, 1])
    names = ("a", "b", "c")
    X[2, 1] = np.nan
    model = CountingToy(np.ones(3) / 30)
    with pytest.raises(ValueError, match=r"test row 2, feature 'b', is not finite \(nan\)"):
        shapley_attribution(model, X, y, np.zeros(3), max_per_label=2, feature_names=names)
    assert model.calls == 0
    baseline = np.array([0.0, 0.0, np.inf])
    with pytest.raises(ValueError, match=r"baseline feature 'c' is not finite \(inf\)"):
        shapley_attribution(model, X, y, baseline, feature_names=names)
    assert model.calls == 0
    # row 2 is never walked when one instance per label is kept
    res = shapley_attribution(model, X, y, np.zeros(3), n_permutations=2, max_per_label=1)
    assert res.instance_rows.tolist() == [0, 1]


def test_exact_enumeration_refuses_wide_matrices():
    model = LinearToy(np.ones(8))
    model.labels_ = np.array([0, 1])
    with pytest.raises(ValueError, match="at most 7 features"):
        shapley_attribution(model, np.ones((1, 8)), np.array([1]), np.zeros(8), method="exact")


# ---- ranking and output --------------------------------------------------------


def fixture_result():
    w = np.array([0.3, -0.5, 0.1])
    return shapley_attribution(
        LinearToy(w), np.ones((1, 3)), np.array([1]), np.zeros(3),
        n_permutations=1, feature_names=("a", "b", "c"),
    )


def test_top_k_orders_by_absolute_value():
    res = fixture_result()
    top_two = top_k_features(res, 2)
    assert [name for name, _ in top_two] == ["b", "a"]
    assert top_two[0][1] == pytest.approx(-0.5, abs=1e-12)
    assert top_two[1][1] == pytest.approx(0.3, abs=1e-12)
    assert [name for name, _ in top_k_features(res, 3)] == ["b", "a", "c"]


def test_top_k_bounds_are_enforced():
    res = fixture_result()
    with pytest.raises(ValueError, match="k=4 exceeds"):
        top_k_features(res, 4)
    with pytest.raises(ValueError, match="k must be"):
        top_k_features(res, 0)


def test_absolute_ties_break_by_name():
    res = shapley_attribution(
        LinearToy(np.array([0.5, -0.5])), np.ones((1, 2)), np.array([1]), np.zeros(2),
        n_permutations=1, feature_names=("zz", "aa"),
    )
    assert [name for name, _ in ranked_features(res)] == ["aa", "zz"]


def test_attribution_csv_lists_features_by_rank(tmp_path):
    res = fixture_result()
    path = tmp_path / "attr.csv"
    write_attribution_csv(str(path), res)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,mean_shapley,rank"
    assert lines[1].startswith("b,") and lines[1].endswith(",1")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["b", "a", "c"]


def test_result_records_its_inputs():
    res = fixture_result()
    assert isinstance(res, AttributionResult)
    assert res.method == "sampling"
    assert res.n_permutations == 1
    assert res.baseline.tolist() == [0.0, 0.0, 0.0]


# ---- end to end on a synthetic cohort ------------------------------------------


def test_traffic_feature_ranks_first_when_only_download_rate_differs():
    base = default_profiles(4)
    mid = base[2]
    profiles = [replace(mid, user_id=p.user_id, dl_rate_hz=p.dl_rate_hz) for p in base]
    dataset = generate_synthetic_cohort(4, minutes=3.0, seed=13, profiles=profiles)

    names = feature_names("combined")
    train_rows, train_y, test_rows, test_y = [], [], [], []
    for record in dataset.records:
        for fv in build_features(record.trace, "combined"):
            if fv.t_start < 120.0:
                train_rows.append(fv.values)
                train_y.append(record.user_id)
            else:
                test_rows.append(fv.values)
                test_y.append(record.user_id)
    scaler = MinMaxScaler().fit(np.array(train_rows))
    X_train = scaler.transform(np.array(train_rows))
    X_test = scaler.transform(np.array(test_rows))

    model = make_model("logistic").fit(X_train, np.array(train_y))
    res = shapley_attribution(
        model, X_test, np.array(test_y), X_train.mean(axis=0),
        n_permutations=20, seed=3, max_per_label=2, feature_names=names,
    )
    top_name, _ = top_k_features(res, 1)[0]
    assert top_name.startswith("tr.")
    assert np.all(res.efficiency_gap <= 1e-9)
