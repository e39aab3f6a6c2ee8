from __future__ import annotations

import logging
import math
import os
import pickle
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.core import (
    MOVEMENT_CHANNELS,
    QUATERNION_SLICES,
    Trace,
    TraceQualityError,
)
from vrident.features import (
    COMBINED_FEATURE_NAMES,
    FEATURE_SETS,
    MOVEMENT_FEATURE_NAMES,
    MinMaxScaler,
    TRAFFIC_FEATURE_NAMES,
    TraceFeatures,
    _stats_columns,
    build_features,
    feature_names,
    geometry_channels,
    trace_height_scale,
    write_feature_csv,
)

from stats_fixtures import SUMMARY_STAT_CASES


# ---- summary statistics ----

def summary_stats(values) -> np.ndarray:
    """(mean, min, max, q25, q50, q75, std) of one series, as the loop
    computes them for every feature column."""
    return _stats_columns(np.asarray(values, dtype=np.float64)[:, None])[0]


@pytest.mark.parametrize("values,expected", SUMMARY_STAT_CASES)
def test_summary_stats_fixtures(values, expected):
    got = summary_stats(values)
    assert len(got) == 7
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-9)


def test_summary_stats_population_std_not_sample():
    # sample std of [1,2,3,4] would be ~1.29; population is ~1.118
    assert summary_stats([1, 2, 3, 4])[6] == pytest.approx(1.118033988749895, abs=1e-12)


# ---- differentials ----

def ramp_trace(head_px) -> Trace:
    """A 10 s, 60 Hz trace whose head_px channel repeats ``head_px``; every
    other channel holds still."""
    n = 600
    movement = np.zeros((n, 21))
    movement[:, [3, 10, 17]] = 1.0
    movement[:, 0] = np.resize(np.asarray(head_px, dtype=np.float64), n)
    return Trace("u", "g", 10.0, np.arange(n) / 60.0, movement, [], [], [])


def test_differential_spec_example():
    # x = 0, 1, 0, 1, ... per sample: velocity alternates +-60 per second and
    # acceleration +-7200, the forward differences scaled by the 60 Hz rate
    feats = build_features(ramp_trace([0.0, 1.0]), "movement").values[0]
    by_name = dict(zip(MOVEMENT_FEATURE_NAMES, feats))
    assert (by_name["mv.head_px.vel.min"], by_name["mv.head_px.vel.max"]) == (-60.0, 60.0)
    assert (by_name["mv.head_px.acc.min"], by_name["mv.head_px.acc.max"]) == (-7200.0, 7200.0)


def test_differential_nominal_rate():
    # one unit per sample is 60 units per second at the nominal rate, whatever
    # the timestamps say
    tr = ramp_trace(np.arange(600.0))
    tr = Trace("u", "g", 10.0, tr.movement_t * 1.01, tr.movement, [], [], [])
    feats = build_features(tr, "movement").values[0]
    by_name = dict(zip(MOVEMENT_FEATURE_NAMES, feats))
    assert by_name["mv.head_px.vel.min"] == by_name["mv.head_px.vel.max"] == 60.0
    assert by_name["mv.head_px.acc.max"] == 0.0


def test_differential_needs_two():
    # a 1/30 s window needs one movement sample to pass the dropout bar,
    # which gives no velocity at all
    movement = np.zeros((1, 21))
    movement[:, [3, 10, 17]] = 1.0
    tr = Trace("u", "g", 1 / 30, [0.0], movement, [], [], [])
    with pytest.raises(ValueError, match="has 1 movement samples; need >= 3"):
        build_features(tr, "movement", window_s=1 / 30)


# ---- derived geometry ----

HEAD = (0.0, 1.7, 0.0, 1.0, 0.0, 0.0, 0.0)


def geometry_of(head, left, right) -> np.ndarray:
    """Geometry channels of one (head, left, right) pose row."""
    return geometry_channels(np.array([head + left + right]))[0]


def test_geometry_aligned_controller():
    # controller 1 m in front of the head (forward = -z), same orientation
    ahead = (0.0, 1.7, -1.0, 1.0, 0.0, 0.0, 0.0)
    d = geometry_of(HEAD, ahead, ahead)
    assert d[0] == pytest.approx(1.0)  # dist left-head
    assert d[1] == pytest.approx(1.0)  # dist right-head
    assert d[2] == pytest.approx(0.0)  # dist left-right
    assert d[3] == pytest.approx(0.0, abs=1e-12)  # ang left-head
    assert d[4] == pytest.approx(0.0, abs=1e-12)


def test_geometry_quarter_turn_angle():
    half = math.pi / 4
    q90y = (0.0, 1.2, -0.5, math.cos(half), 0.0, math.sin(half), 0.0)
    d = geometry_of(HEAD, q90y, q90y)
    assert d[3] == pytest.approx(math.pi / 2, abs=1e-12)
    assert d[4] == pytest.approx(math.pi / 2, abs=1e-12)
    assert d[5] == pytest.approx(0.0, abs=1e-12)  # controllers agree with each other


def test_geometry_angle_range_and_pair_symmetry():
    rng = np.random.default_rng(20)
    rows = rng.normal(size=(100, 21))
    # normalize quaternions so forward vectors are well defined
    for dev in ("head", "left", "right"):
        sl = QUATERNION_SLICES[dev]
        rows[:, sl] /= np.linalg.norm(rows[:, sl], axis=1, keepdims=True)
    geo = geometry_channels(rows)
    assert (geo[:, :3] >= 0.0).all()
    assert (geo[:, 3:] >= 0.0).all() and (geo[:, 3:] <= math.pi + 1e-12).all()
    # swapping the two controllers swaps the left/right columns
    swapped = rows.copy()
    swapped[:, 7:14], swapped[:, 14:21] = rows[:, 14:21].copy(), rows[:, 7:14].copy()
    geo_sw = geometry_channels(swapped)
    assert np.allclose(geo_sw[:, 0], geo[:, 1])
    assert np.allclose(geo_sw[:, 1], geo[:, 0])
    assert np.allclose(geo_sw[:, 2], geo[:, 2])
    assert np.allclose(geo_sw[:, 5], geo[:, 5])


def test_geometry_translation_invariance_of_angles_not_distances():
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(10, 21))
    for dev in ("head", "left", "right"):
        sl = QUATERNION_SLICES[dev]
        rows[:, sl] /= np.linalg.norm(rows[:, sl], axis=1, keepdims=True)
    shifted = rows.copy()
    for start in (0, 7, 14):
        shifted[:, start : start + 3] += np.array([5.0, -2.0, 3.0])
    geo, geo_shift = geometry_channels(rows), geometry_channels(shifted)
    assert np.allclose(geo[:, :3], geo_shift[:, :3], atol=1e-9)  # rigid shift keeps distances
    assert np.allclose(geo[:, 3:], geo_shift[:, 3:], atol=1e-12)


# ---- feature names ----

def test_feature_vector_lengths():
    assert len(MOVEMENT_FEATURE_NAMES) == 483
    assert len(TRAFFIC_FEATURE_NAMES) == 28
    assert len(COMBINED_FEATURE_NAMES) == 511
    assert len(set(COMBINED_FEATURE_NAMES)) == 511


def test_feature_name_order_spot_checks():
    assert MOVEMENT_FEATURE_NAMES[0] == "mv.head_px.raw.mean"
    assert MOVEMENT_FEATURE_NAMES[6] == "mv.head_px.raw.std"
    assert MOVEMENT_FEATURE_NAMES[7] == "mv.head_px.vel.mean"
    # head_py is channel 1; vel block starts at 21 + 7; q75 is stat 5
    assert MOVEMENT_FEATURE_NAMES[1 * 21 + 7 + 5] == "mv.head_py.vel.q75"
    assert MOVEMENT_FEATURE_NAMES[441] == "mv.dist_left_head.raw.mean"
    assert MOVEMENT_FEATURE_NAMES[-1] == "mv.ang_left_right.raw.std"
    assert TRAFFIC_FEATURE_NAMES[0] == "tr.pkt_size.raw.mean"
    assert "tr.ul_count.raw.std" in TRAFFIC_FEATURE_NAMES
    assert COMBINED_FEATURE_NAMES[:483] == MOVEMENT_FEATURE_NAMES
    assert COMBINED_FEATURE_NAMES[483:] == TRAFFIC_FEATURE_NAMES


def test_feature_names_rejects_unknown_set():
    with pytest.raises(ValueError, match="unknown feature set"):
        feature_names("sonar")


# ---- movement features over a window ----

def synth_window(duration=10.0, rate=60.0, packets=None, seed=5):
    """A trace holding one window of random rows, all of them in the window."""
    rng = np.random.default_rng(seed)
    n = int(duration * rate)
    t = np.arange(n) / rate
    movement = rng.normal(0.0, 0.1, size=(n, 21))
    movement[:, 1] += 1.7
    movement[:, 8] += 1.2
    movement[:, 15] += 1.2
    for dev in ("head", "left", "right"):
        sl = QUATERNION_SLICES[dev]
        movement[:, sl] = rng.normal(size=(n, 4))
        movement[:, sl] /= np.linalg.norm(movement[:, sl], axis=1, keepdims=True)
    if packets is None:
        packets = (np.array([]), np.array([], dtype=np.int64), np.array([], dtype=np.uint8))
    return Trace("u", "g", duration, t, movement, *packets)


def test_movement_features_shape_and_layout():
    tr = synth_window()
    feats = build_features(tr, "movement").values[0]
    assert feats.shape == (483,)
    rows = tr.movement
    # spot-check: raw mean of head_px is feature 0, vel std of head_px is index 13
    assert feats[0] == pytest.approx(rows[:, 0].mean())
    vel = np.diff(rows[:, 0]) * 60.0
    assert feats[7 + 6] == pytest.approx(vel.std())
    acc = np.diff(vel) * 60.0
    assert feats[14 + 2] == pytest.approx(acc.max())
    # geometry block sits after the 441 channel stats
    geo = geometry_channels(rows)
    assert feats[441] == pytest.approx(geo[:, 0].mean())


def test_movement_features_stationary_user():
    n = 600
    t = np.arange(n) / 60.0
    movement = np.zeros((n, 21))
    movement[:, 1] = 1.7
    movement[:, [3, 10, 17]] = 1.0
    tr = Trace("u", "g", 10.0, t, movement, np.array([]), np.array([]), np.array([]))
    feats = build_features(tr, "movement").values[0]
    names = MOVEMENT_FEATURE_NAMES
    by_name = dict(zip(names, feats))
    assert by_name["mv.head_py.raw.mean"] == pytest.approx(1.7, abs=1e-12)
    assert by_name["mv.head_py.raw.min"] == 1.7
    assert by_name["mv.head_py.raw.std"] == pytest.approx(0.0, abs=1e-12)
    assert by_name["mv.head_py.vel.mean"] == 0.0
    assert by_name["mv.head_px.acc.max"] == 0.0
    assert by_name["mv.dist_left_head.raw.mean"] == pytest.approx(1.7)


def test_movement_features_needs_three_samples():
    # at 0.05 s the dropout bar is 1.5 samples, so a 2-sample window passes it
    t = np.array([0.0, 0.02])
    movement = np.zeros((2, 21))
    movement[:, [3, 10, 17]] = 1.0
    tr = Trace("u", "g", 0.05, t, movement, np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError, match="need >= 3"):
        build_features(tr, "movement", window_s=0.05)


def test_height_normalization_divides_y_only():
    tr = synth_window(seed=9)
    scale = trace_height_scale(tr)
    plain = build_features(tr, "movement").values[0]
    normed = build_features(tr, "movement_norm_height").values[0]
    by_plain = dict(zip(MOVEMENT_FEATURE_NAMES, plain))
    by_norm = dict(zip(MOVEMENT_FEATURE_NAMES, normed))
    assert by_norm["mv.head_py.raw.mean"] == pytest.approx(by_plain["mv.head_py.raw.mean"] / scale[0])
    assert by_norm["mv.left_py.raw.max"] == pytest.approx(by_plain["mv.left_py.raw.max"] / scale[1])
    assert by_norm["mv.head_px.raw.mean"] == by_plain["mv.head_px.raw.mean"]
    # geometry still uses unscaled positions
    assert by_norm["mv.dist_left_head.raw.mean"] == by_plain["mv.dist_left_head.raw.mean"]


def test_trace_height_scale_and_zero_mean_rejected():
    tr = synth_window(seed=10)
    scale = trace_height_scale(tr)
    assert scale[0] == pytest.approx(tr.movement[:, 1].mean())
    flat = Trace(
        "u", "g", tr.duration_s, tr.movement_t,
        np.zeros_like(tr.movement), tr.traffic_t, tr.traffic_size, tr.traffic_dir,
    )
    with pytest.raises(ValueError, match="height-normalize"):
        trace_height_scale(flat)


def test_height_normalized_features_invariant_to_global_y_scaling():
    tr = synth_window(seed=11)
    scaled_mv = tr.movement.copy()
    scaled_mv[:, [1, 8, 15]] *= 2.0  # power of two keeps float ops exact
    tr2 = Trace("u", "g", tr.duration_s, tr.movement_t, scaled_mv,
                tr.traffic_t, tr.traffic_size, tr.traffic_dir)
    f1 = build_features(tr, "movement_norm_height").values[0]
    f2 = build_features(tr2, "movement_norm_height").values[0]
    geo_mask = np.array([n.startswith(("mv.dist", "mv.ang")) for n in MOVEMENT_FEATURE_NAMES])
    assert np.array_equal(f1[~geo_mask], f2[~geo_mask])
    # an arbitrary scale is invariant to rounding error
    scaled_mv3 = tr.movement.copy()
    scaled_mv3[:, [1, 8, 15]] *= 1.3
    tr3 = Trace("u", "g", tr.duration_s, tr.movement_t, scaled_mv3,
                tr.traffic_t, tr.traffic_size, tr.traffic_dir)
    f3 = build_features(tr3, "movement_norm_height").values[0]
    assert np.allclose(f1[~geo_mask], f3[~geo_mask], rtol=1e-9, atol=1e-9)
    # without normalization the same scaling shifts the features
    p1 = build_features(tr, "movement").values[0]
    p2 = build_features(tr2, "movement").values[0]
    assert not np.allclose(p1, p2)


# ---- traffic features ----

def packet_arrays(items):
    t = np.array([i[0] for i in items], dtype=float)
    size = np.array([i[1] for i in items], dtype=np.int64)
    d = np.array([0 if i[2] == "UL" else 1 for i in items], dtype=np.uint8)
    return t, size, d


def traffic_window(items, duration=10.0, bin_s=1.0):
    """The 28 traffic features of a trace that is one window of ``items``."""
    n = int(duration * 60)
    t = np.arange(n) / 60.0
    movement = np.zeros((n, 21))
    movement[:, [3, 10, 17]] = 1.0
    tr = Trace("u", "g", duration, t, movement, *packet_arrays(items))
    feats = build_features(tr, "traffic", duration, bin_s)
    assert feats.window_index.tolist() == [0]
    return feats.values[0]


def test_traffic_features_hand_binned():
    feats = traffic_window(
        [(0.5, 100, "UL"), (0.7, 200, "DL"), (3.2, 50, "UL"), (9.999, 1000, "DL")], bin_s=1.0
    )
    assert feats.shape == (28,)
    mean_size = [150.0, 0, 0, 50.0, 0, 0, 0, 0, 0, 1000.0]
    byte_vol = [300.0, 0, 0, 50.0, 0, 0, 0, 0, 0, 1000.0]
    ul = [1.0, 0, 0, 1.0, 0, 0, 0, 0, 0, 0.0]
    dl = [1.0, 0, 0, 0.0, 0, 0, 0, 0, 0, 1.0]
    expected = np.concatenate(
        [summary_stats(series) for series in (mean_size, byte_vol, ul, dl)]
    )
    assert np.allclose(feats, expected, atol=1e-12)


def test_traffic_features_empty_window_is_zero():
    assert np.array_equal(traffic_window([]), np.zeros(28))


def test_traffic_features_bin_boundary_half_open():
    # a packet exactly on a bin edge belongs to the later bin
    feats = dict(zip(TRAFFIC_FEATURE_NAMES, traffic_window([(1.0, 10, "UL"), (2.0, 20, "UL")])))
    assert feats["tr.ul_count.raw.max"] == 1.0


def test_traffic_features_byte_conservation():
    rng = np.random.default_rng(30)
    items = [
        (float(t), int(s), "UL" if u < 0.5 else "DL")
        for t, s, u in zip(
            np.sort(rng.uniform(0, 10, 500)),
            rng.integers(1, 1500, 500),
            rng.uniform(size=500),
        )
    ]
    feats = dict(zip(TRAFFIC_FEATURE_NAMES, traffic_window(items)))
    assert feats["tr.bytes.raw.mean"] * 10 == pytest.approx(sum(s for _, s, _ in items), abs=1e-6)
    assert feats["tr.ul_count.raw.mean"] * 10 + feats["tr.dl_count.raw.mean"] * 10 == 500


def test_traffic_features_rejects_uneven_bin():
    with pytest.raises(ValueError, match="does not evenly divide"):
        traffic_window([], bin_s=3.0)


@pytest.mark.parametrize("bin_s", [0.0, -1.0, math.nan, math.inf, 3.0])
@pytest.mark.parametrize("feature_set", ["traffic", "combined"])
def test_build_features_rejects_bad_bin_before_windowing(monkeypatch, feature_set, bin_s):
    def cut(*args):
        raise AssertionError("windows were cut before bin_s was checked")

    monkeypatch.setattr("vrident.features.window_cuts", cut)
    message = f"bin_s={bin_s} does not evenly divide window_s=10.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_features(full_trace(), feature_set, 10.0, bin_s)


def test_movement_features_ignore_bin():
    assert len(build_features(full_trace(), "movement", 10.0, 0.0)) == 6


@pytest.mark.parametrize("window_s", [math.nan, math.inf, -math.inf, 0.0, -10.0])
@pytest.mark.parametrize("feature_set", sorted(FEATURE_SETS))
def test_build_features_rejects_bad_window(feature_set, window_s):
    message = f"window_s must be a finite positive number, got {window_s}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_features(full_trace(), feature_set, window_s)


# ---- scaler ----

def test_minmax_scaler_train_range_and_no_clamp():
    rng = np.random.default_rng(40)
    X = rng.normal(size=(50, 8)) * 10
    sc = MinMaxScaler().fit(X)
    T = sc.transform(X)
    assert T.min() == pytest.approx(0.0) and T.max() == pytest.approx(1.0)
    outside = sc.transform(X.max(axis=0, keepdims=True) + 5.0)
    assert (outside > 1.0).all()


def test_minmax_scaler_constant_feature_maps_to_zero():
    X = np.array([[1.0, 7.0], [2.0, 7.0]])
    sc = MinMaxScaler().fit(X)
    out = sc.transform(np.array([[1.5, 7.0], [9.0, 123.0]]))
    assert out[:, 1].tolist() == [0.0, 0.0]


def test_minmax_scaler_width_mismatch():
    sc = MinMaxScaler().fit(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="expected 4 features"):
        sc.transform(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="not fitted"):
        MinMaxScaler().transform(np.zeros((1, 1)))


# ---- end-to-end per-trace extraction ----

def full_trace(duration=60.0, seed=3):
    rng = np.random.default_rng(seed)
    n = int(duration * 60)
    t = np.arange(n) / 60.0
    movement = rng.normal(0.0, 0.05, (n, 21))
    movement[:, 1] += 1.6
    movement[:, 8] += 1.1
    movement[:, 15] += 1.1
    for dev in ("head", "left", "right"):
        sl = QUATERNION_SLICES[dev]
        movement[:, sl] = rng.normal(size=(n, 4))
        movement[:, sl] /= np.linalg.norm(movement[:, sl], axis=1, keepdims=True)
    m = 200
    tt = np.sort(rng.uniform(0, duration, m))
    sizes = rng.integers(1, 1500, m)
    dirs = (rng.uniform(size=m) < 0.5).astype(np.uint8)
    return Trace("u7", "ga", duration, t, movement, tt, sizes, dirs)


def test_build_features_counts_and_provenance():
    tr = full_trace()
    feats = build_features(tr, "combined")
    assert isinstance(feats, TraceFeatures)
    assert len(feats) == 6
    assert feats.window_index.tolist() == list(range(6))
    assert feats.window_index.dtype == np.int64
    assert feats.user_id == "u7" and feats.game_id == "ga"
    assert feats.values.shape == (6, 511) and feats.values.dtype == np.float64
    assert feature_names(feats.feature_set) == COMBINED_FEATURE_NAMES


def test_build_features_combined_is_concatenation():
    tr = full_trace(seed=6)
    mv = build_features(tr, "movement").values
    tf = build_features(tr, "traffic").values
    both = build_features(tr, "combined").values
    for m, f, b in zip(mv, tf, both):
        assert np.array_equal(b, np.concatenate([m, f]))


def test_build_features_unknown_set():
    with pytest.raises(ValueError, match="unknown feature set"):
        build_features(full_trace(), "wavelets")


def test_write_feature_csv_round_layout(tmp_path):
    feats = build_features(full_trace(), "traffic")
    out = tmp_path / "feats.csv"
    write_feature_csv(out, [feats])
    lines = out.read_text().splitlines()
    assert lines[0] == "user_id,game_id,window_index," + ",".join(TRAFFIC_FEATURE_NAMES)
    assert len(lines) == 1 + len(feats)
    first = lines[1].split(",")
    assert first[:3] == ["u7", "ga", "0"]
    assert len(first) == 3 + 28
    assert not list(tmp_path.glob("*.tmp"))


def test_feature_csv_values_are_per_value_reprs(tmp_path):
    feats = build_features(full_trace(), "combined")
    out = tmp_path / "feats.csv"
    write_feature_csv(out, [feats])
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == len(feats)
    for values, row in zip(feats.values, rows):
        assert row.split(",", 3)[3] == ",".join(repr(float(x)) for x in values)


def test_failed_feature_csv_write_keeps_previous_file(tmp_path, monkeypatch):
    feats = build_features(full_trace(), "traffic")
    out = tmp_path / "feats.csv"
    out.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write_feature_csv(out, [feats])
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["feats.csv"]


def test_write_feature_csv_rejects_mixed_sets(tmp_path):
    tr = full_trace()
    traces = [build_features(tr, "movement"), build_features(tr, "traffic")]
    with pytest.raises(ValueError, match="mixed feature sets"):
        write_feature_csv(tmp_path / "x.csv", traces)


# ---- memo ----

#: (window_s, bin_s) pairs that cut full_trace()'s 60 s differently.
MEMO_PAIRS = ((10.0, 1.0), (10.0, 2.5), (5.0, 1.0), (20.0, 4.0), (15.0, 0.5))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(FEATURE_SETS)), st.sampled_from(MEMO_PAIRS)),
        min_size=1,
        max_size=10,
    )
)
def test_memoized_features_equal_cold_calls(calls):
    tr = full_trace()
    keys = set()
    for feature_set, (window_s, bin_s) in calls:
        feats = build_features(tr, feature_set, window_s, bin_s)
        cold = build_features(replace(tr), feature_set, window_s, bin_s)
        assert feats.window_index.tobytes() == cold.window_index.tobytes()
        assert feats.values.tobytes() == cold.values.tobytes()
        keys.add(("kept", window_s))
        if feature_set != "traffic":
            keys.add(("movement", window_s, feature_set.endswith("_norm_height")))
            keys.add(("geometry", window_s))
        if feature_set in ("traffic", "combined", "combined_norm_height"):
            keys.add(("traffic", window_s, bin_s))
    assert set(tr._features) == keys
    assert replace(tr)._features == {}


def test_geometry_is_computed_once_per_trace_and_window():
    tr = full_trace()
    sets = ("movement", "combined", "movement_norm_height", "combined_norm_height")
    with mock.patch("vrident.features.geometry_channels", wraps=geometry_channels) as geo:
        warm = [build_features(tr, feature_set).values for feature_set in sets]
    assert geo.call_count == 1
    for feature_set, values in zip(sets, warm):
        assert values.tobytes() == build_features(replace(tr), feature_set).values.tobytes()


def test_unpickled_trace_is_read_only_with_an_empty_memo():
    tr = full_trace()
    feats = build_features(tr, "combined")
    assert len(tr._features) == 4
    back = pickle.loads(pickle.dumps(tr))
    assert back._features == {}
    assert len(tr._features) == 4
    for name in ("movement_t", "movement", "traffic_t", "traffic_size", "traffic_dir"):
        array = getattr(back, name)
        assert array.tobytes() == getattr(tr, name).tobytes()
        assert array.dtype == getattr(tr, name).dtype
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert (back.user_id, back.game_id, back.duration_s) == (tr.user_id, tr.game_id, tr.duration_s)
    assert build_features(back, "combined").values.tobytes() == feats.values.tobytes()


def test_returned_arrays_do_not_alias_the_memo(monkeypatch):
    tr = full_trace()
    first = build_features(tr, "combined")
    expected = first.values.copy()
    first.values[:] = np.nan
    first.window_index[:] = -1

    def refuse(trace):
        raise AssertionError("a memoized call canonicalized again")

    monkeypatch.setattr("vrident.features.canonical_movement", refuse)
    again = build_features(tr, "combined")
    assert again.values.tobytes() == expected.tobytes()
    assert again.window_index.tolist() == list(range(6))


def test_zero_norm_quaternion_raises_on_every_call():
    tr = full_trace()
    movement = tr.movement.copy()
    movement[100, QUATERNION_SLICES["left"]] = 0.0
    bad = replace(tr, movement=movement)
    for feature_set in ("traffic", "traffic", "movement", "combined", "combined"):
        with pytest.raises(TraceQualityError, match="zero-norm left quaternion at sample 100"):
            build_features(bad, feature_set)
    assert bad._features == {}


def test_dropped_window_is_logged_once_per_trace_and_window(caplog):
    tr = full_trace()
    # window 2 keeps 200 of its 600 movement samples, under the 300 bar
    rows = np.r_[0:1200, 1600:3600]
    sparse = replace(tr, movement_t=tr.movement_t[rows], movement=tr.movement[rows])
    with caplog.at_level(logging.WARNING, logger="vrident.core"):
        for feature_set in ("combined", "movement", "combined"):
            assert build_features(sparse, feature_set).window_index.tolist() == [0, 1, 3, 4, 5]
    assert caplog.text.count("dropping window 2 of trace u7/ga") == 1
