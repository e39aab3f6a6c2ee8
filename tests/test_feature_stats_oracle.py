"""The sorted-lane statistics kernel against the ``np.quantile`` reference.

``features._stats_columns`` sorts each column once and reads min, max and
the type-7 quantiles off the sorted copy; ``build_features`` computes the
derived geometry once per trace and slices it per window, and bins every
window's packets in one count. The references below are the kernel as it
was before: ``np.quantile`` plus ``min``/``max`` per matrix,
``geometry_channels`` recomputed on every window's rows, and one packet
count per window, over windows they cut and filter themselves.
Both must agree byte for byte, on tied columns, signed zeros and extreme
magnitudes as much as on synthetic traces.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.core import (
    DIR_UL,
    QUATERNION_SLICES,
    SAMPLE_RATE_HZ,
    Trace,
    Y_CHANNEL_INDEX,
    canonicalize_quaternions,
)
from vrident.features import (
    FEATURE_SET_NAMES,
    _stats_columns,
    build_features,
    feature_names,
    geometry_channels,
    trace_height_scale,
)
from vrident.ingest import generate_synthetic_cohort

# The std of values near 1e300 overflows to inf in both implementations.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

# ---- np.quantile references -----------------------------------------------------


def reference_stats_columns(m):
    qs = np.quantile(m, (0.25, 0.5, 0.75), axis=0)
    return np.stack(
        [m.mean(axis=0), m.min(axis=0), m.max(axis=0), qs[0], qs[1], qs[2], m.std(axis=0)],
        axis=1,
    )


def reference_summary_stats(values):
    x = np.asarray(values, dtype=np.float64)
    q25, q50, q75 = np.quantile(x, (0.25, 0.5, 0.75))
    return tuple(float(v) for v in (x.mean(), x.min(), x.max(), q25, q50, q75, x.std()))


def reference_windows(trace, window_s):
    """(number, start, movement rows, packet rows) of each whole window that
    holds at least half its nominal 60 Hz samples, cut here rather than by
    the code under test. The traces below last whole seconds and use 10 s
    windows, so floor division counts their windows exactly."""
    edges = np.arange(int(trace.duration_s // window_s) + 1) * window_s
    m_cuts = np.searchsorted(trace.movement_t, edges)
    p_cuts = np.searchsorted(trace.traffic_t, edges)
    return [
        (i, edges[i], slice(m_cuts[i], m_cuts[i + 1]), slice(p_cuts[i], p_cuts[i + 1]))
        for i in range(edges.shape[0] - 1)
        if m_cuts[i + 1] - m_cuts[i] >= 0.5 * SAMPLE_RATE_HZ * window_s
    ]


def reference_movement_features(rows, y_scale=None):
    geo = geometry_channels(rows)
    if y_scale is not None:
        rows = rows.copy()
        for i, dev in enumerate(("head", "left", "right")):
            rows[:, Y_CHANNEL_INDEX[dev]] /= y_scale[i]
    vel = np.diff(rows, axis=0) * SAMPLE_RATE_HZ
    acc = np.diff(vel, axis=0) * SAMPLE_RATE_HZ
    per_channel = np.stack(
        [reference_stats_columns(rows), reference_stats_columns(vel), reference_stats_columns(acc)],
        axis=1,
    )
    return np.concatenate([per_channel.ravel(), reference_stats_columns(geo).ravel()])


def reference_traffic_features(t, size, direction, t_start, window_s, bin_s):
    n_bins = int(round(window_s / bin_s))
    rel = t - t_start
    idx = np.clip(np.floor(rel / bin_s).astype(np.int64), 0, n_bins - 1)
    sizes = size.astype(np.float64)
    byte_vol = np.bincount(idx, weights=sizes, minlength=n_bins)
    count = np.bincount(idx, minlength=n_bins).astype(np.float64)
    ul = np.bincount(idx[direction == DIR_UL], minlength=n_bins).astype(np.float64)
    dl = count - ul
    with np.errstate(invalid="ignore"):
        mean_size = np.where(count > 0, byte_vol / np.maximum(count, 1.0), 0.0)
    series = np.stack([mean_size, byte_vol, ul, dl], axis=1)
    return reference_stats_columns(series).ravel()


def reference_build_features(trace, feature_set, window_s, bin_s):
    canon = canonicalize_quaternions(trace)
    y_scale = trace_height_scale(canon) if feature_set.endswith("_norm_height") else None
    out = []
    for index, t_start, rows, packets in reference_windows(canon, window_s):
        parts = []
        if feature_set != "traffic":
            parts.append(reference_movement_features(canon.movement[rows], y_scale))
        if feature_set in ("traffic", "combined", "combined_norm_height"):
            parts.append(
                reference_traffic_features(
                    canon.traffic_t[packets], canon.traffic_size[packets],
                    canon.traffic_dir[packets], t_start, window_s, bin_s,
                )
            )
        out.append((index, t_start, np.concatenate(parts)))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---- the statistics kernel ------------------------------------------------------

EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 1.0, -1.0, 0.5]
magnitudes = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-9.99, 9.99, allow_nan=False),
    st.integers(-300, 299),
)
pool_values = st.one_of(st.sampled_from(EDGE_VALUES), magnitudes)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 700),
    k=st.integers(1, 8),
    pool=st.lists(pool_values, min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
def test_stats_columns_match_quantile_reference(n, k, pool, seed, fortran):
    # Cells are drawn from a small pool, so columns are heavily tied; pools
    # holding both zeros give columns mixing +0.0 and -0.0.
    rng = np.random.default_rng(seed)
    m = np.array(pool)[rng.integers(len(pool), size=(n, k))]
    if fortran:
        m = np.asfortranarray(m)
    before = m.copy()
    assert _same_bits(_stats_columns(m), reference_stats_columns(m))
    column = m[:, 0]
    assert _same_bits(_stats_columns(column[:, None])[0], reference_summary_stats(column))
    assert _same_bits(m, before)  # the sort works on a copy, even of one lane


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 700), k=st.integers(1, 8), scale=magnitudes, seed=st.integers(0, 2**32 - 1))
def test_stats_columns_match_on_continuous_values(n, k, scale, seed):
    m = np.random.default_rng(seed).standard_normal((n, k)) * scale
    assert _same_bits(_stats_columns(m), reference_stats_columns(m))


@pytest.mark.parametrize(
    "column",
    [
        [0.0],
        [-0.0],
        [-0.0, 0.0],
        [0.0, -0.0, 0.0, -0.0, 0.0],
        [-0.0] * 9,
        [1e300, -1e300, 1e300],
        [5e-324, -5e-324, 0.0, -0.0],
        [3.0, 1.0, 2.0, 2.0, 2.0, -0.0, 0.0, 7.0],
    ],
    ids=lambda c: f"n{len(c)}",
)
def test_stats_columns_edge_columns(column):
    m = np.array(column)[:, None]
    assert _same_bits(_stats_columns(m), reference_stats_columns(m))
    assert _same_bits(_stats_columns(m)[0], reference_summary_stats(column))


# ---- whole traces ---------------------------------------------------------------


def _jittered_trace(rng, seconds, jitter, drop, gap, quantize, hold, empty_windows):
    """A trace with jittered and dropped movement samples, held rows (tied
    values, zero derivatives), q/-q sign flips and packet-free windows.
    ``quantize`` rounds to 6 decimals, as a CSV read does, after putting
    head_px within 1e-6 of 0, so that channel mixes +0.0 and -0.0."""
    n = int(seconds * SAMPLE_RATE_HZ)
    t = (np.arange(n) + rng.uniform(-jitter, jitter, n)) / SAMPLE_RATE_HZ
    movement = np.cumsum(rng.normal(0.0, 0.01, (n, 21)), axis=0)
    for dev, height in (("head", 1.6), ("left", 1.1), ("right", 1.0)):
        movement[:, Y_CHANNEL_INDEX[dev]] += height
        sl = QUATERNION_SLICES[dev]
        quats = movement[:, sl] + rng.normal(0.0, 1.0, 4)
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        quats *= np.where(rng.random(n) < 0.05, -1.0, 1.0)[:, None]
        movement[:, sl] = quats
    held = np.flatnonzero(rng.random(n) < hold)
    movement[held[held > 0]] = movement[held[held > 0] - 1]
    if quantize:
        movement[:, 0] = rng.normal(0.0, 3e-7, n)
        movement = np.round(movement, 6)
    keep = rng.random(n) >= drop
    if gap:  # empties most of the second window, which the dropout bar then drops
        keep &= ~((t >= 11.0) & (t < 19.0))
    pkt_t = np.sort(rng.uniform(0.0, seconds, int(rng.integers(0, 40 * seconds))))
    for w in empty_windows:
        pkt_t = pkt_t[(pkt_t < 10.0 * w) | (pkt_t >= 10.0 * (w + 1))]
    return Trace(
        "u",
        "g",
        float(seconds),
        t[keep],
        movement[keep],
        pkt_t,
        rng.integers(1, 1500, pkt_t.size),
        rng.integers(0, 2, pkt_t.size),
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    seconds=st.integers(20, 50),
    jitter=st.sampled_from([0.0, 0.45]),
    drop=st.sampled_from([0.0, 0.1, 0.4]),
    gap=st.booleans(),
    quantize=st.booleans(),
    hold=st.sampled_from([0.0, 0.3]),
    empty_windows=st.sets(st.integers(0, 4), max_size=3),
    bin_s=st.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0]),
)
def test_build_features_matches_reference(
    seed, seconds, jitter, drop, gap, quantize, hold, empty_windows, bin_s
):
    rng = np.random.default_rng(seed)
    trace = _jittered_trace(rng, seconds, jitter, drop, gap, quantize, hold, empty_windows)
    for feature_set in FEATURE_SET_NAMES:
        got = build_features(trace, feature_set, bin_s=bin_s)
        want = reference_build_features(trace, feature_set, 10.0, bin_s)
        starts = got.window_index * 10.0
        assert list(zip(got.window_index.tolist(), starts.tolist())) == [(i, t) for i, t, _ in want]
        assert got.values.shape == (len(want), len(feature_names(feature_set)))
        for index, row, (_, _, values) in zip(got.window_index, got.values, want):
            assert _same_bits(row, values), (feature_set, index)


def test_jittered_traces_reach_the_cases_they_are_meant_to_cover():
    trace = _jittered_trace(np.random.default_rng(1), 40, 0.45, 0.0, True, True, 0.0, {2})
    kept = build_features(trace, "traffic").window_index.tolist()
    assert kept == [0, 2, 3]
    assert not trace.traffic_t[(trace.traffic_t >= 20.0) & (trace.traffic_t < 30.0)].size
    head_px = trace.movement[:600, 0]
    assert set(np.signbit(head_px[head_px == 0.0]).tolist()) == {False, True}


# sha256 of the stacked feature matrices of one synthetic cohort, pinned when
# the statistics came from np.quantile and per-window geometry.
PINNED_MATRICES = {
    "combined": "ed2dd8503bd02555bc97184bb05483b55fd9152559d6536b2191a7f878af53ca",
    "combined_norm_height": "4bd58a4033201269a92ee90cd8e0cbeeeeb3c9a2c3f25fac977a275df32fa548",
}


@pytest.mark.parametrize("feature_set", sorted(PINNED_MATRICES))
def test_feature_matrix_bytes_are_pinned(feature_set):
    ds = generate_synthetic_cohort(3, minutes=1.0, seed=13)
    X = np.vstack([build_features(rec.trace, feature_set).values for rec in ds.records])
    assert X.shape == (18, 511)
    assert hashlib.sha256(X.tobytes()).hexdigest() == PINNED_MATRICES[feature_set]
