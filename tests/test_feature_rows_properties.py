"""Hypothesis properties of the per-trace feature rows.

``build_features`` keeps one row per window that passes the dropout bar, and
``_trace_split`` picks the train and test rows by masking ``window_index``
with the ``split_train_test`` ranges. Both must agree with the windows the
strategy built to be kept, in ascending window order, for any window length,
including decimal lengths such as 0.1 s that are inexact in binary.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.core import (
    SAMPLE_RATE_HZ,
    Trace,
    split_train_test,
)
from vrident.evaluation import ExperimentSpec, _trace_split
from vrident.features import build_features


@st.composite
def split_cases(draw):
    """(trace, window_s, train_s, test_s, kept): a 60 Hz trace whose movement
    samples are removed from the dropped windows, with i + 1 packets in
    window i so that every window's traffic row differs from the others, and
    the numbers of the windows it keeps."""
    window_s = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.5, 10.0]))
    n_windows = draw(st.integers(2, 12))
    # a trace without any movement sample is refused outright, so keep one window
    dropped = draw(st.sets(st.integers(0, n_windows - 1), max_size=n_windows - 1))
    tail = draw(st.sampled_from([0.0, 0.5]))  # a trailing partial window
    duration = n_windows * window_s + tail * window_s
    edges = np.arange(n_windows + 1, dtype=np.float64) * window_s

    movement_t = np.arange(int(duration * SAMPLE_RATE_HZ)) / SAMPLE_RATE_HZ
    window_of = np.searchsorted(edges, movement_t, side="right") - 1
    movement_t = movement_t[~np.isin(window_of, sorted(dropped))]
    movement = np.zeros((movement_t.shape[0], 21))
    movement[:, [3, 10, 17]] = 1.0  # identity quaternions

    traffic_t = np.concatenate(
        [edges[i] + window_s * (np.arange(i + 1) + 0.5) / (i + 1) for i in range(n_windows)]
    )
    n_packets = traffic_t.shape[0]
    trace = Trace(
        "u", "g", duration, movement_t, movement,
        traffic_t, np.full(n_packets, 100), np.arange(n_packets) % 2,
    )
    n_train = draw(st.integers(1, n_windows - 1))
    n_test = draw(st.integers(1, n_windows - n_train))
    kept = [i for i in range(n_windows) if i not in dropped]
    return trace, window_s, n_train * window_s, n_test * window_s, kept


@settings(max_examples=60, deadline=None)
@given(case=split_cases(), feature_set=st.sampled_from(["traffic", "combined"]))
def test_mask_selects_the_split_rows_in_window_order(case, feature_set):
    trace, window_s, train_s, test_s, kept = case
    feats = build_features(trace, feature_set, window_s, window_s)
    assert len(feats) == len(kept)
    assert feats.window_index.tolist() == kept
    assert np.unique(feats.values, axis=0).shape[0] == len(kept)

    spec = ExperimentSpec(
        game_id="g", feature_set=feature_set, train_s=train_s, test_s=test_s,
        window_s=window_s, bin_s=window_s,
    )
    picked = _trace_split(spec, trace)
    spans = split_train_test(trace, train_s, test_s, window_s)
    for rows, span in zip(picked, spans):
        want = [row for index, row in zip(kept, feats.values) if index in span]
        assert rows.shape == (len(want), feats.values.shape[1])
        assert np.array_equal(rows, np.array(want).reshape(rows.shape))
