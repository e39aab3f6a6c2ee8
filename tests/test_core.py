from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.core import (
    Dataset,
    MOVEMENT_CHANNELS,
    QUATERNION_SLICES,
    SplitError,
    Trace,
    TraceFormatError,
    TraceQualityError,
    canonical_movement,
    forward_vectors,
    kept_windows,
    quat_rotate,
    split_train_test,
    whole_windows,
    window_cuts,
)


def make_trace(
    duration_s: float = 600.0,
    rate_hz: float = 60.0,
    user_id: str = "u0",
    game_id: str = "g",
    packet_times=(),
) -> Trace:
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    movement = np.zeros((n, 21))
    movement[:, [3, 10, 17]] = 1.0  # identity quaternions
    pt = np.asarray(packet_times, dtype=float)
    return Trace(
        user_id=user_id,
        game_id=game_id,
        duration_s=duration_s,
        movement_t=t,
        movement=movement,
        traffic_t=pt,
        traffic_size=np.ones(len(pt), dtype=np.int64),
        traffic_dir=np.zeros(len(pt), dtype=np.uint8),
    )


def rotation_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---- quaternion rotation ----

def test_quat_rotate_identity():
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(quat_rotate(np.array([1.0, 0, 0, 0]), v), v)


def test_quat_rotate_matches_rotation_matrix():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        v = rng.normal(size=3)
        assert np.allclose(quat_rotate(q, v), rotation_matrix(q) @ v, atol=1e-12)


def test_forward_vector_yaw_90deg():
    # 90 degrees about +y sends (0,0,-1) to (-1,0,0)
    q = np.array([math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4), 0.0])
    assert np.allclose(forward_vectors(q), [-1.0, 0.0, 0.0], atol=1e-12)


# ---- canonicalization ----

def quat_trace(quats, user_id="u0") -> Trace:
    quats = np.asarray(quats, dtype=float)
    n = len(quats)
    movement = np.zeros((n, 21))
    for dev in ("head", "left", "right"):
        movement[:, QUATERNION_SLICES[dev]] = quats
    return Trace(
        user_id=user_id,
        game_id="g",
        duration_s=max(n, 1) / 60.0,  # a trace lasts more than 0 s
        movement_t=np.arange(n) / 60.0,
        movement=movement,
        traffic_t=np.array([]),
        traffic_size=np.array([], dtype=np.int64),
        traffic_dir=np.array([], dtype=np.uint8),
    )


def test_canonicalize_flips_negative_first_w():
    movement = canonical_movement(quat_trace([[-1.0, 0.0, 0.0, 0.0]]))
    got = movement[0, QUATERNION_SLICES["head"]]
    assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0])


def test_canonicalize_first_sign_tie_uses_qx():
    movement = canonical_movement(quat_trace([[0.0, -1.0, 0.0, 0.0]]))
    assert np.array_equal(movement[0, QUATERNION_SLICES["head"]], [0.0, 1.0, 0.0, 0.0])


def test_canonicalize_renormalizes():
    movement = canonical_movement(quat_trace([[2.0, 0.0, 0.0, 0.0]]))
    assert np.array_equal(movement[0, QUATERNION_SLICES["head"]], [1.0, 0.0, 0.0, 0.0])


def test_canonicalize_enforces_continuity():
    s = math.sqrt(0.5)
    quats = [
        [1.0, 0.0, 0.0, 0.0],
        [-0.999, 0.01, 0.0, 0.0],  # a sign flip of a nearby rotation
        [s, s, 0.0, 0.0],
    ]
    q = canonical_movement(quat_trace(quats))[:, QUATERNION_SLICES["head"]]
    dots = np.einsum("ij,ij->i", q[1:], q[:-1])
    assert (dots >= 0).all()
    assert q[1, 0] > 0  # flipped back alongside its neighbor


def test_canonicalize_idempotent_exactly():
    rng = np.random.default_rng(3)
    quats = rng.normal(size=(200, 4)) * rng.uniform(0.5, 2.0, size=(200, 1))
    tr = quat_trace(quats)
    once = canonical_movement(tr)
    twice = canonical_movement(replace(tr, movement=once))
    assert np.array_equal(once, twice)


def test_canonicalize_preserves_rotation():
    rng = np.random.default_rng(4)
    quats = rng.normal(size=(50, 4)) * 3.0
    tr = quat_trace(quats)
    canon = canonical_movement(tr)
    v = np.array([0.3, -1.2, 0.8])
    for i in range(50):
        q_raw = quats[i] / np.linalg.norm(quats[i])
        q_can = canon[i, QUATERNION_SLICES["left"]]
        assert np.allclose(rotation_matrix(q_raw) @ v, rotation_matrix(q_can) @ v, atol=1e-9)


def test_canonicalize_zero_norm_names_sample():
    quats = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    with pytest.raises(TraceQualityError, match=r"sample 1"):
        canonical_movement(quat_trace(quats))


def test_canonicalize_rejects_empty_trace():
    tr = quat_trace(np.empty((0, 4)))
    with pytest.raises(TraceQualityError):
        canonical_movement(tr)


# ---- windowing ----

def window_rows(cuts):
    """(lo, hi) row bounds of each window, from an array of cuts."""
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def test_window_count_600s():
    tr = make_trace(600.0)
    m_cuts, p_cuts = window_cuts(tr, 10.0)
    assert m_cuts.shape == p_cuts.shape == (61,)
    # window i starts at i * window_s, and its first sample sits there
    assert tr.movement_t[m_cuts[0]] == 0.0
    assert tr.movement_t[m_cuts[59]] == 590.0


def test_last_sample_lands_in_final_window():
    tr = make_trace(600.0)
    m_cuts, _ = window_cuts(tr, 10.0)
    # final sample is at t = 599.98333...
    assert m_cuts[60] == tr.n_movement
    assert tr.movement_t[m_cuts[59] : m_cuts[60]][-1] == tr.movement_t[-1]


def test_window_membership_half_open():
    # samples exactly on a boundary belong to the later window
    tr = make_trace(30.0, rate_hz=1.0)  # t = 0, 1, ..., 29
    m_cuts, _ = window_cuts(tr, 10.0)
    assert np.diff(m_cuts).tolist() == [10, 10, 10]
    assert tr.movement_t[m_cuts[1]] == 10.0


def test_trailing_partial_window_dropped():
    m_cuts, _ = window_cuts(make_trace(605.0), 10.0)
    assert m_cuts.shape == (61,)
    assert m_cuts[-1] == 60 * 600  # the 300 samples after 600 s are in no window


@pytest.mark.parametrize("duration_s, n_windows", [(0.3, 3), (0.7, 7), (2.0, 20)])
def test_window_count_tolerates_inexact_float_spans(duration_s, n_windows):
    # 0.3 / 0.1 == 2.9999999999999996 and 2.0 // 0.1 == 19.0; both count as
    # whole multiples under the relative 1e-9 rule of the train/test spans
    tr = make_trace(duration_s)
    m_cuts, p_cuts = window_cuts(tr, 0.1)
    assert m_cuts.shape == p_cuts.shape == (n_windows + 1,)
    assert kept_windows(tr, m_cuts, 0.1).tolist() == list(range(n_windows))


def test_windowing_partitions_samples():
    rng = np.random.default_rng(8)
    t = np.sort(rng.uniform(0.0, 47.0, 400))
    movement = np.zeros((400, 21))
    movement[:, [3, 10, 17]] = 1.0
    tr = Trace("u", "g", 47.0, t, movement, np.array([]), np.array([]), np.array([]))
    m_cuts, _ = window_cuts(tr, 10.0)
    assert m_cuts.shape == (5,)
    covered = np.concatenate([t[lo:hi] for lo, hi in window_rows(m_cuts)])
    in_range = t[t < 40.0]
    assert np.array_equal(covered, in_range)
    for i, (lo, hi) in enumerate(window_rows(m_cuts)):
        assert ((t[lo:hi] >= 10.0 * i) & (t[lo:hi] < 10.0 * i + 10.0)).all()


@settings(max_examples=80, deadline=None)
@given(
    n_windows=st.integers(1, 6),
    window_s=st.sampled_from([0.1, 0.25, 0.3, 1.0, 2.5, 10.0]),
    tail=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_windows_partition_the_half_open_span(n_windows, window_s, tail, seed):
    # movement samples and packets at random times and on the window edges;
    # each one in [0, n * window_s) lands in exactly one window, whose
    # half-open span holds it, so an edge sample opens the later window
    rng = np.random.default_rng(seed)
    edges = np.arange(n_windows + 1, dtype=np.float64) * window_s
    duration = (n_windows + tail) * window_s

    def times(n):
        t = np.concatenate([rng.uniform(0.0, duration, n), rng.choice(edges, n // 2)])
        return np.sort(t)

    mt, pt = times(int(rng.integers(0, 40))), times(int(rng.integers(0, 40)))
    movement = np.zeros((mt.shape[0], 21))
    movement[:, [3, 10, 17]] = 1.0
    tr = Trace("u", "g", duration, mt, movement, pt, np.ones(pt.shape[0]), np.zeros(pt.shape[0]))
    cuts = window_cuts(tr, window_s)
    for t, c in zip((mt, pt), cuts):
        assert c.shape == (n_windows + 1,)
        owner = np.full(t.shape[0], -1)
        for i, (lo, hi) in enumerate(window_rows(c)):
            assert (owner[lo:hi] == -1).all()
            owner[lo:hi] = i
        inside = t < edges[-1]
        assert (owner[inside] == np.searchsorted(edges, t[inside], side="right") - 1).all()
        assert (owner[~inside] == -1).all()
        for k, edge in enumerate(edges[:-1]):
            assert (owner[t == edge] == k).all()


def test_window_traffic_slices():
    tr = make_trace(30.0, packet_times=[0.5, 9.999999, 10.0, 15.0, 29.999])
    _, p_cuts = window_cuts(tr, 10.0)
    assert [tr.traffic_t[lo:hi].tolist() for lo, hi in window_rows(p_cuts)] == [
        [0.5, 9.999999], [10.0, 15.0], [29.999]
    ]


def test_window_rejects_bad_width():
    with pytest.raises(ValueError):
        window_cuts(make_trace(10.0), 0.0)


BAD_WINDOWS = [math.nan, math.inf, -math.inf, 0.0, -10.0]


@pytest.mark.parametrize("window_s", BAD_WINDOWS)
def test_bad_window_is_rejected_by_name(window_s):
    message = f"window_s must be a finite positive number, got {window_s}"
    for call in (
        lambda: whole_windows(600.0, window_s),
        lambda: window_cuts(make_trace(10.0), window_s),
        lambda: split_train_test(make_trace(600.0), window_s=window_s),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("span", [math.nan, math.inf])
def test_split_rejects_non_finite_spans(span):
    with pytest.raises(ValueError, match=re.escape(f"train_s={span} is not a positive multiple")):
        split_train_test(make_trace(600.0), span, 120.0)


# ---- dropout ----

def kept(trace, window_s=10.0):
    return kept_windows(trace, window_cuts(trace, window_s)[0], window_s).tolist()


def test_dropout_boundary():
    assert kept(make_trace(600.0)) == list(range(60))
    # exactly at the bar: 300 of 600 nominal samples passes, 299 fails
    half = make_trace(10.0, rate_hz=30.0)  # 300 samples in one window
    assert kept(half) == [0]
    under = make_trace(10.0, rate_hz=29.9)  # 299 samples
    assert kept(under) == []


def test_kept_windows_logs_discards(caplog):
    import logging

    tr = make_trace(10.0, rate_hz=29.9)
    with caplog.at_level(logging.WARNING, logger="vrident.core"):
        assert kept(tr) == []
    assert "dropping window 0 of trace u0/g: 299 movement samples (< 300 required)" in caplog.text


# ---- split ----

def split_windows(trace, *spans, window_s=10.0):
    """The numbers of the trace's cut windows that fall in each split."""
    numbers = range(window_cuts(trace, window_s)[0].shape[0] - 1)
    train, test = split_train_test(trace, *spans, window_s=window_s)
    return [i for i in numbers if i in train], [i for i in numbers if i in test]


def test_split_default_48_12():
    train, test = split_windows(make_trace(600.0))
    assert len(train) == 48 and len(test) == 12
    assert max(train) * 10.0 == 470.0
    assert min(test) * 10.0 == 480.0
    assert max(test) * 10.0 == 590.0


def test_split_insufficient_duration():
    with pytest.raises(SplitError, match="10.000 s short"):
        split_train_test(make_trace(590.0), 480.0, 120.0)


def test_split_counts_windows_not_float_sums():
    # 0.1 + 0.2 is 0.30000000000000004 and 0.4 + 0.2 is 0.6000000000000001,
    # yet a 0.3 s (0.6 s) trace holds the three (six) 0.1 s windows they span
    assert split_train_test(make_trace(0.3), 0.1, 0.2, window_s=0.1) == (range(1), range(1, 3))
    assert split_train_test(make_trace(0.6), 0.4, 0.2, window_s=0.1) == (range(4), range(4, 6))
    with pytest.raises(SplitError, match="0.100 s short"):
        split_train_test(make_trace(0.6), 0.4, 0.3, window_s=0.1)


def test_split_rejects_non_multiples():
    tr = make_trace(600.0)
    with pytest.raises(ValueError, match="train_s"):
        split_train_test(tr, 475.0, 120.0)
    with pytest.raises(ValueError, match="test_s"):
        split_train_test(tr, 480.0, 115.0)


@pytest.mark.parametrize("train_s, n_train", [(0.3, 3), (0.7, 7)])
def test_split_accepts_inexact_float_multiples(train_s, n_train):
    # 0.3 / 0.1 == 2.9999999999999996 and 0.7 / 0.1 == 6.999999999999999
    train, test = split_windows(make_trace(2.0), train_s, 0.1, window_s=0.1)
    assert train == list(range(n_train))
    assert test == [n_train]


def test_split_still_rejects_fractional_multiples():
    with pytest.raises(ValueError, match="train_s=0.25"):
        split_train_test(make_trace(2.0), 0.25, 0.1, window_s=0.1)


def test_split_assigns_boundary_window_by_index():
    # window 3 starts at 3 * 0.3 == 0.8999999999999999, just before 0.9
    train, test = split_windows(make_trace(2.0), 0.9, 0.3, window_s=0.3)
    assert train == [0, 1, 2]
    assert test == [3]


def test_split_exact_cover():
    train, test = split_windows(make_trace(600.0), 480.0, 120.0)
    starts = sorted(i * 10.0 for i in train + test)
    assert starts == [10.0 * i for i in range(60)]


# ---- trace plumbing ----

def test_assemble_rebases_to_shared_origin():
    mt = np.array([100.0, 100.5])
    mv = np.zeros((2, 21))
    tt = np.array([99.0, 100.2])
    tr = Trace.assemble("u", "g", mt, mv, tt, np.array([10, 20]), np.array([0, 1]))
    assert tr.traffic_t[0] == 0.0
    assert np.allclose(tr.movement_t, [1.0, 1.5])
    assert tr.duration_s == pytest.approx(1.5)


def test_assemble_rebases_rows_and_packets():
    head = (0.1, 1.6, -0.2, 1.0, 0.0, 0.0, 0.0)
    left = (-0.3, 1.2, -0.4, 0.8, 0.6, 0.0, 0.0)
    right = (0.3, 1.2, -0.4, 1.0, 0.0, 0.0, 0.0)
    row = np.array([head + left + right])
    tr = Trace.assemble(
        "u", "g", np.array([0.5]), row, np.array([0.25]), np.array([1200]), np.array([1]),
        duration_s=1.0,
    )
    assert tr.movement_t.tolist() == [0.25]
    assert tr.movement.tolist() == row.tolist()
    assert (tr.traffic_t.tolist(), tr.traffic_size.tolist(), tr.traffic_dir.tolist()) == (
        [0.0], [1200], [1]
    )


@pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_trace_rejects_bad_duration(duration_s):
    tr = make_trace(10.0)
    with pytest.raises(TraceFormatError, match=r"trace u0/g: duration_s must be a finite number"):
        replace(tr, duration_s=duration_s)


def test_trace_rejects_zero_duration():
    # a manifest takes only duration_s > 0, so such a trace could not be loaded back
    expected = r"^trace u0/g: duration_s must be a finite number > 0, got 0\.0$"
    with pytest.raises(TraceFormatError, match=expected):
        replace(make_trace(10.0), duration_s=0.0)


@pytest.mark.parametrize(
    "duration_s", [True, "10", None, np.int64(10), pytest.param(10**400, id="10**400")]
)
def test_trace_rejects_a_duration_a_manifest_cannot_hold(duration_s):
    # write_cohort used to write true into manifest.json, or fail on json.dumps
    # after writing every CSV; a manifest's duration_s must also be at most
    # sys.float_info.max, which 10**400 is not
    with pytest.raises(TraceFormatError) as err:
        replace(make_trace(10.0), duration_s=duration_s)
    assert str(err.value) == (
        f"trace u0/g: duration_s must be a finite number > 0, got {duration_s!r}"
    )


@pytest.mark.parametrize(
    "duration_s",
    [
        True,
        pytest.param("10", id="str"),
        pytest.param(np.int64(10), id="np.int64"),
        pytest.param(10**400, id="10**400"),
        float("nan"),
        -1.0,
    ],
)
def test_assemble_refuses_a_duration_trace_refuses(duration_s):
    # assemble converts only a positive_number to float, so the trace's own
    # check sees every other value as given and names the trace
    tr = make_trace(10.0)
    args = (tr.movement_t, tr.movement, tr.traffic_t, tr.traffic_size, tr.traffic_dir)
    with pytest.raises(TraceFormatError) as err:
        Trace.assemble("u0", "g", *args, duration_s=duration_s)
    assert str(err.value) == (
        f"trace u0/g: duration_s must be a finite number > 0, got {duration_s!r}"
    )
    taken = Trace.assemble("u0", "g", *args, duration_s=10).duration_s
    assert (type(taken), taken) == (float, 10.0)


def test_trace_arrays_are_read_only_views():
    # the trace keeps no copy and leaves the caller's arrays writable
    tr = make_trace(10.0, packet_times=[0.5, 1.0])
    names = ("movement_t", "movement", "traffic_t", "traffic_size", "traffic_dir")
    given = {name: getattr(tr, name).copy() for name in names}
    held = replace(tr, **given)
    for name, array in given.items():
        assert np.shares_memory(getattr(held, name), array)
        assert array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            getattr(held, name)[0] = 0


@pytest.mark.parametrize(
    "field,index,value,expected",
    [
        ("movement", (7, 12), float("nan"), r"movement sample 7, channel left_qy, is not finite"),
        ("movement", (0, 0), float("inf"), r"movement sample 0, channel head_px, is not finite"),
        ("movement_t", 3, -float("inf"), r"movement_t sample 3 is not finite"),
        ("traffic_t", 1, float("nan"), r"traffic_t sample 1 is not finite"),
    ],
)
def test_trace_rejects_non_finite_samples(field, index, value, expected):
    tr = make_trace(10.0, packet_times=[0.5, 1.0, 2.0])
    arr = getattr(tr, field).copy()
    arr[index] = value
    arr[-1] = value  # a later bad sample is not the one named
    with pytest.raises(TraceFormatError, match=rf"trace u0/g: {expected} \({value}\)"):
        replace(tr, **{field: arr})


@pytest.mark.parametrize("field", ["movement_t", "traffic_t"])
def test_trace_rejects_time_going_back(field):
    # a repeated timestamp is fine; the stream must only not go back
    tr = make_trace(10.0, packet_times=[0.5, 1.0, 1.0, 2.0, 3.0])
    arr = getattr(tr, field).copy()
    arr[[3, 4]] = arr[[4, 3]]
    with pytest.raises(TraceFormatError, match=rf"^trace u0/g: {field} goes back in time at sample 4$"):
        replace(tr, **{field: arr})
    with pytest.raises(TraceFormatError, match=rf"^trace u0/g: {field} goes back in time at sample 1$"):
        replace(tr, **{field: getattr(tr, field)[::-1]})


@pytest.mark.parametrize(
    "field,value,expected",
    [
        # a size of 0 used to be written to a CSV that load_dataset refuses
        ("traffic_size", 0, "traffic_size sample 2 is 0, must be an integer in [1, 10**18)"),
        ("traffic_size", -5, "traffic_size sample 2 is -5, must be an integer in [1, 10**18)"),
        # '%d' of 10**18 prints, but the contract stops below it
        (
            "traffic_size",
            10**18,
            "traffic_size sample 2 is 1000000000000000000, must be an integer in [1, 10**18)",
        ),
        # a dir of 7 used to escape write_cohort as KeyError: 7
        ("traffic_dir", 7, "traffic_dir sample 2 is 7, must be DIR_UL (0) or DIR_DL (1)"),
    ],
)
def test_trace_rejects_bad_packets(field, value, expected):
    tr = make_trace(10.0, packet_times=[0.5, 1.0, 2.0, 3.0])
    arr = getattr(tr, field).copy()
    arr[[2, 3]] = value  # a later bad sample is not the one named
    with pytest.raises(TraceFormatError, match=rf"^trace u0/g: {re.escape(expected)}$"):
        replace(tr, **{field: arr})


#: the smallest double with |x| * 10**6 >= 2**52
OUTSIDE = 4503599627.370497
FLOAT_RULE = "must be below 2**52 / 10**6 in magnitude"


@pytest.mark.parametrize(
    "field,index,value,where",
    [
        ("movement", (4, 8), 5e9, "movement sample 4, channel left_py,"),
        ("movement", (2, 20), -OUTSIDE, "movement sample 2, channel right_qz,"),
        ("movement_t", 5, OUTSIDE, "movement_t sample 5"),
        ("traffic_t", 1, 1e300, "traffic_t sample 1"),
    ],
)
def test_trace_rejects_floats_a_cohort_file_cannot_print(field, index, value, where):
    # '%.6f' is printed exactly only while |x| * 10**6 < 2**52
    tr = make_trace(10.0, packet_times=[0.5, 1.0, 2.0])
    arr = getattr(tr, field).copy()
    arr[index] = value
    with pytest.raises(TraceFormatError) as err:
        replace(tr, **{field: arr})
    assert str(err.value) == f"trace u0/g: {where} is {value!r}, {FLOAT_RULE}"


@pytest.mark.parametrize(
    "field,given,expected",
    [
        ("traffic_size", [7, 1.5], "is 1.5, must be an integer in [1, 10**18)"),
        ("traffic_dir", [0, 256], "is 256, must be DIR_UL (0) or DIR_DL (1)"),
        ("traffic_dir", [1, -1], "is -1, must be DIR_UL (0) or DIR_DL (1)"),
    ],
)
def test_trace_refuses_what_its_dtype_would_change(field, given, expected):
    # int64 and uint8 used to store these silently as 1, 0 and 255
    tr = make_trace(10.0, packet_times=[0.5, 1.0])
    with pytest.raises(TraceFormatError) as err:
        replace(tr, **{field: given})
    assert str(err.value) == f"trace u0/g: {field} sample 1 {expected}"
    # an exact float and an empty list still convert
    assert replace(tr, traffic_size=[2.0, 3.0]).traffic_size.tolist() == [2, 3]
    empty = make_trace(10.0)
    assert replace(empty, traffic_size=[], traffic_dir=[]).traffic_dir.dtype == np.uint8


@pytest.mark.parametrize(
    "field,bad_id",
    [
        ("user_id", "a/b"),
        ("user_id", "a\\b"),
        ("game_id", "g\0"),
        ("user_id", 3),
        ("game_id", None),
    ],
)
def test_trace_rejects_ids_that_cannot_name_files(field, bad_id):
    # a cohort names each trace's CSVs after its ids
    ids = {"user_id": "u0", "game_id": "g", field: bad_id}
    expected = (
        f"trace {ids['user_id']!r}/{ids['game_id']!r}: {field} must be a str "
        "and must not contain '/', '\\' or NUL"
    )
    with pytest.raises(TraceFormatError) as err:
        replace(make_trace(10.0), **{field: bad_id})
    assert str(err.value) == expected


def test_dataset_refuses_what_a_manifest_cannot_hold():
    tr = make_trace(10.0)
    with pytest.raises(ValueError, match="^a cohort needs at least one trace$"):
        Dataset(traces=[], game_categories={"g": "fast"})
    with pytest.raises(ValueError) as err:
        Dataset(traces=[tr], game_categories={"g": "medium"})
    assert str(err.value) == "game 'g': category must be one of ('fast', 'slow'), got 'medium'"
    for game in ("x/y", 3):
        with pytest.raises(ValueError) as err:
            Dataset(traces=[tr], game_categories={"g": "fast", game: "slow"})
        assert str(err.value) == (
            f"game {game!r}: the id must be a str and must not contain '/', '\\' or NUL"
        )


def test_dataset_duplicate_and_missing_game():
    tr = make_trace(10.0)
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(traces=[tr, tr], game_categories={"g": "fast"})
    with pytest.raises(ValueError, match="category"):
        Dataset(traces=[tr], game_categories={})
