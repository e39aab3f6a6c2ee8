"""Hypothesis properties of a cohort's trip to disk and back.

A Trace holds exactly the values the writers' block encoder prints as '%.6f'
and '%d' would: finite floats with |x| * 10**6 < 2**52, sizes in [1, 10**18)
and the dirs DIR_UL and DIR_DL. A trace whose values sit at the edge of that
range (4503599627.370496 is the largest writable double, 10**18 - 1 the
largest size), with equal timestamps and rounding ties, must come back from
``write_cohort`` and ``load_dataset`` with the same sizes and directions and
floats that print the same, so that writing the loaded cohort again gives the
same bytes. One value a step outside the range must be refused by the Trace,
naming the field, sample and value, and, set in place into a built trace, by
``write_cohort`` before it creates its directory.
"""
from __future__ import annotations

import re
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrident.core import DIR_DL, DIR_UL, MOVEMENT_CHANNELS, Dataset, Trace, TraceFormatError
from vrident.ingest import load_dataset, write_cohort

#: the largest double with |x| * 10**6 < 2**52, and the next one up
TOP = 4503599627.370496
OUTSIDE = 4503599627.370497
ULP = 2.0**-20  # the spacing of doubles in [2**32, 2**33)

near_top = st.integers(0, 3).map(lambda k: TOP - k * ULP)
# k / 2**7 and (j + 0.5) / 10**6 sit on or beside ties of x * 10**6
ties = st.one_of(
    st.integers(0, 2**39).map(lambda k: k / 2**7),
    st.integers(0, 2**41).map(lambda j: (j + 0.5) / 1e6),
)
times = st.one_of(near_top, ties, st.floats(0.0, 1e4), st.just(0.0))
values = st.one_of(
    near_top,
    near_top.map(lambda x: -x),
    ties,
    ties.map(lambda x: -x),
    st.floats(-1e4, 1e4),
    st.sampled_from([0.0, -0.0, -1e-7]),
)
sizes = st.one_of(
    st.integers(10**18 - 4, 10**18 - 1), st.integers(1, 3), st.integers(1, 10**18 - 1)
)


def test_the_edges_are_the_writable_limits():
    assert Fraction(TOP) * 10**6 < 2**52 <= Fraction(OUTSIDE) * 10**6
    assert np.nextafter(TOP, np.inf) == OUTSIDE and np.nextafter(TOP, 0) == TOP - ULP


@st.composite
def stream_times(draw, pool):
    """Sorted timestamps drawn from ``pool``, so that some repeat."""
    return sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))


@st.composite
def edge_traces(draw):
    """A re-based trace (its earliest sample at t = 0) of values at the edges
    of the writable range."""
    pool = draw(st.lists(times, min_size=1, max_size=4))
    movement_t = draw(stream_times(pool))
    traffic_t = draw(stream_times(pool))
    (movement_t, traffic_t)[draw(st.integers(0, 1))][0] = 0.0
    n, m = len(movement_t), len(traffic_t)
    movement = draw(st.lists(values, min_size=21 * n, max_size=21 * n))
    return Trace(
        user_id="u0",
        game_id="g",
        # load_manifest takes only a duration_s > 0
        duration_s=max(movement_t[-1], traffic_t[-1]) + 0.5,
        movement_t=np.array(movement_t),
        movement=np.array(movement).reshape(n, 21),
        traffic_t=np.array(traffic_t),
        traffic_size=np.array(draw(st.lists(sizes, min_size=m, max_size=m)), dtype=np.int64),
        traffic_dir=np.array(
            draw(st.lists(st.sampled_from([DIR_UL, DIR_DL]), min_size=m, max_size=m)),
            dtype=np.uint8,
        ),
    )


def _cohort(trace: Trace) -> Dataset:
    return Dataset(traces=[trace], game_categories={"g": "fast"})


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@settings(max_examples=150, deadline=None)
@given(trace=edge_traces())
def test_a_writable_trace_survives_the_round_trip(trace):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        loaded = load_dataset(write_cohort(_cohort(trace), first)).traces[0]
        assert np.array_equal(loaded.traffic_size, trace.traffic_size)
        assert np.array_equal(loaded.traffic_dir, trace.traffic_dir)
        assert loaded.duration_s == trace.duration_s
        for name in ("movement_t", "movement", "traffic_t"):
            a, b = getattr(trace, name), getattr(loaded, name)
            # the printed decimal is within 5e-7 of a; the double read back is
            # the one nearest that decimal, up to half a spacing (4.8e-7 near TOP)
            assert (np.abs(b - a) <= 5e-7 + np.spacing(np.abs(a)) / 2).all(), name
        write_cohort(_cohort(loaded), second)
        assert _files(second) == _files(first)


@settings(max_examples=100, deadline=None)
@given(trace=edge_traces(), data=st.data())
def test_a_value_one_step_outside_is_refused_by_name(trace, data):
    name = data.draw(
        st.sampled_from(["movement", "movement_t", "traffic_t", "traffic_size", "traffic_dir"])
    )
    array = getattr(trace, name)
    if name == "movement":
        row, col = divmod(data.draw(st.integers(0, trace.movement.size - 1)), 21)
        index, channel = (row, col), f", channel {MOVEMENT_CHANNELS[col]},"
        value = data.draw(st.sampled_from([OUTSIDE, -OUTSIDE]))
    else:
        value = {
            "movement_t": OUTSIDE,
            "traffic_t": OUTSIDE,
            "traffic_size": data.draw(st.sampled_from([0, 10**18])),
            "traffic_dir": DIR_DL + 1,
        }[name]
        row = index = data.draw(st.integers(0, len(array) - 1))
        channel = ""
    expected = f"trace u0/g: {name} sample {row}{channel} is {value!r}, must be "
    changed = array.copy()
    changed[index] = value
    with pytest.raises(TraceFormatError, match=re.escape(expected)):
        replace(trace, **{name: changed})
    array.flags.writeable = True  # a trace's arrays are read-only views
    array[index] = value  # in place, past the checks Trace ran when it was built
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cohort"
        with pytest.raises(TraceFormatError, match=re.escape(expected)):
            write_cohort(_cohort(trace), out)
        assert not out.exists()
