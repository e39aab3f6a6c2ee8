from __future__ import annotations

import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrident.ingest as ingest
from vrident.core import DIR_DL, DIR_UL, MOVEMENT_CHANNELS, Dataset, Trace, TraceFormatError
from vrident.ingest import (
    GameProfile,
    MOVEMENT_HEADER,
    TRAFFIC_HEADER,
    atomic_write_text,
    default_profiles,
    generate_synthetic_cohort,
    load_dataset,
    load_manifest,
    parse_movement_csv,
    parse_traffic_csv,
    write_cohort,
)

VALID_MOVEMENT = (
    MOVEMENT_HEADER
    + "\n0.000000," + ",".join(["0.100000"] * 21)
    + "\n0.016667," + ",".join(["0.200000"] * 21)
    + "\n"
)
VALID_TRAFFIC = TRAFFIC_HEADER + "\n0.001000,1200,DL\n0.002000,64,UL\n"


def write_movement(path, t, movement):
    """One trace's movement CSV, as ``write_cohort`` writes it."""
    atomic_write_text(path, ingest._movement_text(t, movement))


def write_traffic(path, t, size, direction):
    """One trace's traffic CSV, as ``write_cohort`` writes it."""
    atomic_write_text(path, ingest._traffic_text(t, size, direction))


# ---- movement parsing ----

def test_parse_movement_valid(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(VALID_MOVEMENT)
    t, mv = parse_movement_csv(p)
    assert t.tolist() == [0.0, 0.016667]
    assert mv.shape == (2, 21)
    assert mv[1, 0] == 0.2


def test_parse_movement_bad_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("time,x\n1,2\n")
    with pytest.raises(TraceFormatError, match="line 1: bad header"):
        parse_movement_csv(p)


def test_parse_movement_header_case_sensitive(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(VALID_MOVEMENT.replace("head_px", "HEAD_PX"))
    with pytest.raises(TraceFormatError, match="bad header"):
        parse_movement_csv(p)


def test_parse_movement_wrong_column_count(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(MOVEMENT_HEADER + "\n0.0,1.0,2.0\n")
    with pytest.raises(TraceFormatError, match="line 2: expected 22 columns, got 3"):
        parse_movement_csv(p)


def test_parse_movement_bad_float_names_line_and_column(tmp_path):
    p = tmp_path / "m.csv"
    body = VALID_MOVEMENT.replace("0.200000", "oops", 1)
    p.write_text(body)
    with pytest.raises(TraceFormatError, match="line 3: invalid number 'oops' in column head_px"):
        parse_movement_csv(p)


def test_parse_movement_rejects_nan_inf(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(VALID_MOVEMENT.replace("0.200000", "nan", 1))
    with pytest.raises(TraceFormatError, match="line 3: non-finite"):
        parse_movement_csv(p)
    p.write_text(VALID_MOVEMENT.replace("0.200000", "inf", 1))
    with pytest.raises(TraceFormatError, match="line 3: non-finite"):
        parse_movement_csv(p)


def test_parse_movement_rejects_decreasing_t(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(VALID_MOVEMENT.replace("0.016667", "-0.5"))
    with pytest.raises(TraceFormatError, match="line 3: timestamp decreases"):
        parse_movement_csv(p)


def test_parse_movement_no_rows(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(MOVEMENT_HEADER + "\n")
    with pytest.raises(TraceFormatError, match="no data rows"):
        parse_movement_csv(p)


def test_parse_movement_interior_blank_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(VALID_MOVEMENT.replace("\n0.016667", "\n\n0.016667"))
    with pytest.raises(TraceFormatError, match="line 3: blank line"):
        parse_movement_csv(p)


# ---- traffic parsing ----

def test_parse_traffic_valid(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(VALID_TRAFFIC)
    t, size, d = parse_traffic_csv(p)
    assert t.tolist() == [0.001, 0.002]
    assert size.tolist() == [1200, 64]
    assert d.tolist() == [DIR_DL, DIR_UL]


def test_parse_traffic_direction_case_sensitive(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRAFFIC_HEADER + "\n0.5,100,ul\n")
    with pytest.raises(TraceFormatError, match="line 2: dir must be 'UL' or 'DL'"):
        parse_traffic_csv(p)


def test_parse_traffic_size_at_least_one(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRAFFIC_HEADER + "\n0.5,0,UL\n")
    with pytest.raises(TraceFormatError, match="size_bytes must be >= 1"):
        parse_traffic_csv(p)
    p.write_text(TRAFFIC_HEADER + "\n0.5,12.5,UL\n")
    with pytest.raises(TraceFormatError, match="invalid integer"):
        parse_traffic_csv(p)


def test_parse_traffic_allows_equal_timestamps(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRAFFIC_HEADER + "\n0.5,10,UL\n0.5,20,DL\n")
    t, _, _ = parse_traffic_csv(p)
    assert t.tolist() == [0.5, 0.5]


def test_parse_traffic_rejects_decreasing(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRAFFIC_HEADER + "\n0.5,10,UL\n0.4,20,DL\n")
    with pytest.raises(TraceFormatError, match="line 3: timestamp decreases"):
        parse_traffic_csv(p)


def test_parse_traffic_column_count(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRAFFIC_HEADER + "\n0.5,10\n")
    with pytest.raises(TraceFormatError, match="expected 3 columns"):
        parse_traffic_csv(p)


# ---- round trips ----

def test_movement_round_trip_byte_identical(tmp_path):
    src = tmp_path / "a.csv"
    dst = tmp_path / "b.csv"
    src.write_text(VALID_MOVEMENT)
    t, mv = parse_movement_csv(src)
    write_movement(dst, t, mv)
    assert dst.read_bytes() == src.read_bytes()


def test_traffic_round_trip_byte_identical(tmp_path):
    src = tmp_path / "a.csv"
    dst = tmp_path / "b.csv"
    src.write_text(VALID_TRAFFIC)
    write_traffic(dst, *parse_traffic_csv(src))
    assert dst.read_bytes() == src.read_bytes()


BAD_CELLS = st.sampled_from(["oops", "1.2.3", "", "--1", "0x10"])


def corrupt_cell(path, row, col, text):
    """Replace the cell at data row ``row``, column ``col`` of a CSV file."""
    lines = path.read_text().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), bad=BAD_CELLS)
def test_movement_write_read_round_trip_and_corrupted_cell(seed, n, bad):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1e4, n))
    movement = rng.uniform(-1e6, 1e6, (n, 21)) * rng.choice([1.0, 1e-7, 0.0], (n, 21))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_movement(first, t, movement)
        write_movement(second, *parse_movement_csv(first))
        assert second.read_bytes() == first.read_bytes()
        row, col = int(rng.integers(n)), int(rng.integers(22))
        corrupt_cell(first, row, col, bad)
        name = "t" if col == 0 else MOVEMENT_CHANNELS[col - 1]
        with pytest.raises(TraceFormatError) as err:
            parse_movement_csv(first)
        assert str(err.value) == f"{first}: line {row + 2}: invalid number {bad!r} in column {name}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), bad=BAD_CELLS)
def test_traffic_write_read_round_trip_and_corrupted_cell(seed, n, bad):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1e4, n))
    t[1::3] = t[::3][: t[1::3].shape[0]]  # equal timestamps are allowed
    sizes = rng.integers(1, 65536, n)
    dirs = rng.choice([DIR_UL, DIR_DL], n)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_traffic(first, t, sizes, dirs)
        write_traffic(second, *parse_traffic_csv(first))
        assert second.read_bytes() == first.read_bytes()
        row, col = int(rng.integers(n)), int(rng.integers(2))
        corrupt_cell(first, row, col, bad)
        kind, name = ("number", "t") if col == 0 else ("integer", "size_bytes")
        with pytest.raises(TraceFormatError) as err:
            parse_traffic_csv(first)
        assert str(err.value) == f"{first}: line {row + 2}: invalid {kind} {bad!r} in column {name}"


def test_written_files_use_lf_and_six_decimals(tmp_path):
    p = tmp_path / "m.csv"
    write_movement(p, np.array([1.23456789]), np.full((1, 21), 1 / 3))
    raw = p.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8").splitlines()
    assert text[1].startswith("1.234568,0.333333,")


def test_synthetic_cohort_round_trip(tmp_path):
    ds = generate_synthetic_cohort(2, minutes=0.5, seed=13)
    manifest = write_cohort(ds, tmp_path)
    # written files parse back and re-write byte-identically
    for rec in ds.traces:
        stem = f"{rec.user_id}_{rec.game_id}"
        for kind, parse, write in (
            ("movement", parse_movement_csv, None),
            ("traffic", parse_traffic_csv, None),
        ):
            path = tmp_path / f"{stem}_{kind}.csv"
            assert path.exists()
    ds2 = load_dataset(manifest)
    assert {t.user_id for t in ds2.traces} == {t.user_id for t in ds.traces}
    assert ds2.game_categories == ds.game_categories
    for a, b in zip(ds.traces, ds2.traces):
        assert b.duration_s == a.duration_s
        assert np.allclose(a.movement, b.movement, atol=5e-7)
        assert np.array_equal(a.traffic_size, b.traffic_size)
        assert np.array_equal(a.traffic_dir, b.traffic_dir)
        second = tmp_path / "again.csv"
        write_movement(second, b.movement_t, b.movement)
        assert second.read_bytes() == (tmp_path / f"{a.user_id}_{a.game_id}_movement.csv").read_bytes()


def _changed_in_place(trace, kind, index, value):
    array = getattr(trace, kind)
    array.flags.writeable = True  # a trace's arrays are read-only views
    array[index] = value  # in place, past the checks Trace ran when it was built


@pytest.mark.parametrize(
    "kind,index,stream,row,column",
    [
        ("movement", (4, 8), "movement", 5, "left_py"),
        ("movement_t", 2, "movement", 3, "t"),
        ("traffic_t", 6, "traffic", 7, "t"),
    ],
)
def test_write_cohort_refuses_non_finite_before_writing(tmp_path, kind, index, stream, row, column):
    # the value would sit on data row ``row`` of the ``stream`` CSV, in ``column``
    ds = generate_synthetic_cohort(2, minutes=0.5, seed=13)
    _changed_in_place(ds.traces[1], kind, index, np.nan)
    out = tmp_path / "cohort"
    channel = f", channel {column}," if kind == "movement" else ""
    with pytest.raises(TraceFormatError) as err:
        write_cohort(ds, out)
    expected = f"trace user01/game_a: {kind} sample {row - 1}{channel} is not finite (nan)"
    assert str(err.value) == expected
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,index,value,stream,row,column",
    [
        ("movement", (4, 8), 5e9, "movement", 5, "left_py"),
        ("traffic_size", 6, 10**18, "traffic", 7, "size_bytes"),
        ("traffic_dir", 6, 7, "traffic", 7, "dir"),
    ],
)
def test_write_cohort_refuses_unwritable_values_before_writing(
    tmp_path, kind, index, value, stream, row, column
):
    # the value would sit on data row ``row`` of the ``stream`` CSV, in ``column``
    ds = generate_synthetic_cohort(2, minutes=0.5, seed=13)
    _changed_in_place(ds.traces[1], kind, index, value)
    out = tmp_path / "cohort"
    channel = f", channel {column}," if kind == "movement" else ""
    expected = f"trace user01/game_a: {kind} sample {row - 1}{channel} is {value!r}, must be "
    with pytest.raises(TraceFormatError, match=re.escape(expected)):
        write_cohort(ds, out)
    assert not out.exists()


@pytest.mark.parametrize(
    "t,size,direction,message",
    [
        ([0.0], [0], [DIR_UL], "traffic_size sample 0 is 0, must be an integer in [1, 10**18)"),
        (
            [0.0, 1.0],
            [5, 5],
            [DIR_UL, 7],
            "traffic_dir sample 1 is 7, must be DIR_UL (0) or DIR_DL (1)",
        ),
        (
            [0.0, 5e9],
            [5, 5],
            [DIR_UL] * 2,
            "traffic_t sample 1 is 5000000000.0, must be below 2**52 / 10**6 in magnitude",
        ),
        ([float("inf")], [5], [DIR_DL], "traffic_t sample 0 is not finite (inf)"),
        ([0.0], [2.5], [DIR_DL], "traffic_size sample 0 is 2.5, must be an integer in [1, 10**18)"),
    ],
    ids=["size-0", "dir-7", "t-5e9", "t-inf", "size-float"],
)
def test_traffic_writer_refuses_unwritable_values_by_name(t, size, direction, message):
    # a Trace refuses what the traffic writer cannot print, so the writer never sees it
    with pytest.raises(TraceFormatError) as err:
        Trace("u", "g", 10.0, [], np.zeros((0, 21)), t, np.array(size), np.array(direction))
    assert str(err.value) == f"trace u/g: {message}"


@pytest.mark.parametrize("value", [-4503599627.370497, float("nan"), 1e300])
def test_movement_writer_refuses_unwritable_values_by_name(tmp_path, value):
    ds = generate_synthetic_cohort(2, minutes=0.1, seed=13)
    movement = ds.traces[0].movement.copy()
    movement[2, 20] = value
    with pytest.raises(TraceFormatError) as err:
        replace(ds.traces[0], movement=movement)
    message = str(err.value)
    assert message.startswith("trace user00/game_a: movement sample 2, channel right_qz, is ")
    assert repr(value) in message
    # changed in place, the value is refused by write_cohort, which leaves what was there
    path = tmp_path / "m.csv"
    path.write_text("kept\n")
    _changed_in_place(ds.traces[0], "movement", (2, 20), value)
    with pytest.raises(TraceFormatError) as err:
        write_cohort(ds, tmp_path)
    assert str(err.value) == message
    assert path.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


@pytest.mark.parametrize(
    "case, named", [("no traces", "trace"), ("category", "'medium'"), ("game id", "'x/y'")]
)
def test_cohorts_a_manifest_refuses_do_not_construct(tmp_path, case, named):
    # write_cohort used to write each of these cohorts, and load_dataset refused it
    ds = generate_synthetic_cohort(2, minutes=0.1, seed=13)
    manifest = write_cohort(ds, tmp_path)
    data = json.loads(manifest.read_text())
    traces, categories = ds.traces, dict(ds.game_categories)
    if case == "no traces":
        traces, data["traces"] = [], []
    elif case == "category":
        categories["game_a"] = data["games"]["game_a"]["category"] = "medium"
    else:
        categories["x/y"] = "fast"
        data["games"]["x/y"] = {"category": "fast"}
    manifest.write_text(json.dumps(data))
    with pytest.raises(TraceFormatError):
        load_dataset(manifest)
    with pytest.raises(ValueError) as err:
        Dataset(traces=traces, game_categories=categories)
    assert named in str(err.value)


@pytest.mark.parametrize("change", ["category", "duplicate"])
def test_write_cohort_checks_a_cohort_changed_in_place(tmp_path, change):
    # both cohorts used to be written, and load_dataset refused them
    ds = generate_synthetic_cohort(2, minutes=0.1, seed=13)
    if change == "category":
        ds.game_categories["game_a"] = "medium"
        expected = "game 'game_a': category must be one of ('fast', 'slow'), got 'medium'"
    else:
        ds.traces[1].user_id = "user00"  # its files would overwrite user00's
        expected = "duplicate trace for user 'user00' game 'game_a'"
    out = tmp_path / "cohort"
    with pytest.raises(ValueError) as err:
        write_cohort(ds, out)
    assert str(err.value) == expected
    assert not out.exists()


def test_synth_refuses_an_unknown_category():
    with pytest.raises(ValueError, match="category must be one of"):
        generate_synthetic_cohort(2, minutes=0.1, games=[GameProfile("ga", category="medium")])


# ---- manifest ----

def manifest_dict():
    return {
        "games": {"ga": {"category": "fast"}},
        "traces": [
            {"user_id": "u0", "game_id": "ga", "movement": "m.csv", "traffic": "t.csv"}
        ],
    }


def write_manifest(tmp_path, data):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(data))
    return p


def test_manifest_valid_and_optional_duration(tmp_path):
    data = manifest_dict()
    data["traces"][0]["duration_s"] = 600.0
    man = load_manifest(write_manifest(tmp_path, data))
    assert man.games == {"ga": "fast"}
    assert man.entries[0].duration_s == 600.0
    assert man.root == tmp_path


def test_manifest_rejects_unknown_keys(tmp_path):
    data = manifest_dict()
    data["extra"] = 1
    with pytest.raises(TraceFormatError, match="unknown keys \\['extra'\\]"):
        load_manifest(write_manifest(tmp_path, data))
    data = manifest_dict()
    data["traces"][0]["color"] = "red"
    with pytest.raises(TraceFormatError, match="unknown keys \\['color'\\]"):
        load_manifest(write_manifest(tmp_path, data))


def test_manifest_rejects_bad_category(tmp_path):
    data = manifest_dict()
    data["games"]["ga"]["category"] = "medium"
    with pytest.raises(TraceFormatError, match="category"):
        load_manifest(write_manifest(tmp_path, data))


def test_manifest_rejects_unlisted_game(tmp_path):
    data = manifest_dict()
    data["traces"][0]["game_id"] = "gb"
    with pytest.raises(TraceFormatError, match="not listed under 'games'"):
        load_manifest(write_manifest(tmp_path, data))


def test_manifest_rejects_duplicates(tmp_path):
    data = manifest_dict()
    data["traces"].append(dict(data["traces"][0]))
    with pytest.raises(TraceFormatError, match="duplicate trace"):
        load_manifest(write_manifest(tmp_path, data))


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("user_id", ["u0"], "a string or an integer"),
        ("user_id", True, "a string or an integer"),
        ("user_id", 1.5, "a string or an integer"),
        ("user_id", None, "a string or an integer"),
        ("game_id", ["ga"], "a string or an integer"),
        ("game_id", {"id": "ga"}, "a string or an integer"),
        ("game_id", False, "a string or an integer"),
        ("movement", 3, "a string"),
        ("traffic", ["t.csv"], "a string"),
    ],
)
def test_manifest_rejects_bad_entry_types(tmp_path, key, value, expected):
    data = manifest_dict()
    data["traces"].append(
        {"user_id": "u1", "game_id": "ga", "movement": "m1.csv", "traffic": "t1.csv"}
    )
    data["traces"][1][key] = value
    with pytest.raises(TraceFormatError) as err:
        load_manifest(write_manifest(tmp_path, data))
    assert str(err.value) == (
        f"{tmp_path / 'manifest.json'}: traces[1]: {key} must be {expected}, got {value!r}"
    )


def test_manifest_takes_integer_ids_as_strings(tmp_path):
    data = manifest_dict()
    data["games"] = {"7": {"category": "slow"}}
    data["traces"][0].update(user_id=3, game_id=7)
    entry = load_manifest(write_manifest(tmp_path, data)).entries[0]
    assert (entry.user_id, entry.game_id) == ("3", "7")


def test_manifest_rejects_ids_equal_as_strings(tmp_path):
    data = manifest_dict()
    data["traces"] = [
        {"user_id": 1, "game_id": "ga", "movement": "m1.csv", "traffic": "t1.csv"},
        {"user_id": "1", "game_id": "ga", "movement": "m2.csv", "traffic": "t2.csv"},
    ]
    # no CSV exists: the manifest is refused before any trace is read
    with pytest.raises(TraceFormatError, match=r"traces\[1\]: duplicate trace for \('1', 'ga'\)"):
        load_dataset(write_manifest(tmp_path, data))


@pytest.mark.parametrize(
    "raw", ["NaN", "Infinity", "-Infinity", "true", "false", "0", "-1.5", '"60"', "1" + "0" * 400]
)
def test_manifest_rejects_bad_duration(tmp_path, raw):
    text = json.dumps(manifest_dict())
    p = tmp_path / "manifest.json"
    p.write_text(text.replace('"t.csv"', f'"t.csv", "duration_s": {raw}'))
    with pytest.raises(TraceFormatError) as err:
        load_manifest(p)
    assert str(err.value).startswith(f"{p}: traces[0]: duration_s must be a positive finite number")


def test_parse_traffic_size_beyond_int64_names_line_and_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRAFFIC_HEADER + "\n0.5,10,UL\n0.6,99999999999999999999,DL\n")
    with pytest.raises(TraceFormatError) as err:
        parse_traffic_csv(p)
    assert str(err.value) == (
        f"{p}: line 3: integer '99999999999999999999' out of range in column size_bytes"
    )


def test_manifest_rejects_bad_json(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("{nope")
    with pytest.raises(TraceFormatError, match="invalid JSON"):
        load_manifest(p)


# ---- synthetic cohorts ----

def test_synthetic_deterministic_per_seed():
    a = generate_synthetic_cohort(3, minutes=0.2, seed=42)
    b = generate_synthetic_cohort(3, minutes=0.2, seed=42)
    c = generate_synthetic_cohort(3, minutes=0.2, seed=43)
    for ra, rb in zip(a.traces, b.traces):
        assert np.array_equal(ra.movement, rb.movement)
        assert np.array_equal(ra.traffic_t, rb.traffic_t)
        assert np.array_equal(ra.traffic_size, rb.traffic_size)
    assert not np.array_equal(a.traces[0].movement, c.traces[0].movement)


def test_synthetic_shapes_and_duration():
    ds = generate_synthetic_cohort(2, minutes=1.0, seed=1)
    tr = ds.traces[0]
    assert tr.duration_s == 60.0
    assert tr.n_movement == 3600
    assert tr.movement_t[0] == 0.0
    assert tr.movement_t[-1] == pytest.approx(59.98333, abs=1e-4)
    assert (tr.traffic_size >= 1).all()
    assert np.diff(tr.traffic_t).min() >= 0.0


def test_synthetic_adjacent_height_gap_default_cohort():
    profiles = default_profiles(10)
    heights = [p.height_m for p in profiles]
    gaps = np.diff(heights)
    assert (gaps >= 0.05 - 1e-12).all()
    assert heights[0] == 1.50 and heights[-1] == 1.95


def test_synthetic_parameter_ranges():
    for n in (2, 10, 30):
        for p in default_profiles(n):
            assert 1.50 <= p.height_m <= 1.95
            assert 0.5 <= p.freq_hz <= 2.5
            assert 50 <= p.ul_rate_hz <= 200
            assert 200 <= p.dl_rate_hz <= 1000


def test_synthetic_clone_mode_same_profiles_different_noise():
    ds = generate_synthetic_cohort(4, minutes=0.2, seed=5, clone=True)
    traces = ds.traces
    heads = [t.movement[:, 1].mean() for t in traces]
    assert np.allclose(heads, heads[0], atol=2e-3)  # identical profile heights
    assert not np.array_equal(traces[0].movement, traces[1].movement)  # independent noise
    rates = [t.traffic_t.shape[0] for t in traces]
    assert max(rates) - min(rates) < 0.1 * max(rates)


def test_synthetic_traffic_rates_match_profiles():
    ds = generate_synthetic_cohort(2, minutes=2.0, seed=9)
    profiles = default_profiles(2)
    for rec, prof in zip(ds.traces, profiles):
        dur = rec.duration_s
        ul = int((rec.traffic_dir == DIR_UL).sum())
        dl = int((rec.traffic_dir == DIR_DL).sum())
        assert ul == pytest.approx(prof.ul_rate_hz * dur, rel=0.15)
        assert dl == pytest.approx(prof.dl_rate_hz * dur, rel=0.15)


def test_synthetic_multiple_games():
    games = (
        GameProfile(game_id="ga", category="fast"),
        GameProfile(game_id="gb", category="slow", dl_rate_scale=0.5),
    )
    ds = generate_synthetic_cohort(2, minutes=0.5, seed=2, games=games)
    assert ds.game_ids() == ["ga", "gb"]
    assert ds.game_categories == {"ga": "fast", "gb": "slow"}
    assert len(ds.traces) == 4
    a = next(r for r in ds.traces if r.game_id == "ga")
    b = next(r for r in ds.traces if r.game_id == "gb")
    dl_a = int((a.traffic_dir == DIR_DL).sum())
    dl_b = int((b.traffic_dir == DIR_DL).sum())
    assert dl_b < 0.75 * dl_a


def test_synthetic_rejects_bad_args():
    with pytest.raises(ValueError, match="at least 2 users"):
        generate_synthetic_cohort(1)
    with pytest.raises(ValueError, match="minutes"):
        generate_synthetic_cohort(2, minutes=0)
    with pytest.raises(ValueError, match="game profile"):
        generate_synthetic_cohort(2, games=())


def test_synthetic_quaternions_are_canonical_units():
    ds = generate_synthetic_cohort(2, minutes=0.1, seed=3)
    from vrident.core import QUATERNION_SLICES, canonical_movement

    tr = ds.traces[0]
    assert np.array_equal(tr.movement, canonical_movement(tr))
    for dev in ("head", "left", "right"):
        q = tr.movement[:, QUATERNION_SLICES[dev]]
        assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)


# ---- ids that would name paths ----

PATH_RULE = "must not contain '/', '\\' or NUL"


@pytest.mark.parametrize("user_id", ["../../escaped", "a/b", "a\\b", "u\0"])
def test_manifest_rejects_user_ids_that_name_paths(tmp_path, user_id):
    data = manifest_dict()
    data["traces"][0]["user_id"] = user_id
    with pytest.raises(TraceFormatError) as err:
        load_manifest(write_manifest(tmp_path, data))
    assert str(err.value) == (
        f"{tmp_path / 'manifest.json'}: traces[0]: user_id {user_id!r} {PATH_RULE}"
    )


@pytest.mark.parametrize("game_id", ["../ga", "g/a", "g\\a", "g\0"])
def test_manifest_rejects_game_ids_that_name_paths(tmp_path, game_id):
    data = manifest_dict()
    data["games"] = {game_id: {"category": "fast"}}
    data["traces"][0]["game_id"] = game_id
    with pytest.raises(TraceFormatError) as err:
        load_manifest(write_manifest(tmp_path, data))
    assert str(err.value) == f"{tmp_path / 'manifest.json'}: game {game_id!r}: the id {PATH_RULE}"


def test_load_dataset_refuses_a_user_id_that_leaves_the_cohort(tmp_path):
    ds = generate_synthetic_cohort(2, minutes=0.1, seed=13)
    manifest = write_cohort(ds, tmp_path / "cohort")
    data = json.loads(manifest.read_text())
    data["traces"][0]["user_id"] = "../../escaped"
    manifest.write_text(json.dumps(data))
    with pytest.raises(TraceFormatError, match=r"traces\[0\]: user_id '\.\./\.\./escaped'"):
        load_dataset(manifest)


@pytest.mark.parametrize(
    "field, bad_id, name",
    [("user_id", "../../escaped", "user"), ("game_id", "..\\g", "game"), ("user_id", "u\0", "user")],
)
def test_write_cohort_refuses_ids_that_name_paths_before_writing(tmp_path, field, bad_id, name):
    ds = generate_synthetic_cohort(2, minutes=0.1, seed=13)
    tr = ds.traces[1]
    ids = {"user_id": tr.user_id, "game_id": tr.game_id, field: bad_id}
    expected = (
        f"trace {ids['user_id']!r}/{ids['game_id']!r}: {name}_id must be a str and {PATH_RULE}"
    )
    with pytest.raises(TraceFormatError) as err:
        replace(tr, **{field: bad_id})
    assert str(err.value) == expected
    setattr(tr, field, bad_id)  # in place, past the checks Trace ran when it was built
    with pytest.raises(TraceFormatError) as err:
        write_cohort(ds, tmp_path / "out" / "deep")
    assert str(err.value) == expected
    assert list(tmp_path.rglob("*")) == []
