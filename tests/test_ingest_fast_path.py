"""The vectorized trace reader and writers against per-line references.

``parse_movement_csv`` and ``parse_traffic_csv`` decode files in the grammar
the writers print from their bytes, a block of rows at a time, and hand
everything else to their per-line parsers. The references below are those
per-line parsers as standalone functions: on every file, written or
corrupted with hostile tokens or bytes, under any block size, both must
return arrays equal byte for byte or raise the same error. The
writers print blocks of values with a numpy encoder; the references format
each value with an f-string. Both must write the same bytes for arrays of
values the encoder prints exactly, and a ``Trace`` that holds any other value
must refuse its first one by field, sample and value, so that no writer and
no ``write_cohort`` call sees it.
"""
from __future__ import annotations

import hashlib
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrident.ingest as ingest
from vrident.core import DIR_DL, DIR_UL, MOVEMENT_CHANNELS, Dataset, Trace, TraceFormatError
from vrident.ingest import (
    MOVEMENT_HEADER,
    TRAFFIC_HEADER,
    atomic_write_text,
    generate_synthetic_cohort,
    parse_movement_csv,
    parse_traffic_csv,
    write_cohort,
)

# ---- per-line references --------------------------------------------------------

_DIR_CODES = {"UL": DIR_UL, "DL": DIR_DL}
_DIR_NAMES = {DIR_UL: "UL", DIR_DL: "DL"}


def _reference_data_lines(path, expected_header):
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TraceFormatError(f"{path}: file not found") from None
    lines = text.split("\n")
    if not lines or lines[0] != expected_header:
        got = lines[0] if lines else ""
        raise TraceFormatError(f"{path}: line 1: bad header {got!r}; expected {expected_header!r}")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        if line == "":
            if i == len(lines):
                continue
            raise TraceFormatError(f"{path}: line {i}: blank line")
        out.append((i, line))
    if not out:
        raise TraceFormatError(f"{path}: no data rows")
    return out


def _reference_check_monotone(path, t, linenos):
    drop = np.flatnonzero(np.diff(t) < 0)
    if drop.size:
        raise TraceFormatError(f"{path}: line {int(linenos[drop[0] + 1])}: timestamp decreases")


def reference_parse_movement(path):
    path = Path(path)
    rows = _reference_data_lines(path, MOVEMENT_HEADER)
    n_cols = len(MOVEMENT_CHANNELS) + 1
    cells = []
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != n_cols:
            raise TraceFormatError(
                f"{path}: line {lineno}: expected {n_cols} columns, got {len(parts)}"
            )
        cells.append(parts)
    try:
        data = np.array(cells, dtype=np.float64)
    except ValueError:
        for (lineno, _), parts in zip(rows, cells):
            for col, cell in enumerate(parts):
                try:
                    float(cell)
                except ValueError:
                    name = "t" if col == 0 else MOVEMENT_CHANNELS[col - 1]
                    raise TraceFormatError(
                        f"{path}: line {lineno}: invalid number {cell!r} in column {name}"
                    ) from None
        raise
    linenos = np.array([ln for ln, _ in rows])
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise TraceFormatError(f"{path}: line {int(linenos[bad[0]])}: non-finite value")
    _reference_check_monotone(path, data[:, 0], linenos)
    return data[:, 0], data[:, 1:]


def reference_parse_traffic(path):
    path = Path(path)
    rows = _reference_data_lines(path, TRAFFIC_HEADER)
    ts, sizes, dirs, linenos = [], [], [], []
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceFormatError(f"{path}: line {lineno}: expected 3 columns, got {len(parts)}")
        t_str, size_str, dir_str = parts
        try:
            t = float(t_str)
        except ValueError:
            raise TraceFormatError(
                f"{path}: line {lineno}: invalid number {t_str!r} in column t"
            ) from None
        if not math.isfinite(t):
            raise TraceFormatError(f"{path}: line {lineno}: non-finite value")
        try:
            size = int(size_str)
        except ValueError:
            raise TraceFormatError(
                f"{path}: line {lineno}: invalid integer {size_str!r} in column size_bytes"
            ) from None
        if size < 1:
            raise TraceFormatError(f"{path}: line {lineno}: size_bytes must be >= 1, got {size}")
        if size > 2**63 - 1:
            raise TraceFormatError(
                f"{path}: line {lineno}: integer {size_str!r} out of range in column size_bytes"
            )
        if dir_str not in _DIR_CODES:
            raise TraceFormatError(
                f"{path}: line {lineno}: dir must be 'UL' or 'DL' (case-sensitive), got {dir_str!r}"
            )
        ts.append(t)
        sizes.append(size)
        dirs.append(_DIR_CODES[dir_str])
        linenos.append(lineno)
    t_arr = np.array(ts, dtype=np.float64)
    _reference_check_monotone(path, t_arr, np.array(linenos))
    return t_arr, np.array(sizes, dtype=np.int64), np.array(dirs, dtype=np.uint8)


def reference_write_movement(path, movement_t, movement):
    lines = [MOVEMENT_HEADER]
    for t, row in zip(movement_t, movement):
        lines.append(f"{t:.6f}," + ",".join(f"{v:.6f}" for v in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def reference_write_traffic(path, traffic_t, traffic_size, traffic_dir):
    lines = [TRAFFIC_HEADER]
    for t, size, d in zip(traffic_t, traffic_size, traffic_dir):
        lines.append(f"{t:.6f},{int(size)},{_DIR_NAMES[int(d)]}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


# ---- read oracle ----------------------------------------------------------------


def outcome(parse, path):
    """The parsed arrays as (dtype, shape, bytes) triples, or the error."""
    try:
        arrays = parse(path)
    except (TraceFormatError, UnicodeDecodeError) as err:
        return f"{type(err).__name__}: {err}"
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def same_outcome(text, parse, reference):
    same_bytes_outcome(text.encode("utf-8"), parse, reference)


def same_bytes_outcome(data, parse, reference):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(data)
        assert outcome(parse, path) == outcome(reference, path)


# Decimal cells both parsers read the same way, in the forms other tools write.
plain_numbers = st.one_of(
    st.builds(
        lambda x, digits: f"{x:.{digits}f}",
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.integers(0, 9),
    ),
    st.sampled_from(["0", "-0", "-0.0", "007", ".5", "5.", "-.5", "0.000000", "-0.000000"]),
)
HOSTILE = [
    "#", "1.0#x", '"1.0"', "'1'", "1_0", " 1.0", "1.0 ", "\r", "1.0\r", "١٢", "+5",
    "1e400", "-1e400", "infinity", "-inf", "nan", "-0.0", "", ".", "-", "1.2.3", "--1", "0x10",
    "1" + "0" * 400, "99999999999999999999", "9223372036854775807", "12.0", "UL", "DL",
    "ul", "U", "L", "D", "ULD", "DLU", "UL ", "é",
]


def _decimal_times(draw, n):
    t = sorted(draw(st.lists(st.floats(0.0, 1e5), min_size=n, max_size=n)))
    digits = draw(st.integers(0, 7))
    return [f"{x:.{digits}f}" for x in t]


@st.composite
def movement_rows(draw):
    n = draw(st.integers(1, 6))
    times = _decimal_times(draw, n)
    return [[t] + draw(st.lists(plain_numbers, min_size=21, max_size=21)) for t in times]


@st.composite
def traffic_rows(draw):
    n = draw(st.integers(1, 8))
    times = _decimal_times(draw, n)
    sizes = draw(
        st.lists(
            st.one_of(st.integers(1, 2**63 - 1).map(str), st.sampled_from(["1", "007", "65535"])),
            min_size=n,
            max_size=n,
        )
    )
    dirs = draw(st.lists(st.sampled_from(["UL", "DL"]), min_size=n, max_size=n))
    return [list(r) for r in zip(times, sizes, dirs)]


# Cell edits come up most often; emptying the file least.
OPS = ["replace"] * 6 + ["affix"] * 3 + [
    "drop_field", "add_field", "compensate", "swap_rows", "blank_line", "no_trailing_newline",
    "crlf",
] * 2 + ["empty"]


@st.composite
def corrupted(draw, rows):
    """Apply zero to three corruptions to the cells, rows or framing of a file."""
    rows = [list(r) for r in rows]
    trailing_newline = True
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(OPS))
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        token = draw(st.sampled_from(HOSTILE))
        if op == "replace":
            rows[i][j] = token
        elif op == "affix":
            rows[i][j] = draw(st.sampled_from([token + rows[i][j], rows[i][j] + token]))
        elif op == "drop_field" and len(rows[i]) > 1:
            del rows[i][j]
        elif op == "add_field":
            rows[i].insert(j, draw(st.sampled_from(["0", "1.5", token])))
        elif op == "compensate":
            # an extra comma on one row and a missing one on another
            k = draw(st.integers(0, len(rows) - 1))
            rows[i].insert(j, "0")
            if len(rows[k]) > 1:
                m = draw(st.integers(0, len(rows[k]) - 2))
                rows[k][m : m + 2] = [rows[k][m] + rows[k][m + 1]]
        elif op == "swap_rows":
            k = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[k] = rows[k], rows[i]
        elif op == "blank_line":
            rows.insert(i, [""])
        elif op == "no_trailing_newline":
            trailing_newline = False
        elif op == "crlf":
            rows[i][-1] += "\r"
        elif op == "empty":
            rows = []
            break
    body = "\n".join(",".join(r) for r in rows)
    return body + ("\n" if trailing_newline and rows else "")


@settings(max_examples=300, deadline=None)
@given(body=movement_rows().flatmap(corrupted))
def test_movement_reader_matches_per_line_parser(body):
    same_outcome(MOVEMENT_HEADER + "\n" + body, parse_movement_csv, reference_parse_movement)


@settings(max_examples=300, deadline=None)
@given(body=traffic_rows().flatmap(corrupted))
def test_traffic_reader_matches_per_line_parser(body):
    same_outcome(TRAFFIC_HEADER + "\n" + body, parse_traffic_csv, reference_parse_traffic)


BIG = "1" + "0" * 400  # plain decimal digits, yet float() reads it as inf
MOVEMENT_ROW = ",".join(["0.5"] * 22)


@pytest.mark.parametrize(
    "rows",
    [
        [MOVEMENT_ROW, BIG + MOVEMENT_ROW[3:]],
        [MOVEMENT_ROW, MOVEMENT_ROW[:-3] + "-" + BIG],
        ["1.0" + MOVEMENT_ROW[3:], MOVEMENT_ROW],
        ["-0.0" + MOVEMENT_ROW[3:], "0" + MOVEMENT_ROW[3:]],
        [MOVEMENT_ROW, MOVEMENT_ROW + ",0.5"],
        [MOVEMENT_ROW + ",0.5", MOVEMENT_ROW[4:]],
        [MOVEMENT_ROW[4:], MOVEMENT_ROW[4:]],
    ],
)
def test_movement_plain_edge_cases_match(rows):
    body = "\n".join(rows)
    for text in (body, body + "\n"):
        same_outcome(
            MOVEMENT_HEADER + "\n" + text, parse_movement_csv, reference_parse_movement
        )


@pytest.mark.parametrize(
    "row",
    [
        "0.7,10,U", "0.7,10,D", "0.7,10,L", "0.7,10,ULD", "0.7,10,DLU", "0.7,10,LU", "0.7,10,",
        "0.7,10,DD", "0.7,0,UL", "0.7,-0,DL", "0.7,-5,UL", "0.7,12.0,UL", "0.7,1-2,UL",
        "0.4,10,UL", f"{BIG},10,DL", f"-{BIG},10,DL", "0.7,9223372036854775807,DL",
        "0.7,9223372036854775808,DL", "0.7,10,UL,", "0.7,10", "0.7,10,DL\n\n0.8,1,UL",
    ],
)
def test_traffic_plain_edge_cases_match(row):
    body = "0.5,10,UL\n" + row
    for text in (body, body + "\n"):
        same_outcome(TRAFFIC_HEADER + "\n" + text, parse_traffic_csv, reference_parse_traffic)


@pytest.mark.parametrize(
    "header",
    ["", "t,x", MOVEMENT_HEADER + "\r", MOVEMENT_HEADER + ",", "\ufeff" + MOVEMENT_HEADER],
)
def test_movement_bad_headers_match(header):
    row = ",".join(["0.5"] * 22)
    same_outcome(header + "\n" + row + "\n", parse_movement_csv, reference_parse_movement)


@pytest.mark.parametrize(
    "text", ["", TRAFFIC_HEADER, TRAFFIC_HEADER + "\n", TRAFFIC_HEADER + "\n\n"]
)
def test_traffic_empty_files_match(text):
    same_outcome(text, parse_traffic_csv, reference_parse_traffic)


# ---- the decoder of written files ---------------------------------------------

WRITTEN = {
    "movement": (MOVEMENT_HEADER, parse_movement_csv, reference_parse_movement),
    "traffic": (TRAFFIC_HEADER, parse_traffic_csv, reference_parse_traffic),
}
# what may overwrite a byte of a written file: grammar bytes in the wrong
# place, bytes other readers take, and non-ASCII bytes (0xc3 0xa9 is "é")
OVERWRITES = [bytes([b]) for b in b"0123456789.-,\nULD\r +e_\0"] + [b"\xc3", b"\xa9", b"\xff"]


def fixed_fields(digits, signed=True):
    """'%.6f' fields with a digit count drawn from ``digits`` (1 reads 0-9),
    a zero fraction half the time, so that 0.000000 and -0.000000 come up."""

    @st.composite
    def field(draw):
        k = draw(digits)
        whole = draw(st.integers(0 if k == 1 else 10 ** (k - 1), 10**k - 1))
        frac = draw(st.just(0) | st.integers(0, 10**6 - 1))
        sign = "-" if signed and draw(st.booleans()) else ""
        return f"{sign}{whole}.{frac:06d}"

    return field()


@st.composite
def written_files(draw):
    """(kind, bytes, whether the decoder must take it): a file as the writers
    print it, often with 9-10 integer digits or a size of up to 18 digits,
    which the writers also print, sometimes with timestamps out of order,
    and with 0 to 2 bytes overwritten."""
    kind = draw(st.sampled_from(sorted(WRITTEN)))
    n = draw(st.integers(1, 6))
    digits = draw(st.sampled_from([8, 8, 8, 10]))  # integer digits, at most
    size_digits = draw(st.sampled_from([8, 8, 8, 18]))
    times = draw(st.lists(fixed_fields(st.integers(1, digits), False), min_size=n, max_size=n))
    if draw(st.sampled_from([True, True, True, False])):
        times.sort(key=float)
    if kind == "movement":
        cells = st.lists(fixed_fields(st.integers(1, digits)), min_size=21, max_size=21)
        rows = [[t] + draw(cells) for t in times]
    else:
        sizes = st.integers(1, size_digits).flatmap(
            lambda k: st.integers(0 if k == 1 else 10 ** (k - 1), 10**k - 1)
        )
        rows = [[t, str(draw(sizes)), draw(st.sampled_from(["UL", "DL"]))] for t in times]
    text = WRITTEN[kind][0] + "\n" + "".join(",".join(r) + "\n" for r in rows)
    data = bytearray(text.encode("ascii"))
    overwrites = draw(st.sampled_from([0, 0, 1, 2]))
    for _ in range(overwrites):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from(OVERWRITES))[0]
    sizes_ok = kind == "movement" or all(r[1] != "0" for r in rows)
    in_order = times == sorted(times, key=float)
    decodes = overwrites == 0 and digits == 8 and size_digits == 8 and sizes_ok and in_order
    return kind, bytes(data), decodes


@settings(max_examples=400, deadline=None)
@given(case=written_files())
def test_written_files_decode_as_the_per_line_parser_reads_them(case):
    kind, data, decodes = case
    _, parse, reference = WRITTEN[kind]
    if decodes:  # else the decoder may still take it, or decline
        decode = ingest._written_movement if kind == "movement" else ingest._written_traffic
        decode(data)
    for bound in (ingest._READ_FIELDS, 1, 7):
        with mock.patch.object(ingest, "_READ_FIELDS", bound):
            same_bytes_outcome(data, parse, reference)


WRITTEN_ROW = ",".join(["0.500000"] * 22)


@pytest.mark.parametrize(
    "kind,rows",
    [
        ("movement", ["1.000000" + WRITTEN_ROW[8:], WRITTEN_ROW]),  # t decreases
        ("movement", ["-0.000000" + WRITTEN_ROW[8:], "0.000000" + WRITTEN_ROW[8:]]),
        ("movement", [WRITTEN_ROW, WRITTEN_ROW[:-8] + "-0.000000"]),
        ("movement", [WRITTEN_ROW, WRITTEN_ROW[:-8] + "-12345678.000001"]),
        ("movement", [WRITTEN_ROW, WRITTEN_ROW[:-8] + "123456789.000001"]),
        ("movement", [WRITTEN_ROW, WRITTEN_ROW[:-8] + "-4503599627.370495"]),
        ("movement", [WRITTEN_ROW, WRITTEN_ROW[:-8] + "0.5000000"]),
        ("movement", [WRITTEN_ROW, WRITTEN_ROW + "\r"]),
        ("traffic", ["0.500000,10,UL", "0.400000,10,DL"]),  # t decreases
        ("traffic", ["0.500000,10,UL", "0.500000,0,DL"]),
        ("traffic", ["0.500000,00000001,UL", "0.600000,99999999,DL"]),
        ("traffic", ["0.500000,10,UL", "0.600000,123456789,DL"]),
        ("traffic", ["0.500000,10,UL", "0.600000,999999999999999999,DL"]),
        ("traffic", ["0.500000,10,UL", "12345678.000000,1,UL", "123456789.000000,1,UL"]),
        ("traffic", ["0.500000,10,UL", "0.600000,10,DL,"]),
        ("traffic", ["0.500000,10,UL", "0.600000,10,LD"]),
    ],
)
def test_written_edge_cases_match(kind, rows):
    header, parse, reference = WRITTEN[kind]
    body = "\n".join(rows)
    for text in (body, body + "\n"):
        for bound in (ingest._READ_FIELDS, 1):
            with mock.patch.object(ingest, "_READ_FIELDS", bound):
                same_outcome(header + "\n" + text, parse, reference)


def test_plain_files_never_reach_the_per_line_parser(tmp_path, monkeypatch):
    ds = generate_synthetic_cohort(2, minutes=0.2, seed=4)
    write_cohort(ds, tmp_path)

    def refuse(path, text):
        raise AssertionError(f"{path} left the vectorized reader")

    monkeypatch.setattr(ingest, "_parse_movement_lines", refuse)
    monkeypatch.setattr(ingest, "_parse_traffic_lines", refuse)
    for rec in ds.traces:
        stem = tmp_path / f"{rec.user_id}_{rec.game_id}"
        t, mv = parse_movement_csv(f"{stem}_movement.csv")
        tt, size, d = parse_traffic_csv(f"{stem}_traffic.csv")
        assert mv.shape == rec.movement.shape
        assert np.array_equal(size, rec.traffic_size)
        assert np.array_equal(d, rec.traffic_dir)


# ---- write oracle ---------------------------------------------------------------

EDGE_FLOATS = [
    0.0, -0.0, -1e-9, 1e-9, 1e300, -1e300, 5e-7, -5e-7, 1.5e-6, 2.5e-6, 0.0000015, 1.0000005,
    2.0000025, 123456.0000005, 0.1234565, float("nan"), float("inf"), -float("inf"),
]
write_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))

MOVEMENT_FIELDS = ("movement_t", "movement")
TRAFFIC_FIELDS = ("traffic_t", "traffic_size", "traffic_dir")


def write_movement(path, movement_t, movement):
    """One trace's movement CSV, as ``write_cohort`` writes it."""
    atomic_write_text(path, ingest._movement_text(movement_t, movement))


def write_traffic(path, traffic_t, traffic_size, traffic_dir):
    """One trace's traffic CSV, as ``write_cohort`` writes it."""
    atomic_write_text(path, ingest._traffic_text(traffic_t, traffic_size, traffic_dir))


def _first_unwritable(fields, *arrays):
    """(field, sample, channel or None, value) of the first value, field by
    field and row by row, that the writers cannot print, or None: a float
    must be finite with |x| * 10**6 < 2**52 (exactly), a size an integer in
    [1, 10**18), a dir DIR_UL or DIR_DL."""
    for name, array in zip(fields, arrays):
        rows = np.reshape(array, (len(array), -1 if len(array) else 1)).tolist()
        for sample, cells in enumerate(rows):
            for col, v in enumerate(cells):
                if name == "traffic_size":
                    ok = isinstance(v, int) and 1 <= v < 10**18
                elif name == "traffic_dir":
                    ok = v in (DIR_UL, DIR_DL)
                else:
                    ok = math.isfinite(v) and abs(Fraction(v)) * 10**6 < 2**52
                if not ok:
                    return name, sample, col if np.ndim(array) == 2 else None, v
    return None


def check_writer(writer, reference, fields, *arrays):
    """``writer`` must write the f-string reference's bytes for writable
    ``arrays``; a Trace that holds any other value must refuse its first
    unwritable value by name, so that no writer sees it."""
    bad = _first_unwritable(fields, *arrays)
    if bad is None:
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            writer(a, *arrays)
            reference(b, *arrays)
            assert a.read_bytes() == b.read_bytes()
        return
    name, sample, col, value = bad
    streams = {"movement_t": [], "movement": np.zeros((0, 21)), "traffic_t": [],
               "traffic_size": [], "traffic_dir": []}
    with pytest.raises(TraceFormatError) as err:
        Trace("u", "g", 1.0, **{**streams, **dict(zip(fields, arrays))})
    channel = "" if col is None else f", channel {MOVEMENT_CHANNELS[col]},"
    message = str(err.value)
    assert message.startswith(f"trace u/g: {name} sample {sample}{channel} is ")
    assert repr(value) in message


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 6), data=st.data())
def test_movement_writer_matches_fstring_writer(n, data):
    t = np.array(data.draw(st.lists(write_floats, min_size=n, max_size=n)))
    cells = data.draw(st.lists(write_floats, min_size=21 * n, max_size=21 * n))
    mv = np.array(cells).reshape(n, 21)
    check_writer(write_movement, reference_write_movement, MOVEMENT_FIELDS, t, mv)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 8), data=st.data())
def test_traffic_writer_matches_fstring_writer(n, data):
    t = np.array(data.draw(st.lists(write_floats, min_size=n, max_size=n)))
    sizes = np.array(
        data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    dirs = np.array(
        data.draw(st.lists(st.sampled_from([DIR_UL, DIR_DL]), min_size=n, max_size=n)),
        dtype=np.uint8,
    )
    check_writer(write_traffic, reference_write_traffic, TRAFFIC_FIELDS, t, sizes, dirs)


# ---- the block encoder ----------------------------------------------------------

UNITS_EDGE = 2**52 / 1e6  # beyond it, a Trace refuses a value
# values the encoder prints itself: k / 2**7 are exact ties of x * 10**6,
# (j + 0.5) / 10**6 round to doubles on either side of one
kernel_floats = st.one_of(
    st.integers(-(2**39), 2**39).map(lambda k: k / 2**7),
    st.integers(-(2**41), 2**41).map(lambda j: (j + 0.5) / 1e6),
    st.floats(0.0, 4.4e9),
    st.floats(-1e-6, 1e-6),
    st.sampled_from([0.0, -0.0, -1e-300, -5e-7, 5e-7, -4e-7, 9999.9999995, -999.9999995]),
    st.floats(-1e4, 1e4),
)
straddling_floats = st.one_of(
    st.floats(UNITS_EDGE * (1 - 1e-12), UNITS_EDGE * (1 + 1e-12)),
    st.floats(-UNITS_EDGE * (1 + 1e-12), -UNITS_EDGE * (1 - 1e-12)),
    st.sampled_from([np.nextafter(UNITS_EDGE, 0), np.nextafter(-UNITS_EDGE, 0), UNITS_EDGE]),
)
kernel_sizes = st.one_of(
    st.integers(1, 10**18 - 1),
    st.integers(10**18 - 10, 10**18 - 1),
    st.integers(1, 100_000),
)


def _written_by(writer, *arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        writer(path, *arrays)
        return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_encoder_matches_fstring_writer_over_its_range(n, data):
    cells = data.draw(st.lists(kernel_floats, min_size=22 * n, max_size=22 * n))
    rows = np.array(cells).reshape(n, 22)
    assert isinstance(ingest._movement_block(rows), bytes)  # not the fallback
    mv_args = (rows[:, 0], rows[:, 1:])
    assert _written_by(write_movement, *mv_args) == _written_by(reference_write_movement, *mv_args)
    t = rows[:, 0]
    size = np.array(data.draw(st.lists(kernel_sizes, min_size=n, max_size=n)), dtype=np.int64)
    dirs = np.array(data.draw(st.lists(st.sampled_from([DIR_UL, DIR_DL]), min_size=n, max_size=n)))
    dirs = dirs.astype(np.uint8)
    assert isinstance(ingest._traffic_block(t, size, dirs), bytes)
    tr_args = (t, size, dirs)
    assert _written_by(write_traffic, *tr_args) == _written_by(reference_write_traffic, *tr_args)


@settings(max_examples=100, deadline=None)
@given(
    t=st.lists(st.one_of(straddling_floats, kernel_floats), min_size=1, max_size=8),
    sizes=st.lists(
        st.one_of(st.integers(10**18 - 3, 10**18 + 3), st.integers(-3, 3)), min_size=8, max_size=8
    ),
)
def test_encoder_edges_match_fstring_writer(t, sizes):
    t = np.array(t)
    size = np.array(sizes[: len(t)], dtype=np.int64)
    dirs = np.zeros(len(t), dtype=np.uint8)
    check_writer(write_traffic, reference_write_traffic, TRAFFIC_FIELDS, t, size, dirs)
    mv = np.repeat(t[:, None], 21, axis=1)
    check_writer(write_movement, reference_write_movement, MOVEMENT_FIELDS, t, mv)


def test_a_later_block_is_refused_before_any_block_is_encoded(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_BLOCK_FIELDS", 3 * 22)  # 3 movement rows, 66 packets
    encoded = []

    def counted(block):
        def run(*args):
            encoded.append(block.__name__)
            return block(*args)

        return run

    for block in (ingest._movement_block, ingest._traffic_block):
        monkeypatch.setattr(ingest, block.__name__, counted(block))
    rng = np.random.default_rng(11)
    t = np.arange(10) / 60.0
    mv = rng.normal(0.0, 2.0, (10, 21))
    tt = np.sort(rng.uniform(0.0, 1e9, 200))
    size = rng.integers(1, 1500, 200)
    dirs = rng.integers(0, 2, 200).astype(np.uint8)
    trace = Trace("u", "g", 1e9, t, mv, tt, size, dirs)
    cohort = Dataset(traces=[trace], game_categories={"g": "fast"})
    out = tmp_path / "cohort"
    for index, field, value, named in (
        ((9, 0), "movement", 1e300, "movement sample 9, channel head_px, is 1e+300"),  # last block
        (150, "traffic_t", 5e9, "traffic_t sample 150 is 5000000000.0"),
        (70, "traffic_size", 10**18, "traffic_size sample 70 is 1000000000000000000"),
        (190, "traffic_dir", 7, "traffic_dir sample 190 is 7"),
    ):
        array = getattr(trace, field)
        kept = array[index]
        array.flags.writeable = True  # a trace's arrays are read-only views
        array[index] = value  # in place, past the checks Trace ran when it was built
        with pytest.raises(TraceFormatError, match=re.escape(f"trace u/g: {named}, must be ")):
            write_cohort(cohort, out)
        array[index] = kept
    assert encoded == []
    assert not out.exists()
    # the same arrays, mended, go through every block
    write_cohort(cohort, out)
    reference_write_movement(tmp_path / "m.csv", t, mv)
    reference_write_traffic(tmp_path / "t.csv", tt, size, dirs)
    assert (out / "u_g_movement.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()
    assert (out / "u_g_traffic.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
    assert encoded == ["_movement_block"] * 4 + ["_traffic_block"] * 4


def test_synth_cohorts_write_the_fstring_bytes(tmp_path):
    ds = generate_synthetic_cohort(3, minutes=0.2, seed=5)
    write_cohort(ds, tmp_path)
    for tr in ds.traces:
        stem = tmp_path / f"{tr.user_id}_{tr.game_id}"
        reference_write_movement(tmp_path / "ref_m.csv", tr.movement_t, tr.movement)
        reference_write_traffic(
            tmp_path / "ref_t.csv", tr.traffic_t, tr.traffic_size, tr.traffic_dir
        )
        assert Path(f"{stem}_movement.csv").read_bytes() == (tmp_path / "ref_m.csv").read_bytes()
        assert Path(f"{stem}_traffic.csv").read_bytes() == (tmp_path / "ref_t.csv").read_bytes()


# sha256 of every file write_cohort writes for this cohort, pinned when
# the writers formatted each value with an f-string.
PINNED_COHORT = {
    "manifest.json": "be42f6a0f0b7f60b74e12786ee59771b459fed42cecc4ba54ccfd95546683044",
    "user00_game_a_movement.csv": "c31227e93f4644d7306d36aaf83e4eb436e270a85a235ce3220e86c8793f473f",
    "user00_game_a_traffic.csv": "3f1c62a8fe37c4cf79fd4cac153f4c52b65eae2370858bf3f97ce6215988da19",
    "user01_game_a_movement.csv": "65e4283ce72e950b8daf05ec10a038a8a5c7068f6cc8e2cf968bdea0e4e76c18",
    "user01_game_a_traffic.csv": "1873f42f4fd3c6dbefa8aab3798140abb8829c04fbd31dc23bf929271508800c",
}


def test_written_cohort_bytes_are_pinned(tmp_path):
    write_cohort(generate_synthetic_cohort(2, minutes=0.5, seed=13), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == PINNED_COHORT
