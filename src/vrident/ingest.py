"""Trace I/O and synthetic cohort generation.

File formats
------------
Movement CSV: header ``t,head_px,...,right_qz`` (22 columns, verbatim), one
row per 60 Hz sample, floats printed with 6 fractional digits, UTF-8, LF
line endings. Traffic CSV: header ``t,size_bytes,dir``; ``dir`` is exactly
``UL`` or ``DL`` (case-sensitive) and sizes are integers >= 1. Timestamps
must be non-decreasing and finite in both files, and sizes fit in int64.
Parse errors name the offending 1-based line number; files written here
re-parse byte-identically. The writers print '%.6f' % x and '%d' % n for
every value with a numpy block encoder. The cohort contract lives in
``core``; beyond the readers' grammar and the manifest checks below this
module applies no rule of its own. ``core.Trace`` refuses, naming the trace,
every value the encoder cannot print exactly (|x| * 10**6 >= 2**52, about
4.5e9, or a size >= 10**18), so ``load_dataset`` refuses such a file too, and
``write_cohort`` checks the cohort and every trace again before it writes.

Files in the grammar the writers print are decoded from their bytes, a block
of rows at a time; any other file, such as one with repr-printed floats or
CRLF endings, is read line by line. Both readers return the same arrays, and
the per-line reader raises every error message (see the parsing section
below).

Manifest: a JSON file with ``games`` (id -> {"category": "fast"|"slow"})
and ``traces`` (user_id, game_id, movement/traffic paths relative to the
manifest, optional duration_s, a finite number > 0). Ids are strings or
integers (not booleans), read as strings and unique as (user, game) pairs;
they name the cohort's files, so they must not contain '/', '\\' or NUL.
``load_manifest`` refuses these before any CSV is read.
Paths are strings. duration_s exists because the last sample timestamp
undercounts the capture length by one sample period.

Synthetic cohorts
-----------------
``generate_synthetic_cohort`` builds fully deterministic cohorts from one
``core.philox_stream`` per (user, game), so identical seeds reproduce
identical cohorts on any platform. Per-user parameters are evenly spaced across
documented ranges: head height 1.50-1.95 m, sweep frequency 0.5-2.5 Hz,
uplink 50-200 pkt/s, downlink 200-1000 pkt/s. Heads hover at the profile
height plus Gaussian tremor, controllers sweep sinusoidally, orientations
oscillate slowly about the vertical axis, and packets arrive as per-direction
Poisson processes with Gaussian sizes clamped to >= 1 byte. Clone mode gives
every user identical parameters but independent noise streams.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DIR_DL,
    DIR_UL,
    Dataset,
    GAME_CATEGORIES,
    MOVEMENT_CHANNELS,
    SAMPLE_RATE_HZ,
    Trace,
    TraceFormatError,
    _PATH_RULE,
    _escapes_dir,
    philox_stream,
    positive_number,
)

MOVEMENT_HEADER = "t," + ",".join(MOVEMENT_CHANNELS)
TRAFFIC_HEADER = "t,size_bytes,dir"
_DIR_CODES = {"UL": DIR_UL, "DL": DIR_DL}


def atomic_write_text(path: str | Path, text: str | Iterable[str | bytes]) -> None:
    """Write ``text`` (a str, or str and UTF-8 bytes chunks in order) to
    ``path`` via a temp file + rename in the same directory."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in (text,) if isinstance(text, str) else text:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---- parsing ----------------------------------------------------------------
#
# A file in the grammar the writers print is decoded from its bytes, a block of
# whole rows (at most ``_READ_FIELDS`` fields) at a time, with no Python object
# per value: the verbatim header, then rows of '%.6f' fields (an optional '-',
# 1 to 8 integer digits, '.', 6 digits) and, in a traffic row, a '%d' size of 1
# to 8 digits and ",UL\n" or ",DL\n"; every row ends in '\n'. Any other file
# (CRLF endings, repr-printed floats, another digit count, a stray byte), and
# any such file with a decreasing timestamp or a size below 1, goes whole to
# the per-line parser, which re-reads it as text and is the one source of
# every error message.
#
# Separators. Every byte below '-' ends a field, so a block's field ends come
# from one flatnonzero; each must then read ',' or, at the end of a row, '\n'.
# A space, '\r', '+' or NUL thus declines the file, and so does any byte of a
# field that is not where the grammar puts it.
#
# Values. One gather with a one-byte stride takes the 16 bytes that end at a
# field's separator, byte e, as two little-endian words: the first ends in the
# integer digits, the second is '.', the 6 fraction digits and the separator
# (the header precedes the first row, so e - 15 >= 0). A traffic row's size
# and dir word come the same way from the 16 bytes that end at its '\n'. The
# dot, separators and dir are checked by equality; XOR with '0' turns digits
# into their values, and every other byte is masked to 0; a nibble test then
# proves every byte a digit, and three multiply-shift steps read each word's
# 8 digits as an integer. The words give I and 10 * F for a field I.F, so
# 10 * N = I * 10**7 + 10 * F for N = I * 10**6 + F < 10**14, and
# 10 * N / 1e7 is one correctly rounded division of the field's exact value:
# the double float() reads. The sign is applied last, so "-0.000000" reads
# -0.0.

#: Fields per decoded block, at most, so that its temporaries stay small.
_READ_FIELDS = 1 << 14
_FIELD_BYTES = 17  # the longest field a block takes, with its separator
_INT64_MAX = int(np.iinfo(np.int64).max)

_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)  # eight '0'
#: _TOP[k] keeps the top k bytes of a word: the last k before its end
_TOP = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)
_DOT_AND_SEPARATOR = _U64(0xFF000000000000FF)
_FRACTION = ~_DOT_AND_SEPARATOR


def _second_words(separators: bytes) -> np.ndarray:
    """The '.' and separator bytes of the second word of fields that end in
    ``separators``, one per column of a row."""
    ends = np.frombuffer(separators, np.uint8).astype(np.uint64)
    return (ends << _U64(56)) | _U64(ord("."))


_MOVEMENT_ENDS = _second_words(b"," * len(MOVEMENT_CHANNELS) + b"\n")
_TIME_END = _second_words(b",")
_DIR_WORDS = np.frombuffer(b",UL\n,DL\n", "<u4").astype(np.uint64)  # DIR_UL, DIR_DL


class _Unwritten(Exception):
    """The file strays from the grammar the writers print."""


def _require(ok) -> None:
    if not ok:
        raise _Unwritten


def _read_trace_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TraceFormatError(f"{path}: file not found") from None


def _row_blocks(data: bytes, header: str, per_row: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first byte, field ends (n, per_row)) for blocks of the rows
    after ``header``, each of at most ``_READ_FIELDS`` fields (one row at
    least); the caller checks what each field end reads."""
    prefix = (header + "\n").encode()
    _require(data.startswith(prefix) and len(data) > len(prefix))
    u8 = np.frombuffer(data, np.uint8)
    most = max(1, _READ_FIELDS // per_row)
    pos, window = len(prefix), most * per_row * _FIELD_BYTES
    while pos < len(data):
        # one row of the longest fields always fits in the window, and so
        # do ``most`` rows as long as the last block's
        ends = np.flatnonzero(u8[pos : pos + window] < ord("-"))
        n = min(len(ends) // per_row, most)
        _require(n > 0)
        ends = ends[: n * per_row].reshape(n, per_row) + pos
        yield pos, ends
        end = int(ends[-1, -1]) + 1
        pos, window = end, end - pos + per_row * _FIELD_BYTES


def _word_pairs(data: bytes, ends: np.ndarray) -> np.ndarray:
    """The 16 bytes that end at each of ``ends``, as two little-endian words."""
    runs = np.ndarray((len(data) - 15,), "V16", buffer=data, strides=(1,))
    return runs[ends - 15].view("<u8").reshape(*ends.shape, 2)


def _digit_values(words: np.ndarray) -> np.ndarray:
    """Read words of 8 digit values (bytes of 0 to 9, byte 0 the leading
    digit) as integers; any other byte declines the file."""
    # a byte is at most 9 when neither it nor it + 6 has a high-nibble bit
    _require(not ((words | (words + _U64(0x0606060606060606))) & _U64(0xF0F0F0F0F0F0F0F0)).any())
    v = ((words * _U64(10 * 2**8 + 1)) >> _U64(8)) & _U64(0x00FF00FF00FF00FF)
    v = ((v * _U64(100 * 2**16 + 1)) >> _U64(16)) & _U64(0x0000FFFF0000FFFF)
    return (v * _U64(10000 * 2**32 + 1)) >> _U64(32)


def _fixed_fields(
    data: bytes, starts: np.ndarray, ends: np.ndarray, second_words: np.ndarray
) -> np.ndarray:
    """The '%.6f' fields ``data[starts:ends]`` as float64; the dot and
    separator bytes of each row's fields must read ``second_words``."""
    neg = np.frombuffer(data, np.uint8)[starts] == ord("-")
    digits = ends - starts - 7 - neg  # integer digits
    _require(((digits >= 1) & (digits <= 8)).all())
    words = _word_pairs(data, ends)
    _require(((words[..., 1] & _DOT_AND_SEPARATOR) == second_words).all())
    words ^= _ZEROS
    words[..., 0] &= _TOP[digits]
    words[..., 1] &= _FRACTION
    values = _digit_values(words)
    x = (values[..., 0] * _U64(10**7) + values[..., 1]).view(np.int64) / 1e7
    np.negative(x, out=x, where=neg)
    return x


def _nondecreasing(t: np.ndarray) -> bool:
    return not (np.diff(t) < 0).any()


def _written_movement(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    blocks = []
    for start, ends in _row_blocks(data, MOVEMENT_HEADER, len(_MOVEMENT_ENDS)):
        starts = np.concatenate(([start], ends.ravel()[:-1] + 1)).reshape(ends.shape)
        blocks.append(_fixed_fields(data, starts, ends, _MOVEMENT_ENDS))
    rows = np.concatenate(blocks)
    _require(_nondecreasing(rows[:, 0]))
    return rows[:, 0], rows[:, 1:]


def _written_traffic(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t, sizes, dirs = [], [], []
    for start, ends in _row_blocks(data, TRAFFIC_HEADER, 3):
        t_end, row_end = ends[:, 0], ends[:, 2]
        starts = np.concatenate(([start], row_end[:-1] + 1))
        t.append(_fixed_fields(data, starts, t_end, _TIME_END))
        # the size's digits come just before the row's ",UL\n" or ",DL\n"
        words = _word_pairs(data, row_end)
        tail = words[:, 1] >> _U64(32)
        dl = tail == _DIR_WORDS[DIR_DL]
        _require((dl | (tail == _DIR_WORDS[DIR_UL])).all())
        width = row_end - 4 - t_end
        _require(((width >= 1) & (width <= 8)).all())
        size_word = ((words[:, 0] >> _U64(32)) | (words[:, 1] << _U64(32))) ^ _ZEROS
        size_word &= _TOP[width]
        size = _digit_values(size_word).view(np.int64)
        _require((size >= 1).all())
        sizes.append(size)
        dirs.append(dl)
    t = np.concatenate(t)
    _require(_nondecreasing(t))
    direction = np.where(np.concatenate(dirs), np.uint8(DIR_DL), np.uint8(DIR_UL))
    return t, np.concatenate(sizes), direction


def _data_lines(path: Path, text: str, expected_header: str) -> list[tuple[int, str]]:
    """(1-based line number, text) pairs for data rows, header verified."""
    lines = text.split("\n")
    if not lines or lines[0] != expected_header:
        got = lines[0] if lines else ""
        raise TraceFormatError(f"{path}: line 1: bad header {got!r}; expected {expected_header!r}")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        if line == "":
            if i == len(lines):  # blank from the trailing newline
                continue
            raise TraceFormatError(f"{path}: line {i}: blank line")
        out.append((i, line))
    if not out:
        raise TraceFormatError(f"{path}: no data rows")
    return out


def _check_monotone(path: Path, t: np.ndarray, first_data_line: np.ndarray) -> None:
    drop = np.flatnonzero(np.diff(t) < 0)
    if drop.size:
        raise TraceFormatError(
            f"{path}: line {int(first_data_line[drop[0] + 1])}: timestamp decreases"
        )


def parse_movement_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a movement CSV into (timestamps (n,), channels (n, 21))."""
    path = Path(path)
    try:
        return _written_movement(path.read_bytes())
    except (_Unwritten, FileNotFoundError):  # the per-line parser names the fault
        return _parse_movement_lines(path, _read_trace_text(path))


def _parse_movement_lines(path: Path, text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = _data_lines(path, text, MOVEMENT_HEADER)
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
    _check_monotone(path, data[:, 0], linenos)
    return data[:, 0], data[:, 1:]


def parse_traffic_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a traffic CSV into (timestamps (m,), sizes (m,), directions (m,))."""
    path = Path(path)
    try:
        return _written_traffic(path.read_bytes())
    except (_Unwritten, FileNotFoundError):  # the per-line parser names the fault
        return _parse_traffic_lines(path, _read_trace_text(path))


def _parse_traffic_lines(path: Path, text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = _data_lines(path, text, TRAFFIC_HEADER)
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
        if size > _INT64_MAX:
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
    _check_monotone(path, t_arr, np.array(linenos))
    return t_arr, np.array(sizes, dtype=np.int64), np.array(dirs, dtype=np.uint8)


# ---- writing ----------------------------------------------------------------
#
# The writers print every float as '%.6f' % x does and every size as '%d' % n,
# a block of rows at a time, with no Python object per value.
#
# Rounding. '%.6f' prints N = round-half-even(x * 10**6) of the exact binary
# value of x (CPython's correctly rounded conversion). While
# |x| * 10**6 < 2**52, every half-integer is a double and rounding is
# monotone, so rint(fl(x * 1e6)) is N except where fl(x * 1e6) is itself a
# half-integer. There the exact product may lie above the tie, below it or on
# it; its rounding error, which Dekker's error-free product (Veltkamp split)
# gives exactly, says which, and only an error of 0 leaves rint's half-even
# choice. The sign comes from signbit, so -0.0 and tiny negatives print
# "-0.000000" as '%' does.
#
# Digits. A field is a row of 4-byte words taken from one table: the integer
# part in words of 4 digits, the leading one NUL-padded on the left with the
# '-' inside it, then ".ddd", then "ddd," or "ddd\n". Sizes are integer words
# too, and a traffic row ends in the word ",UL\n" or ",DL\n". No printed byte
# is NUL, so one boolean mask that drops the NUL bytes of a block's word
# matrix leaves its text.

#: Values per block, so that a block's word matrix stays near a megabyte.
_BLOCK_FIELDS = 1 << 16


@functools.cache
def _words() -> tuple[np.ndarray, dict[str, int]]:
    """The 4-byte words every field is printed from, and where each kind
    starts; built on first use, so that a process that writes no trace
    does not hold it."""
    kinds = {
        # "digits" comes first, so that a 4-digit group is its own word index
        "digits": [b"%04d" % g for g in range(10**4)],
        "lead": [(b"%d" % g).rjust(4, b"\0") for g in range(10**4)],
        # "lead" + 10**4 for a negative; a 4-digit word has no room for the
        # '-', which then goes in the word above ("blank" + 1)
        "lead_neg": [
            (b"-%d" % g).rjust(4, b"\0") if g < 1000 else b"%04d" % g for g in range(10**4)
        ],
        "blank": [b"\0\0\0\0", b"\0\0\0-"],
        "head": [b".%03d" % g for g in range(1000)],
        "tail": [b"%03d," % g for g in range(1000)],
        "tail_nl": [b"%03d\n" % g for g in range(1000)],
        "ending": [b",UL\n", b",DL\n"],  # DIR_UL, DIR_DL
    }
    table = np.frombuffer(b"".join(itertools.chain(*kinds.values())), dtype=np.uint32)
    return table, dict(zip(kinds, itertools.accumulate(map(len, kinds.values()), initial=0)))


def _product_error(a: np.ndarray, b: float, p: np.ndarray) -> np.ndarray:
    """a * b - p exactly, for p = fl(a * b) (Dekker 1971, Veltkamp split)."""

    def split(v):
        c = 134217729.0 * v  # 2**27 + 1
        hi = c - (c - v)
        return hi, v - hi

    a_hi, a_lo = split(a)
    b_hi, b_lo = split(np.float64(b))
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _micro_units(x: np.ndarray) -> np.ndarray:
    """|round-half-even(x * 10**6)| as int64, for |x| * 10**6 < 2**52."""
    p = x * 1e6
    n = np.rint(p)
    tie = np.flatnonzero(np.abs(p - n) == 0.5)
    if tie.size:
        pt = p[tie]
        err = _product_error(x[tie], 1e6, pt)
        n[tie] = np.where(err > 0, pt + 0.5, np.where(err < 0, pt - 0.5, n[tie]))
    return np.abs(n).astype(np.int64)


def _word_count(v: np.ndarray) -> int:
    """Integer words for the largest of ``v``, with a spare byte for a '-'."""
    return len(str(int(v.max()))) // 4 + 1


def _put_integer(idx: np.ndarray, end: int, v: np.ndarray, neg, n_words: int) -> None:
    """Fill columns [end - n_words, end) of ``idx`` with the words that print
    the non-negative integers ``v`` (each below 10 ** (4 * n_words - 1)),
    with a '-' before the first digit where ``neg``."""
    at = _words()[1]
    lead = at["lead"] + 10**4 * neg
    for j, col in enumerate(range(end - 1, end - 1 - n_words, -1)):
        # v is what is left to print from this word up; the lowest word
        # always prints, a higher one only while v > 0
        word = lead + v if j == 0 else np.where(v > 0, lead + v, blank)
        if j == n_words - 1:
            idx[:, col] = word
            break
        # a group with more digits above it prints all 4 of them
        idx[:, col] = np.where(v >= 10**4, at["digits"] + v % 10**4, word)
        blank = at["blank"] + (neg & (v >= 1000))  # the '-' of a full lead
        v = v // 10**4


def _put_fraction(idx: np.ndarray, col: int, frac: np.ndarray) -> None:
    """Fill columns col and col + 1 with ".ddd" and "ddd," for 6-digit ``frac``."""
    at = _words()[1]
    hi, lo = np.divmod(frac.astype(np.int32), 1000)
    idx[:, col] = at["head"] + hi
    idx[:, col + 1] = at["tail"] + lo


def _text(idx: np.ndarray) -> bytes:
    printed = _words()[0].take(idx).view(np.uint8).ravel()
    return printed[printed != 0].tobytes()


def _movement_block(rows: np.ndarray) -> bytes:
    fields = rows.ravel()
    whole, frac = np.divmod(_micro_units(fields), 10**6)
    n_words = _word_count(whole)
    idx = np.empty((fields.size, n_words + 2), dtype=np.intp)
    _put_integer(idx, n_words, whole, np.signbit(fields), n_words)
    _put_fraction(idx, n_words, frac)
    at = _words()[1]
    idx[rows.shape[1] - 1 :: rows.shape[1], -1] += at["tail_nl"] - at["tail"]
    return _text(idx)


def _traffic_block(t: np.ndarray, size: np.ndarray, direction: np.ndarray) -> bytes:
    whole, frac = np.divmod(_micro_units(t), 10**6)
    t_words, size_words = _word_count(whole), _word_count(size)
    idx = np.empty((t.size, t_words + size_words + 3), dtype=np.intp)
    _put_integer(idx, t_words, whole, np.signbit(t), t_words)
    _put_fraction(idx, t_words, frac)
    _put_integer(idx, t_words + 2 + size_words, size, False, size_words)
    idx[:, -1] = _words()[1]["ending"] + (direction == DIR_DL)
    return _text(idx)


def _movement_text(movement_t: np.ndarray, movement: np.ndarray) -> Iterable[str | bytes]:
    step = max(1, _BLOCK_FIELDS // (1 + movement.shape[1]))
    yield MOVEMENT_HEADER + "\n"
    for a in range(0, len(movement_t), step):
        yield _movement_block(np.column_stack((movement_t[a : a + step], movement[a : a + step])))


def _traffic_text(t: np.ndarray, size: np.ndarray, direction: np.ndarray) -> Iterable[str | bytes]:
    yield TRAFFIC_HEADER + "\n"
    for a in range(0, len(t), _BLOCK_FIELDS):
        b = a + _BLOCK_FIELDS
        yield _traffic_block(t[a:b], size[a:b], direction[a:b])


# ---- manifest ---------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    user_id: str
    game_id: str
    movement: str
    traffic: str
    duration_s: float | None = None


@dataclass(frozen=True)
class Manifest:
    games: dict[str, str]  # game_id -> category
    entries: tuple[ManifestEntry, ...]
    root: Path  # directory paths are resolved against


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    missing = required - obj.keys()
    if missing:
        raise TraceFormatError(f"manifest: {where}: missing keys {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise TraceFormatError(f"manifest: {where}: unknown keys {sorted(unknown)}")


# (key, accepted JSON types, what the error says); a bool is never accepted
_ENTRY_TYPES = (
    ("user_id", (str, int), "a string or an integer"),
    ("game_id", (str, int), "a string or an integer"),
    ("movement", str, "a string"),
    ("traffic", str, "a string"),
)


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise TraceFormatError(f"{path}: file not found") from None
    except json.JSONDecodeError as e:
        raise TraceFormatError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise TraceFormatError(f"{path}: manifest must be a JSON object")
    _require_keys(raw, {"games", "traces"}, set(), "top level")
    games = {}
    if not isinstance(raw["games"], dict) or not raw["games"]:
        raise TraceFormatError(f"{path}: 'games' must be a non-empty object")
    for gid, info in raw["games"].items():
        if _escapes_dir(gid):
            raise TraceFormatError(f"{path}: game {gid!r}: the id {_PATH_RULE}")
        if not isinstance(info, dict):
            raise TraceFormatError(f"{path}: game {gid!r}: entry must be an object")
        _require_keys(info, {"category"}, set(), f"game {gid!r}")
        if info["category"] not in GAME_CATEGORIES:
            raise TraceFormatError(
                f"{path}: game {gid!r}: category must be one of {GAME_CATEGORIES}, "
                f"got {info['category']!r}"
            )
        games[gid] = info["category"]
    if not isinstance(raw["traces"], list) or not raw["traces"]:
        raise TraceFormatError(f"{path}: 'traces' must be a non-empty array")
    entries = []
    seen = set()
    for i, item in enumerate(raw["traces"]):
        where = f"traces[{i}]"
        if not isinstance(item, dict):
            raise TraceFormatError(f"{path}: {where}: entry must be an object")
        _require_keys(item, {"user_id", "game_id", "movement", "traffic"}, {"duration_s"}, where)
        for name, types, expected in _ENTRY_TYPES:
            val = item[name]
            if isinstance(val, bool) or not isinstance(val, types):
                raise TraceFormatError(f"{path}: {where}: {name} must be {expected}, got {val!r}")
        user_id, game_id = str(item["user_id"]), str(item["game_id"])
        if _escapes_dir(user_id):
            raise TraceFormatError(f"{path}: {where}: user_id {user_id!r} {_PATH_RULE}")
        if game_id not in games:
            raise TraceFormatError(f"{path}: {where}: game {game_id!r} not listed under 'games'")
        key = (user_id, game_id)
        if key in seen:
            raise TraceFormatError(f"{path}: {where}: duplicate trace for {key}")
        seen.add(key)
        dur = item.get("duration_s")
        if dur is not None and not positive_number(dur):
            raise TraceFormatError(
                f"{path}: {where}: duration_s must be a positive finite number, got {dur!r}"
            )
        entries.append(
            ManifestEntry(
                user_id=user_id,
                game_id=game_id,
                movement=item["movement"],
                traffic=item["traffic"],
                duration_s=None if dur is None else float(dur),
            )
        )
    return Manifest(games=games, entries=tuple(entries), root=path.parent)


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Parse every trace referenced by a manifest into an in-memory Dataset."""
    man = load_manifest(manifest_path)
    traces = []
    for e in man.entries:
        mt, mv = parse_movement_csv(man.root / e.movement)
        tt, ts, td = parse_traffic_csv(man.root / e.traffic)
        traces.append(
            Trace.assemble(e.user_id, e.game_id, mt, mv, tt, ts, td, duration_s=e.duration_s)
        )
    return Dataset(traces=traces, game_categories=dict(man.games))


def write_cohort(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write every trace as CSV pairs plus a manifest.json listing them in
    ``dataset.traces`` order; returns its path.

    Every trace and the cohort are checked again (``Trace.check`` and
    ``Dataset.check``) before any file or directory is written, since a
    caller can change them in place.
    """
    for tr in dataset.traces:
        tr.check()
    dataset.check()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = []
    for tr in dataset.traces:
        stem = f"{tr.user_id}_{tr.game_id}"
        atomic_write_text(out / f"{stem}_movement.csv", _movement_text(tr.movement_t, tr.movement))
        traffic = (tr.traffic_t, tr.traffic_size, tr.traffic_dir)
        atomic_write_text(out / f"{stem}_traffic.csv", _traffic_text(*traffic))
        traces.append(
            {
                "user_id": tr.user_id,
                "game_id": tr.game_id,
                "movement": f"{stem}_movement.csv",
                "traffic": f"{stem}_traffic.csv",
                "duration_s": tr.duration_s,
            }
        )
    manifest = {
        "games": {g: {"category": c} for g, c in sorted(dataset.game_categories.items())},
        "traces": traces,
    }
    path = out / "manifest.json"
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


# ---- synthetic cohorts ------------------------------------------------------

@dataclass(frozen=True)
class UserProfile:
    user_id: str
    height_m: float
    amp_m: float
    freq_hz: float
    tremor_m: float
    rot_amp_rad: float
    rot_freq_hz: float
    ul_rate_hz: float
    dl_rate_hz: float
    ul_size_mean: float
    ul_size_std: float
    dl_size_mean: float
    dl_size_std: float


@dataclass(frozen=True)
class GameProfile:
    """Per-game modifiers applied on top of each user profile."""

    game_id: str
    category: str = "fast"
    amp_scale: float = 1.0
    freq_scale: float = 1.0
    ul_rate_scale: float = 1.0
    dl_rate_scale: float = 1.0


HEIGHT_RANGE = (1.50, 1.95)
FREQ_RANGE = (0.5, 2.5)
UL_RATE_RANGE = (50.0, 200.0)
DL_RATE_RANGE = (200.0, 1000.0)


def _spread(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2.0])


def default_profiles(n_users: int) -> list[UserProfile]:
    """Evenly spread user parameters across the documented ranges.

    Heights span 1.50-1.95 m, so adjacent users differ by 0.45/(n-1) m
    (exactly 5 cm for the default 10-user cohort).
    """
    heights = _spread(*HEIGHT_RANGE, n_users)
    freqs = _spread(*FREQ_RANGE, n_users)
    amps = _spread(0.15, 0.40, n_users)
    rot_amps = _spread(0.20, 0.60, n_users)
    rot_freqs = _spread(0.10, 0.40, n_users)
    ul_rates = _spread(*UL_RATE_RANGE, n_users)
    dl_rates = _spread(*DL_RATE_RANGE, n_users)
    ul_means = _spread(120.0, 320.0, n_users)
    dl_means = _spread(600.0, 1200.0, n_users)
    width = max(2, len(str(n_users - 1)))
    return [
        UserProfile(
            user_id=f"user{i:0{width}d}",
            height_m=float(heights[i]),
            amp_m=float(amps[i]),
            freq_hz=float(freqs[i]),
            tremor_m=0.004,
            rot_amp_rad=float(rot_amps[i]),
            rot_freq_hz=float(rot_freqs[i]),
            ul_rate_hz=float(ul_rates[i]),
            dl_rate_hz=float(dl_rates[i]),
            ul_size_mean=float(ul_means[i]),
            ul_size_std=40.0,
            dl_size_mean=float(dl_means[i]),
            dl_size_std=150.0,
        )
        for i in range(n_users)
    ]


# Fixed sinusoid phase offsets per device. Phases must never be random: a
# random constant that holds for a whole trace would mark every window of
# that trace, making same-parameter traces (clone cohorts, identical games)
# distinguishable when they should not be. Fixed offsets still keep the head
# and the two controllers out of lockstep with each other.
_DEVICE_PHASES = {
    "head": (0.0, 1.1, 0.0, 2.3),
    "left": (0.0, 2.6, 1.7, 3.9),
    "right": (1.6, 5.0, 0.4, 2.8),
}


def _smooth_noise(rng: np.random.Generator, n: int, sigma: float, span: int = 31) -> np.ndarray:
    """Zero-mean wander with ~0.5 s correlation: moving-averaged white noise.

    The short memory matters: window means a full window apart are
    independent draws, so wander carries no trace-level signature.
    """
    kernel = np.full(span, 1.0 / span)
    white = rng.normal(0.0, sigma * math.sqrt(span), n)
    return np.convolve(white, kernel, mode="same")


def _synth_movement(
    profile: UserProfile, game: GameProfile, duration_s: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    t = np.arange(n) / SAMPLE_RATE_HZ
    amp = profile.amp_m * game.amp_scale
    freq = profile.freq_hz * game.freq_scale
    two_pi = 2.0 * math.pi

    def tremor(size: int) -> np.ndarray:
        return rng.normal(0.0, profile.tremor_m, size)

    channels = np.empty((n, len(MOVEMENT_CHANNELS)))
    # Head: short-memory wander around (0, height, 0), tremor on every axis.
    ph = _DEVICE_PHASES["head"]
    channels[:, 0] = _smooth_noise(rng, n, 0.05) + tremor(n)
    channels[:, 1] = profile.height_m + 0.01 * np.sin(two_pi * 0.25 * t + ph[1]) + tremor(n)
    channels[:, 2] = _smooth_noise(rng, n, 0.05) + tremor(n)
    yaw = profile.rot_amp_rad * np.sin(two_pi * profile.rot_freq_hz * t + ph[3])
    yaw = yaw + rng.normal(0.0, 0.01, n)
    channels[:, 3] = np.cos(yaw / 2.0)
    channels[:, 4] = 0.0
    channels[:, 5] = np.sin(yaw / 2.0)
    channels[:, 6] = 0.0
    # Controllers: sinusoidal sweeps around shoulder-height rest positions.
    shoulder_y = 0.82 * profile.height_m
    reach = 0.22 * profile.height_m
    for side, base in (("left", 7), ("right", 14)):
        sign = -1.0 if side == "left" else 1.0
        ph = _DEVICE_PHASES[side]
        channels[:, base + 0] = (
            sign * reach + amp * np.sin(two_pi * freq * t + ph[0]) + tremor(n)
        )
        channels[:, base + 1] = (
            shoulder_y + 0.6 * amp * np.sin(two_pi * 0.7 * freq * t + ph[1]) + tremor(n)
        )
        channels[:, base + 2] = (
            -0.30 - 0.4 * amp * np.cos(two_pi * freq * t + ph[2]) + tremor(n)
        )
        cyaw = 1.2 * profile.rot_amp_rad * np.sin(two_pi * profile.rot_freq_hz * t + ph[3])
        cyaw = cyaw + rng.normal(0.0, 0.01, n)
        channels[:, base + 3] = np.cos(cyaw / 2.0)
        channels[:, base + 4] = 0.0
        channels[:, base + 5] = np.sin(cyaw / 2.0)
        channels[:, base + 6] = 0.0
    return t, channels


def _synth_traffic(
    profile: UserProfile, game: GameProfile, duration_s: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    parts = []
    for rate, mean, std, code in (
        (profile.ul_rate_hz * game.ul_rate_scale, profile.ul_size_mean, profile.ul_size_std, DIR_UL),
        (profile.dl_rate_hz * game.dl_rate_scale, profile.dl_size_mean, profile.dl_size_std, DIR_DL),
    ):
        count = rng.poisson(rate * duration_s)
        times = np.sort(rng.uniform(0.0, duration_s, count))
        sizes = np.maximum(1, np.rint(rng.normal(mean, std, count))).astype(np.int64)
        parts.append((times, sizes, np.full(count, code, dtype=np.uint8)))
    t = np.concatenate([p[0] for p in parts])
    order = np.argsort(t, kind="stable")
    return (
        t[order],
        np.concatenate([p[1] for p in parts])[order],
        np.concatenate([p[2] for p in parts])[order],
    )


def generate_synthetic_cohort(
    n_users: int,
    minutes: float = 10.0,
    seed: int = 0,
    clone: bool = False,
    games: Sequence[GameProfile] = (GameProfile(game_id="game_a", category="fast"),),
    profiles: Sequence[UserProfile] | None = None,
) -> Dataset:
    """Deterministic synthetic cohort: one trace per (user, game).

    Given the same arguments the output is bit-identical (Philox streams
    keyed by (user index, game index) under the cohort seed). ``clone``
    replaces every user's parameters with the middle profile's, keeping ids
    and leaving only noise to distinguish users.
    """
    if n_users < 2:
        raise ValueError(f"a cohort needs at least 2 users, got {n_users}")
    if not 0 < minutes <= sys.float_info.max:
        raise ValueError(f"minutes must be a finite positive number, got {minutes}")
    if not games:
        raise ValueError("at least one game profile is required")
    if profiles is None:
        profiles = default_profiles(n_users)
    elif len(profiles) != n_users:
        raise ValueError(f"got {len(profiles)} profiles for {n_users} users")
    if clone:
        mid = profiles[len(profiles) // 2]
        profiles = [replace(mid, user_id=p.user_id) for p in profiles]
    duration = minutes * 60.0
    traces = []
    for u, prof in enumerate(profiles):
        for g, game in enumerate(games):
            rng = philox_stream(seed, (u, g))
            mt, mv = _synth_movement(prof, game, duration, rng)
            tt, ts, td = _synth_traffic(prof, game, duration, rng)
            traces.append(
                Trace(
                    user_id=prof.user_id,
                    game_id=game.game_id,
                    duration_s=duration,
                    movement_t=mt,
                    movement=mv,
                    traffic_t=tt,
                    traffic_size=ts,
                    traffic_dir=td,
                )
            )
    return Dataset(traces=traces, game_categories={g.game_id: g.category for g in games})
