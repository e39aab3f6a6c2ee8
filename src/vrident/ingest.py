"""Trace I/O and synthetic cohort generation.

File formats
------------
Movement CSV: header ``t,head_px,...,right_qz`` (22 columns, verbatim), one
row per 60 Hz sample, floats printed with 6 fractional digits, UTF-8, LF
line endings. Traffic CSV: header ``t,size_bytes,dir``; ``dir`` is exactly
``UL`` or ``DL`` (case-sensitive) and sizes are integers >= 1. Timestamps
must be non-decreasing and finite in both files, and sizes fit in int64.
Parse errors name the offending 1-based line number; files written here
re-parse byte-identically.

Files of plain decimal ASCII rows are read in one ``np.loadtxt`` pass and
every other file line by line; both readers accept the same grammar and raise
the same error messages (see the parsing section below).

Manifest: a JSON file with ``games`` (id -> {"category": "fast"|"slow"})
and ``traces`` (user_id, game_id, movement/traffic paths relative to the
manifest, optional duration_s, a finite number > 0). duration_s exists
because the last sample timestamp undercounts the capture length by one
sample period.

Synthetic cohorts
-----------------
``generate_synthetic_cohort`` builds fully deterministic cohorts from the
Philox counter-based 64-bit generator (numpy), one stream per (user, game)
derived via SeedSequence spawn keys, so identical seeds reproduce identical
cohorts on any platform. Per-user parameters are evenly spaced across
documented ranges: head height 1.50-1.95 m, sweep frequency 0.5-2.5 Hz,
uplink 50-200 pkt/s, downlink 200-1000 pkt/s. Heads hover at the profile
height plus Gaussian tremor, controllers sweep sinusoidally, orientations
oscillate slowly about the vertical axis, and packets arrive as per-direction
Poisson processes with Gaussian sizes clamped to >= 1 byte. Clone mode gives
every user identical parameters but independent noise streams.
"""
from __future__ import annotations

import io
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    DIR_DL,
    DIR_UL,
    Dataset,
    MOVEMENT_CHANNELS,
    SAMPLE_RATE_HZ,
    Trace,
    TraceFormatError,
    TraceRecord,
)

MOVEMENT_HEADER = "t," + ",".join(MOVEMENT_CHANNELS)
TRAFFIC_HEADER = "t,size_bytes,dir"
GAME_CATEGORIES = ("fast", "slow")
_DIR_CODES = {"UL": DIR_UL, "DL": DIR_DL}


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` via a temp file + rename in the same directory."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---- parsing ----------------------------------------------------------------
#
# Each parser first reads the whole file in one ``np.loadtxt`` pass. That pass
# only takes files in a plain grammar on which it agrees with the per-line
# parser: the verbatim header, then rows of plain decimal ASCII with no blank
# line (loadtxt would skip one). Any other file, and any file whose fast read
# turns up a non-finite value, a decreasing timestamp, a size below 1 or a bad
# dir, goes to the per-line parser, the one source of every error message.
# ``comments=None`` keeps ``#`` from starting a comment: by default loadtxt
# reads ``1.0#x`` as 1.0, which float() rejects.

_MOVEMENT_BYTES = b"0123456789.-,\n"
_TRAFFIC_BYTES = _MOVEMENT_BYTES + b"DLU"
_TRAFFIC_ROW = np.dtype([("t", np.float64), ("size_bytes", np.int64), ("dir", "S3")])
_INT64_MAX = int(np.iinfo(np.int64).max)


def _read_trace_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TraceFormatError(f"{path}: file not found") from None


def _plain_rows(text: str, header: str, alphabet: bytes, dtype, ndmin: int) -> np.ndarray | None:
    """The data rows of ``text`` from one ``np.loadtxt`` pass, or None when
    ``text`` strays from the plain grammar or the pass rejects a row."""
    prefix = header + "\n"
    if not (text.startswith(prefix) and text.isascii()):
        return None
    body = text[len(prefix):].encode("ascii")
    if not body or body.startswith(b"\n") or b"\n\n" in body or body.translate(None, alphabet):
        return None
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "12.0" into an int column, with this warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                io.BytesIO(body), dtype=dtype, delimiter=",", comments=None, ndmin=ndmin
            )
    except (ValueError, DeprecationWarning):
        return None
    return rows


def _nondecreasing(t: np.ndarray) -> bool:
    return not (np.diff(t) < 0).any()


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
    text = _read_trace_text(path)
    rows = _plain_rows(text, MOVEMENT_HEADER, _MOVEMENT_BYTES, np.float64, ndmin=2)
    if (
        rows is None
        or rows.shape[1] != len(MOVEMENT_CHANNELS) + 1
        or not np.isfinite(rows).all()
        or not _nondecreasing(rows[:, 0])
    ):
        return _parse_movement_lines(path, text)
    return rows[:, 0], rows[:, 1:]


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
    text = _read_trace_text(path)
    rows = _plain_rows(text, TRAFFIC_HEADER, _TRAFFIC_BYTES, _TRAFFIC_ROW, ndmin=1)
    if rows is not None:
        t, size = rows["t"], rows["size_bytes"]
        ul = rows["dir"] == b"UL"
        if (
            (ul | (rows["dir"] == b"DL")).all()
            and (size >= 1).all()
            and np.isfinite(t).all()
            and _nondecreasing(t)
        ):
            return t.copy(), size.copy(), np.where(ul, DIR_UL, DIR_DL).astype(np.uint8)
    return _parse_traffic_lines(path, text)


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
# One %-format per row over Python numbers from .tolist(): '%.6f' % x and
# f"{x:.6f}" go through the same CPython float formatting, so the bytes are
# those of formatting each value on its own, for about half the time.

_DIR_ENDINGS = {DIR_UL: ",UL\n", DIR_DL: ",DL\n"}


def write_movement_csv(path: str | Path, movement_t: np.ndarray, movement: np.ndarray) -> None:
    rows = np.column_stack((movement_t, movement))
    row_format = ",".join(["%.6f"] * rows.shape[1]) + "\n"
    body = "".join([row_format % tuple(row) for row in rows.tolist()])
    atomic_write_text(path, MOVEMENT_HEADER + "\n" + body)


def write_traffic_csv(
    path: str | Path, traffic_t: np.ndarray, traffic_size: np.ndarray, traffic_dir: np.ndarray
) -> None:
    endings = [_DIR_ENDINGS[d] for d in traffic_dir.tolist()]
    rows = zip(traffic_t.tolist(), traffic_size.tolist(), endings)
    body = "".join(map("%.6f,%d%s".__mod__, rows))
    atomic_write_text(path, TRAFFIC_HEADER + "\n" + body)


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
        if item["game_id"] not in games:
            raise TraceFormatError(
                f"{path}: {where}: game {item['game_id']!r} not listed under 'games'"
            )
        key = (item["user_id"], item["game_id"])
        if key in seen:
            raise TraceFormatError(f"{path}: {where}: duplicate trace for {key}")
        seen.add(key)
        dur = item.get("duration_s")
        # json.loads takes NaN and Infinity, and bool is an int subclass
        if dur is not None and (
            isinstance(dur, bool)
            or not isinstance(dur, (int, float))
            or not 0 < dur <= sys.float_info.max
        ):
            raise TraceFormatError(
                f"{path}: {where}: duration_s must be a positive finite number, got {dur!r}"
            )
        entries.append(
            ManifestEntry(
                user_id=str(item["user_id"]),
                game_id=str(item["game_id"]),
                movement=str(item["movement"]),
                traffic=str(item["traffic"]),
                duration_s=None if dur is None else float(dur),
            )
        )
    return Manifest(games=games, entries=tuple(entries), root=path.parent)


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Parse every trace referenced by a manifest into an in-memory Dataset."""
    man = load_manifest(manifest_path)
    records = []
    for e in man.entries:
        mt, mv = parse_movement_csv(man.root / e.movement)
        tt, ts, td = parse_traffic_csv(man.root / e.traffic)
        trace = Trace.assemble(e.user_id, e.game_id, mt, mv, tt, ts, td, duration_s=e.duration_s)
        records.append(TraceRecord(user_id=e.user_id, game_id=e.game_id, trace=trace))
    return Dataset(records=records, game_categories=dict(man.games))


def write_cohort(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write every trace as CSV pairs plus a manifest.json; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = []
    for rec in dataset.records:
        stem = f"{rec.user_id}_{rec.game_id}"
        write_movement_csv(out / f"{stem}_movement.csv", rec.trace.movement_t, rec.trace.movement)
        write_traffic_csv(
            out / f"{stem}_traffic.csv",
            rec.trace.traffic_t,
            rec.trace.traffic_size,
            rec.trace.traffic_dir,
        )
        traces.append(
            {
                "user_id": rec.user_id,
                "game_id": rec.game_id,
                "movement": f"{stem}_movement.csv",
                "traffic": f"{stem}_traffic.csv",
                "duration_s": rec.trace.duration_s,
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
    if minutes <= 0:
        raise ValueError(f"minutes must be positive, got {minutes}")
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
    records = []
    for u, prof in enumerate(profiles):
        for g, game in enumerate(games):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(u, g)))
            )
            mt, mv = _synth_movement(prof, game, duration, rng)
            tt, ts, td = _synth_traffic(prof, game, duration, rng)
            trace = Trace(
                user_id=prof.user_id,
                game_id=game.game_id,
                duration_s=duration,
                movement_t=mt,
                movement=mv,
                traffic_t=tt,
                traffic_size=ts,
                traffic_dir=td,
            )
            records.append(TraceRecord(user_id=prof.user_id, game_id=game.game_id, trace=trace))
    return Dataset(
        records=records, game_categories={g.game_id: g.category for g in games}
    )
