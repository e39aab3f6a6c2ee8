"""Per-window feature engineering.

Every accumulation window is summarized by the same 7 statistics
(mean, min, max, q25, q50, q75, std) applied to different base series:

* movement: 21 pose channels x {raw, vel, acc} plus 6 derived geometry
  channels (inter-device distances and forward-vector angles, raw only)
  -> 441 + 42 = 483 features;
* traffic: 4 per-bin series (mean packet size, byte volume, uplink count,
  downlink count over 1 s bins) -> 28 features;
* combined: movement then traffic -> 511.

``build_features`` works a trace at a time: windows are row bounds from
``core.window_cuts``, and the traffic bins of every window are counted in
one pass over the trace's packets. It memoizes on the trace its window
cuts per ``window_s``, its movement block per (``window_s``, height mode),
the geometry statistics both height modes share per ``window_s``, and its
traffic block per (``window_s``, ``bin_s``), so each is computed once per
trace and ``combined`` is the concatenation of the two blocks.
The memo cannot go stale because a ``Trace`` holds read-only arrays.

Feature names are stable and ordered: ``mv.head_py.vel.q75``,
``tr.ul_count.raw.std``. std is the population standard deviation.

Quantiles interpolate linearly at rank (n-1)*p (Hyndman & Fan type 7,
numpy's default). Each column is sorted once; min and max are the ends of
the sorted copy and each quantile combines its two neighbouring order
statistics with numpy's own interpolation formula, so every statistic
equals ``np.quantile`` / ``min`` / ``max`` bit for bit. The one place the
sorted copy cannot decide the bits is the sign of a zero picked from a
column holding both +0.0 and -0.0 (they compare equal, so any order of them
is sorted); such columns take numpy's own values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_WINDOW_S,
    DIR_UL,
    GEOMETRY_PAIRS,
    MOVEMENT_CHANNELS,
    POSITION_SLICES,
    QUATERNION_SLICES,
    SAMPLE_RATE_HZ,
    Trace,
    Y_CHANNEL_INDEX,
    canonical_movement,
    forward_vectors,
    kept_windows,
    whole_windows,
    window_cuts,
)
from .ingest import atomic_write_text

STAT_NAMES = ("mean", "min", "max", "q25", "q50", "q75", "std")
DERIVATIVE_NAMES = ("raw", "vel", "acc")
TRAFFIC_SERIES = ("pkt_size", "bytes", "ul_count", "dl_count")
DEFAULT_BIN_S = 1.0

GEOMETRY_CHANNELS = tuple(f"dist_{a}_{b}" for a, b in GEOMETRY_PAIRS) + tuple(
    f"ang_{a}_{b}" for a, b in GEOMETRY_PAIRS
)


_QUANTILES = (0.25, 0.5, 0.75)


def _order_stats(m: np.ndarray) -> np.ndarray:
    """(min, max, q25, q50, q75) of each column of an (n, k) matrix, as (k, 5).

    One sort per column. Quantile q interpolates the order statistics a and b
    at floor(v) and floor(v)+1, v = (n-1)*q, by weight t = v - floor(v), with
    numpy's ``_lerp`` formula: b - (b-a)*(1-t) when t >= 0.5, else a + (b-a)*t.
    For n == 1 numpy reads rank -1 with weight 1, and so does this.
    """
    n, k = m.shape
    s = m.T.copy()  # C order: each column becomes one contiguous lane
    s.sort(axis=1)
    lo = [min(math.floor((n - 1) * q), n - 2) for q in _QUANTILES]
    t = np.array([(n - 1) * q - i for q, i in zip(_QUANTILES, lo)])
    ends_ab = s[:, [0, n - 1, *lo, *(i + 1 for i in lo)]]
    a, b = ends_ab[:, 2:5], ends_ab[:, 5:]
    out = np.empty((k, 5))
    out[:, :2] = ends_ab[:, :2]
    out[:, 2:] = np.where(t >= 0.5, b - (b - a) * (1.0 - t), a + (b - a) * t)
    # Only a zero result can depend on the signs of equal zeros. In a column
    # holding both, the sort may even turn one sign into the other (its
    # min/max network returns either operand of a tie), and numpy's values
    # follow its own partition, so such columns take those.
    cand = np.flatnonzero((out == 0.0).any(axis=1))
    if cand.size:
        cols = m[:, cand]
        zeros = cols == 0.0
        neg_zeros = zeros & np.signbit(cols)
        if neg_zeros.any():
            mixed = cand[neg_zeros.any(axis=0) & (zeros & ~neg_zeros).any(axis=0)]
            if mixed.size:
                qs = np.quantile(m, _QUANTILES, axis=0)
                out[mixed] = np.stack([m.min(axis=0), m.max(axis=0), *qs], axis=1)[mixed]
    return out


def _stats_columns(m: np.ndarray) -> np.ndarray:
    """Per-column summary stats of an (n, k) matrix, returned as (k, 7)."""
    out = np.empty((m.shape[1], 7))
    out[:, 0] = m.mean(axis=0)
    out[:, 1:6] = _order_stats(m)
    out[:, 6] = m.std(axis=0)
    return out


# ---- derived geometry -------------------------------------------------------

def geometry_channels(movement: np.ndarray) -> np.ndarray:
    """Derived geometry series for (n, 21) movement rows, as (n, 6).

    Columns: Euclidean distances for the device pairs in GEOMETRY_PAIRS,
    then the angle between the two devices' forward vectors (quaternion
    rotation of the local forward axis) for the same pairs, in [0, pi].
    """
    pos = {dev: movement[:, POSITION_SLICES[dev]] for dev in ("head", "left", "right")}
    unit = {}
    for dev in pos:
        fwd = forward_vectors(movement[:, QUATERNION_SLICES[dev]])
        unit[dev] = fwd / np.linalg.norm(fwd, axis=1, keepdims=True)
    cols = [np.linalg.norm(pos[a] - pos[b], axis=1) for a, b in GEOMETRY_PAIRS]
    for a, b in GEOMETRY_PAIRS:
        dots = np.clip(np.einsum("ij,ij->i", unit[a], unit[b]), -1.0, 1.0)
        cols.append(np.arccos(dots))
    return np.stack(cols, axis=1)


# ---- feature names ----------------------------------------------------------

def _movement_names() -> tuple[str, ...]:
    names = [
        f"mv.{ch}.{deriv}.{stat}"
        for ch in MOVEMENT_CHANNELS
        for deriv in DERIVATIVE_NAMES
        for stat in STAT_NAMES
    ]
    names += [f"mv.{ch}.raw.{stat}" for ch in GEOMETRY_CHANNELS for stat in STAT_NAMES]
    return tuple(names)


def _traffic_names() -> tuple[str, ...]:
    return tuple(f"tr.{series}.raw.{stat}" for series in TRAFFIC_SERIES for stat in STAT_NAMES)


MOVEMENT_FEATURE_NAMES = _movement_names()
TRAFFIC_FEATURE_NAMES = _traffic_names()
COMBINED_FEATURE_NAMES = MOVEMENT_FEATURE_NAMES + TRAFFIC_FEATURE_NAMES


class FeatureSet(NamedTuple):
    movement: bool  # has the movement block, first
    traffic: bool  # has the traffic block, last
    norm_height: bool  # heights are normalized


#: Selectable feature sets, in summary-table order. The *_norm_height
#: variants divide each device's vertical position channel by its full-trace
#: mean before statistics (geometry still uses the unscaled positions);
#: names are unchanged.
FEATURE_SETS = {
    "movement": FeatureSet(True, False, False),
    "traffic": FeatureSet(False, True, False),
    "movement_norm_height": FeatureSet(True, False, True),
    "combined": FeatureSet(True, True, False),
    "combined_norm_height": FeatureSet(True, True, True),
}


def feature_names(feature_set: str) -> tuple[str, ...]:
    try:
        fs = FEATURE_SETS[feature_set]
    except KeyError:
        known = ", ".join(sorted(FEATURE_SETS))
        raise ValueError(f"unknown feature set {feature_set!r}; expected one of: {known}") from None
    return MOVEMENT_FEATURE_NAMES * fs.movement + TRAFFIC_FEATURE_NAMES * fs.traffic


# ---- per-trace blocks -------------------------------------------------------

def _geometry_block(movement, m_cuts, kept) -> np.ndarray:
    """(kept windows, 42) statistics of the geometry of ``movement`` (the
    trace's canonical movement rows, unscaled), computed once for all
    windows: the last columns of both height modes' movement blocks."""
    geo = geometry_channels(movement)
    out = np.empty((kept.shape[0], len(GEOMETRY_CHANNELS) * len(STAT_NAMES)))
    for row, i in zip(out, kept):
        row[:] = _stats_columns(geo[m_cuts[i] : m_cuts[i + 1]]).ravel()
    return out


def _movement_block(trace: Trace, rows, m_cuts, kept, geometry) -> np.ndarray:
    """(kept windows, 483) movement features in MOVEMENT_FEATURE_NAMES order,
    from ``rows`` (the trace's canonical movement rows, heights scaled or
    not) and the window statistics of their ``geometry`` (_geometry_block).
    Each window needs >= 3 samples so the second derivative is non-empty
    (the dropout filter guarantees far more at the default window)."""
    out = np.empty((kept.shape[0], len(MOVEMENT_FEATURE_NAMES)))
    n_channel = out.shape[1] - geometry.shape[1]
    for row, i in zip(out, kept):
        lo, hi = m_cuts[i], m_cuts[i + 1]
        if hi - lo < 3:
            raise ValueError(
                f"window {i} of trace {trace.user_id}/{trace.game_id} "
                f"has {hi - lo} movement samples; need >= 3"
            )
        vel = np.diff(rows[lo:hi], axis=0) * SAMPLE_RATE_HZ
        acc = np.diff(vel, axis=0) * SAMPLE_RATE_HZ
        # (21, 3, 7): channel-major, derivative, then statistic, matching names.
        per_channel = np.stack(
            [_stats_columns(rows[lo:hi]), _stats_columns(vel), _stats_columns(acc)], axis=1
        )
        row[:n_channel] = per_channel.ravel()
    out[:, n_channel:] = geometry
    return out


def _bin_count(window_s: float, bin_s: float) -> int:
    """Traffic bins per window: window_s / bin_s, which must be a whole
    number of at least 1. A bad ``window_s`` gets whole_windows' message."""
    whole_windows(0.0, window_s)
    ratio = window_s / bin_s if bin_s > 0 else 0.0
    n_bins = int(round(ratio)) if math.isfinite(ratio) else 0
    if n_bins < 1 or abs(ratio - n_bins) > 1e-9:
        raise ValueError(f"bin_s={bin_s} does not evenly divide window_s={window_s}")
    return n_bins


def _traffic_block(trace: Trace, p_cuts, kept, window_s, bin_s, n_bins) -> np.ndarray:
    """(kept windows, 28) traffic features in TRAFFIC_FEATURE_NAMES order.

    Each window is cut into n_bins = window_s / bin_s half-open bins. Per
    bin: mean packet size over both directions (0 when the bin is empty),
    total bytes over both directions, uplink count, downlink count; each
    series is then summarized by the 7 stats, so a window with no packets
    yields all zeros. ``np.bincount`` over (window, bin) cells covers every
    window at once, adding each cell's packets in time order as a count per
    window would; ``rel`` is t - window * window_s, the same float as
    t minus the window's start edge.
    """
    counts = np.diff(p_cuts)
    n_windows, lo, hi = counts.shape[0], p_cuts[0], p_cuts[-1]
    rel = trace.traffic_t[lo:hi] - np.repeat(np.arange(n_windows) * window_s, counts)
    cell = np.clip(np.floor(rel / bin_s).astype(np.int64), 0, n_bins - 1)
    cell += np.repeat(np.arange(n_windows) * n_bins, counts)
    n_cells = n_windows * n_bins
    byte_vol = np.bincount(cell, weights=trace.traffic_size[lo:hi], minlength=n_cells)
    # one count over (cell, is downlink) pairs gives both directions
    pair = 2 * cell + (trace.traffic_dir[lo:hi] != DIR_UL)
    ul, dl = np.bincount(pair, minlength=2 * n_cells).reshape(n_cells, 2).T.astype(np.float64)
    count = ul + dl
    with np.errstate(invalid="ignore"):
        mean_size = np.where(count > 0, byte_vol / np.maximum(count, 1.0), 0.0)
    series = np.stack([mean_size, byte_vol, ul, dl], axis=1).reshape(-1, n_bins, 4)
    stats = [_stats_columns(series[i]).ravel() for i in kept]
    return np.array(stats).reshape(-1, len(TRAFFIC_FEATURE_NAMES))


def trace_height_scale(trace: Trace) -> np.ndarray:
    """Per-device full-trace mean of the vertical position channel.

    These are the divisors used by the *_norm_height feature sets. A mean
    indistinguishable from zero cannot scale anything and is rejected.
    """
    means = np.array(
        [trace.movement[:, Y_CHANNEL_INDEX[dev]].mean() for dev in ("head", "left", "right")]
    )
    if np.any(np.abs(means) < 1e-9):
        raise ValueError(
            f"trace {trace.user_id}/{trace.game_id}: a device's mean vertical position "
            "is zero; cannot height-normalize"
        )
    return means


@dataclass(frozen=True)
class TraceFeatures:
    """The features of one trace's kept windows: row i of ``values`` holds
    window ``window_index[i]``, which starts at ``window_index[i] * window_s``."""

    user_id: str
    game_id: str
    feature_set: str
    window_index: np.ndarray  # (windows,) int64, ascending
    values: np.ndarray  # (windows, d) float64, columns in feature_names order

    def __len__(self) -> int:
        return self.window_index.shape[0]


def _memo_entries(trace: Trace, keys, n_bins) -> dict:
    """The memo entries ``keys`` of a trace, those already in its memo
    included. keys[0] is ("kept", window_s) -> (m_cuts, p_cuts, kept); the
    rest are ("movement", window_s, normalized) and ("traffic", window_s,
    bin_s) -> feature block. A movement block also brings ("geometry",
    window_s), the geometry statistics both height modes share.
    Quaternions are canonicalized first, whatever the keys, so a corrupt
    trace raises on every call that misses."""
    movement = canonical_movement(trace)
    memo = trace._features
    window_s = keys[0][1]
    geo_key = ("geometry", window_s)
    entries = {key: memo[key] for key in (*keys, geo_key) if key in memo}
    if keys[0] not in entries:
        m_cuts, p_cuts = window_cuts(trace, window_s)
        entries[keys[0]] = (m_cuts, p_cuts, kept_windows(trace, m_cuts, window_s))
    m_cuts, p_cuts, kept = entries[keys[0]]
    for key in keys[1:]:
        if key in entries:
            continue
        if key[0] == "movement":
            rows = movement
            if key[2]:
                rows = rows.copy()
                rows[:, list(Y_CHANNEL_INDEX.values())] /= trace_height_scale(trace)
            if geo_key not in entries:
                entries[geo_key] = _geometry_block(movement, m_cuts, kept)
            entries[key] = _movement_block(trace, rows, m_cuts, kept, entries[geo_key])
        else:
            entries[key] = _traffic_block(trace, p_cuts, kept, window_s, key[2], n_bins)
    return entries


def build_features(
    trace: Trace,
    feature_set: str = "combined",
    window_s: float = DEFAULT_WINDOW_S,
    bin_s: float = DEFAULT_BIN_S,
) -> TraceFeatures:
    """Features of every usable window of a trace, one row per window.

    Pipeline: canonicalize quaternions, cut full windows as row bounds,
    drop (and log) windows failing the movement-sample dropout bar, then
    build the requested blocks for the kept windows: movement in the first
    483 columns, traffic in the last 28. Geometry and height scaling are
    per-row, so they run once on the whole trace and each window takes its
    rows of the result.

    The cuts and blocks are memoized on the trace (see the module
    docstring), so a dropped window is logged once per (trace, window_s).
    Each call returns new ``window_index`` and ``values`` arrays.
    """
    feature_names(feature_set)  # validates the name
    fs = FEATURE_SETS[feature_set]
    n_bins = _bin_count(window_s, bin_s) if fs.traffic else 0
    keys = [("kept", window_s)]
    if fs.movement:
        keys.append(("movement", window_s, fs.norm_height))
    if fs.traffic:
        keys.append(("traffic", window_s, bin_s))
    memo = trace._features
    if any(key not in memo for key in keys):
        memo.update(_memo_entries(trace, keys, n_bins))
    return TraceFeatures(
        user_id=trace.user_id,
        game_id=trace.game_id,
        feature_set=feature_set,
        window_index=memo[keys[0]][2].copy(),
        values=np.concatenate([memo[key] for key in keys[1:]], axis=1),
    )


# ---- scaling ----------------------------------------------------------------

class MinMaxScaler:
    """Per-feature min-max scaling to [0,1], fitted on training rows only.

    transform maps x to (x - min) / (max - min) without clamping, so unseen
    values land outside [0,1]. Features constant during fit map to 0.
    """

    def __init__(self) -> None:
        self.mins_: np.ndarray | None = None
        self.maxs_: np.ndarray | None = None

    def fit(self, X) -> "MinMaxScaler":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"fit needs a non-empty (n, d) matrix, got shape {X.shape}")
        self.mins_ = X.min(axis=0)
        self.maxs_ = X.max(axis=0)
        return self

    def transform(self, X) -> np.ndarray:
        if self.mins_ is None:
            raise ValueError("scaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.mins_.shape[0]:
            raise ValueError(
                f"expected {self.mins_.shape[0]} features, got matrix of shape {X.shape}"
            )
        span = self.maxs_ - self.mins_
        out = (X - self.mins_) / np.where(span > 0, span, 1.0)
        out[:, span == 0] = 0.0
        return out


# ---- output -----------------------------------------------------------------

def write_feature_csv(path: str, traces: list[TraceFeatures]) -> None:
    """Write a feature matrix as CSV: provenance columns then feature columns,
    one row per window of each trace in turn.

    All traces must come from the same feature set. The write is atomic
    (temp file + rename).
    """
    if not any(len(t) for t in traces):
        raise ValueError("no feature rows to write")
    sets = {t.feature_set for t in traces}
    if len(sets) > 1:
        raise ValueError(f"mixed feature sets in one matrix: {sorted(sets)}")
    lines = ["user_id,game_id,window_index," + ",".join(feature_names(sets.pop()))]
    for t in traces:
        for index, row in zip(t.window_index.tolist(), t.values.tolist()):
            lines.append(f"{t.user_id},{t.game_id},{index}," + ",".join(map(repr, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")
