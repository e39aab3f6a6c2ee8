"""Per-window feature engineering.

Every accumulation window is summarized by the same 7 statistics
(mean, min, max, q25, q50, q75, std) applied to different base series:

* movement: 21 pose channels x {raw, vel, acc} plus 6 derived geometry
  channels (inter-device distances and forward-vector angles, raw only)
  -> 441 + 42 = 483 features;
* traffic: 4 per-bin series (mean packet size, byte volume, uplink count,
  downlink count over 1 s bins) -> 28 features;
* combined: movement then traffic -> 511.

Feature names are stable and ordered: ``mv.head_py.vel.q75``,
``tr.ul_count.raw.std``. Quantiles interpolate linearly at rank (n-1)*p;
std is the population standard deviation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_WINDOW_S,
    DIR_UL,
    DROPOUT_MIN_FRACTION,
    GEOMETRY_PAIRS,
    MOVEMENT_CHANNELS,
    POSITION_SLICES,
    QUATERNION_SLICES,
    SAMPLE_RATE_HZ,
    Trace,
    WindowSegment,
    Y_CHANNEL_INDEX,
    canonicalize_quaternions,
    filter_windows,
    forward_vectors,
    window_trace,
)
from .ingest import atomic_write_text

STAT_NAMES = ("mean", "min", "max", "q25", "q50", "q75", "std")
DERIVATIVE_NAMES = ("raw", "vel", "acc")
TRAFFIC_SERIES = ("pkt_size", "bytes", "ul_count", "dl_count")
DEFAULT_BIN_S = 1.0

GEOMETRY_CHANNELS = tuple(f"dist_{a}_{b}" for a, b in GEOMETRY_PAIRS) + tuple(
    f"ang_{a}_{b}" for a, b in GEOMETRY_PAIRS
)


def summary_stats(values) -> tuple[float, ...]:
    """(mean, min, max, q25, q50, q75, std) of a non-empty 1-D series.

    Quantiles use linear interpolation at rank (n-1)*p on the sorted values;
    std is the population (not sample) standard deviation. Values are
    assumed finite.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"summary_stats needs a non-empty 1-D series, got shape {x.shape}")
    q25, q50, q75 = np.quantile(x, (0.25, 0.5, 0.75))
    return (
        float(x.mean()),
        float(x.min()),
        float(x.max()),
        float(q25),
        float(q50),
        float(q75),
        float(x.std()),
    )


def differential(values, dt: float = 1.0 / SAMPLE_RATE_HZ) -> np.ndarray:
    """Forward difference (x[i+1] - x[i]) / dt; output is one shorter.

    The step is the nominal sample period, not per-sample timestamp deltas.
    Apply twice for the second derivative.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.shape[0] < 2:
        raise ValueError("differential needs at least 2 samples")
    return np.diff(x, axis=0) / dt


def _stats_columns(m: np.ndarray) -> np.ndarray:
    """Per-column summary stats of an (n, k) matrix, returned as (k, 7)."""
    qs = np.quantile(m, (0.25, 0.5, 0.75), axis=0)
    return np.stack(
        [m.mean(axis=0), m.min(axis=0), m.max(axis=0), qs[0], qs[1], qs[2], m.std(axis=0)],
        axis=1,
    )


# ---- derived geometry -------------------------------------------------------

def geometry_channels(movement: np.ndarray) -> np.ndarray:
    """Derived geometry series for (n, 21) movement rows, as (n, 6).

    Columns: Euclidean distances for the device pairs in GEOMETRY_PAIRS,
    then the angle between the two devices' forward vectors (quaternion
    rotation of the local forward axis) for the same pairs, in [0, pi].
    """
    pos = {dev: movement[:, POSITION_SLICES[dev]] for dev in ("head", "left", "right")}
    fwd = {dev: forward_vectors(movement[:, QUATERNION_SLICES[dev]]) for dev in pos}
    cols = [np.linalg.norm(pos[a] - pos[b], axis=1) for a, b in GEOMETRY_PAIRS]
    for a, b in GEOMETRY_PAIRS:
        ua = fwd[a] / np.linalg.norm(fwd[a], axis=1, keepdims=True)
        ub = fwd[b] / np.linalg.norm(fwd[b], axis=1, keepdims=True)
        dots = np.clip(np.einsum("ij,ij->i", ua, ub), -1.0, 1.0)
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

#: Selectable feature sets. The *_norm_height variants divide each device's
#: vertical position channel by its full-trace mean before statistics
#: (geometry still uses the unscaled positions); names are unchanged.
FEATURE_SET_NAMES = {
    "movement": MOVEMENT_FEATURE_NAMES,
    "movement_norm_height": MOVEMENT_FEATURE_NAMES,
    "traffic": TRAFFIC_FEATURE_NAMES,
    "combined": COMBINED_FEATURE_NAMES,
    "combined_norm_height": COMBINED_FEATURE_NAMES,
}

_NORMALIZED_SETS = frozenset({"movement_norm_height", "combined_norm_height"})
_MOVEMENT_SETS = frozenset({"movement", "movement_norm_height", "combined", "combined_norm_height"})
_TRAFFIC_SETS = frozenset({"traffic", "combined", "combined_norm_height"})


def feature_names(feature_set: str) -> tuple[str, ...]:
    try:
        return FEATURE_SET_NAMES[feature_set]
    except KeyError:
        known = ", ".join(sorted(FEATURE_SET_NAMES))
        raise ValueError(f"unknown feature set {feature_set!r}; expected one of: {known}") from None


# ---- per-window extraction --------------------------------------------------

def movement_features(segment: WindowSegment, y_scale=None) -> np.ndarray:
    """483 movement features of one window, in MOVEMENT_FEATURE_NAMES order.

    ``y_scale``, when given, is the per-device (head, left, right) divisor
    applied to the vertical position channels before statistics; derived
    geometry always uses the unscaled positions. Needs >= 3 samples so the
    second derivative is non-empty (the dropout filter guarantees far more).
    """
    rows = segment.movement
    if rows.shape[0] < 3:
        raise ValueError(
            f"window {segment.index} of trace {segment.trace.user_id}/"
            f"{segment.trace.game_id} has {rows.shape[0]} movement samples; need >= 3"
        )
    geo = geometry_channels(rows)
    if y_scale is not None:
        rows = rows.copy()
        for i, dev in enumerate(("head", "left", "right")):
            rows[:, Y_CHANNEL_INDEX[dev]] /= y_scale[i]
    vel = np.diff(rows, axis=0) * SAMPLE_RATE_HZ
    acc = np.diff(vel, axis=0) * SAMPLE_RATE_HZ
    # (21, 3, 7): channel-major, derivative, then statistic, matching names.
    per_channel = np.stack(
        [_stats_columns(rows), _stats_columns(vel), _stats_columns(acc)], axis=1
    )
    return np.concatenate([per_channel.ravel(), _stats_columns(geo).ravel()])


def traffic_features(segment: WindowSegment, bin_s: float = DEFAULT_BIN_S) -> np.ndarray:
    """28 traffic features of one window, in TRAFFIC_FEATURE_NAMES order.

    The window is cut into window_s / bin_s half-open bins (the ratio must
    be a whole number). Per bin: mean packet size over both directions
    (0 when the bin is empty), total bytes over both directions, uplink
    count, downlink count; each series is then summarized by the 7 stats.
    A window with no packets yields all zeros.
    """
    ratio = segment.window_s / bin_s
    n_bins = int(round(ratio))
    if bin_s <= 0 or n_bins < 1 or abs(ratio - n_bins) > 1e-9:
        raise ValueError(f"bin_s={bin_s} does not evenly divide window_s={segment.window_s}")
    rel = segment.traffic_t - segment.t_start
    idx = np.clip(np.floor(rel / bin_s).astype(np.int64), 0, n_bins - 1)
    sizes = segment.traffic_size.astype(np.float64)
    byte_vol = np.bincount(idx, weights=sizes, minlength=n_bins)
    count = np.bincount(idx, minlength=n_bins).astype(np.float64)
    ul = np.bincount(idx[segment.traffic_dir == DIR_UL], minlength=n_bins).astype(np.float64)
    dl = count - ul
    with np.errstate(invalid="ignore"):
        mean_size = np.where(count > 0, byte_vol / np.maximum(count, 1.0), 0.0)
    series = np.stack([mean_size, byte_vol, ul, dl], axis=1)
    return _stats_columns(series).ravel()


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
class FeatureVector:
    """One window's features plus provenance."""

    user_id: str
    game_id: str
    window_index: int
    t_start: float
    feature_set: str
    values: np.ndarray

    @property
    def names(self) -> tuple[str, ...]:
        return feature_names(self.feature_set)


def build_features(
    trace: Trace,
    feature_set: str = "combined",
    window_s: float = DEFAULT_WINDOW_S,
    bin_s: float = DEFAULT_BIN_S,
    rate_hz: float = SAMPLE_RATE_HZ,
    min_fraction: float = DROPOUT_MIN_FRACTION,
) -> list[FeatureVector]:
    """Feature vectors for every usable window of a trace.

    Pipeline: canonicalize quaternions, cut full windows, drop (and log)
    windows failing the movement-sample dropout bar, then extract the
    requested feature set per surviving window.
    """
    feature_names(feature_set)  # validates the name
    canon = canonicalize_quaternions(trace)
    segments = filter_windows(window_trace(canon, window_s), rate_hz, min_fraction)
    y_scale = trace_height_scale(canon) if feature_set in _NORMALIZED_SETS else None

    out = []
    for seg in segments:
        parts = []
        if feature_set in _MOVEMENT_SETS:
            parts.append(movement_features(seg, y_scale))
        if feature_set in _TRAFFIC_SETS:
            parts.append(traffic_features(seg, bin_s))
        out.append(
            FeatureVector(
                user_id=trace.user_id,
                game_id=trace.game_id,
                window_index=seg.index,
                t_start=seg.t_start,
                feature_set=feature_set,
                values=np.concatenate(parts) if len(parts) > 1 else parts[0],
            )
        )
    return out


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

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


# ---- output -----------------------------------------------------------------

def write_feature_csv(path: str, vectors: list[FeatureVector]) -> None:
    """Write a feature matrix as CSV: provenance columns then feature columns.

    All vectors must come from the same feature set. The write is atomic
    (temp file + rename).
    """
    if not vectors:
        raise ValueError("no feature vectors to write")
    sets = {v.feature_set for v in vectors}
    if len(sets) > 1:
        raise ValueError(f"mixed feature sets in one matrix: {sorted(sets)}")
    lines = ["user_id,game_id,window_index," + ",".join(vectors[0].names)]
    for v in vectors:
        vals = ",".join(map(repr, v.values.tolist()))
        lines.append(f"{v.user_id},{v.game_id},{v.window_index},{vals}")
    atomic_write_text(path, "\n".join(lines) + "\n")
