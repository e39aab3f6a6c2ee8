"""Core data model for paired VR telemetry captures.

A capture session ("trace") couples two synchronized streams for one user in
one game: headset/controller poses sampled at a nominal 60 Hz, and the packet
stream observed on the network link. Everything downstream works on fixed
accumulation windows cut from a shared, re-based time axis, so this module
owns the time handling: re-basing, quaternion canonicalization, windowing,
the dropout filter, and the chronological train/test split. A window is a
slice between two row bounds of ``window_cuts``, not an object.

Array conventions: movement data is stored as an (n, 21) float array whose
columns follow MOVEMENT_CHANNELS (head, left controller, right controller;
position xyz then quaternion wxyz for each). Packet data is three parallel
arrays (time, size, direction) with direction encoded as DIR_UL / DIR_DL.
Both streams' timestamps are non-decreasing. A cohort (``Dataset``) is a
list of traces, each carrying its user and game ids.

This module holds the whole value contract of a cohort: ``Trace.check`` and
``Dataset`` refuse, by name, every value a cohort file cannot hold, so
``ingest`` only reads and writes.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

SAMPLE_RATE_HZ = 60.0
DEFAULT_WINDOW_S = 10.0
DEFAULT_TRAIN_S = 480.0
DEFAULT_TEST_S = 120.0

#: Fraction of nominal movement samples a window must contain to be usable.
DROPOUT_MIN_FRACTION = 0.5

DIR_UL = 0
DIR_DL = 1

DEVICES = ("head", "left", "right")
POSE_FIELDS = ("px", "py", "pz", "qw", "qx", "qy", "qz")

#: Column order of the movement array: 3 devices x 7 pose fields = 21.
MOVEMENT_CHANNELS: tuple[str, ...] = tuple(
    f"{dev}_{f}" for dev in DEVICES for f in POSE_FIELDS
)

_DEV_BASE = {dev: 7 * i for i, dev in enumerate(DEVICES)}
POSITION_SLICES = {dev: slice(b, b + 3) for dev, b in _DEV_BASE.items()}
QUATERNION_SLICES = {dev: slice(b + 3, b + 7) for dev, b in _DEV_BASE.items()}
#: Column indices of the vertical (y) position channel per device.
Y_CHANNEL_INDEX = {dev: b + 1 for dev, b in _DEV_BASE.items()}

#: Reference forward direction in device-local coordinates.
FORWARD_AXIS = np.array([0.0, 0.0, -1.0])

#: Device pairs used for derived distance/angle channels, in feature order.
GEOMETRY_PAIRS = (("left", "head"), ("right", "head"), ("left", "right"))

# Norm handling in canonical_movement: norms this close to 1 are
# treated as exactly unit (keeps the operation idempotent), norms below the
# floor are corrupt data.
_UNIT_NORM_TOL = 1e-12
_ZERO_NORM_FLOOR = 1e-9


class TraceFormatError(ValueError):
    """Malformed input file or record (bad header, column, value...)."""


class TraceQualityError(ValueError):
    """Structurally valid data that fails a quality requirement."""


class SplitError(ValueError):
    """A trace cannot satisfy the requested train/test layout."""


#: The game categories a cohort tags its games with.
GAME_CATEGORIES = ("fast", "slow")

# What a cohort file can hold. The trace CSVs print every float as '%.6f' does,
# which is exact only while |x| * 10**6 < 2**52, and every size as '%d'; the
# reader takes dirs UL and DL only and a manifest's duration_s only when > 0.
# A Trace refuses everything else, so any trace that constructs can be written
# and read back.

#: The smallest double with |x| * 10**6 >= 2**52; 2**52 / 10**6 rounds below it.
_FLOAT_LIMIT = 4503599627.370497
_SIZE_LIMIT = 10**18
_FLOAT_RULE = "below 2**52 / 10**6 in magnitude"

#: Trace's array fields: dtype, the open interval that holds their values,
#: and what a refusal says a value must be
_TRACE_ARRAYS = {
    "movement_t": (np.float64, -_FLOAT_LIMIT, _FLOAT_LIMIT, _FLOAT_RULE),
    "movement": (np.float64, -_FLOAT_LIMIT, _FLOAT_LIMIT, _FLOAT_RULE),
    "traffic_t": (np.float64, -_FLOAT_LIMIT, _FLOAT_LIMIT, _FLOAT_RULE),
    "traffic_size": (np.int64, 0, _SIZE_LIMIT, "an integer in [1, 10**18)"),
    "traffic_dir": (np.uint8, DIR_UL - 1, DIR_DL + 1, f"DIR_UL ({DIR_UL}) or DIR_DL ({DIR_DL})"),
}

#: what an id must not hold: a cohort names each trace's CSVs
#: ``<user>_<game>_...``, and a separator would put them in another directory
_PATH_RULE = "must not contain '/', '\\' or NUL"


def _escapes_dir(id_: str) -> bool:
    return any(c in id_ for c in "/\\\0")


@dataclass
class Trace:
    """One user's paired movement + traffic capture for one game.

    Timestamps are re-based so t=0 is the earliest event across both streams
    (see :meth:`assemble`). ``duration_s`` is the capture length used for
    windowing; it may exceed the last timestamp (a 600 s capture's final
    movement sample sits at 599.98333 s). A trace holds only what a cohort
    file can hold; :meth:`check` lists the rules.

    The arrays are read-only views of the ones given (converted first when
    their dtype differs); the caller's arrays keep their own write flags,
    and a caller that writes into one afterwards changes the trace under
    its memo, so build a new trace instead.
    ``_features`` is ``features.build_features``' memo of this trace's
    feature blocks; a ``dataclasses.replace`` copy starts with an empty one,
    and so does an unpickled trace, whose arrays are read-only again
    (pickle does not keep the flag).
    """

    user_id: str
    game_id: str
    duration_s: float
    movement_t: np.ndarray
    movement: np.ndarray
    traffic_t: np.ndarray
    traffic_size: np.ndarray
    traffic_dir: np.ndarray
    _features: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _TRACE_ARRAYS:
            setattr(self, name, self._read_only(name, getattr(self, name)))
        if self.movement.ndim != 2 or self.movement.shape[1] != len(MOVEMENT_CHANNELS):
            raise TraceFormatError(
                f"movement array must be (n, {len(MOVEMENT_CHANNELS)}), got {self.movement.shape}"
            )
        if self.movement_t.shape[0] != self.movement.shape[0]:
            raise TraceFormatError("movement timestamps and rows disagree in length")
        if not (self.traffic_t.shape[0] == self.traffic_size.shape[0] == self.traffic_dir.shape[0]):
            raise TraceFormatError("traffic arrays disagree in length")
        self.check()

    def _read_only(self, name: str, values) -> np.ndarray:
        """``values`` as a read-only view of ``name``'s dtype; a value that the
        conversion to an integer dtype would change is refused as given."""
        dtype = _TRACE_ARRAYS[name][0]
        given = np.asarray(values)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to int
            view = given.astype(dtype, copy=False).view()
        if view.dtype.kind in "iu" and given.dtype != view.dtype:
            changed = np.argwhere(view != given)
            if changed.size:
                self._refuse(name, given, changed[0])
        view.flags.writeable = False
        return view

    def _refuse(self, name: str, values: np.ndarray, index) -> None:
        index = tuple(index)
        channel = f", channel {MOVEMENT_CHANNELS[index[1]]}," if len(index) == 2 else ""
        value = values[index].item()
        why = f"is {value!r}, must be {_TRACE_ARRAYS[name][3]}"
        if isinstance(value, float) and not math.isfinite(value):
            why = f"is not finite ({value!r})"
        raise TraceFormatError(
            f"trace {self.user_id}/{self.game_id}: {name} sample {index[0]}{channel} {why}"
        )

    def check(self) -> None:
        """Refuse what a cohort file cannot hold, naming the trace, and the
        sample, channel and value: an id that is not a str or that holds '/',
        '\\' or NUL; a ``duration_s`` that is not a finite int or float > 0
        (a bool is not); a float that is not finite with |x| * 10**6 < 2**52
        (about 4.5e9); a size outside [1, 10**18); a dir other than DIR_UL or
        DIR_DL; a stream whose timestamps go back.

        Construction runs it; ``ingest.write_cohort`` runs it again, because
        a caller can make the arrays writable and change them in place.
        """
        for name in ("user_id", "game_id"):
            id_ = getattr(self, name)
            if not isinstance(id_, str) or _escapes_dir(id_):
                where = f"trace {self.user_id!r}/{self.game_id!r}"
                raise TraceFormatError(f"{where}: {name} must be a str and {_PATH_RULE}")
        where = f"trace {self.user_id}/{self.game_id}"
        d = self.duration_s
        # a manifest holds it as a JSON number, and takes no bool
        if isinstance(d, bool) or not isinstance(d, (int, float)) or not 0 < d < math.inf:
            raise TraceFormatError(f"{where}: duration_s must be a finite number > 0, got {d!r}")
        for name, (_, lo, hi, _) in _TRACE_ARRAYS.items():
            values = getattr(self, name)
            # the extremes settle an interval, and a NaN is its own extreme
            if values.size and not (lo < values.min() and values.max() < hi):
                self._refuse(name, values, np.argwhere(~((values > lo) & (values < hi)))[0])
        for name in ("movement_t", "traffic_t"):
            t = getattr(self, name)
            back = np.flatnonzero(t[1:] < t[:-1])
            if back.size:
                raise TraceFormatError(
                    f"{where}: {name} goes back in time at sample {int(back[0]) + 1}"
                )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_features": {}}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in _TRACE_ARRAYS:
            setattr(self, name, self._read_only(name, state[name]))

    @classmethod
    def assemble(
        cls,
        user_id: str,
        game_id: str,
        movement_t: np.ndarray,
        movement: np.ndarray,
        traffic_t: np.ndarray,
        traffic_size: np.ndarray,
        traffic_dir: np.ndarray,
        duration_s: float | None = None,
    ) -> "Trace":
        """Build a trace, re-basing both streams to a shared t=0.

        The offset is the minimum first timestamp across the two streams, so
        their relative alignment is preserved. When ``duration_s`` is not
        given it falls back to the last re-based timestamp.
        """
        movement_t = np.asarray(movement_t, dtype=np.float64)
        traffic_t = np.asarray(traffic_t, dtype=np.float64)
        firsts = [a[0] for a in (movement_t, traffic_t) if a.size]
        if not firsts:
            raise TraceFormatError(f"trace {user_id}/{game_id} has no samples in either stream")
        offset = min(firsts)
        movement_t = movement_t - offset
        traffic_t = traffic_t - offset
        if duration_s is None:
            duration_s = max(a[-1] for a in (movement_t, traffic_t) if a.size)
        return cls(
            user_id=user_id,
            game_id=game_id,
            duration_s=float(duration_s),
            movement_t=movement_t,
            movement=np.asarray(movement, dtype=np.float64),
            traffic_t=traffic_t,
            traffic_size=traffic_size,
            traffic_dir=traffic_dir,
        )

    @property
    def n_movement(self) -> int:
        return self.movement.shape[0]


@dataclass
class Dataset:
    """A cohort: one trace per (user, game), each naming its own ids, plus
    per-game category tags. ``traces`` keeps the order it was given in."""

    traces: list[Trace]
    game_categories: dict[str, str]

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Refuse what a manifest cannot hold: no traces, a game id that fails
        the trace id rule, a category not in GAME_CATEGORIES, a trace whose
        game has no category, two traces of one (user, game). Construction
        runs it, and ``ingest.write_cohort`` runs it again."""
        if not self.traces:
            raise ValueError("a cohort needs at least one trace")
        for game, category in self.game_categories.items():
            if not isinstance(game, str) or _escapes_dir(game):
                raise ValueError(f"game {game!r}: the id must be a str and {_PATH_RULE}")
            if category not in GAME_CATEGORIES:
                raise ValueError(
                    f"game {game!r}: category must be one of {GAME_CATEGORIES}, got {category!r}"
                )
        seen = set()
        for t in self.traces:
            key = (t.user_id, t.game_id)
            if key in seen:
                raise ValueError(f"duplicate trace for user {t.user_id!r} game {t.game_id!r}")
            seen.add(key)
            if t.game_id not in self.game_categories:
                raise ValueError(f"game {t.game_id!r} has no category entry")

    def game_ids(self) -> list[str]:
        return sorted({t.game_id for t in self.traces})

    def for_game(self, game_id: str) -> list[Trace]:
        """The game's traces sorted by user id, whatever order ``traces`` holds."""
        traces = sorted((t for t in self.traces if t.game_id == game_id), key=lambda t: t.user_id)
        if not traces:
            raise ValueError(f"no traces for game {game_id!r}")
        return traces


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) ``v`` by unit quaternion(s) ``q`` (wxyz order).

    ``q`` may be (4,) or (n, 4); ``v`` may be (3,) or (n, 3); shapes
    broadcast. Uses v' = v + w*(2 u x v) + u x (2 u x v) with u the vector
    part, which needs no trig and no matrix build.
    """
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = q[..., :1]
    u = q[..., 1:]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def forward_vectors(quats: np.ndarray) -> np.ndarray:
    """Device forward direction(s): FORWARD_AXIS rotated by the pose quaternion."""
    return quat_rotate(quats, FORWARD_AXIS)


def _canonical_signs(quats: np.ndarray) -> np.ndarray:
    """Sign flips giving a temporally continuous, first-sample-positive stream.

    The first sample must have w >= 0 (tie broken by qx >= 0, then qy, qz);
    every later sample must satisfy dot(q_i, q_{i-1}) >= 0 against the
    already-flipped predecessor. Because dot(-a, -b) = dot(a, b), the flip of
    sample i is the running product of the raw consecutive dot-product signs,
    which vectorizes.
    """
    first = quats[0]
    lead = 1.0
    for comp in first:
        if comp != 0.0:
            lead = 1.0 if comp > 0.0 else -1.0
            break
    if quats.shape[0] == 1:
        return np.array([lead])
    dots = np.einsum("ij,ij->i", quats[1:], quats[:-1])
    step = np.where(dots < 0.0, -1.0, 1.0)
    signs = np.empty(quats.shape[0])
    signs[0] = lead
    np.cumprod(step, out=signs[1:])
    signs[1:] *= lead
    return signs


def canonical_movement(trace: Trace) -> np.ndarray:
    """A new copy of ``trace.movement`` with every quaternion stream canonical.

    Per device stream: renormalize to unit length (norms already within
    1e-12 of 1 are left bit-identical, which makes the operation exactly
    idempotent), then resolve the q/-q ambiguity by temporal continuity with
    a fixed sign convention for the first sample. A norm below 1e-9 is
    corrupt data and raises TraceQualityError naming the sample index.

    The represented rotations are unchanged: q and -q rotate identically.
    """
    if trace.n_movement == 0:
        raise TraceQualityError(f"trace {trace.user_id}/{trace.game_id} has no movement samples")
    movement = trace.movement.copy()
    for dev in DEVICES:
        sl = QUATERNION_SLICES[dev]
        quats = movement[:, sl]
        norms = np.sqrt(np.einsum("ij,ij->i", quats, quats))
        bad = np.flatnonzero(norms < _ZERO_NORM_FLOOR)
        if bad.size:
            raise TraceQualityError(
                f"zero-norm {dev} quaternion at sample {int(bad[0])} "
                f"in trace {trace.user_id}/{trace.game_id}"
            )
        scale = np.where(np.abs(norms - 1.0) <= _UNIT_NORM_TOL, 1.0, norms)
        quats = quats / scale[:, None]
        quats *= _canonical_signs(quats)[:, None]
        movement[:, sl] = quats
    return movement


def window_cuts(trace: Trace, window_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Row bounds of a trace's whole windows (see :func:`whole_windows`), as
    (m_cuts, p_cuts): window i holds movement rows m_cuts[i]:m_cuts[i+1] and
    packets p_cuts[i]:p_cuts[i+1].

    Window i covers [i*window_s, (i+1)*window_s) on the re-based time axis;
    membership is half-open, so a sample sitting exactly on a boundary
    belongs to the later window. The trailing partial window is dropped.
    """
    edges = np.arange(whole_windows(trace.duration_s, window_s) + 1, dtype=np.float64) * window_s
    return (
        np.searchsorted(trace.movement_t, edges, side="left"),
        np.searchsorted(trace.traffic_t, edges, side="left"),
    )


def kept_windows(trace: Trace, m_cuts: np.ndarray, window_s: float) -> np.ndarray:
    """Ascending numbers of the windows that hold enough movement samples to
    be trusted, logging each window dropped.

    The bar is DROPOUT_MIN_FRACTION of the nominal count
    SAMPLE_RATE_HZ * window_s (300 for a 10 s window); windows at or above
    it pass.
    """
    bar = DROPOUT_MIN_FRACTION * SAMPLE_RATE_HZ * window_s
    counts = np.diff(m_cuts)
    for i in np.flatnonzero(counts < bar):
        log.warning(
            "dropping window %d of trace %s/%s: %d movement samples (< %d required)",
            i, trace.user_id, trace.game_id, counts[i], math.ceil(bar),
        )
    return np.flatnonzero(counts >= bar)


#: Relative tolerance within which a span counts as a whole number of windows.
_SPAN_REL_TOL = 1e-9


def whole_windows(span: float, window_s: float) -> int:
    """Number of whole windows in ``span``: floor(span / window_s), except
    that a ratio within a relative 1e-9 of an integer counts as that integer,
    because decimal spans are inexact in binary: 0.3 / 0.1 is
    2.9999999999999996. A ``window_s`` that is not a finite positive number
    raises ValueError.
    """
    if not 0 < window_s < math.inf:  # NaN fails the comparison too
        raise ValueError(f"window_s must be a finite positive number, got {window_s}")
    ratio = span / window_s
    nearest = round(ratio)
    return nearest if math.isclose(ratio, nearest, rel_tol=_SPAN_REL_TOL) else math.floor(ratio)


def windows_in_span(name: str, span: float, window_s: float) -> int:
    """Number of windows in ``span``, which must be a positive whole multiple
    of ``window_s`` under the tolerance of :func:`whole_windows`."""
    count = whole_windows(span, window_s) if 0 < span < math.inf else 0
    if count < 1 or not math.isclose(span / window_s, count, rel_tol=_SPAN_REL_TOL):
        raise ValueError(f"{name}={span} is not a positive multiple of window_s={window_s}")
    return count


def split_train_test(
    trace: Trace,
    train_s: float = DEFAULT_TRAIN_S,
    test_s: float = DEFAULT_TEST_S,
    window_s: float = DEFAULT_WINDOW_S,
) -> tuple[range, range]:
    """Chronological split of a trace's windows, as window numbers: train =
    the windows inside [0, train_s), test = the windows inside
    [train_s, train_s + test_s).

    Both spans must be positive multiples of the window length, and the
    trace must hold that many whole windows. Callers keep a window when its
    number (an entry of ``TraceFeatures.window_index``) is in a range;
    comparing float start times instead would, for spans such as 0.9 s of 0.3 s windows, put a
    boundary window on the wrong side.
    """
    n_train = windows_in_span("train_s", train_s, window_s)
    n_test = windows_in_span("test_s", test_s, window_s)
    if n_train + n_test > whole_windows(trace.duration_s, window_s):
        needed = train_s + test_s
        raise SplitError(
            f"trace {trace.user_id}/{trace.game_id} lasts {trace.duration_s:.3f} s; "
            f"train+test needs {needed:.3f} s ({needed - trace.duration_s:.3f} s short)"
        )
    return range(n_train), range(n_train, n_train + n_test)
