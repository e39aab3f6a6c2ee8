"""Experiment harness: identification runs, rolling-vote accuracy, user-count
scaling, cross-game transfer, game recognition, and report emission.

All entry points are deterministic for a fixed spec, dataset, and seed; the
JSON writer sorts keys so identical runs produce byte-identical reports.
"""
from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classifiers import MODEL_KINDS, boosting, make_model
from .core import (
    DEFAULT_TEST_S,
    DEFAULT_TRAIN_S,
    DEFAULT_WINDOW_S,
    Dataset,
    Trace,
    split_train_test,
    whole_windows,
)
from .features import DEFAULT_BIN_S, FEATURE_SETS, MinMaxScaler, build_features, feature_names
from .ingest import atomic_write_text

#: Users per unit of the subset curve; subset sizes are multiples of it.
SUBSET_UNIT = 5
DEFAULT_SUBSET_SIZES = (5, 10, 15, 20, 25, 30)


# ---- metrics ----------------------------------------------------------------

def _label_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise ValueError(
            f"label arrays must be 1-D and equal length, got {y_true.shape} and {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("label arrays are empty")
    return y_true, y_pred


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact matches."""
    y_true, y_pred = _label_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def macro_f1(y_true, y_pred, labels=None) -> float:
    """Unweighted mean of per-label F1; empty precision/recall count as 0."""
    y_true, y_pred = _label_pair(y_true, y_pred)
    if labels is None:
        labels = np.unique(y_true)
    else:
        labels = np.asarray(labels)
        missing = set(np.unique(y_true)) - set(labels)
        if missing:
            raise ValueError(f"labels must cover all true values; missing {sorted(missing)}")
    scores = []
    for lab in labels:
        tp = float(np.sum((y_true == lab) & (y_pred == lab)))
        n_pred = float(np.sum(y_pred == lab))
        n_true = float(np.sum(y_true == lab))
        scores.append(_precision_recall_f1(tp, n_pred, n_true)[2])
    return float(np.mean(scores))


def _precision_recall_f1(tp: float, n_pred: float, n_true: float) -> tuple[float, float, float]:
    """Precision, recall and F1 of one label's counts; an empty ratio counts as 0."""
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_true if n_true else 0.0
    denom = precision + recall
    return precision, recall, 2.0 * precision * recall / denom if denom else 0.0


def confusion_matrix(y_true, y_pred, labels) -> np.ndarray:
    """(k, k) count matrix, rows = true label, columns = predicted label."""
    y_true, y_pred = _label_pair(y_true, y_pred)
    labels = np.asarray(labels)
    index = {lab: i for i, lab in enumerate(labels.tolist())}
    out = np.zeros((labels.shape[0], labels.shape[0]), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        if t not in index or p not in index:
            raise ValueError(f"label pair ({t!r}, {p!r}) outside the label set")
        out[index[t], index[p]] += 1
    return out


def per_label_metrics(confusion: np.ndarray, labels) -> dict[str, dict[str, float]]:
    out = {}
    for i, lab in enumerate(np.asarray(labels).tolist()):
        tp = float(confusion[i, i])
        n_pred = float(confusion[:, i].sum())
        n_true = float(confusion[i, :].sum())
        precision, recall, f1 = _precision_recall_f1(tp, n_pred, n_true)
        out[str(lab)] = {"precision": precision, "recall": recall, "f1": f1}
    return out


# ---- experiment specification ------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment cell: which game, which feature set, which model."""

    game_id: str
    feature_set: str = "combined"
    model_kind: str = "extra_trees"
    seed: int = 0
    train_s: float = DEFAULT_TRAIN_S
    test_s: float = DEFAULT_TEST_S
    window_s: float = DEFAULT_WINDOW_S
    bin_s: float = DEFAULT_BIN_S
    vote_k: int = 1
    model_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        feature_names(self.feature_set)  # validates the name
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(
                f"unknown model kind {self.model_kind!r}; expected one of {MODEL_KINDS}"
            )
        if self.vote_k < 1 or self.vote_k % 2 == 0:
            raise ValueError(f"vote_k must be odd and >= 1, got {self.vote_k}")
        whole_windows(0.0, self.window_s)  # raises unless window_s is finite and positive


@dataclass(frozen=True)
class PredictionStream:
    """Temporally ordered test predictions of a single trace."""

    true_label: str
    preds: np.ndarray  # (n,) predicted labels
    probas: np.ndarray  # (n, k) rows follow ``labels``
    labels: np.ndarray  # (k,) sorted label order


@dataclass
class EvaluationReport:
    spec: ExperimentSpec
    labels: tuple[str, ...]
    accuracy: float
    macro_f1: float
    vote_accuracy: float
    confusion: np.ndarray
    per_label: dict[str, dict[str, float]]
    train_counts: dict[str, int]
    test_counts: dict[str, int]
    streams: list[PredictionStream]


# ---- core evaluation ---------------------------------------------------------

def _trace_split(spec: ExperimentSpec, trace: Trace):
    """(train rows, test rows) of one trace's feature matrix, each in window
    order: the kept windows whose numbers fall in the split's ranges."""
    spans = split_train_test(trace, spec.train_s, spec.test_s, spec.window_s)
    feats = build_features(trace, spec.feature_set, spec.window_s, spec.bin_s)
    index = feats.window_index
    return tuple(feats.values[(index >= r.start) & (index < r.stop)] for r in spans)


def _identification_entries(spec: ExperimentSpec, dataset: Dataset):
    """(user id, train rows, test rows) for every trace of the spec's game,
    sorted by user id."""
    traces = dataset.for_game(spec.game_id)
    if len(traces) < 2:
        raise ValueError(f"identification needs at least 2 users, got {len(traces)}")
    return [(t.user_id, *_trace_split(spec, t)) for t in traces]


def _scaled_matrices(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled (X_train, y_train, X_test, y_test) of (label, train rows, test
    rows) entries, rows in entry order. The label is a user id for
    identification and a game id for game recognition; the scaler is fitted
    on the training rows only."""
    distinct = sorted({label for label, _, _ in entries})
    if len(distinct) < 2:
        raise ValueError(f"evaluation needs at least 2 distinct labels, got {len(distinct)}")
    y_train = np.array([label for label, rows, _ in entries for _ in range(len(rows))])
    y_test = np.array([label for label, _, rows in entries for _ in range(len(rows))])
    untrained = sorted(set(y_test.tolist()) - set(y_train.tolist()))
    if untrained:
        raise ValueError(
            f"no training windows survived windowing for {', '.join(map(repr, untrained))}, "
            "which the model would be tested on"
        )
    if not y_train.size:
        raise ValueError("no training windows survived windowing")
    if not y_test.size:
        raise ValueError("no test windows survived windowing")
    train = np.vstack([rows for _, rows, _ in entries])
    test = np.vstack([rows for _, _, rows in entries])
    scaler = MinMaxScaler().fit(train)
    return scaler.transform(train), y_train, scaler.transform(test), y_test


def _evaluate(spec: ExperimentSpec, entries) -> EvaluationReport:
    """Fit and score one cell on the entries of :func:`_scaled_matrices`."""
    X_train, y_train, X_test, y_test = _scaled_matrices(entries)
    model = make_model(spec.model_kind, seed=spec.seed, **spec.model_params)
    model.fit(X_train, y_train)
    probas = model.predict_proba(X_test)
    preds = model.labels_[np.argmax(probas, axis=1)]

    train_counts: dict[str, int] = {}
    test_counts: dict[str, int] = {}
    streams = []
    stop = 0
    for label, train, test in entries:
        train_counts[label] = train_counts.get(label, 0) + len(train)
        test_counts[label] = test_counts.get(label, 0) + len(test)
        start, stop = stop, stop + len(test)
        if stop > start:
            streams.append(
                PredictionStream(
                    true_label=label,
                    preds=preds[start:stop],
                    probas=probas[start:stop],
                    labels=model.labels_,
                )
            )
    labels = tuple(str(lab) for lab in model.labels_.tolist())
    conf = confusion_matrix(y_test, preds, model.labels_)
    return EvaluationReport(
        spec=spec,
        labels=labels,
        accuracy=accuracy(y_test, preds),
        macro_f1=macro_f1(y_test, preds, model.labels_),
        vote_accuracy=majority_vote_eval(streams, spec.vote_k),
        confusion=conf,
        per_label=per_label_metrics(conf, model.labels_),
        train_counts=train_counts,
        test_counts=test_counts,
        streams=streams,
    )


def run_identification(spec: ExperimentSpec, dataset: Dataset) -> EvaluationReport:
    """Per-window user identification for one (game, feature set, model) cell:
    chronological train/test split per trace, scaler fitted on train rows."""
    return _evaluate(spec, _identification_entries(spec, dataset))


def cell_matrices(
    spec: ExperimentSpec, dataset: Dataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled (X_train, y_train, X_test, y_test) for one identification cell,
    exactly the matrices run_identification fits and scores."""
    return _scaled_matrices(_identification_entries(spec, dataset))


def majority_vote_eval(streams: list[PredictionStream], k: int) -> float:
    """Accuracy of rolling majority votes over k consecutive test windows.

    Every stride-1 position of every stream casts one vote: the plurality
    label of the k window predictions, ties resolved by the largest summed
    predicted probability over the position, then by lowest label index.
    k=1 reproduces plain per-window accuracy.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"vote window k must be odd and >= 1, got {k}")
    if not streams:
        raise ValueError("no prediction streams to vote over")
    correct = 0
    total = 0
    for stream in streams:
        n = stream.preds.shape[0]
        if k > n:
            raise ValueError(
                f"vote window k={k} exceeds the {n} test windows of the "
                f"{stream.true_label!r} stream"
            )
        idx = np.searchsorted(stream.labels, stream.preds)
        n_labels = stream.labels.shape[0]
        for start in range(n - k + 1):
            counts = np.bincount(idx[start : start + k], minlength=n_labels)
            top = counts.max()
            tied = counts == top
            if int(tied.sum()) == 1:
                winner = int(np.argmax(counts))
            else:
                sums = stream.probas[start : start + k].sum(axis=0)
                winner = int(np.argmax(np.where(tied, sums, -np.inf)))
            correct += bool(stream.labels[winner] == stream.true_label)
            total += 1
    return correct / total


# ---- scaling / transfer experiments -------------------------------------------

@dataclass
class SubsetResult:
    unit: int
    sizes: tuple[int, ...]
    group_users: dict[int, list[tuple[str, ...]]]
    group_accuracy: dict[int, list[float]]
    mean_accuracy: dict[int, float]


def user_subset_experiment(
    spec: ExperimentSpec,
    dataset: Dataset,
    sizes=DEFAULT_SUBSET_SIZES,
    unit: int = SUBSET_UNIT,
    full_report: EvaluationReport | None = None,
) -> SubsetResult:
    """Mean identification accuracy as the user count grows.

    Users sort into fixed units of ``unit``; size m*unit evaluates the
    cyclically contiguous unit groups (g, g+1, ..., g+m-1 mod n_units) for
    every starting unit g, so each size reports n_units groups. Duplicate
    user sets (the full-size group) are trained once and reported per group.

    ``full_report``, the :func:`run_identification` report of the same spec
    on the same dataset, supplies the all-users group's accuracy, which is
    then not fitted again.
    """
    entries = _identification_entries(spec, dataset)
    users = [user for user, _, _ in entries]
    if unit < 1 or len(users) % unit != 0:
        raise ValueError(f"user count {len(users)} is not divisible by unit {unit}")
    eval_cache: dict[tuple[str, ...], float] = {}
    if full_report is not None:
        if full_report.spec != spec or full_report.labels != tuple(users):
            raise ValueError(
                f"full_report is for {full_report.spec} with users {full_report.labels}, "
                f"not for {spec} with users {tuple(users)}"
            )
        eval_cache[tuple(users)] = full_report.accuracy
    n_units = len(users) // unit
    units = [tuple(users[i * unit : (i + 1) * unit]) for i in range(n_units)]
    split_cache = {user: (train, test) for user, train, test in entries}

    group_users: dict[int, list[tuple[str, ...]]] = {}
    group_accuracy: dict[int, list[float]] = {}
    mean_accuracy: dict[int, float] = {}
    for size in sizes:
        m, rem = divmod(size, unit)
        if rem or m < 1 or m > n_units:
            raise ValueError(
                f"size {size} is not a multiple of unit {unit} within {len(users)} users"
            )
        group_users[size] = []
        group_accuracy[size] = []
        for g in range(n_units):
            members = tuple(
                sorted(u for j in range(m) for u in units[(g + j) % n_units])
            )
            if members not in eval_cache:
                entries = [(u, *split_cache[u]) for u in members]
                eval_cache[members] = _evaluate(spec, entries).accuracy
            group_users[size].append(members)
            group_accuracy[size].append(eval_cache[members])
        mean_accuracy[size] = float(np.mean(group_accuracy[size]))
    return SubsetResult(
        unit=unit,
        sizes=tuple(sizes),
        group_users=group_users,
        group_accuracy=group_accuracy,
        mean_accuracy=mean_accuracy,
    )


def cross_game_eval(
    spec: ExperimentSpec, dataset: Dataset, train_game: str, test_game: str
) -> float:
    """Accuracy when fitting on one game and testing on another.

    Different games use every window of both traces (no chronological split;
    the games themselves separate train from test). The same game on both
    sides falls back to the standard split so no window is tested on a model
    that saw it.
    """
    if train_game == test_game:
        return run_identification(
            dataclasses.replace(spec, game_id=train_game), dataset
        ).accuracy
    train_traces, test_traces = dataset.for_game(train_game), dataset.for_game(test_game)
    users = [t.user_id for t in train_traces]
    if users != [t.user_id for t in test_traces]:
        raise ValueError(
            f"games {train_game!r} and {test_game!r} cover different user sets"
        )
    if len(users) < 2:
        raise ValueError(f"cross-game evaluation needs at least 2 users, got {len(users)}")

    def windows(trace):
        return build_features(trace, spec.feature_set, spec.window_s, spec.bin_s).values

    entries = [(a.user_id, windows(a), windows(b)) for a, b in zip(train_traces, test_traces)]
    return _evaluate(dataclasses.replace(spec, vote_k=1), entries).accuracy


def game_recognition_eval(spec: ExperimentSpec, dataset: Dataset) -> float:
    """Same pipeline and split, but the label is the game id."""
    games = dataset.game_ids()
    if len(games) < 2:
        raise ValueError(f"game recognition needs at least 2 games, got {len(games)}")
    entries = [(g, *_trace_split(spec, t)) for g in games for t in dataset.for_game(g)]
    return _evaluate(spec, entries).accuracy


# ---- experiment matrices -------------------------------------------------------

#: (cell, dataset) of a pool worker, set once per worker process by
#: _init_worker so the dataset is pickled per worker rather than per cell.
_WORKER_STATE: tuple = ()


def _init_worker(cell, dataset: Dataset, jobs: int) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (cell, dataset)
    boosting._jobs = jobs


def _run_worker_cell(spec: ExperimentSpec):
    cell, dataset = _WORKER_STATE
    return cell(spec, dataset)


def _result_or_exception(cell, spec: ExperimentSpec, dataset: Dataset):
    try:
        return cell(spec, dataset)
    except Exception as exc:  # noqa: BLE001 - one failing cell must not stop the rest
        return exc


def run_matrix(specs: list[ExperimentSpec], dataset: Dataset, jobs: int = 1, cell=None) -> list:
    """Run ``cell(spec, dataset)`` for every spec and return the results in
    spec order; ``cell`` defaults to :func:`run_identification`.

    A cell that raises does not stop the others: its slot holds the exception
    it raised instead of a result. Cells are independent, so jobs > 1 fans
    them out across processes, each of which receives the dataset once.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cell is None:
        cell = run_identification
    if jobs == 1 or len(specs) <= 1:
        return [_result_or_exception(cell, spec, dataset) for spec in specs]
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(cell, dataset, jobs)
    ) as pool:
        futures = [pool.submit(_run_worker_cell, spec) for spec in specs]
        return [future.exception() or future.result() for future in futures]


# ---- report emission -----------------------------------------------------------

def report_to_dict(report: EvaluationReport) -> dict:
    spec = dataclasses.asdict(report.spec)
    return {
        "spec": spec,
        "labels": list(report.labels),
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "vote_k": report.spec.vote_k,
        "vote_accuracy": report.vote_accuracy,
        "confusion": report.confusion.tolist(),
        "per_label": report.per_label,
        "train_windows": report.train_counts,
        "test_windows": report.test_counts,
        "n_train_windows": int(sum(report.train_counts.values())),
        "n_test_windows": int(sum(report.test_counts.values())),
        "streams": [
            {
                "true_label": s.true_label,
                "preds": s.preds.tolist(),
                "probas": s.probas.tolist(),
            }
            for s in report.streams
        ],
    }


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_confusion_csv(path: str, report: EvaluationReport) -> None:
    lines = ["true_label," + ",".join(report.labels)]
    for lab, row in zip(report.labels, report.confusion):
        lines.append(lab + "," + ",".join(str(int(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_table_csv(path: str, reports: list[EvaluationReport]) -> None:
    """Wide accuracy grid: one row per (game, model), one column per feature set."""
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for rep in reports:
        key = (rep.spec.game_id, rep.spec.model_kind)
        cells.setdefault(key, {})[rep.spec.feature_set] = rep.accuracy
    lines = ["game,model," + ",".join(FEATURE_SETS)]
    for (game, model), row in sorted(cells.items()):
        vals = [repr(row[fs]) if fs in row else "" for fs in FEATURE_SETS]
        lines.append(f"{game},{model}," + ",".join(vals))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_curve_csv(path: str, header: tuple[str, str], points) -> None:
    """Two-column series (voting curves, subset-scaling curves)."""
    lines = [",".join(header)]
    lines.extend(f"{x},{repr(float(y))}" for x, y in points)
    atomic_write_text(path, "\n".join(lines) + "\n")
