"""Span recorder and per-layer metrics for the benchmark.

Spans are recorded from outside the program: ``install`` replaces each public
function of a layer, under every module name its callers look it up by, with
a wrapper that records a span around the call. ``uninstall`` puts the
originals back. Nothing in ``src/`` knows about tracing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

MODEL_KINDS = ("logistic", "qda", "random_forest", "extra_trees", "gbm")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans of one phase (a set-up pass or one operation)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), float("nan"), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


# ---- attribute hooks: run after the wrapped call, outside its span --------------

def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _read_bytes(span, bound, result) -> None:
    span.attrs["bytes"] = _dir_bytes(Path(bound.arguments["manifest_path"]).parent)


def _written_bytes(span, bound, result) -> None:
    span.attrs["bytes"] = _dir_bytes(Path(result).parent)


def _windows(span, bound, result) -> None:
    trace, window_s = bound.arguments["trace"], bound.arguments["window_s"]
    span.attrs["windows"] = len(result)
    span.attrs["dropped"] = int(trace.duration_s // window_s) - len(result)


def _rows(span, bound, result) -> None:
    span.attrs["rows"] = len(bound.arguments["X"])


def _file_bytes(span, bound, result) -> None:
    span.attrs["bytes"] = os.path.getsize(bound.arguments["path"])


# (owner, attribute, span name, hook). The owner is a module or "module:Class";
# a function imported into several modules is patched under each name, since
# a caller looks it up in its own module. A span name containing "{kind}" is
# filled from the model the method is called on.
_WRITERS = (
    "write_confusion_csv",
    "write_curve_csv",
    "write_table_csv",
    "write_json",
    "write_attribution_csv",
    "atomic_write_text",
)
TARGETS = (
    [(m, "load_dataset", "ingest.load_dataset", _read_bytes) for m in ("vrident.ingest", "vrident.cli")]
    + [(m, "write_cohort", "ingest.write_cohort", _written_bytes) for m in ("vrident.ingest", "vrident.cli")]
    + [
        (m, "generate_synthetic_cohort", "ingest.generate_synthetic_cohort", None)
        for m in ("vrident.ingest", "vrident.cli")
    ]
    + [
        (m, "build_features", "features.build_features", _windows)
        for m in ("vrident.features", "vrident.evaluation", "vrident.cli")
    ]
    + [
        ("vrident.features:MinMaxScaler", "fit", "features.MinMaxScaler", None),
        ("vrident.features:MinMaxScaler", "transform", "features.MinMaxScaler", None),
        ("vrident.classifiers.base:Classifier", "fit", "classifiers.{kind}.fit", None),
        ("vrident.classifiers.base:Classifier", "predict_proba", "classifiers.{kind}.predict_proba", _rows),
    ]
    + [
        (m, f, f"evaluation.{f}", None)
        for m in ("vrident.evaluation", "vrident.cli")
        for f in ("run_identification", "user_subset_experiment", "majority_vote_eval", "cell_matrices")
    ]
    + [
        (m, "shapley_attribution", "importance.shapley_attribution", None)
        for m in ("vrident.importance", "vrident.cli")
    ]
    + [("vrident.cli", f, "cli.outputs", _file_bytes) for f in _WRITERS]
    + [("vrident.cli", "main", "cli.main", None)]
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(recorder: Recorder, fn, name: str, hook):
    signature = inspect.signature(fn)
    per_kind = "{kind}" in name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name.format(kind=args[0].kind) if per_kind else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(span)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(span, bound, result)
        return result

    return wrapper


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Patch every target to record into ``recorder``; returns the undo list."""
    undo = []
    for owner, attr, name, hook in TARGETS:
        obj = _resolve(owner)
        original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
        undo.append((obj, attr, original))
        setattr(obj, attr, _wrap(recorder, original, name, hook))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)


# ---- per-layer metrics ------------------------------------------------------------

#: Name and unit of every per-layer metric, in print order.
PER_LAYER: dict[str, str] = {
    "ingest.load_dataset.s": "s",
    "ingest.load_dataset.mb_per_s": "MB/s",
    "ingest.write_cohort.s": "s",
    "ingest.write_cohort.mb_per_s": "MB/s",
    "ingest.generate_synthetic_cohort.s": "s",
    "features.build_features.calls": "count",
    "features.build_features.s": "s",
    "features.build_features.windows": "count",
    "features.windows_dropped": "count",
    "features.MinMaxScaler.s": "s",
    **{
        f"classifiers.{kind}.{metric}": unit
        for kind in MODEL_KINDS
        for metric, unit in (
            ("fit.s", "s"),
            ("fit.calls", "count"),
            ("predict_proba.s", "s"),
            ("predict_proba.rows", "count"),
        )
    },
    "evaluation.run_identification.self_s": "s",
    "evaluation.user_subset_experiment.self_s": "s",
    "evaluation.majority_vote_eval.s": "s",
    "evaluation.majority_vote_eval.calls": "count",
    "importance.shapley_attribution.self_s": "s",
    "importance.shapley_attribution.model_rows": "count",
    "importance.model_rows_per_s": "1/s",
    "cli.outputs.s": "s",
    "cli.outputs.bytes": "bytes",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def _under(spans: list[Span], i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def phase_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one phase's spans. Every metric is present; a
    layer the phase never entered reads 0. ``process.cpu_s`` and
    ``trace.overhead_s`` are filled in by the caller."""
    own = self_times(spans)
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for span, s_self in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        selft[span.name] = selft.get(span.name, 0.0) + s_self
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            attrs[f"{span.name}.{key}"] = attrs.get(f"{span.name}.{key}", 0) + value
    shapley_rows = sum(
        span.attrs.get("rows", 0)
        for i, span in enumerate(spans)
        if span.name.endswith(".predict_proba") and _under(spans, i, "importance.shapley_attribution")
    )

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    out = {
        "ingest.load_dataset.s": total.get("ingest.load_dataset", 0.0),
        "ingest.load_dataset.mb_per_s": rate(
            attrs.get("ingest.load_dataset.bytes", 0) / 1e6, total.get("ingest.load_dataset", 0.0)
        ),
        "ingest.write_cohort.s": total.get("ingest.write_cohort", 0.0),
        "ingest.write_cohort.mb_per_s": rate(
            attrs.get("ingest.write_cohort.bytes", 0) / 1e6, total.get("ingest.write_cohort", 0.0)
        ),
        "ingest.generate_synthetic_cohort.s": total.get("ingest.generate_synthetic_cohort", 0.0),
        "features.build_features.calls": calls.get("features.build_features", 0),
        "features.build_features.s": total.get("features.build_features", 0.0),
        "features.build_features.windows": attrs.get("features.build_features.windows", 0),
        "features.windows_dropped": attrs.get("features.build_features.dropped", 0),
        "features.MinMaxScaler.s": total.get("features.MinMaxScaler", 0.0),
    }
    for kind in MODEL_KINDS:
        fit, proba = f"classifiers.{kind}.fit", f"classifiers.{kind}.predict_proba"
        out[f"{fit}.s"] = total.get(fit, 0.0)
        out[f"{fit}.calls"] = calls.get(fit, 0)
        out[f"{proba}.s"] = total.get(proba, 0.0)
        out[f"{proba}.rows"] = attrs.get(f"{proba}.rows", 0)
    out.update(
        {
            "evaluation.run_identification.self_s": selft.get("evaluation.run_identification", 0.0),
            "evaluation.user_subset_experiment.self_s": selft.get("evaluation.user_subset_experiment", 0.0),
            "evaluation.majority_vote_eval.s": total.get("evaluation.majority_vote_eval", 0.0),
            "evaluation.majority_vote_eval.calls": calls.get("evaluation.majority_vote_eval", 0),
            "importance.shapley_attribution.self_s": selft.get("importance.shapley_attribution", 0.0),
            "importance.shapley_attribution.model_rows": shapley_rows,
            "importance.model_rows_per_s": rate(
                shapley_rows, total.get("importance.shapley_attribution", 0.0)
            ),
            "cli.outputs.s": total.get("cli.outputs", 0.0),
            "cli.outputs.bytes": attrs.get("cli.outputs.bytes", 0),
            "process.cpu_s": 0.0,
            "trace.overhead_s": 0.0,
        }
    )
    return out


def median_metrics(phases: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in phases) for name in PER_LAYER}
