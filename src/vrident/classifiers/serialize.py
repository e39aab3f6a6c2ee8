"""Versioned JSON persistence for fitted models.

The on-disk object is self-describing: a format-version field, then the
model kind, seed, frozen label order, feature count, hyperparameters
(``param_names``) and the model's fitted state (``state_names``), encoded
by ``_encoded``. An ensemble stores its members instead. Floats pass
through json's repr round trip, so a load returns bit-identical weights.
Loading a file whose format version differs from MODEL_FORMAT_VERSION, or
in which the top level, a model, its labels or a tree lacks or adds a key,
is an error, as are labels that are not strictly increasing (the order
``fit`` freezes), a seed or feature count that is not an integer, a
non-object where an object belongs and a non-list where a list belongs;
each error names the key.
"""
from __future__ import annotations

import inspect
import json

import numpy as np

from ..ingest import atomic_write_text
from .base import check_param_type, saved_list, saved_object
from .boosting import GradientBoosting
from .ensemble import SoftVotingEnsemble
from .gaussian import QuadraticDiscriminant
from .logistic import LogisticOneVsRest
from .trees import ExtraTrees, FlatTree, RandomForest

MODEL_FORMAT_VERSION = 2

# kind -> class, in MODEL_KINDS order; "ensemble" is built from these
MODEL_CLASSES = {
    cls.kind: cls
    for cls in (
        LogisticOneVsRest,
        QuadraticDiscriminant,
        RandomForest,
        ExtraTrees,
        GradientBoosting,
    )
}


#: keys of a single model's object before its ``state_names``
_MODEL_KEYS = ("kind", "seed", "labels", "n_features", "params")


def _encoded(value):
    """A fitted attribute as JSON values: arrays and trees as nested lists
    and objects, lists element by element, anything else as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, FlatTree):
        return value.to_json()
    if isinstance(value, list):
        return [_encoded(v) for v in value]
    return value


def _model_obj(model) -> dict:
    if model.kind == "ensemble":
        return {"kind": model.kind, "members": [_model_obj(m) for m in model.members]}
    if model.labels_ is None:
        raise ValueError(f"cannot serialize an unfitted {model.kind} model")
    return {
        "kind": model.kind,
        "seed": model.seed,
        "labels": {"dtype": str(model.labels_.dtype), "values": model.labels_.tolist()},
        "n_features": model.n_features_,
        "params": {name: getattr(model, name) for name in model.param_names},
        **{name: _encoded(getattr(model, f"{name}_")) for name in model.state_names},
    }


def _labels_from(labels, kind: str) -> np.ndarray:
    """The frozen label order: strictly increasing, as ``fit`` leaves it."""
    where = f"{kind} model file: 'labels'"
    saved_object(where, labels, ("dtype", "values"))
    try:
        values = np.array(labels["values"], dtype=np.dtype(labels["dtype"]))
        increasing = values.ndim == 1 and values.size >= 2 and (values[1:] > values[:-1]).all()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not increasing:
        raise ValueError(
            f"{where} must hold at least 2 strictly increasing labels, got {labels['values']!r}"
        )
    return values


def _model_from(state):
    if not isinstance(state, dict):
        raise ValueError(f"model file: 'model' must be an object, got {type(state).__name__}")
    kind = state.get("kind")
    if kind == "ensemble":
        saved_object("ensemble model file", state, ("kind", "members"))
        members = saved_list("ensemble model file: 'members'", state["members"])
        return SoftVotingEnsemble([_model_from(m) for m in members])
    if not isinstance(kind, str) or kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    cls = MODEL_CLASSES[kind]
    where = f"{kind} model file"
    saved_object(where, state, _MODEL_KEYS + cls.state_names)
    params = state["params"]
    if not isinstance(params, dict):
        raise ValueError(f"{where}: 'params' must be an object, got {type(params).__name__}")
    check_param_type(state["seed"], int, f"{where}: 'seed'")
    check_param_type(state["n_features"], int, f"{where}: 'n_features'")
    if state["n_features"] < 1:
        raise ValueError(f"{where}: 'n_features' must be >= 1, got {state['n_features']!r}")
    for name in sorted(set(params) ^ set(cls.param_names)):
        problem = "unknown" if name in params else "missing"
        raise ValueError(f"{where}: {problem} param {name!r}")
    # a saved param the constructor does not take is one the kind fixes
    accepted = inspect.signature(cls).parameters
    model = cls(seed=state["seed"], **{k: v for k, v in params.items() if k in accepted})
    for name, value in params.items():
        if name not in accepted and getattr(model, name) != value:
            raise ValueError(
                f"{where}: param {name!r} is {value!r}, "
                f"but {kind} fixes it at {getattr(model, name)!r}"
            )
    model.labels_ = _labels_from(state["labels"], kind)
    model.n_features_ = state["n_features"]
    model.restore(state)
    return model


def save_model(model, path: str) -> None:
    obj = {"format_version": MODEL_FORMAT_VERSION, "model": _model_obj(model)}
    atomic_write_text(path, json.dumps(obj))


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(obj).__name__}")
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"model file has format version {version!r}, "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    saved_object("model file", obj, ("format_version", "model"))
    return _model_from(obj["model"])
