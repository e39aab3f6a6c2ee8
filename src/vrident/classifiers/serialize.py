"""Versioned JSON persistence for fitted models.

The on-disk object is self-describing: a format-version field, then the
model kind, seed, frozen label order, feature count, hyperparameters
(``param_names``) and the model's own fitted_state(). An ensemble stores
its members instead. Floats pass through json's repr round trip, so a load
returns bit-identical weights. Loading a file whose format version differs
from MODEL_FORMAT_VERSION, or whose model lacks or adds a key, is an error.
"""
from __future__ import annotations

import inspect
import json

import numpy as np

from ..ingest import atomic_write_text
from .boosting import GradientBoosting
from .ensemble import SoftVotingEnsemble
from .gaussian import QuadraticDiscriminant
from .logistic import LogisticOneVsRest
from .trees import ExtraTrees, RandomForest

MODEL_FORMAT_VERSION = 1

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
        **model.fitted_state(),
    }


def _model_from(state: dict):
    kind = state["kind"]
    if kind == "ensemble":
        ens = SoftVotingEnsemble([_model_from(m) for m in state["members"]])
        ens._sync_labels()
        return ens
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    cls = MODEL_CLASSES[kind]
    try:
        params = state["params"]
        for name in sorted(set(params) ^ set(cls.param_names)):
            problem = "unknown" if name in params else "missing"
            raise ValueError(f"{kind} model file: {problem} param {name!r}")
        # a saved param the constructor does not take is one the kind fixes
        accepted = inspect.signature(cls).parameters
        model = cls(seed=state["seed"], **{k: v for k, v in params.items() if k in accepted})
        for name, value in params.items():
            if name not in accepted and getattr(model, name) != value:
                raise ValueError(
                    f"{kind} model file: param {name!r} is {value!r}, "
                    f"but {kind} fixes it at {getattr(model, name)!r}"
                )
        labels = state["labels"]
        model.labels_ = np.array(labels["values"], dtype=np.dtype(labels["dtype"]))
        model.n_features_ = state["n_features"]
        model.restore(state)
    except KeyError as exc:
        raise ValueError(f"{kind} model file: missing key {exc.args[0]!r}") from None
    return model


def save_model(model, path: str) -> None:
    obj = {"format_version": MODEL_FORMAT_VERSION, "model": _model_obj(model)}
    atomic_write_text(path, json.dumps(obj))


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"model file has format version {version!r}, "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    return _model_from(obj["model"])
