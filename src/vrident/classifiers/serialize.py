"""Versioned JSON persistence for fitted models.

The on-disk object is self-describing: a format-version field, the model
kind, the frozen label order, the seed, hyperparameters, and the fitted
arrays. Floats pass through json's repr round trip, so a load returns
bit-identical weights. Loading a file whose format version differs from
MODEL_FORMAT_VERSION is an error.
"""
from __future__ import annotations

import json

import numpy as np

from ..ingest import atomic_write_text
from .base import Classifier
from .boosting import GradientBoosting
from .ensemble import SoftVotingEnsemble
from .gaussian import QuadraticDiscriminant
from .logistic import LogisticOneVsRest
from .trees import ExtraTrees, FlatTree, RandomForest

MODEL_FORMAT_VERSION = 1


def _labels_obj(labels: np.ndarray) -> dict:
    return {"dtype": str(labels.dtype), "values": labels.tolist()}


def _labels_from(obj: dict) -> np.ndarray:
    return np.array(obj["values"], dtype=np.dtype(obj["dtype"]))


def _tree_obj(tree: FlatTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from(obj: dict) -> FlatTree:
    return FlatTree(
        feature=np.array(obj["feature"], dtype=np.int64),
        threshold=np.array(obj["threshold"], dtype=np.float64),
        left=np.array(obj["left"], dtype=np.int64),
        right=np.array(obj["right"], dtype=np.int64),
        value=np.array(obj["value"], dtype=np.float64),
    )


def _model_obj(model) -> dict:
    kind = model.kind
    if kind == "ensemble":
        return {
            "kind": kind,
            "members": [_model_obj(m) for m in model.members],
        }
    if model.labels_ is None:
        raise ValueError(f"cannot serialize an unfitted {kind} model")
    state: dict = {
        "kind": kind,
        "seed": model.seed,
        "labels": _labels_obj(model.labels_),
        "n_features": model.n_features_,
    }
    if kind == "logistic":
        state["params"] = {"lam": model.lam, "tol": model.tol, "max_iter": model.max_iter}
        state["weights"] = model.weights_.tolist()
        state["converged"] = list(model.converged_)
    elif kind == "qda":
        state["params"] = {"ridge": model.ridge}
        state["means"] = model.means_.tolist()
        state["precisions"] = model.precisions_.tolist()
        state["logdets"] = model.logdets_.tolist()
    elif kind in ("random_forest", "extra_trees"):
        state["params"] = {
            "n_trees": model.n_trees,
            "bootstrap": model.bootstrap,
            "max_features": model.max_features,
        }
        state["trees"] = [_tree_obj(t) for t in model.trees_]
    elif kind == "gbm":
        state["params"] = {
            "n_rounds": model.n_rounds,
            "learning_rate": model.learning_rate,
            "max_leaves": model.max_leaves,
            "min_leaf": model.min_leaf,
        }
        state["trees"] = [[_tree_obj(t) for t in rnd] for rnd in model.trees_]
        state["train_loss"] = list(model.train_loss_)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return state


def _restore_base(model: Classifier, state: dict) -> None:
    model.labels_ = _labels_from(state["labels"])
    model.n_features_ = state["n_features"]


def _model_from(state: dict):
    kind = state["kind"]
    if kind == "ensemble":
        ens = SoftVotingEnsemble([_model_from(m) for m in state["members"]])
        ens._sync_labels()
        return ens
    params = state["params"]
    if kind == "logistic":
        model = LogisticOneVsRest(seed=state["seed"], **params)
        _restore_base(model, state)
        model.weights_ = np.array(state["weights"], dtype=np.float64)
        model.converged_ = [bool(v) for v in state["converged"]]
    elif kind == "qda":
        model = QuadraticDiscriminant(seed=state["seed"], **params)
        _restore_base(model, state)
        model.means_ = np.array(state["means"], dtype=np.float64)
        model.precisions_ = np.array(state["precisions"], dtype=np.float64)
        model.logdets_ = np.array(state["logdets"], dtype=np.float64)
    elif kind == "random_forest":
        model = RandomForest(seed=state["seed"], **params)
        _restore_base(model, state)
        model.trees_ = [_tree_from(t) for t in state["trees"]]
    elif kind == "extra_trees":
        rf_params = {k: v for k, v in params.items() if k != "bootstrap"}
        model = ExtraTrees(seed=state["seed"], **rf_params)
        _restore_base(model, state)
        model.trees_ = [_tree_from(t) for t in state["trees"]]
    elif kind == "gbm":
        model = GradientBoosting(seed=state["seed"], **params)
        _restore_base(model, state)
        model.trees_ = [[_tree_from(t) for t in rnd] for rnd in state["trees"]]
        model.train_loss_ = [float(v) for v in state["train_loss"]]
    else:
        raise ValueError(f"unknown model kind {kind!r}")
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
