"""Window classifiers and the soft-voting ensemble built from them."""
from __future__ import annotations

from .base import Classifier, check_matrix
from .boosting import GradientBoosting
from .ensemble import SoftVotingEnsemble
from .gaussian import QuadraticDiscriminant
from .logistic import LogisticOneVsRest
from .serialize import MODEL_CLASSES, MODEL_FORMAT_VERSION, load_model, save_model
from .trees import ExtraTrees, FlatTree, RandomForest

MODEL_KINDS = (*MODEL_CLASSES, "ensemble")


def make_model(kind: str, seed: int = 0, **params):
    """Build an unfitted model by kind name.

    Keyword arguments go to the model constructor. "ensemble" takes none: it
    is one model of each other kind, all with ``seed``.
    """
    if kind == "ensemble":
        if params:
            raise ValueError(f"ensemble takes no parameters, got {sorted(params)}")
        return SoftVotingEnsemble([cls(seed=seed) for cls in MODEL_CLASSES.values()])
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return MODEL_CLASSES[kind](seed=seed, **params)


__all__ = [
    "Classifier",
    "check_matrix",
    "ExtraTrees",
    "FlatTree",
    "GradientBoosting",
    "LogisticOneVsRest",
    "MODEL_FORMAT_VERSION",
    "MODEL_KINDS",
    "QuadraticDiscriminant",
    "RandomForest",
    "SoftVotingEnsemble",
    "load_model",
    "make_model",
    "save_model",
]
