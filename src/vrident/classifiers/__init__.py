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

    "ensemble" assembles one of each other kind sharing the seed unless
    ``members`` passes an explicit list. Extra keyword arguments go to the
    model constructor.
    """
    if kind == "ensemble":
        members = params.pop("members", None)
        if params:
            raise ValueError(f"unknown ensemble parameters: {sorted(params)}")
        if members is None:
            members = [cls(seed=seed) for cls in MODEL_CLASSES.values()]
        return SoftVotingEnsemble(members)
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
