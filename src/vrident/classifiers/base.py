"""Shared classifier plumbing: label encoding, validation, prediction."""
from __future__ import annotations

import itertools
import numbers
import sys
import typing

import numpy as np

from .._blas import one_blas_thread


def _softmax(F: np.ndarray) -> np.ndarray:
    """Row-wise softmax of scores ``F``, shifted by each row's maximum."""
    z = F - F.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def check_matrix(X, n_features: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite values")
    return X


# the dtype kinds a model file's values may have, per target kind, and how
# an error names them: no null, string or float is cast into a bool or an integer
_SAVED_KINDS = {"b": ("b", "true or false"), "i": ("i", "64-bit integers"), "f": ("iuf", "numbers")}


def saved_array(where: str, key: str, values, dtype, shape=None) -> np.ndarray:
    """``values`` read from a model file as an array of ``dtype`` and, when
    given, ``shape``; otherwise a ValueError naming ``where`` and ``key``.
    The values' own dtype must be bool for a bool array, a signed integer
    for an integer array, and an integer or a float for a float array;
    a number array holding a bool is refused too."""
    try:
        raw = np.array(values)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {key!r} is not a rectangular array of numbers") from None
    if shape is not None and raw.shape != shape:
        raise ValueError(f"{where}: {key!r} has shape {raw.shape}, expected {shape}")
    kinds, expected = _SAVED_KINDS[np.dtype(dtype).kind]
    # numpy reads true and false beside numbers as 1 and 0
    typed = raw.dtype.kind in kinds and (kinds == "b" or not _holds_bool(values, raw.ndim))
    if raw.size and not typed:
        raise ValueError(f"{where}: {key!r} must hold only {expected}")
    return raw.astype(dtype, copy=False)


def _holds_bool(values, ndim: int) -> bool:
    """Whether ``values``, lists nested ``ndim`` deep, hold a bool."""
    flat = values if ndim else [values]
    for _ in range(ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    return bool in set(map(type, flat))


def saved_object(where: str, obj, keys) -> None:
    """Refuse ``obj``, read from a model file, unless it is an object holding
    exactly ``keys``: a ValueError names ``where`` and the first unknown,
    then the first missing, key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {type(obj).__name__}")
    for key in sorted(obj.keys() - set(keys)):
        raise ValueError(f"{where}: unknown key {key!r}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")


def saved_list(where: str, values) -> list:
    """``values`` read from a model file, which must be a list; otherwise a
    ValueError naming ``where``."""
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a list, got {type(values).__name__}")
    return values


def check_param_type(val, hint, what: str) -> None:
    """Refuse a value that does not fit a constructor's type hint: a bool
    for bool, an integer (not a bool) for int, a finite number for float,
    and None (JSON null) too where the hint allows it. Ranges are the
    constructor's to check."""
    allowed = typing.get_args(hint) or (hint,)
    if val is None and type(None) in allowed:
        return
    is_bool = isinstance(val, (bool, np.bool_))
    if bool in allowed:
        ok, expected = is_bool, "true or false"
    elif int in allowed:
        ok, expected = isinstance(val, numbers.Integral) and not is_bool, "an integer"
    else:
        number = isinstance(val, numbers.Real) and not is_bool
        ok, expected = number and abs(val) <= sys.float_info.max, "a finite number"
    if not ok:
        or_null = " or null" if type(None) in allowed else ""
        raise ValueError(f"{what} must be {expected}{or_null}, got {val!r}")


def check_params(init, args: dict) -> None:
    """Check a constructor's arguments (its ``locals()`` on entry) against
    the type hints of ``init``, so that no value is silently coerced."""
    for name, hint in typing.get_type_hints(init).items():
        if name != "return":
            check_param_type(args[name], hint, name)


class Classifier:
    """Base for all models: fit(X, y) freezes a sorted label order, predict
    is the row-wise argmax of predict_proba (numpy argmax keeps the lowest
    index on ties). Subclasses implement _fit(X, y_idx) and _proba(X), and
    for saving name their hyperparameters in ``param_names`` and their
    fitted state in ``state_names`` (saved-file order; state ``name`` is
    the attribute ``name_``) and implement restore(). fit and predict_proba
    are the only entry points that compute from a feature matrix, and both
    run with one BLAS thread (see ``vrident._blas``)."""

    kind = "base"
    param_names: tuple[str, ...] = ()
    state_names: tuple[str, ...] = ()

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.labels_: np.ndarray | None = None
        self.n_features_: int | None = None

    def fit(self, X, y) -> "Classifier":
        X = check_matrix(X)
        if X.shape[1] == 0:
            raise ValueError(f"training needs >= 1 feature column, got shape {X.shape}")
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        self.labels_ = np.unique(y)
        if self.labels_.shape[0] < 2:
            raise ValueError(f"training needs >= 2 distinct labels, got {self.labels_.shape[0]}")
        self.n_features_ = X.shape[1]
        y_idx = np.searchsorted(self.labels_, y)
        with one_blas_thread():
            self._fit(X, y_idx.astype(np.int64))
        return self

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        raise NotImplementedError

    def _proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _checked(self, X) -> np.ndarray:
        """``X`` checked as a feature matrix for this fitted model."""
        if self.labels_ is None:
            raise ValueError(f"{self.kind} model is not fitted")
        return check_matrix(X, self.n_features_)

    def predict_proba(self, X) -> np.ndarray:
        X = self._checked(X)
        with one_blas_thread():
            return self._proba(X)

    def predict(self, X) -> np.ndarray:
        return self.labels_[np.argmax(self.predict_proba(X), axis=1)]

    def restore(self, state: dict) -> None:
        """Set the fitted state from a saved model object that holds every
        key of ``state_names``, checking it against ``labels_`` and
        ``n_features_``, which are set first."""
        raise NotImplementedError
