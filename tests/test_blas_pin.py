"""``vrident._blas.one_blas_thread``: models fit and score with one OpenBLAS
thread, and the caller's thread count comes back afterwards."""
from __future__ import annotations

import ctypes
import logging

import numpy as np
import pytest

from vrident import _blas
from vrident.classifiers import LogisticOneVsRest, QuadraticDiscriminant, SoftVotingEnsemble

needs_openblas = pytest.mark.skipif(
    _blas.openblas() is None, reason="numpy bundles no OpenBLAS here"
)


def blas_threads() -> int:
    get = _blas.openblas().scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


@pytest.fixture
def two_threads():
    """Run the test with OpenBLAS at two threads, then restore the count."""
    previous = _blas._swap()(2)
    yield
    _blas._swap()(previous)


def blobs():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(loc=c, size=(10, 4)) for c in (0.0, 3.0, 6.0)])
    return X, np.repeat(["a", "b", "c"], 10)


@needs_openblas
def test_the_pin_restores_the_count_after_the_block(two_threads):
    assert blas_threads() == 2
    with _blas.one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == 2


@needs_openblas
def test_the_pin_restores_the_count_when_the_block_raises(two_threads):
    with pytest.raises(RuntimeError, match="^inside$"):
        with _blas.one_blas_thread():
            assert blas_threads() == 1
            raise RuntimeError("inside")
    assert blas_threads() == 2


class _Recording(LogisticOneVsRest):
    """Logistic regression that records the OpenBLAS thread count it fits
    and scores under."""

    seen: list

    def _fit(self, X, y_idx):
        self.seen.append(("fit", blas_threads()))
        super()._fit(X, y_idx)

    def _proba(self, X):
        self.seen.append(("proba", blas_threads()))
        return super()._proba(X)


@needs_openblas
def test_models_fit_and_score_with_one_thread(two_threads):
    X, y = blobs()
    model = _Recording()
    model.seen = []
    model.fit(X, y).predict_proba(X)
    assert model.seen == [("fit", 1), ("proba", 1)]
    assert blas_threads() == 2


def test_an_ensemble_enters_the_pin_again_for_each_member(monkeypatch):
    counts = [2]
    calls = []

    def swap(n):
        calls.append(n)
        previous, counts[0] = counts[0], n
        return previous

    monkeypatch.setattr(_blas, "_swap", lambda: swap)
    X, y = blobs()
    model = SoftVotingEnsemble([LogisticOneVsRest(), QuadraticDiscriminant()]).fit(X, y)
    # the ensemble, then each member in turn: set 1, restore what was before
    assert calls == [1, 1, 1, 1, 1, 2]
    assert counts == [2]
    calls.clear()
    model.predict_proba(X)
    assert calls == [1, 1, 1, 1, 1, 2]


@pytest.fixture
def no_openblas(monkeypatch):
    """The library lookup finds nothing, as under MKL or Accelerate."""
    monkeypatch.setattr(_blas, "_LIBRARY_GLOB", "no-such-library-*.so")
    _blas.openblas.cache_clear()
    _blas._swap.cache_clear()
    yield
    monkeypatch.undo()
    _blas.openblas.cache_clear()
    _blas._swap.cache_clear()


def test_without_openblas_the_pin_does_nothing_and_warns_once(no_openblas, caplog):
    X, y = blobs()
    with caplog.at_level(logging.WARNING, logger="vrident._blas"):
        model = LogisticOneVsRest().fit(X, y)
        with _blas.one_blas_thread():
            proba = model.predict_proba(X)
    assert _blas.openblas() is None and _blas._swap() is None
    assert [r.getMessage() for r in caplog.records] == [
        "numpy bundles no OpenBLAS here, so BLAS is not pinned to one thread; "
        "model outputs may depend on the BLAS thread count"
    ]
    assert np.allclose(proba.sum(axis=1), 1.0)
