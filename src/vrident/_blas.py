"""One BLAS thread while a model fits or scores.

OpenBLAS splits a matrix product or a solve across its threads, and the
split changes the order of the additions, so logistic weights and the
ensemble's probabilities would round differently under
``OPENBLAS_NUM_THREADS=1`` and ``=2``. ``Classifier.fit`` and
``Classifier.predict_proba`` run inside ``one_blas_thread()``, which sets
numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas64_-*.so`` in the
Linux wheels) to one thread and then restores the previous count, as
threadpoolctl does through the same symbols. With any other BLAS (MKL,
Accelerate, a system OpenBLAS) nothing is pinned, and one warning per
process says so; outputs may then depend on the thread count.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

log = logging.getLogger(__name__)

_LIBRARY_GLOB = "libscipy_openblas64_-*.so"


@functools.cache
def openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, or None where the wheel bundles none."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(_LIBRARY_GLOB)):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _function(name: str, argtypes: list, restype):
    fn = getattr(openblas(), name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


@functools.cache
def _swap() -> Callable[[int], int] | None:
    """A function that sets the OpenBLAS thread count and returns the
    previous one, or None (after one warning) where there is none."""
    local = _function("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int)
    if local is not None:
        return local
    get = _function("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    put = _function("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
    if get is not None and put is not None:

        def swap(n: int) -> int:
            previous = get()
            put(n)
            return previous

        return swap
    log.warning(
        "numpy bundles no OpenBLAS here, so BLAS is not pinned to one thread; "
        "model outputs may depend on the BLAS thread count"
    )
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with one OpenBLAS thread, then restore the previous
    count, also when the block raises. Nested blocks keep one thread."""
    swap = _swap()
    if swap is None:
        yield
        return
    previous = swap(1)
    try:
        yield
    finally:
        swap(previous)
