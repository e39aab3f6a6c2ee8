"""gbm grows a round's class trees on a thread pool; the trees, losses and
saved-model bytes must not depend on how many threads it uses."""
from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from test_classifiers import blobs
from test_gbm_presort import _assert_same_tree, _tied_matrix

from vrident import evaluation
from vrident.classifiers import GradientBoosting, boosting, save_model


def _blobs_case():
    return blobs(seed=73)


def _tied_511_case():
    rng = np.random.default_rng(11)
    X = _tied_matrix(rng, 90, 511, 3)
    return X, np.arange(90) % 5


def _record_pool_sizes(monkeypatch) -> list:
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(boosting, "ThreadPoolExecutor", pool)
    return sizes


@pytest.mark.parametrize("case", [_blobs_case, _tied_511_case], ids=["blobs", "tied_511"])
def test_fit_is_identical_on_one_two_and_four_threads(tmp_path, monkeypatch, case):
    X, y = case()
    k = len(np.unique(y))
    fits, files = {}, {}
    pools = _record_pool_sizes(monkeypatch)
    monkeypatch.setattr(boosting, "_available_cpus", lambda: 4)
    # switch threads often, and run more of them than this host may have cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 4):
            monkeypatch.setattr(boosting, "_jobs", 4 // threads)  # 4 CPUs // jobs
            fits[threads] = GradientBoosting(n_rounds=4, max_leaves=8, min_leaf=2).fit(X, y)
            files[threads] = tmp_path / f"gbm_{threads}.json"
            save_model(fits[threads], str(files[threads]))
    finally:
        sys.setswitchinterval(interval)
    assert pools == [min(threads, k) for threads in (1, 2, 4)]
    for threads in (2, 4):
        assert fits[threads].train_loss_ == fits[1].train_loss_
        for one_round, round_ in zip(fits[1].trees_, fits[threads].trees_, strict=True):
            for a, b in zip(one_round, round_, strict=True):
                _assert_same_tree(a, b)
        assert files[threads].read_bytes() == files[1].read_bytes()


def test_thread_count_is_the_cpu_share_capped_at_the_class_count(monkeypatch):
    X, y = blobs(seed=5)  # 3 classes
    pools = _record_pool_sizes(monkeypatch)
    monkeypatch.setattr(boosting, "_available_cpus", lambda: 8)
    monkeypatch.setattr(boosting, "_jobs", 1)
    monkeypatch.setattr(evaluation, "_WORKER_STATE", ())
    GradientBoosting(n_rounds=1).fit(X, y)
    for jobs in (3, 8, 16):
        evaluation._init_worker(None, None, jobs)
        GradientBoosting(n_rounds=1).fit(X, y)
    # CPUs // jobs, at least 1 and at most one thread per class
    assert pools == [3, 2, 1, 1]
