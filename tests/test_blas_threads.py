"""``single_threaded_blas()``: one OpenBLAS thread inside the scope, the caller's counts after.

Each test that needs OpenBLAS first sets every loaded copy to two threads, so
the set-and-restore path runs even where OpenBLAS starts on one thread.
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.sgl as sgl
from repro import SGLearner, simulate_measurements
from repro.graphs.generators import grid_2d
from repro.linalg import threads
from repro.linalg.threads import blas_thread_counts, find_openblas, openblas_libraries, single_threaded_blas
from repro.stream import MeasurementStream, OnlineSGLearner

needs_openblas = pytest.mark.skipif(not openblas_libraries(), reason="no OpenBLAS loaded in this process")


def _counts() -> list[int]:
    return [library.get_num_threads() for library in openblas_libraries()]


@pytest.fixture
def two_threads():
    """Every OpenBLAS copy on two threads for the test; the original counts after."""
    original = [(library, library.get_num_threads()) for library in openblas_libraries()]
    for library, _ in original:
        library.set_num_threads(2)
    yield [2] * len(original)
    for library, count in original:
        library.set_num_threads(count)


@needs_openblas
def test_discovery_controls_every_loaded_copy():
    # numpy and scipy wheels each ship their own OpenBLAS; both must be found.
    loaded = threads._loaded_paths()
    assert [library.path for library in openblas_libraries()] == loaded
    assert set(blas_thread_counts()) == {library.name for library in openblas_libraries()}


@needs_openblas
def test_scope_sets_one_thread_and_restores(two_threads):
    with single_threaded_blas():
        assert _counts() == [1] * len(two_threads)
        np.linalg.qr(np.random.default_rng(0).standard_normal((500, 30)))
    assert _counts() == two_threads


@needs_openblas
def test_scope_restores_after_exception(two_threads):
    with pytest.raises(RuntimeError, match="boom"):
        with single_threaded_blas():
            raise RuntimeError("boom")
    assert _counts() == two_threads


@needs_openblas
def test_nested_scopes_restore_on_last_exit(two_threads):
    with single_threaded_blas():
        with single_threaded_blas():
            assert _counts() == [1] * len(two_threads)
        assert _counts() == [1] * len(two_threads)
    assert _counts() == two_threads


@needs_openblas
def test_overlapping_threads_restore_on_last_exit(two_threads):
    entered, release = threading.Event(), threading.Event()

    def first():
        with single_threaded_blas():
            entered.set()
            release.wait(timeout=10)

    worker = threading.Thread(target=first)
    worker.start()
    assert entered.wait(timeout=10)
    with single_threaded_blas():
        release.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        # The first caller left while this one is still inside.
        assert _counts() == [1] * len(two_threads)
    assert _counts() == two_threads


@needs_openblas
def test_concurrent_scopes_stress(two_threads):
    failures = []

    def churn():
        for _ in range(200):
            with single_threaded_blas():
                if _counts() != [1] * len(two_threads):
                    failures.append(_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    assert _counts() == two_threads


def test_scope_without_openblas_is_a_no_op(monkeypatch, two_threads):
    real = openblas_libraries()
    monkeypatch.setattr(threads, "_loaded_paths", lambda: [])
    openblas_libraries.cache_clear()
    try:
        assert openblas_libraries() == ()
        assert blas_thread_counts() == {}
        with single_threaded_blas():
            assert [library.get_num_threads() for library in real] == two_threads
        assert [library.get_num_threads() for library in real] == two_threads
    finally:
        openblas_libraries.cache_clear()


def test_discovery_skips_libraries_that_do_not_load():
    assert find_openblas(["/nonexistent/libopenblas.so"]) == ()


@needs_openblas
def test_fit_runs_on_one_thread_and_restores(monkeypatch, two_threads):
    seen = []
    original = sgl.edge_sensitivities

    def recording(*args, **kwargs):
        seen.append(_counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(sgl, "edge_sensitivities", recording)
    data = simulate_measurements(grid_2d(8, 8), n_measurements=20, seed=0)
    SGLearner(beta=0.05).fit(data)
    assert seen and all(counts == [1] * len(two_threads) for counts in seen)
    assert _counts() == two_threads


@needs_openblas
def test_fit_restores_after_raising(monkeypatch, two_threads):
    def failing(*args, **kwargs):
        raise RuntimeError("sensitivity failed")

    monkeypatch.setattr(sgl, "edge_sensitivities", failing)
    data = simulate_measurements(grid_2d(8, 8), n_measurements=20, seed=0)
    with pytest.raises(RuntimeError, match="sensitivity failed"):
        SGLearner(beta=0.05).fit(data)
    assert _counts() == two_threads


@needs_openblas
def test_online_fit_and_update_restore(monkeypatch, two_threads):
    stream = MeasurementStream(grid_2d(6, 6), batch_size=8, seed=0)
    learner = OnlineSGLearner(beta=0.05, max_iterations=30)
    learner.fit(stream.next_batch())
    assert _counts() == two_threads
    learner.update(stream.next_batch())
    assert _counts() == two_threads

    def failing(batch):
        raise RuntimeError("drift check failed")

    monkeypatch.setattr(learner.drift, "assess", failing)
    with pytest.raises(RuntimeError, match="drift check failed"):
        learner.update(stream.next_batch())
    assert _counts() == two_threads
