"""The task runner behind grid search and cross-validation, its BLAS thread budget, and corpus decoding in CV."""

import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from wellqc import parallel
from wellqc.cli import main
from wellqc.data import manifest
from wellqc.data.pgm import read_pgm
from wellqc.nn import model as nn_model
from wellqc.nn.arch import default_architecture
from wellqc.nn.model import INFER, init_model, predict_probs
from wellqc.parallel import blas_count, blas_threads
from wellqc.training import search
from wellqc.training.config import default_run_config
from wellqc.training.search import GridSpec, cross_validate, grid_search

needs_openblas = pytest.mark.skipif(parallel._openblas() is None, reason="numpy's bundled OpenBLAS not found")


class FakeBlas:
    """Stands in for the OpenBLAS lookup: one process-global count, starting at ``count``."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, n):
        self.count = n


@pytest.fixture
def recording_train(monkeypatch):
    """Replace ``search.train`` by a stub that records (thread, BLAS count) per call."""
    seen = []

    def fake_train(config, train_set, val_set):
        control = parallel._openblas()
        seen.append((threading.current_thread(), control[0]() if control else None))
        return SimpleNamespace(best_epoch=1, history=[SimpleNamespace(val_loss=0.5, val_accuracy=0.5)])

    monkeypatch.setattr(search, "train", fake_train)
    return seen


@pytest.fixture
def stub_fold_io(monkeypatch):
    """The corpus decodes nothing and folds evaluate to a fixed report, so only ``train`` runs."""
    monkeypatch.setattr(search, "load_examples", lambda manifest: SimpleNamespace(subset=lambda rows: rows))
    report = SimpleNamespace(accuracy=0.5, precision=None, recall=None, f1=None)
    monkeypatch.setattr(search, "evaluate_checkpoint", lambda checkpoint, val_set: report)


def run_grid(jobs, cells=2):
    grid = GridSpec(learning_rate=tuple(0.01 * (i + 1) for i in range(cells)))
    return grid_search(grid, default_run_config(), None, None, jobs=jobs)


@needs_openblas
class TestBlasThreads:
    def test_restores_after_normal_exit(self):
        start = blas_count()
        with blas_threads(1):
            assert blas_count() == 1
        assert blas_count() == start

    def test_restores_when_body_raises(self):
        start = blas_count()
        with pytest.raises(RuntimeError, match="body"):
            with blas_threads(1):
                raise RuntimeError("body")
        assert blas_count() == start

    def test_never_raises_the_current_count(self):
        start = blas_count()
        with blas_threads(start + 5):
            assert blas_count() == start
        with blas_threads(0):
            assert blas_count() == 1

    def test_nesting_restores_the_outer_value(self):
        start = blas_count()
        with blas_threads(2):
            outer = blas_count()
            with blas_threads(1):
                assert blas_count() == 1
            assert blas_count() == outer
        assert blas_count() == start


def test_missing_library_runs_the_body_unchanged(monkeypatch, recording_train):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    ran = []
    with blas_threads(1):
        ran.append(True)
    assert ran == [True]
    ranked, _ = run_grid(jobs=2)
    assert [r.failed for r in ranked] == [False, False]


@needs_openblas
class TestRunnerBudget:
    @pytest.fixture(autouse=True)
    def start(self):
        start = blas_count()
        yield start
        assert blas_count() == start

    def pooled(self, start):
        return min(start, max(1, parallel._cpu_count() // 2))

    def test_grid_search_jobs_2_shares_the_cpus(self, start, recording_train):
        run_grid(jobs=2)
        assert [count for _, count in recording_train] == [self.pooled(start)] * 2
        assert all(thread is not threading.main_thread() for thread, _ in recording_train)

    def test_grid_search_jobs_1_leaves_the_count(self, start, recording_train):
        run_grid(jobs=1)
        assert recording_train == [(threading.main_thread(), start)] * 2

    def test_cross_validate_jobs_2_shares_the_cpus(self, start, recording_train, stub_fold_io, small_corpus):
        report = cross_validate(default_run_config(), small_corpus, k=2, jobs=2)
        assert len(report.folds) == 2
        assert [count for _, count in recording_train] == [self.pooled(start)] * 2

    def test_cross_validate_jobs_1_leaves_the_count(self, start, recording_train, stub_fold_io, small_corpus):
        cross_validate(default_run_config(), small_corpus, k=2, jobs=1)
        assert [count for _, count in recording_train] == [start] * 2

    def test_count_restored_when_a_task_raises(self, monkeypatch):
        def failing_train(config, train_set, val_set):
            raise RuntimeError("task")

        monkeypatch.setattr(search, "train", failing_train)
        with pytest.raises(RuntimeError, match="task"):
            run_grid(jobs=2)

    @pytest.mark.parametrize("raises", [False, True])
    def test_predictions_in_grid_cells_open_no_nested_pool(self, monkeypatch, raises):
        conv = init_model(default_architecture(), np.random.default_rng(0), mode=INFER)
        images = np.random.default_rng(1).random((40, 111, 111, 1), dtype=np.float32)
        cells, forwards, entered = [], [], []
        real_forward, real_blas_threads = nn_model.model_forward, parallel.blas_threads

        def recording_forward(model, batch, rng=None):
            forwards.append(threading.current_thread())
            return real_forward(model, batch, rng)

        def recording_blas_threads(n):
            entered.append(threading.current_thread())
            return real_blas_threads(n)

        def predicting_train(config, train_set, val_set):
            cells.append(threading.current_thread())
            predict_probs(conv, images)
            if raises:
                raise RuntimeError("task")
            return SimpleNamespace(best_epoch=1, history=[SimpleNamespace(val_loss=0.5, val_accuracy=0.5)])

        monkeypatch.setattr(nn_model, "blas_count", lambda: 2)  # as if each cell had two BLAS threads
        monkeypatch.setattr(nn_model, "model_forward", recording_forward)
        monkeypatch.setattr(parallel, "blas_threads", recording_blas_threads)
        monkeypatch.setattr(search, "train", predicting_train)
        if raises:
            with pytest.raises(RuntimeError, match="task"):
                run_grid(jobs=2)
        else:
            run_grid(jobs=2)
        assert len(cells) == 2 and threading.main_thread() not in cells
        assert Counter(forwards) == Counter(cells * 5)  # five slices of 40 images, each on its cell's thread
        assert entered == [threading.main_thread()]


def test_budget_is_sized_by_the_task_count(monkeypatch, recording_train):
    fake = FakeBlas(16)
    monkeypatch.setattr(parallel, "_openblas", lambda: (fake.get, fake.set))
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)
    run_grid(jobs=8, cells=2)
    assert [count for _, count in recording_train] == [4, 4]
    assert fake.count == 16


def test_one_task_runs_serially_whatever_jobs_says(monkeypatch, recording_train):
    fake = FakeBlas(16)
    monkeypatch.setattr(parallel, "_openblas", lambda: (fake.get, fake.set))
    run_grid(jobs=4, cells=1)
    assert recording_train == [(threading.main_thread(), 16)]


def test_blas_threads_on_a_runner_thread_keeps_the_pool_count(monkeypatch):
    fake = FakeBlas(16)
    monkeypatch.setattr(parallel, "_openblas", lambda: (fake.get, fake.set))
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)

    def task():
        with blas_threads(1):
            return fake.count

    assert parallel.run_tasks(task, [(), ()], jobs=2) == [4, 4]
    assert fake.count == 16


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_rejected(recording_train, jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_grid(jobs=jobs)
    assert recording_train == []


def test_cv_decodes_each_image_once(monkeypatch, tmp_path):
    calls = []

    def counting_read_pgm(path):
        calls.append(path)
        return read_pgm(path)

    assert main(["gen", "--seed", "2", "--ok", "10", "--ng", "10", "--out-dir", str(tmp_path / "corpus")]) == 0
    monkeypatch.setattr(manifest, "read_pgm", counting_read_pgm)
    argv = ["cv", "--data", str(tmp_path / "corpus" / "manifest.tsv"), "--k", "5", "--out-dir", str(tmp_path / "cv")]
    assert main([*argv, "--set", "hyperparams.epochs=1"]) == 0
    assert len(calls) == 20
