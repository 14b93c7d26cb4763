"""The task runner behind grid search and cross-validation, the one-thread OpenBLAS block, and corpus decoding in CV."""

import csv
import json
import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from wellqc import cli, parallel
from wellqc.cli import main
from wellqc.data import manifest
from wellqc.data.pgm import read_pgm
from wellqc.data.splits import kfold_split
from wellqc.errors import NonFiniteGradient
from wellqc.metrics import MetricValues
from wellqc.nn import model as nn_model
from wellqc.nn.arch import default_architecture
from wellqc.nn.model import INFER, init_model, predict_probs
from wellqc.parallel import blas_threads
from wellqc.training import search
from wellqc.training.config import default_run_config
from wellqc.training.loop import TrainingRun
from wellqc.training.search import GridSpec, cross_validate, grid_search

STUB_RUN = TrainingRun(checkpoint=None, history=[SimpleNamespace(val_loss=0.5, val_accuracy=0.5)], best_epoch=1)
needs_openblas = pytest.mark.skipif(parallel._openblas() is None, reason="numpy's bundled OpenBLAS not found")


def blas_count() -> int:
    return parallel._openblas()[0]()


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
        return STUB_RUN

    monkeypatch.setattr(search, "train", fake_train)
    return seen


@pytest.fixture
def stub_fold_io(monkeypatch, small_corpus):
    """A pixel-free stand-in for ``small_corpus``'s decoded corpus, and a fixed report per fold: only ``train`` runs."""
    report = SimpleNamespace(values=MetricValues(0.5, None, None, None))
    monkeypatch.setattr(search, "evaluate_checkpoint", lambda checkpoint, val_set: report)
    return SimpleNamespace(ids=[e.path for e in small_corpus.entries], subset=lambda rows: rows)


def test_grid_whose_every_cell_fails_writes_its_table_and_exits_1(tmp_path, monkeypatch, capsys):
    def diverge(config, train_set, val_set):
        raise NonFiniteGradient("epoch 1, batch 0: non-finite gradient")

    monkeypatch.setattr(search, "train", diverge)
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--seed", "1", "--ok", "6", "--ng", "6", "--out-dir", "corpus"]) == 0
    (tmp_path / "hp_grid.json").write_text(json.dumps({"learning_rate": [1e30, 1e31]}))
    capsys.readouterr()
    assert main(["grid-search", "--data", "corpus/manifest.tsv", "--grid", "hp_grid.json", "--out-dir", "grid"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: NonFiniteGradient: every grid cell failed; see the result table"
    error = "NonFiniteGradient: epoch 1, batch 0: non-finite gradient"
    assert [row["error"] for row in json.loads((tmp_path / "grid/grid_results.json").read_text())] == [error] * 2
    rows = list(csv.DictReader((tmp_path / "grid/grid_results.csv").read_text().splitlines()))
    assert [row["error"] for row in rows] == [error] * 2
    assert not (tmp_path / "grid/best_config.json").exists()


def run_grid(jobs, cells=2):
    grid = GridSpec(learning_rate=tuple(0.01 * (i + 1) for i in range(cells)))
    return grid_search(grid, default_run_config(), None, None, jobs=jobs)


@needs_openblas
class TestBlasThreads:
    def test_restores_after_normal_exit(self):
        start = blas_count()
        with blas_threads():
            assert blas_count() == 1
        assert blas_count() == start

    def test_restores_when_body_raises(self):
        start = blas_count()
        with pytest.raises(RuntimeError, match="body"):
            with blas_threads():
                raise RuntimeError("body")
        assert blas_count() == start


def test_sets_one_thread_from_any_count_and_nests(monkeypatch):
    fake = FakeBlas(16)
    monkeypatch.setattr(parallel, "_openblas", lambda: (fake.get, fake.set))
    with blas_threads():
        assert fake.count == 1
        with blas_threads():
            assert fake.count == 1
        assert fake.count == 1
    assert fake.count == 16


@pytest.mark.parametrize("fails", [False, True])
def test_every_command_runs_at_one_thread(monkeypatch, tmp_path, fails):
    fake = FakeBlas(16)
    monkeypatch.setattr(parallel, "_openblas", lambda: (fake.get, fake.set))
    seen = []

    def fake_generate(*args, **kwargs):
        seen.append(fake.count)
        if fails:
            raise ValueError("gen")
        return SimpleNamespace(entries=[], class_counts=dict)

    monkeypatch.setattr(cli, "generate_synthetic", fake_generate)
    assert main(["gen", "--seed", "1", "--ok", "1", "--ng", "1", "--out-dir", str(tmp_path)]) == int(fails)
    assert seen == [1]
    assert fake.count == 16


def test_missing_library_runs_the_body_unchanged(monkeypatch, recording_train):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    ran = []
    with blas_threads():
        ran.append(True)
    assert ran == [True]
    ranked, _ = run_grid(jobs=2)
    assert [r.failed for r in ranked] == [False, False]


class TestRunner:
    """Workers run at the count in force, which the runner leaves as it found it."""

    @pytest.fixture(autouse=True)
    def fake(self, monkeypatch):
        fake = FakeBlas(16)
        monkeypatch.setattr(parallel, "_openblas", lambda: (fake.get, fake.set))
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)
        yield fake
        assert fake.count == 16

    def test_grid_search_jobs_2_runs_cells_on_workers(self, recording_train):
        run_grid(jobs=2)
        assert [count for _, count in recording_train] == [16, 16]
        assert all(thread is not threading.main_thread() for thread, _ in recording_train)

    def test_grid_search_jobs_1_runs_cells_on_the_caller(self, recording_train):
        run_grid(jobs=1)
        assert recording_train == [(threading.main_thread(), 16)] * 2

    def test_cross_validate_jobs_2_runs_folds_on_workers(self, recording_train, stub_fold_io, small_corpus):
        report = cross_validate(default_run_config(), stub_fold_io, kfold_split(small_corpus, 2, 0), jobs=2)
        assert len(report.folds) == 2
        assert [count for _, count in recording_train] == [16, 16]
        assert all(thread is not threading.main_thread() for thread, _ in recording_train)

    def test_cross_validate_jobs_1_runs_folds_on_the_caller(self, recording_train, stub_fold_io, small_corpus):
        cross_validate(default_run_config(), stub_fold_io, kfold_split(small_corpus, 2, 0), jobs=1)
        assert recording_train == [(threading.main_thread(), 16)] * 2

    def test_one_task_runs_serially_whatever_jobs_says(self, recording_train):
        run_grid(jobs=4, cells=1)
        assert recording_train == [(threading.main_thread(), 16)]

    @pytest.mark.parametrize("raises", [False, True])
    def test_predictions_in_grid_cells_open_no_nested_pool(self, monkeypatch, raises):
        conv = init_model(default_architecture(), np.random.default_rng(0), mode=INFER)
        images = np.random.default_rng(1).random((40, 111, 111, 1), dtype=np.float32)
        cells, forwards = [], []
        real_forward = nn_model.model_forward

        def recording_forward(model, batch, rng=None):
            forwards.append(threading.current_thread())
            return real_forward(model, batch, rng)

        def predicting_train(config, train_set, val_set):
            cells.append(threading.current_thread())
            predict_probs(conv, images)
            if raises:
                raise RuntimeError("task")
            return STUB_RUN

        monkeypatch.setattr(nn_model, "model_forward", recording_forward)
        monkeypatch.setattr(search, "train", predicting_train)
        if raises:
            with pytest.raises(RuntimeError, match="task"):
                run_grid(jobs=2)
        else:
            run_grid(jobs=2)
        assert len(cells) == 2 and threading.main_thread() not in cells
        assert Counter(forwards) == Counter(cells * 5)  # five slices of 40 images, each on its cell's thread


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
