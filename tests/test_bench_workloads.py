"""The benchmark's four workloads set up, run one op and read its quality.

``perfbench/workloads.py`` builds its inputs with ``DatasetManifest.load``,
``split_train_val``, ``render_well`` and ``write_pgm`` and drives the CLI, so
a change to any of them can break the benchmark's set-up. Each workload runs
here at a few images and one epoch.
"""

import importlib
from pathlib import Path

import pytest

from wellqc.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# workload name -> the class attributes that size it, set small
SMALL = {
    "train_cnn": {"PER_CLASS": 5, "EPOCHS": 1},
    "scan_qc": {"FRAMES": 1, "GRID": 2, "PRETRAIN_PER_CLASS": 5, "PRETRAIN_EPOCHS": 1},
    "corpus_baseline": {"PER_CLASS": 5, "HELDOUT_PER_CLASS": 2, "EPOCHS": 1},
    "grid_sweep": {"PER_CLASS": 5, "EPOCHS": 1, "GRID": {"batch_size": [4], "learning_rate": [1e-3, 3e-4]}},
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def call(argv):
    assert main(list(argv)) == 0, argv


def test_every_workload_is_sized_here(workloads):
    assert set(SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_sets_up_runs_an_op_and_reads_its_quality(workloads, tmp_path, monkeypatch, name):
    cls = workloads.WORKLOADS[name]
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(cls, attr, value)
    monkeypatch.chdir(tmp_path)
    workload = cls()
    workload.setup(call, workloads.BASELINE_SEED)
    result = workload.op(call, 0)
    assert result.items > 0
    assert all(Path(path).is_file() for path in result.artifacts.values())
    assert 0.0 <= workload.quality(result) <= 1.0
