"""Shared fixtures: generated corpora reused across test modules."""

import pytest

from wellqc import parallel
from wellqc.data.manifest import load_examples
from wellqc.data.splits import split_train_val
from wellqc.data.synth import generate_synthetic


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """80-image corpus for fast training-loop tests."""
    root = tmp_path_factory.mktemp("small_corpus")
    return generate_synthetic(seed=101, n_ok=40, n_ng=40, out_dir=root)


@pytest.fixture(scope="session")
def small_split(small_corpus):
    train_m, val_m = split_train_val(small_corpus, 0.2, seed=101)
    return load_examples(train_m), load_examples(val_m)


@pytest.fixture
def several_blas_threads():
    """Skip unless OpenBLAS runs on two or more threads here, so a one-thread run could differ."""
    control = parallel._openblas()
    if control is None or control[0]() < 2:
        pytest.skip("OpenBLAS runs on fewer than two threads here")
