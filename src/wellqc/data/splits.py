"""Stratified dataset splitting: train/validation and k-fold.

Both splits shuffle within each class with a generator seeded by the caller,
so a (manifest, seed) pair always produces the same partition. Outputs list
class 0's examples before class 1's, in shuffled order within each class.
"""

import numpy as np

from wellqc.errors import EmptyClass
from wellqc.data.manifest import DatasetManifest
from wellqc.data.wells import NUM_CLASSES


def _entries_by_class(manifest: DatasetManifest) -> dict[int, list]:
    by_class = {c: [] for c in range(NUM_CLASSES)}
    for e in manifest.entries:
        by_class[e.label].append(e)
    return by_class


def _make(manifest: DatasetManifest, entries) -> DatasetManifest:
    return DatasetManifest(entries=list(entries), root=manifest.root)


def split_train_val(manifest: DatasetManifest, fraction: float, seed: int):
    """Stratified split; each class sends round(fraction * n) examples to val.

    Returns (train, val): disjoint, exhaustive, shuffled by ``seed``, with
    every class on both sides. EmptyClass names the first class that would
    be missing from one side.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train_entries, val_entries = [], []
    for label, entries in sorted(_entries_by_class(manifest).items()):
        order = rng.permutation(len(entries))
        n_val = int(round(fraction * len(entries)))
        if not 0 < n_val < len(entries):
            raise EmptyClass(
                f"fraction {fraction} leaves class {label} with {len(entries) - n_val} training and {n_val} "
                "validation examples; each class needs at least one on each side"
            )
        val_entries.extend(entries[i] for i in order[:n_val])
        train_entries.extend(entries[i] for i in order[n_val:])
    return _make(manifest, train_entries), _make(manifest, val_entries)


def kfold_split(manifest: DatasetManifest, k: int, seed: int):
    """Stratified k-fold partition; returns k (train, val) manifest pairs.

    Every example lands in exactly one validation fold; per-class fold sizes
    differ by at most one.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    assignments: dict[int, list[list]] = {}
    for label, entries in sorted(_entries_by_class(manifest).items()):
        if len(entries) < k:
            raise EmptyClass(f"class {label} has {len(entries)} examples; need at least k={k}")
        order = rng.permutation(len(entries))
        folds = [[] for _ in range(k)]
        for pos, idx in enumerate(order):
            folds[pos % k].append(entries[idx])
        assignments[label] = folds
    pairs = []
    for fold in range(k):
        val, train = [], []
        for label in sorted(assignments):
            for f, entries in enumerate(assignments[label]):
                (val if f == fold else train).extend(entries)
        pairs.append((_make(manifest, train), _make(manifest, val)))
    return pairs
