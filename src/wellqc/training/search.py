"""Hyperparameter grid search and k-fold cross-validation.

Both derive per-task seeds from the master seed with a counter-based scheme:
task i of kind K uses SeedSequence(master_seed, spawn_key=(K, i)) collapsed
to one 32-bit integer (kind 0 = grid cell, kind 1 = CV fold). Tasks share
nothing mutable, so running them serially or across N workers produces
identical results.

Cells and folds run on the task runner in ``wellqc.parallel``, whose thread
rule keeps their bits the same on any number of workers; a cell's or fold's
own predictions run serially on its thread.
"""

import csv
import io
import itertools
import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from wellqc.errors import NonFiniteGradient, WellQcError
from wellqc.metrics import evaluate_checkpoint
from wellqc.parallel import run_tasks
from wellqc.training.config import RunConfig
from wellqc.training.loop import train

log = logging.getLogger(__name__)

_KIND_GRID_CELL = 0
_KIND_CV_FOLD = 1


def derive_seed(master_seed: int, kind: int, index: int) -> int:
    """Decorrelated child seed for task ``index`` of task family ``kind``."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(kind, index))
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class GridSpec:
    """Candidate values per hyperparameter; the search covers the product."""

    learning_rate: tuple[float, ...] = ()
    batch_size: tuple[int, ...] = ()
    dropout_rate: tuple[float, ...] = ()
    l2_lambda: tuple[float, ...] = ()

    def cells(self, base: RunConfig) -> list[RunConfig]:
        """One run config per combination, in row-major order over the axes above.

        Axes with no candidates keep the base config's value. Cell i runs at
        its own seed, derived from the base seed. A value the hyperparameters
        reject raises ConfigError here, before any cell trains.
        """
        axes = [getattr(self, axis) or (getattr(base.hyperparams, axis),) for axis in GRID_AXES]
        configs = [base.with_hyperparams(**dict(zip(GRID_AXES, values))) for values in itertools.product(*axes)]
        return [replace(c, seed=derive_seed(base.seed, _KIND_GRID_CELL, i)) for i, c in enumerate(configs)]


GRID_AXES = tuple(f.name for f in fields(GridSpec))


@dataclass
class CellResult:
    index: int
    values: dict
    seed: int
    val_accuracy: float | None = None
    val_loss: float | None = None
    best_epoch: int | None = None
    epochs_run: int | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _run_cell(index: int, config: RunConfig, train_set, val_set) -> CellResult:
    values = {axis: getattr(config.hyperparams, axis) for axis in GRID_AXES}
    result = CellResult(index=index, values=values, seed=config.seed)
    try:
        run = train(config, train_set, val_set)
        result.val_accuracy = run.best.val_accuracy
        result.val_loss = run.best.val_loss
        result.best_epoch = run.best_epoch
        result.epochs_run = len(run.history)
    except (NonFiniteGradient, WellQcError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        log.warning("grid cell %d failed: %s", index, result.error)
    return result


def grid_search(grid: GridSpec, base_config: RunConfig, train_set, val_set, jobs: int = 1):
    """Train one model per grid cell; returns (ranked results, best config).

    Ranking: validation accuracy (desc), then validation loss (asc), then
    cell order. Failed cells rank last and carry their error instead of
    aborting the sweep; when every cell failed the best config is None.
    """
    configs = grid.cells(base_config)
    tasks = [(i, config, train_set, val_set) for i, config in enumerate(configs)]
    results = run_tasks(_run_cell, tasks, jobs)

    def rank_key(r: CellResult):
        if r.failed:
            return (1, 0.0, 0.0, r.index)
        return (0, -r.val_accuracy, r.val_loss, r.index)

    ranked = sorted(results, key=rank_key)
    best = next((r for r in ranked if not r.failed), None)
    return ranked, None if best is None else configs[best.index]


def grid_table_csv(results) -> str:
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(("rank", "index", *GRID_AXES, "val_accuracy", "val_loss", "best_epoch", "error"))
    for rank, r in enumerate(results, start=1):
        acc = "" if r.val_accuracy is None else f"{r.val_accuracy:.6f}"
        loss = "" if r.val_loss is None else f"{r.val_loss:.6f}"
        best = "" if r.best_epoch is None else str(r.best_epoch)
        axes = (str(r.values[axis]) for axis in GRID_AXES)
        writer.writerow((str(rank), str(r.index), *axes, acc, loss, best, r.error or ""))
    return table.getvalue()


@dataclass
class FoldResult:
    fold: int
    seed: int
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    val_loss: float
    best_epoch: int


@dataclass
class CvReport:
    folds: list[FoldResult]
    mean: dict[str, float]
    std: dict[str, float]


def _run_fold(fold: int, base_config: RunConfig, corpus, train_rows, val_rows) -> FoldResult:
    seed = derive_seed(base_config.seed, _KIND_CV_FOLD, fold)
    config = replace(base_config, seed=seed)
    train_set, val_set = corpus.subset(train_rows), corpus.subset(val_rows)
    run = train(config, train_set, val_set)
    report = evaluate_checkpoint(run.checkpoint, val_set)
    return FoldResult(
        fold=fold, seed=seed, **report.values._asdict(), val_loss=run.best.val_loss, best_epoch=run.best_epoch
    )


def cross_validate(config: RunConfig, corpus, pairs, jobs: int = 1) -> CvReport:
    """Train one model per (train, val) pair of ``kfold_split`` and aggregate metrics.

    ``corpus`` is the whole manifest, decoded once by ``load_examples``; each
    fold copies out its own rows, found by path, when it starts, so at
    most ``jobs`` folds' copies are held at a time.
    """
    row = {path: i for i, path in enumerate(corpus.ids)}
    tasks = [
        (i, config, corpus, [row[e.path] for e in tr.entries], [row[e.path] for e in va.entries])
        for i, (tr, va) in enumerate(pairs)
    ]
    folds = run_tasks(_run_fold, tasks, jobs)

    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in ("accuracy", "precision", "recall", "f1", "val_loss"):
        values = [getattr(f, name) for f in folds if getattr(f, name) is not None]
        if values:
            mean[name] = float(np.mean(values))
            std[name] = float(np.std(values))
    return CvReport(folds=folds, mean=mean, std=std)
