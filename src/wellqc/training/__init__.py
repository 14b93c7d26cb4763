"""Training loop, early stopping, checkpoints, grid search, cross-validation."""

from wellqc.training.checkpoint import Checkpoint, EpochRecord
from wellqc.training.config import (
    EarlyStoppingConfig,
    RunConfig,
    default_run_config,
    resolve_run_config,
)
from wellqc.training.loop import (
    batch_slices,
    best_epoch,
    evaluate_model,
    history_csv,
    train,
    train_logistic_baseline,
)
from wellqc.training.search import (
    CellResult,
    CvReport,
    FoldResult,
    GridSpec,
    cross_validate,
    derive_seed,
    grid_search,
    grid_table_csv,
)

__all__ = [
    "Checkpoint",
    "EarlyStoppingConfig",
    "RunConfig",
    "default_run_config",
    "resolve_run_config",
    "EpochRecord",
    "batch_slices",
    "best_epoch",
    "evaluate_model",
    "history_csv",
    "train",
    "train_logistic_baseline",
    "CellResult",
    "CvReport",
    "FoldResult",
    "GridSpec",
    "cross_validate",
    "derive_seed",
    "grid_search",
    "grid_table_csv",
]
