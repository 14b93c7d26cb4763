"""Training loop, early stopping, checkpoints, grid search, cross-validation."""
