"""Mini-batch training driver with early stopping and best-epoch restoration.

The recorded train loss is the optimized objective (mean cross-entropy plus
the L2 penalty); the pure cross-entropy component is kept alongside it.
Validation loss is pure cross-entropy, which is also what early stopping
monitors by default.

The epoch loop opens one ``split_thread`` helper (``wellqc.parallel``): the
conv backward computes its weight gradient there, and the pools run half of
their images there (``wellqc.nn.ops``), with the same bits as on one thread.
Validation runs on the calling thread while the helper is open.

Epoch wall time is measured for the run log only: it is not part of an
EpochRecord, so identically-configured runs serialize to identical bytes.
"""

import logging
import time
from dataclasses import dataclass, fields

import numpy as np

from wellqc.errors import NonFiniteGradient
from wellqc.nn.model import TRAIN, Model, init_model, model_backward, model_forward, model_loss, predict_probs
from wellqc.optim import adam_step, apply_l2, init_adam_state, l2_penalty
from wellqc.parallel import split_thread
from wellqc.training.checkpoint import Checkpoint
from wellqc.training.config import RunConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of training history. Wall time is logged, never stored."""

    epoch: int  # 1-based
    train_loss: float  # cross-entropy + L2 penalty (the optimized objective)
    train_ce: float
    train_accuracy: float
    val_loss: float  # pure cross-entropy
    val_accuracy: float


HISTORY_COLUMNS = tuple(f.name for f in fields(EpochRecord))


def history_csv(history) -> str:
    lines = [",".join(HISTORY_COLUMNS)]
    for r in history:
        lines.append(
            f"{r.epoch},{r.train_loss:.8f},{r.train_ce:.8f},{r.train_accuracy:.8f},"
            f"{r.val_loss:.8f},{r.val_accuracy:.8f}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrainingRun:
    """What ``train`` returns: the best epoch's checkpoint and the history of every epoch run."""

    checkpoint: Checkpoint
    history: list[EpochRecord]
    best_epoch: int  # 1-based

    @property
    def best(self) -> EpochRecord:
        return self.history[self.best_epoch - 1]


def best_epoch(history, metric: str) -> int:
    """The earliest epoch with the best ``metric``; a tie is not an improvement.

    val_loss is minimized and val_accuracy maximized.
    """
    sign = 1.0 if metric == "val_loss" else -1.0
    return min(history, key=lambda r: sign * getattr(r, metric)).epoch


def batch_slices(n: int, batch_size: int):
    """Index ranges covering 0..n in batches; the last partial batch is kept."""
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def evaluate_model(model: Model, images, labels):
    """(mean cross-entropy, accuracy) over a dataset, in infer mode."""
    probs, ce = predict_probs(model, images, labels)
    return ce, int((probs.argmax(axis=1) == labels).sum()) / len(labels)


def train(config: RunConfig, train_set, val_set) -> TrainingRun:
    """Train on ``train_set``, monitor ``val_set``; returns the run.

    The run's checkpoint carries the weights of the best monitored epoch,
    not the last one; its history holds every epoch run. Every Dropout layer
    drops at ``hyperparams.dropout_rate``. All randomness (init, shuffling,
    dropout) comes from one generator seeded with config.seed, so a rerun is
    bit-identical.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be non-empty")
    hp = config.hyperparams
    es = config.early_stopping

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    model = init_model(config.architecture, rng, dtype=np.float32, mode=TRAIN)
    model.dropout_rate = hp.dropout_rate
    state = init_adam_state(model.params)
    reg_keys = model.regularized_keys()

    n = len(train_set)
    history: list[EpochRecord] = []

    with split_thread():
        for epoch in range(1, hp.epochs + 1):
            t0 = time.perf_counter()
            order = rng.permutation(n)
            ce_sum = 0.0
            obj_sum = 0.0
            correct = 0
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                for batch_index, (start, stop) in enumerate(batch_slices(n, hp.batch_size)):
                    idx = order[start:stop]
                    images = train_set.images[idx]
                    labels = train_set.labels[idx]
                    probs, cache = model_forward(model, images, rng=rng)
                    ce = model_loss(cache, labels)
                    penalty = l2_penalty(model.params, hp.l2_lambda, reg_keys)
                    grads = model_backward(model, cache, labels)
                    grads = apply_l2(grads, model.params, hp.l2_lambda, reg_keys)
                    try:
                        adam_step(model.params, grads, state, hp.learning_rate)
                    except NonFiniteGradient as exc:
                        raise NonFiniteGradient(f"epoch {epoch}, batch {batch_index}: {exc}") from exc
                    size = stop - start
                    ce_sum += ce * size
                    obj_sum += (ce + penalty) * size
                    correct += int((probs.argmax(axis=1) == labels).sum())

            val_loss, val_accuracy = evaluate_model(model, val_set.images, val_set.labels)
            record = EpochRecord(
                epoch=epoch,
                train_loss=obj_sum / n,
                train_ce=ce_sum / n,
                train_accuracy=correct / n,
                val_loss=val_loss,
                val_accuracy=val_accuracy,
            )
            history.append(record)
            log.info(
                "epoch %d: train_loss=%.4f train_acc=%.4f val_loss=%.4f val_acc=%.4f (%.2fs)",
                record.epoch, record.train_loss, record.train_accuracy,
                record.val_loss, record.val_accuracy, time.perf_counter() - t0,
            )

            best = best_epoch(history, es.metric)
            if best == epoch:
                best_params = {k: v.copy() for k, v in model.params.items()}
            if es.enabled and epoch - best >= es.patience:
                log.info("early stop after epoch %d; keeping epoch %d", epoch, best)
                break

    return TrainingRun(Checkpoint(spec=config.architecture, params=best_params), history=history, best_epoch=best)

