"""Training loop behavior: stepping, early stopping, determinism, baseline."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from wellqc import configio
from wellqc.cli import main
from wellqc.data.manifest import Dataset
from wellqc.data.splits import split_train_val
from wellqc.data.synth import generate_synthetic
from wellqc.errors import NonFiniteGradient
from wellqc.nn import ops
from wellqc.nn.model import init_model
from wellqc.parallel import blas_threads
from wellqc.training.config import EarlyStoppingConfig, default_run_config
from wellqc.training.loop import (
    HISTORY_COLUMNS,
    EpochRecord,
    batch_slices,
    best_epoch,
    evaluate_model,
    history_csv,
    train,
)


def small_config(**hp_updates):
    config = default_run_config()
    hp = replace(config.hyperparams, **hp_updates) if hp_updates else config.hyperparams
    return replace(config, hyperparams=hp, seed=123)


def record(epoch, val_loss, val_accuracy=0.5):
    return EpochRecord(
        epoch=epoch, train_loss=1.0, train_ce=1.0, train_accuracy=0.5,
        val_loss=val_loss, val_accuracy=val_accuracy,
    )


class TestBatchSlices:
    def test_400_examples_at_batch_16_is_25_steps(self):
        assert len(list(batch_slices(400, 16))) == 25

    def test_last_partial_batch_is_kept(self):
        slices = list(batch_slices(10, 4))
        assert slices == [(0, 4), (4, 8), (8, 10)]

    def test_batch_larger_than_set(self):
        assert list(batch_slices(3, 16)) == [(0, 3)]


class TestEarlyStopCheck:
    """best_epoch is the one early-stopping rule: train() stops once
    epoch - best_epoch(history) >= patience and keeps the best epoch's weights."""

    def test_strictly_decreasing_never_stops(self):
        history = [record(i + 1, 1.0 - 0.01 * i) for i in range(40)]
        assert best_epoch(history, "val_loss") == 40

    def test_hand_traced_stop_pattern(self):
        losses = [1.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        history = [record(i + 1, v) for i, v in enumerate(losses)]
        # not before patience is exhausted ...
        assert 6 - best_epoch(history[:6], "val_loss") < 5
        # ... stops after epoch 7, keeping epoch 2
        assert best_epoch(history, "val_loss") == 2
        assert 7 - best_epoch(history, "val_loss") >= 5

    def test_tie_is_not_improvement(self):
        history = [record(1, 0.5), record(2, 0.5)]
        assert best_epoch(history, "val_loss") == 1

    def test_accuracy_metric_maximizes(self):
        history = [record(1, 1.0, 0.9), record(2, 1.0, 0.8), record(3, 1.0, 0.7)]
        assert best_epoch(history, "val_accuracy") == 1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            best_epoch([], "val_loss")


class TestTrainLoop:
    def test_zero_learning_rate_is_a_null_update(self, small_split):
        train_set, val_set = small_split
        # lr must be positive per the config contract; drive the null-update
        # case with the smallest positive float so updates vanish in float32
        config = small_config(dropout_rate=0.0, epochs=3, learning_rate=5e-324)
        run = train(config, train_set, val_set)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        reference = init_model(config.architecture, rng)
        for key in reference.params:
            npt.assert_array_equal(run.checkpoint.params[key], reference.params[key])
        losses = [r.train_loss for r in run.history]
        assert max(losses) - min(losses) < 1e-6

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_dropout_rate_hyperparameter_draws_the_masks(self, small_split, monkeypatch, rate):
        train_set, val_set = small_split
        masks = []
        real_dropout = ops.dropout_forward

        def recording_dropout(x, drop, rng, mode):
            out, mask = real_dropout(x, drop, rng, mode)
            if mask is not None:
                masks.append((drop, mask.mean()))
            return out, mask

        monkeypatch.setattr(ops, "dropout_forward", recording_dropout)
        train(small_config(epochs=1, dropout_rate=rate), train_set, val_set)
        if rate == 0.0:
            assert masks == []
        else:
            assert masks and {r for r, _ in masks} == {rate}
            assert np.mean([kept for _, kept in masks]) == pytest.approx(1.0 - rate, abs=0.05)

    def test_history_epochs_are_one_based_and_contiguous(self, small_split):
        train_set, val_set = small_split
        history = train(small_config(epochs=3), train_set, val_set).history
        assert [r.epoch for r in history] == [1, 2, 3]

    def test_rerun_is_bit_identical(self, small_split):
        train_set, val_set = small_split
        config = small_config(epochs=2)
        run_a = train(config, train_set, val_set)
        run_b = train(config, train_set, val_set)
        assert history_csv(run_a.history) == history_csv(run_b.history)
        for key in run_a.checkpoint.params:
            npt.assert_array_equal(run_a.checkpoint.params[key], run_b.checkpoint.params[key])

    def test_checkpoint_holds_best_epoch_weights(self, small_split):
        train_set, val_set = small_split
        config = small_config(epochs=4)
        run = train(config, train_set, val_set)
        best = min(run.history, key=lambda r: (r.val_loss, r.epoch))
        assert run.best_epoch == best.epoch and run.best == best
        model = run.checkpoint.to_model()
        val_loss, val_acc = evaluate_model(model, val_set.images, val_set.labels)
        assert val_loss == pytest.approx(best.val_loss, abs=1e-6)
        assert val_acc == pytest.approx(best.val_accuracy, abs=1e-9)

    def test_early_stopping_halts_before_cap(self, small_split):
        train_set, val_set = small_split
        # tiny learning rate plateaus immediately
        config = replace(
            small_config(epochs=40, learning_rate=1e-12, dropout_rate=0.0),
            early_stopping=EarlyStoppingConfig(enabled=True, metric="val_loss", patience=3),
        )
        run = train(config, train_set, val_set)
        assert len(run.history) < 40
        assert run.best_epoch == best_epoch(run.history, "val_loss")
        assert len(run.history) == run.best_epoch + 3

    def test_early_stopping_can_be_disabled(self, small_split):
        train_set, val_set = small_split
        config = replace(
            small_config(epochs=6, learning_rate=1e-12, dropout_rate=0.0),
            early_stopping=EarlyStoppingConfig(enabled=False),
        )
        assert len(train(config, train_set, val_set).history) == 6

    def test_divergent_learning_rate_raises_with_location(self, small_split):
        # the max-shifted softmax keeps moderate blowups finite, so the probe
        # must overflow float32 outright to exercise the divergence path
        train_set, val_set = small_split
        config = small_config(epochs=40, learning_rate=1e30)
        with pytest.raises(NonFiniteGradient, match="epoch"):
            train(config, train_set, val_set)

    def test_train_loss_includes_l2_term(self, small_split):
        train_set, val_set = small_split
        config = small_config(epochs=1)
        r = train(config, train_set, val_set).history[0]
        assert r.train_loss > r.train_ce >= 0.0

    @staticmethod
    def train_through_the_cli(tmp_path, *settings):
        """``wellqc train`` on tmp_path/corpus, at the caller's OpenBLAS count and in a one-thread block.

        Returns each run's (history.csv, checkpoint.bin) bytes.
        """
        def run(name):
            argv = ["train", "--data", str(tmp_path / "corpus" / "manifest.tsv"), "--out-dir", str(tmp_path / name),
                    "--seed", "1", "--set", "hyperparams.epochs=3", "--set", "early_stopping.enabled=false"]
            assert main([*argv, *settings]) == 0
            return [(tmp_path / name / f).read_bytes() for f in ("history.csv", "checkpoint.bin")]

        default = run("default")
        with blas_threads():
            return default, run("one_thread")

    def test_checkpoint_bits_do_not_follow_the_blas_thread_count(self, tmp_path, several_blas_threads):
        corpus = generate_synthetic(seed=1, n_ok=48, n_ng=49, out_dir=tmp_path / "corpus")
        config = default_run_config()
        train_m, _ = split_train_val(corpus, config.split_fraction, seed=1)
        assert len(train_m.entries) % config.hyperparams.batch_size == 13  # an odd last batch: conv2's weight GEMM
        default, one_thread = self.train_through_the_cli(tmp_path)
        assert default == one_thread

    def test_validation_bits_do_not_follow_the_blas_thread_count(self, tmp_path, several_blas_threads):
        corpus = generate_synthetic(seed=1, n_ok=40, n_ng=41, out_dir=tmp_path / "corpus")
        _, val_m = split_train_val(corpus, 0.8, seed=1)
        assert len(val_m.entries) == 65  # its last 64-image block holds one image: dense1's product is a GEMV
        default, one_thread = self.train_through_the_cli(tmp_path, "--set", "split_fraction=0.8")
        assert default == one_thread

    def test_empty_sets_rejected(self, small_split):
        train_set, val_set = small_split
        with pytest.raises(ValueError):
            train(small_config(), Dataset(images=train_set.images[:0], labels=train_set.labels[:0], ids=[]), val_set)


class TestHistoryCsv:
    def test_columns_and_rows(self):
        history = [record(1, 0.5), record(2, 0.4)]
        text = history_csv(history)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_ce,train_accuracy,val_loss,val_accuracy"
        assert len(lines) == 3

    def test_wall_time_never_serialized(self):
        r = record(1, 0.8)
        assert tuple(configio.dump(r)) == HISTORY_COLUMNS
        assert "wall" not in history_csv([r])


class TestLogisticBaseline:
    def test_parameter_count_is_24644(self, small_split):
        train_set, val_set = small_split
        config = small_config(epochs=1)
        checkpoint = train(config.as_logistic_baseline(), train_set, val_set).checkpoint
        total = sum(int(v.size) for v in checkpoint.params.values())
        assert total == 111 * 111 * 2 + 2 == 24644

    def test_solves_trivially_separable_blobs(self):
        # one bright blob, top half vs bottom half: linearly separable by a
        # weight direction, so the baseline must nail it
        from wellqc.data.manifest import Dataset

        rng = np.random.default_rng(0)
        n = 64
        images = np.empty((n, 111, 111, 1), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            labels[i] = i % 2
            images[i] = 0.2 + 0.03 * rng.standard_normal((111, 111, 1))
            row = 30 if labels[i] == 0 else 80
            images[i, row - 15 : row + 15, 40:70, 0] += 0.6
        images = np.clip(images, 0, 1)
        ids = [str(i) for i in range(n)]
        train_set = Dataset(images=images[:48], labels=labels[:48], ids=ids[:48])
        val_set = Dataset(images=images[48:], labels=labels[48:], ids=ids[48:])
        config = small_config(epochs=10)
        history = train(config.as_logistic_baseline(), train_set, val_set).history
        assert max(r.val_accuracy for r in history) == 1.0

    def test_uses_same_machinery_without_dropout(self, small_split):
        train_set, val_set = small_split
        config = small_config(epochs=1, dropout_rate=0.5)
        baseline = config.as_logistic_baseline()
        checkpoint = train(baseline, train_set, val_set).checkpoint
        assert [l.kind for l in checkpoint.spec.layers] == ["Flatten", "Dense", "Softmax"]
        assert baseline.hyperparams.dropout_rate == 0.0
