"""The split helper: ``split_thread`` opens one helper thread, ``both`` runs a part on it; and the heap-top pad that
``cli.main`` sets before each command."""

import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from wellqc import cli, parallel
from wellqc.errors import NonFiniteGradient
from wellqc.nn import model as nn_model
from wellqc.nn import ops
from wellqc.parallel import both, helper_open, run_tasks, split_thread
from wellqc.training import loop
from wellqc.training.config import default_run_config


@pytest.fixture
def two_cpus(monkeypatch):
    """A helper opens whatever the host's CPU count."""
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("wellqc-split")]


class TestBoth:
    def test_second_part_runs_on_the_helper(self, two_cpus):
        with split_thread():
            assert helper_open()
            first, second = both(threading.current_thread, threading.current_thread)
        assert first is threading.main_thread()
        assert second is not first and second.name.startswith("wellqc-split")
        assert not helper_open()
        assert not second.is_alive()

    def test_without_a_helper_both_parts_run_in_order_on_the_caller(self):
        calls = []
        assert both(lambda: calls.append("first") or 1, lambda: calls.append("second") or 2) == (1, 2)
        assert calls == ["first", "second"]

    def test_one_cpu_opens_no_helper(self, monkeypatch):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
        with split_thread():
            assert not helper_open()
            assert both(threading.current_thread, threading.current_thread) == (threading.main_thread(),) * 2

    @pytest.mark.parametrize("raiser", ["first", "second"])
    def test_raises_after_both_parts_finish(self, two_cpus, raiser):
        finished = []

        def part(name):
            def run():
                if name == raiser:
                    finished.append(name)
                    raise RuntimeError(name)
                time.sleep(0.1)  # the other part is still running when the raiser raises
                finished.append(name)

            return run

        with split_thread():  # leaving it would wait for the helper anyway
            with pytest.raises(RuntimeError, match=raiser):
                both(part("first"), part("second"))
            assert sorted(finished) == ["first", "second"]

    def test_first_part_error_wins_when_both_raise(self, two_cpus):
        def fail(name):
            def run():
                raise RuntimeError(name)

            return run

        with split_thread(), pytest.raises(RuntimeError, match="first"):
            both(fail("first"), fail("second"))

    def test_helper_sees_the_callers_errstate(self, two_cpus):
        with split_thread(), np.errstate(over="ignore", invalid="raise"):
            first, second = both(np.geterr, np.geterr)
        assert first == second
        assert second["over"] == "ignore" and second["invalid"] == "raise"

    def test_runner_threads_run_both_parts_themselves(self, two_cpus):
        def cell(_):
            with split_thread():
                return threading.current_thread(), helper_open(), both(threading.current_thread, threading.current_thread)

        results = run_tasks(cell, [(0,), (1,)], jobs=2)
        for thread, opened, parts in results:
            assert thread is not threading.main_thread()
            assert not opened and parts == (thread, thread)

    def test_nested_split_thread_keeps_the_outer_helper(self, two_cpus):
        with split_thread():
            _, outer = both(lambda: None, threading.current_thread)
            with split_thread():
                _, inner = both(lambda: None, threading.current_thread)
            assert helper_open()
        assert inner is outer


class TestWhichKernelsSplit:
    """Only the conv backward and the pools of two or more images call ``both``."""

    @pytest.fixture
    def both_calls(self, monkeypatch):
        calls = []

        def recording(first, second):
            calls.append(1)
            return both(first, second)

        monkeypatch.setattr(ops, "both", recording)
        return calls

    def run_kernels(self, n, window, stride):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, 9, 9, 2)).astype(np.float32)
        out = ops.maxpool2d_forward(x, window, stride)
        ops.maxpool2d_backward(np.ones(out.shape, np.float32), (x, out), x.shape, window, stride)

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 2), (2, 1)])
    def test_pools_of_two_images_split_with_a_helper(self, two_cpus, both_calls, window, stride):
        with split_thread():
            self.run_kernels(2, window, stride)
        assert len(both_calls) == 2

    def test_one_image_pool_does_not(self, two_cpus, both_calls):
        with split_thread():
            self.run_kernels(1, 2, 2)
        assert both_calls == []

    def test_pools_do_not_split_without_a_helper(self, both_calls):
        self.run_kernels(2, 2, 2)
        assert both_calls == []

    def test_conv_backward_always_goes_through_both(self, both_calls):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 6, 6, 1)).astype(np.float32)
        w = rng.standard_normal((3, 3, 1, 2)).astype(np.float32)
        ops.conv2d_backward(np.ones((1, 4, 4, 2), np.float32), x, w)
        assert len(both_calls) == 1


def tiny_config(**hp):
    config = default_run_config()
    return replace(config, hyperparams=replace(config.hyperparams, epochs=1, **hp), seed=5)


class TestTrainOpensOneHelper:
    def test_helper_is_closed_after_train_returns(self, two_cpus, small_split, monkeypatch):
        seen = []
        real = loop.adam_step

        def recording(*args, **kwargs):
            seen.extend(helper_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(loop, "adam_step", recording)
        loop.train(tiny_config(), *small_split)
        assert seen and len(set(seen)) == 1
        assert not seen[0].is_alive() and helper_threads() == []

    def test_helper_is_closed_after_a_non_finite_gradient(self, two_cpus, small_split, monkeypatch):
        seen = []

        def diverging(*args, **kwargs):
            seen.extend(helper_threads())
            raise NonFiniteGradient("conv1.W")

        monkeypatch.setattr(loop, "adam_step", diverging)
        with pytest.raises(NonFiniteGradient, match="epoch 1, batch 0: conv1.W"):
            loop.train(tiny_config(), *small_split)
        assert seen and not seen[0].is_alive() and helper_threads() == []

    def test_validation_runs_on_the_calling_thread_with_the_helper_open(self, two_cpus, small_split, monkeypatch):
        """Fanning validation out to the runner's workers raised ``train``'s peak RSS by more than a third."""
        seen = []
        real = nn_model.model_forward

        def recording(model, batch, rng=None):
            seen.append((threading.current_thread(), helper_open(), len(batch)))
            return real(model, batch, rng)

        monkeypatch.setattr(nn_model, "model_forward", recording)  # predict_probs's forwards only
        train_set, val_set = small_split
        loop.train(tiny_config(), train_set, val_set)
        assert len(seen) >= 2 and sum(size for *_, size in seen) == len(val_set)
        assert {(thread, open_) for thread, open_, _ in seen} == {(threading.main_thread(), True)}


class TestPadHeapTop:
    """``cli.main`` sets glibc's ``M_TOP_PAD`` through the cached ``mallopt`` lookup before the command body runs."""

    GEN = ["gen", "--seed", "1", "--ok", "1", "--ng", "1", "--out-dir"]

    def test_main_sets_the_pad_once_before_the_command_runs(self, monkeypatch, tmp_path):
        calls = []

        def fake_mallopt(param, value):
            calls.append((param, value))
            return 1

        def fake_generate(*args, **kwargs):
            calls.append("gen")
            return SimpleNamespace(entries=[], class_counts=dict)

        monkeypatch.setattr(parallel, "_mallopt", lambda: fake_mallopt)
        monkeypatch.setattr(cli, "generate_synthetic", fake_generate)
        assert cli.main([*self.GEN, str(tmp_path / "out")]) == 0
        assert calls == [(parallel.M_TOP_PAD, parallel.TOP_PAD), "gen"]

    def test_without_mallopt_a_command_runs_as_is(self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "_mallopt", lambda: None)
        assert cli.main([*self.GEN, str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.tsv").is_file()
