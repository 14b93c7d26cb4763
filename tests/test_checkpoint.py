"""Checkpoint container: byte layout, round trips, bit-exact predictions."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from wellqc.errors import FormatError
from wellqc.nn.model import init_model, predict_probs
from wellqc.optim import Hyperparams
from wellqc.training.checkpoint import CHECKPOINT_VERSION, Checkpoint, EpochRecord

from tests.test_model import toy_spec


def magic_line(header_len, version=CHECKPOINT_VERSION) -> bytes:
    return b"WELLQC-CKPT v%d %d\n" % (version, header_len)


def rewrite_header(path, edit, version=CHECKPOINT_VERSION):
    """Apply ``edit`` to the checkpoint's JSON header in place, fixing the length."""
    data = path.read_bytes()
    nl = data.find(b"\n")
    header_len = int(data[:nl].split()[2])
    header = json.loads(data[nl + 1 : nl + 1 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(magic_line(len(header_bytes), version) + header_bytes + data[nl + 1 + header_len :])


def set_shape(header, index, shape):
    header["params"][index]["shape"] = shape


def toy_checkpoint(seed=0):
    model = init_model(toy_spec(), np.random.default_rng(seed))
    history = [
        EpochRecord(epoch=1, train_loss=1.2, train_ce=1.0, train_accuracy=0.6,
                    val_loss=0.9, val_accuracy=0.7),
        EpochRecord(epoch=2, train_loss=1.0, train_ce=0.8, train_accuracy=0.7,
                    val_loss=0.8, val_accuracy=0.8),
    ]
    return Checkpoint(
        spec=toy_spec(), params=model.params, hyperparams=Hyperparams(),
        history=history, best_epoch=2,
    )


class TestRoundTrip:
    def test_load_save_preserves_everything(self, tmp_path):
        ckpt = toy_checkpoint()
        path = tmp_path / "model.bin"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.spec == ckpt.spec
        assert loaded.hyperparams == ckpt.hyperparams
        assert loaded.best_epoch == 2
        assert loaded.history == ckpt.history
        for key in ckpt.params:
            npt.assert_array_equal(loaded.params[key], ckpt.params[key])
            assert loaded.params[key].dtype == np.float32

    def test_predictions_bit_identical_after_reload(self, tmp_path):
        ckpt = toy_checkpoint(seed=1)
        path = tmp_path / "model.bin"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        rng = np.random.default_rng(2)
        images = rng.random((20, 12, 12, 1), dtype=np.float32)
        npt.assert_array_equal(
            predict_probs(ckpt.to_model(), images), predict_probs(loaded.to_model(), images)
        )

    def test_save_is_byte_deterministic(self, tmp_path):
        ckpt = toy_checkpoint(seed=3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        ckpt.save(a)
        ckpt.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_weights_stored_as_le_float32_blocks(self, tmp_path):
        ckpt = toy_checkpoint(seed=4)
        path = tmp_path / "model.bin"
        ckpt.save(path)
        data = path.read_bytes()
        nl = data.find(b"\n")
        magic = data[:nl].split()
        assert magic[0] == b"WELLQC-CKPT" and magic[1] == b"v%d" % CHECKPOINT_VERSION
        header_len = int(magic[2])
        header = json.loads(data[nl + 1 : nl + 1 + header_len])
        assert sorted(header) == ["architecture", "best_epoch", "history", "hyperparams", "params"]
        blob = data[nl + 1 + header_len :]
        expected = sum(int(np.prod(p["shape"])) for p in header["params"]) * 4
        assert len(blob) == expected
        first = header["params"][0]
        count = int(np.prod(first["shape"]))
        block = np.frombuffer(blob[: count * 4], dtype="<f4").reshape(first["shape"])
        npt.assert_array_equal(block, ckpt.params[first["name"]])


class TestMalformed:
    def test_truncated_weights_detected(self, tmp_path):
        ckpt = toy_checkpoint()
        path = tmp_path / "model.bin"
        ckpt.save(path)
        data = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(data[:-8])
        with pytest.raises(FormatError, match="truncated"):
            Checkpoint.load(tmp_path / "cut.bin")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(FormatError):
            Checkpoint.load(path)

    def test_trailing_garbage_detected(self, tmp_path):
        ckpt = toy_checkpoint()
        path = tmp_path / "model.bin"
        ckpt.save(path)
        (tmp_path / "extra.bin").write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            Checkpoint.load(tmp_path / "extra.bin")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("hyperparams"),
            lambda h: h["hyperparams"].update(learning_rate="x"),
            lambda h: h["history"][0].pop("train_loss"),
            lambda h: h["architecture"]["layers"][0].update(out_channels="4"),
            lambda h: set_shape(h, 0, [-3, 3, 1, 4]),
            lambda h: set_shape(h, 0, [3, 3, 1, 5]),
            lambda h: h["params"].append(h["params"][0]),
            lambda h: h["params"].pop(),
            lambda h: h["params"][0].update(name="conv9.W"),
        ],
        ids=[
            "missing-hyperparams",
            "string-learning-rate",
            "history-row-without-train-loss",
            "string-out-channels",
            "negative-shape",
            "shape-not-the-architecture's",
            "duplicate-param-name",
            "missing-param",
            "unknown-param-name",
        ],
    )
    def test_header_defect_is_a_format_error(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        toy_checkpoint().save(path)
        rewrite_header(path, edit)
        with pytest.raises(FormatError, match="header"):
            Checkpoint.load(path)

    def test_header_that_is_not_an_object_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(magic_line(2) + b"[]")
        with pytest.raises(FormatError, match="expected an object"):
            Checkpoint.load(path)

    def test_negative_header_length_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(magic_line(-5) + b"{}")
        with pytest.raises(FormatError, match="header length"):
            Checkpoint.load(path)
