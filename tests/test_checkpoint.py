"""Checkpoint container: byte layout, round trips, bit-exact predictions."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from wellqc import configio
from wellqc.errors import FormatError
from wellqc.nn.model import init_model, param_shapes, predict_probs
from wellqc.training.checkpoint import CHECKPOINT_VERSION, Checkpoint

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


def toy_checkpoint(seed=0):
    return Checkpoint(spec=toy_spec(), params=init_model(toy_spec(), np.random.default_rng(seed)).params)


class TestRoundTrip:
    def test_load_save_preserves_everything(self, tmp_path):
        ckpt = toy_checkpoint()
        path = tmp_path / "model.bin"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.spec == ckpt.spec
        assert list(loaded.params) == list(ckpt.params)
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
        magic = data[:nl].split(b" ")
        assert magic[:2] == [b"WELLQC-CKPT", b"v%d" % CHECKPOINT_VERSION] == [b"WELLQC-CKPT", b"v3"]
        header_len = int(magic[2])
        header = data[nl + 1 : nl + 1 + header_len]
        assert header == json.dumps(configio.dump(toy_spec()), sort_keys=True, separators=(",", ":")).encode()
        blob = data[nl + 1 + header_len :]
        expected = b"".join(ckpt.params[name].astype("<f4").tobytes() for name in param_shapes(toy_spec()))
        assert list(param_shapes(toy_spec())) == ["conv1.W", "conv1.b", "dense1.W", "dense1.b", "dense2.W", "dense2.b"]
        assert blob == expected


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
        "edit, names",
        [
            (lambda h: h["layers"][0].update(out_channels="4"), 'layers[0].out_channels: expected an integer, got "4"'),
            (lambda h: h["layers"][4].update(units="x"), 'layers[4].units: expected an integer, got "x"'),
            (lambda h: h["layers"][1].update(kind="Conv3D"), "unknown layer kind 'Conv3D'"),
            (lambda h: h.pop("input_shape"), "input_shape: missing required key"),
            (lambda h: h.update(input_shape=[12, 12]), "expected an array of 3 items, got 2"),
            (lambda h: h["layers"][0].update(out_channels=-4), "Conv2D.out_channels must be >= 1, got -4"),
            (lambda h: h["layers"][0].update(kernel_size=13), "kernel 13x13 exceeds input 12x12"),
            (lambda h: h["layers"].pop(), "architecture must end with a Softmax layer"),
            (lambda h: h.update(hyperparams={"learning_rate": 0.001}), "unknown key(s) 'hyperparams'"),
        ],
        ids=[
            "string-out-channels",
            "string-dense-units",
            "unknown-layer-kind",
            "missing-input-shape",
            "input-shape-of-two-dims",
            "negative-out-channels",
            "kernel-larger-than-the-input",
            "no-softmax-head",
            "v2-hyperparams-key",
        ],
    )
    def test_header_defect_is_a_format_error(self, tmp_path, edit, names):
        path = tmp_path / "model.bin"
        toy_checkpoint().save(path)
        rewrite_header(path, edit)
        with pytest.raises(FormatError, match="bad header") as caught:
            Checkpoint.load(path)
        assert names in str(caught.value)

    @pytest.mark.parametrize(
        "edit, names",
        [
            (lambda h: h["layers"][0].update(out_channels=5), "truncated weight block for dense1.W"),
            (lambda h: h["layers"][4].update(units=7), "412 trailing bytes"),
        ],
        ids=["wider-conv", "narrower-dense"],
    )
    def test_architecture_that_disagrees_with_the_blocks_is_a_format_error(self, tmp_path, edit, names):
        path = tmp_path / "model.bin"
        toy_checkpoint().save(path)
        rewrite_header(path, edit)
        with pytest.raises(FormatError, match=names):
            Checkpoint.load(path)

    @pytest.mark.parametrize("separator", [b"\t", b"  ", b"\x1c"], ids=["tab", "two-spaces", "file-separator"])
    def test_magic_line_fields_are_split_by_single_spaces(self, tmp_path, separator):
        path = tmp_path / "model.bin"
        toy_checkpoint().save(path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"WELLQC-CKPT v3 ", b"WELLQC-CKPT" + separator + b"v3 ", 1))
        with pytest.raises(FormatError, match="bad magic line"):
            Checkpoint.load(path)

    def test_unsupported_version_is_named_with_its_control_bytes_escaped(self, tmp_path):
        path = tmp_path / "model.bin"
        toy_checkpoint().save(path)
        path.write_bytes(path.read_bytes().replace(b" v3 ", b" v\x0b3 ", 1))
        with pytest.raises(FormatError) as caught:
            Checkpoint.load(path)
        assert str(caught.value) == rf"{path}: unsupported checkpoint version 'v\x0b3'"

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
