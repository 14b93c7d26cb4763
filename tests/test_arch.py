"""Architecture spec validation and shape inference."""

import json

import pytest

from wellqc import configio
from wellqc.errors import ConfigError, ShapeError
from wellqc.nn.arch import (
    ArchitectureSpec,
    LayerSpec,
    default_architecture,
    infer_shapes,
    logistic_architecture,
)


class TestInferShapes:
    def test_conv_relu_pool_chain(self):
        spec = ArchitectureSpec(
            input_shape=(111, 111, 1),
            layers=(
                LayerSpec("Conv2D", out_channels=8, kernel_size=3, stride=1),
                LayerSpec("ReLU"),
                LayerSpec("MaxPool2D", window=2, stride=2),
                LayerSpec("Flatten"),
                LayerSpec("Dense", units=2),
                LayerSpec("Softmax"),
            ),
        )
        shapes = infer_shapes(spec)
        assert shapes[:3] == [(109, 109, 8), (109, 109, 8), (54, 54, 8)]

    def test_flatten_dense_softmax(self):
        spec = ArchitectureSpec(
            input_shape=(4, 4, 1),
            layers=(LayerSpec("Flatten"), LayerSpec("Dense", units=2), LayerSpec("Softmax")),
        )
        assert infer_shapes(spec) == [(16,), (2,), (2,)]

    def test_pool_window_exceeding_input_names_layer(self):
        spec = ArchitectureSpec(
            input_shape=(2, 2, 1),
            layers=(LayerSpec("MaxPool2D", window=3, stride=1),),
        )
        with pytest.raises(ShapeError, match="layer 0 .MaxPool2D."):
            infer_shapes(spec)

    @pytest.mark.parametrize(
        "layers, message",
        [
            ((LayerSpec("Dense", units=2), LayerSpec("Softmax")),
             "layer 0 (Dense): expects a flat vector input, got (4, 4, 1)"),
            ((LayerSpec("Flatten"), LayerSpec("Conv2D", out_channels=1, kernel_size=1)),
             "layer 1 (Conv2D): expects (H, W, C) input, got (16,)"),
            ((LayerSpec("Flatten"), LayerSpec("MaxPool2D", window=1)),
             "layer 1 (MaxPool2D): expects (H, W, C) input, got (16,)"),
            ((LayerSpec("Softmax"),), "layer 0 (Softmax): expects a flat vector input, got (4, 4, 1)"),
        ],
        ids=["dense-on-image", "conv-after-flatten", "pool-after-flatten", "softmax-on-image"],
    )
    def test_dense_on_unflattened_input_raises(self, layers, message):
        spec = ArchitectureSpec(input_shape=(4, 4, 1), layers=layers)
        with pytest.raises(ShapeError) as info:
            infer_shapes(spec)
        assert str(info.value) == message

    def test_conv_kernel_too_large_names_layer(self):
        spec = ArchitectureSpec(
            input_shape=(4, 4, 1),
            layers=(LayerSpec("Conv2D", out_channels=1, kernel_size=5),),
        )
        with pytest.raises(ShapeError, match="layer 0 .Conv2D."):
            infer_shapes(spec)


class TestArchitectureSpec:
    def test_default_architecture_validates(self):
        arch = default_architecture()
        shapes = arch.validate()
        assert shapes[-1] == (2,)

    def test_default_dense_width_is_editable(self):
        arch = default_architecture(dense_units=64)
        dense = [l for l in arch.layers if l.kind == "Dense"]
        assert dense[0].units == 64

    def test_logistic_architecture_is_flat_affine_softmax(self):
        arch = logistic_architecture()
        assert [l.kind for l in arch.layers] == ["Flatten", "Dense", "Softmax"]
        assert arch.validate() == [(12321,), (2,), (2,)]

    def test_missing_softmax_tail_rejected(self):
        spec = ArchitectureSpec(
            input_shape=(4, 4, 1),
            layers=(LayerSpec("Flatten"), LayerSpec("Dense", units=2)),
        )
        with pytest.raises(ShapeError):
            spec.validate()

    def test_softmax_before_the_last_layer_rejected(self):
        # a Softmax has no backward of its own: it differentiates jointly with the loss, as the head
        spec = ArchitectureSpec(
            input_shape=(4, 4, 1),
            layers=(
                LayerSpec("Flatten"),
                LayerSpec("Dense", units=4),
                LayerSpec("Softmax"),
                LayerSpec("Dense", units=2),
                LayerSpec("Softmax"),
            ),
        )
        with pytest.raises(ShapeError, match="only the last layer may be a Softmax layer"):
            spec.validate()

    def test_head_width_must_match_num_classes(self):
        spec = ArchitectureSpec(
            input_shape=(4, 4, 1),
            layers=(LayerSpec("Flatten"), LayerSpec("Dense", units=3), LayerSpec("Softmax")),
        )
        assert spec.num_classes == 3
        assert logistic_architecture((4, 4, 1), num_classes=3).num_classes == 3

    def test_one_class_head_rejected(self):
        spec = ArchitectureSpec(
            input_shape=(4, 4, 1),
            layers=(LayerSpec("Flatten"), LayerSpec("Dense", units=1), LayerSpec("Softmax")),
        )
        with pytest.raises(ShapeError, match="at least 2"):
            spec.validate()

    def test_round_trip_through_dict(self):
        arch = default_architecture()
        assert configio.load(ArchitectureSpec, configio.dump(arch)) == arch

    def test_file_round_trip(self, tmp_path):
        arch = default_architecture()
        (tmp_path / "arch.json").write_text(json.dumps(configio.dump(arch)))
        assert configio.load_file(ArchitectureSpec, tmp_path / "arch.json") == arch

    def test_serialized_key_order(self):
        assert list(configio.dump(default_architecture())) == ["input_shape", "layers"]

    def test_layer_error_names_its_path(self):
        d = configio.dump(default_architecture())
        d["layers"][0] = {"kind": "Conv2D", "out_channels": 8}
        with pytest.raises(ConfigError, match=r"layers\[0\]: Conv2D layer requires 'kernel_size'"):
            configio.load(ArchitectureSpec, d)


class TestLayerSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            LayerSpec("BatchNorm")

    def test_missing_required_param_rejected(self):
        with pytest.raises(ConfigError):
            LayerSpec("Conv2D", out_channels=8)

    def test_pool_default_stride_is_window(self):
        layer = LayerSpec("MaxPool2D", window=3)
        assert layer.effective_stride == 3

    def test_conv_default_stride_is_one(self):
        layer = LayerSpec("Conv2D", out_channels=4, kernel_size=3)
        assert layer.effective_stride == 1

    def test_dict_round_trip_drops_unset_fields(self):
        layer = LayerSpec("Dense", units=48)
        assert configio.dump(layer) == {"kind": "Dense", "units": 48}
        assert configio.load(LayerSpec, configio.dump(layer)) == layer
