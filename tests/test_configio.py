"""The strict config codec: round trips, unknown and missing keys, JSON types."""

import dataclasses
import json

import pytest

from wellqc import configio
from wellqc.data.tiles import TileGrid
from wellqc.errors import ConfigError
from wellqc.nn.arch import ArchitectureSpec, LayerSpec, default_architecture
from wellqc.optim import Hyperparams
from wellqc.training.config import EarlyStoppingConfig, RunConfig, default_run_config
from wellqc.training.loop import EpochRecord
from wellqc.training.search import GridSpec

SAMPLES = {
    "LayerSpec": LayerSpec("Conv2D", out_channels=8, kernel_size=3, stride=1),
    "ArchitectureSpec": default_architecture(),
    "TileGrid": TileGrid(origin_x=10, origin_y=12, pitch_x=130, pitch_y=131, rows=2, cols=3),
    "Hyperparams": Hyperparams(learning_rate=0.01, batch_size=8, l2_lambda=0),
    "EarlyStoppingConfig": EarlyStoppingConfig(enabled=False, metric="val_accuracy", patience=2),
    "RunConfig": dataclasses.replace(default_run_config(), seed=7),
    "GridSpec": GridSpec(learning_rate=(0.1, 0.01), batch_size=(8,)),
    "EpochRecord": EpochRecord(
        epoch=1, train_loss=1.5, train_ce=1.25, train_accuracy=0.5, val_loss=0.75, val_accuracy=1.0
    ),
}
TYPES = pytest.mark.parametrize("obj", SAMPLES.values(), ids=SAMPLES.keys())


def required(cls) -> list[str]:
    return [
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]


@TYPES
def test_round_trip_through_json(obj):
    text = json.dumps(configio.dump(obj))
    assert configio.load(type(obj), json.loads(text)) == obj


@TYPES
def test_dump_lists_fields_in_declaration_order(obj):
    names = [f.name for f in dataclasses.fields(obj) if getattr(obj, f.name) is not None]
    assert list(configio.dump(obj)) == names


@TYPES
def test_unknown_key_rejected(obj):
    d = configio.dump(obj)
    d["bogus"] = 1
    with pytest.raises(ConfigError, match="unknown key.*'bogus'"):
        configio.load(type(obj), d)


@TYPES
def test_missing_required_key_rejected(obj):
    cls = type(obj)
    names = required(cls)
    if not names:
        assert configio.load(cls, {}) == cls()
    for name in names:
        d = configio.dump(obj)
        del d[name]
        with pytest.raises(ConfigError, match=f"{name}: missing required key"):
            configio.load(cls, d)


@TYPES
def test_top_level_must_be_an_object(obj):
    with pytest.raises(ConfigError, match="expected an object"):
        configio.load(type(obj), [configio.dump(obj)])


class TestTypes:
    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="patience: expected an integer, got true"):
            configio.load(EarlyStoppingConfig, {"patience": True})

    def test_int_for_bool_rejected(self):
        with pytest.raises(ConfigError, match="enabled: expected a boolean, got 1"):
            configio.load(EarlyStoppingConfig, {"enabled": 1})

    def test_float_for_int_rejected(self):
        with pytest.raises(ConfigError, match="epochs: expected an integer, got 1.5"):
            configio.load(Hyperparams, {"epochs": 1.5})

    def test_string_for_number_rejected(self):
        with pytest.raises(ConfigError, match='learning_rate: expected a number, got "abc"'):
            configio.load(Hyperparams, {"learning_rate": "abc"})

    def test_array_or_object_for_a_scalar_is_named_by_its_kind(self):
        deep = []
        for _ in range(5_000):  # deeper than json.dumps can write
            deep = [deep]
        with pytest.raises(ConfigError, match="epochs: expected an integer, got an array$"):
            configio.load(Hyperparams, {"epochs": deep})
        with pytest.raises(ConfigError, match="seed: expected an integer, got an object$"):
            configio.load(RunConfig, {**configio.dump(default_run_config()), "seed": {"value": 1}})

    def test_int_for_float_is_kept_as_written(self):
        hp = configio.load(Hyperparams, {"l2_lambda": 0})
        assert hp.l2_lambda == 0 and type(hp.l2_lambda) is int
        assert json.dumps(configio.dump(hp)["l2_lambda"]) == "0"

    def test_null_only_for_optional_fields(self):
        assert configio.load(LayerSpec, {"kind": "ReLU", "units": None}) == LayerSpec("ReLU")
        with pytest.raises(ConfigError, match="kind: expected a string, got null"):
            configio.load(LayerSpec, {"kind": None})

    def test_dump_leaves_out_none_fields(self):
        assert configio.dump(LayerSpec("MaxPool2D", window=2)) == {"kind": "MaxPool2D", "window": 2}

    def test_scalar_for_array_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate: expected an array, got 0.1"):
            configio.load(GridSpec, {"learning_rate": 0.1})

    def test_array_items_are_checked(self):
        with pytest.raises(ConfigError, match=r"batch_size\[1\]: expected an integer, got 2.5"):
            configio.load(GridSpec, {"batch_size": [16, 2.5]})

    def test_fixed_length_array(self):
        d = configio.dump(default_architecture())
        d["input_shape"] = [111, 111]
        with pytest.raises(ConfigError, match="input_shape: expected an array of 3 items, got 2"):
            configio.load(ArchitectureSpec, d)

    def test_nested_errors_name_the_full_path(self):
        d = configio.dump(default_run_config())
        d["architecture"]["layers"][0]["out_channels"] = "4"
        with pytest.raises(ConfigError, match=r"architecture\.layers\[0\]\.out_channels: expected an integer"):
            configio.load(RunConfig, d)

    def test_validation_errors_keep_their_message(self):
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            configio.load(Hyperparams, {"learning_rate": 0})


class TestLoadFile:
    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            configio.load_file(TileGrid, path)

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"origin_x": 0}')
        with pytest.raises(ConfigError, match="grid.json: origin_y: missing required key"):
            configio.load_file(TileGrid, path)
