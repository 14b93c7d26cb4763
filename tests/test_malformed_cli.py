"""Malformed inputs through the CLI: the documented exit code and one stderr line.

Exit code 1 is a contract violation (here: a config the strict loader
rejects), exit code 2 an I/O or format error (a defective checkpoint header
or manifest, a checkpoint of another format version, a crop of the wrong
size, a truncated PGM). No input may end in a traceback.
"""

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from wellqc import configio
from wellqc.cli import main
from wellqc.data.manifest import DatasetManifest
from wellqc.data.pgm import read_pgm, write_pgm
from wellqc.data.tiles import TileGrid
from wellqc.errors import WellQcError, shorten
from wellqc.nn.arch import ArchitectureSpec, LayerSpec, default_architecture, logistic_architecture
from wellqc.nn.model import init_model, param_shapes
from wellqc.optim import Hyperparams
from wellqc.training.checkpoint import Checkpoint
from wellqc.training.config import EarlyStoppingConfig, RunConfig, default_run_config
from wellqc.training.search import GridSpec

from tests.test_checkpoint import magic_line, rewrite_header
from tests.test_cli import TOY_ARCH

TRAIN = ["train", "--data", "{corpus}", "--out-dir", "{tmp}/out"]
GRID_SEARCH = ["grid-search", "--data", "{corpus}", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"]
CV = ["cv", "--data", "{corpus}", "--out-dir", "{tmp}/out"]
TILE = ["tile", "--frame", "{frame}", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"]
GRAD_CHECK = ["grad-check", "--arch", "{tmp}/input.json", "--out-dir", "{tmp}/out"]
CONFIG = [*TRAIN, "--config", "{tmp}/input.json"]
EVAL = ["eval", "--checkpoint", "{checkpoint}", "--data", "{corpus}", "--out-dir", "{tmp}/out"]
PREDICT = ["predict", "--checkpoint", "{checkpoint}", "--out-dir", "{tmp}/out"]

TILE_GRID = {"origin_x": 0, "origin_y": 0, "pitch_x": 111, "pitch_y": 111, "rows": 1, "cols": 1}
ARCH = configio.dump(default_architecture())
ARCH_STRING_CHANNELS = json.loads(json.dumps(ARCH))
ARCH_STRING_CHANNELS["layers"][0]["out_channels"] = "4"
ARCH_DROPOUT_RATE = json.loads(json.dumps(ARCH))
ARCH_DROPOUT_RATE["layers"][8]["rate"] = 0.2
THREE_CLASS_ARCH = {
    "input_shape": [111, 111, 1],
    "layers": [{"kind": "Flatten"}, {"kind": "Dense", "units": 3}, {"kind": "Softmax"}],
}

# id, argv, contents of {tmp}/input.json (None: not written), what the error line names
CONFIG_CASES = [
    ("set-learning-rate-abc", [*TRAIN, "--set", "hyperparams.learning_rate=abc"], None,
     'hyperparams.learning_rate: expected a number, got "abc"'),
    ("set-epochs-float", [*TRAIN, "--set", "hyperparams.epochs=1.5"], None,
     "hyperparams.epochs: expected an integer, got 1.5"),
    ("set-enabled-python-False", [*TRAIN, "--set", "early_stopping.enabled=False"], None,
     'early_stopping.enabled: expected a boolean, got "False"'),
    ("set-unknown-architecture-key", [*TRAIN, "--set", "architecture.bogus=1"], None,
     "architecture: unknown key(s) 'bogus'"),
    ("set-seed-float", [*TRAIN, "--set", "seed=1.7"], None,
     "seed: expected an integer, got 1.7"),
    ("set-seed-negative", [*TRAIN, "--set", "seed=-3"], None,
     "seed must be >= 0, got -3"),
    ("set-learning-rate-nan", [*TRAIN, "--set", "hyperparams.learning_rate=NaN"], None,
     "hyperparams.learning_rate: expected a finite number, got NaN"),
    ("set-l2-infinity", [*TRAIN, "--set", "hyperparams.l2_lambda=Infinity"], None,
     "hyperparams.l2_lambda: expected a finite number, got Infinity"),
    ("grid-minus-infinity-learning-rate", GRID_SEARCH, {"learning_rate": [0.001, float("-inf")]},
     "learning_rate[1]: expected a finite number, got -Infinity"),
    ("grid-scalar-axis", GRID_SEARCH, {"learning_rate": 0.1},
     "learning_rate: expected an array, got 0.1"),
    ("grid-float-batch-size", GRID_SEARCH, {"batch_size": [2.5]},
     "batch_size[0]: expected an integer, got 2.5"),
    ("tile-float-origin", TILE, {**TILE_GRID, "origin_x": 0.9},
     "origin_x: expected an integer, got 0.9"),
    ("tile-string-pitch", TILE, {**TILE_GRID, "pitch_x": "a"},
     'pitch_x: expected an integer, got "a"'),
    ("arch-string-out-channels", GRAD_CHECK, ARCH_STRING_CHANNELS,
     'layers[0].out_channels: expected an integer, got "4"'),
    ("arch-unknown-top-level-key", GRAD_CHECK, {**ARCH, "comment": "shipped model"},
     "unknown key(s) 'comment'"),
    ("config-string-patience", CONFIG, {"early_stopping": {"patience": "3"}},
     'early_stopping.patience: expected an integer, got "3"'),
    ("config-top-level-list", CONFIG, [{"seed": 1}],
     "the top level must be a JSON object"),
    # keys that checkpoint format v1 stored and v2 dropped
    ("config-hyperparams-optimizer", CONFIG, {"hyperparams": {"optimizer": "adam"}},
     "hyperparams: unknown key(s) 'optimizer'"),
    ("config-hyperparams-loss", CONFIG, {"hyperparams": {"loss": "sparse_categorical_cross_entropy"}},
     "hyperparams: unknown key(s) 'loss'"),
    ("config-dropout-layer-rate", CONFIG, {"architecture": ARCH_DROPOUT_RATE},
     "architecture.layers[8]: unknown key(s) 'rate'"),
    ("config-architecture-num-classes", CONFIG, {"architecture": {"num_classes": 2}},
     "architecture: unknown key(s) 'num_classes'"),
]

ARCH_SOFTMAX_INSIDE = json.loads(json.dumps(ARCH))
ARCH_SOFTMAX_INSIDE["layers"][8] = {"kind": "Softmax"}
ARCH_STRAY_FIELD = json.loads(json.dumps(ARCH))
ARCH_STRAY_FIELD["layers"][6]["kernel_size"] = 7
SHAPE_64 = ["--set", "architecture.input_shape=[64,64,1]"]
SHAPE_64_NAMES = "architecture.input_shape (64, 64, 1) does not match the crops' (111, 111, 1)"
NO_VALIDATION = (
    "fraction 0.2 leaves class 0 with 2 training and 0 validation examples; each class needs at least one on each side"
)
THREE_CLASSES = "the Softmax head has 3 class(es), not 2: a well is OK or defective"
THREE_CLASS_HEADER = (
    "expected the header line '#wellqc-manifest v2 num_classes=2', got '#wellqc-manifest v2 num_classes=3' "
    "(byte offset 0)"
)
NO_MANIFEST = "{tmp}/missing.tsv"
NO_CHECKPOINT = "{tmp}/missing.bin"

# id, argv, contents of {tmp}/input.json (None: not written), exit code, what the error line names
UNREAD_INPUT_CASES = [
    ("gen-ok-minus-1", ["gen", "--seed", "1", "--ok", "-1", "--ng", "1", "--out-dir", "{tmp}/out"], None, 1,
     "image counts must be >= 0, got ok=-1, ng=1"),
    ("gen-mix-below-1", ["gen", "--seed", "1", "--ok", "1", "--ng", "1", "--mix", "scratch_line=0.4",
                         "--out-dir", "{tmp}/out"], None, 1, "defect mix must sum to 1, got 0.4"),
    ("train-missing-manifest", ["train", "--data", NO_MANIFEST, "--out-dir", "{tmp}/out"], None, 2, "missing.tsv"),
    ("grid-search-scalar-axis", GRID_SEARCH, {"learning_rate": 0.1}, 1, "learning_rate: expected an array, got 0.1"),
    ("grid-search-missing-manifest", ["grid-search", "--data", NO_MANIFEST, "--grid", "{tmp}/input.json",
                                      "--out-dir", "{tmp}/out"], {"learning_rate": [0.01]}, 2, "missing.tsv"),
    ("cv-missing-manifest", ["cv", "--data", NO_MANIFEST, "--out-dir", "{tmp}/out"], None, 2, "missing.tsv"),
    ("eval-missing-checkpoint", ["eval", "--checkpoint", NO_CHECKPOINT, "--data", "{corpus}", "--out-dir",
                                 "{tmp}/out"], None, 2, "missing.bin"),
    ("eval-missing-manifest", ["eval", "--checkpoint", "{checkpoint}", "--data", NO_MANIFEST, "--out-dir",
                               "{tmp}/out"], None, 2, "missing.tsv"),
    ("predict-missing-checkpoint", ["predict", "--checkpoint", NO_CHECKPOINT, "--data", "{corpus}", "--out-dir",
                                    "{tmp}/out"], None, 2, "missing.bin"),
    ("eval-threshold-minus-1", [*EVAL, "--threshold", "-1"], None, 1, "threshold must be in [0, 1], got -1.0"),
    ("predict-threshold-2", [*PREDICT, "--data", "{corpus}", "--threshold", "2"], None, 1,
     "threshold must be in [0, 1], got 2.0"),
    ("predict-data-and-paths", [*PREDICT, "--data", "{corpus}", "{frame}"], None, 1,
     "predict takes --data or image paths, not both"),
    ("predict-neither-data-nor-paths", PREDICT, None, 1, "predict needs --data or image paths"),
    ("grad-check-softmax-inside", GRAD_CHECK, ARCH_SOFTMAX_INSIDE, 1, "only the last layer may be a Softmax layer"),
    ("grad-check-stray-layer-field", GRAD_CHECK, ARCH_STRAY_FIELD, 1,
     "layers[6]: Flatten layer does not take 'kernel_size'"),
    # 0.2 of 2 images per class rounds to 0
    ("train-split-leaves-no-validation", ["train", "--data", "{tiny}", "--out-dir", "{tmp}/out"], None, 1,
     NO_VALIDATION),
    ("grid-search-split-leaves-no-validation", ["grid-search", "--data", "{tiny}", "--grid", "{tmp}/input.json",
                                                "--out-dir", "{tmp}/out"], {"learning_rate": [0.01]}, 1, NO_VALIDATION),
    # 0.8 of class 0's 2 images rounds to both; class 1 keeps one of its 6 for training
    ("train-split-leaves-class-0-out-of-training", ["train", "--model", "logistic", "--data", "{uneven}",
                                                    "--set", "split_fraction=0.8", "--out-dir", "{tmp}/out"], None, 1,
     "fraction 0.8 leaves class 0 with 0 training and 2 validation examples"),
    ("grid-search-batch-size-0", GRID_SEARCH, {"batch_size": [0, 8], "dropout_rate": [1.5]}, 1,
     "batch_size must be >= 1, got 0"),
    ("cv-k-above-a-class", [*CV, "--k", "5"], None, 1, "class 0 has 4 examples; need at least k=5"),
    ("eval-empty-manifest", ["eval", "--checkpoint", "{checkpoint}", "--data", "{empty}", "--out-dir", "{tmp}/out"],
     None, 1, "cannot evaluate an empty dataset"),
    ("train-input-shape-64", [*TRAIN, *SHAPE_64], None, 1, SHAPE_64_NAMES),
    ("grid-search-input-shape-64", [*GRID_SEARCH, *SHAPE_64], {"learning_rate": [0.01]}, 1, SHAPE_64_NAMES),
    ("cv-input-shape-64", [*CV, "--k", "2", *SHAPE_64], None, 1, SHAPE_64_NAMES),
    ("cv-unreadable-crop", ["cv", "--data", "{holed}", "--k", "2", "--out-dir", "{tmp}/out"], None, 2, "ok_0003.pgm"),
    ("train-path-listed-twice", ["train", "--data", "{repeated}", "--out-dir", "{tmp}/out"], None, 2,
     "entry 'ok_0000.pgm' is listed twice"),
    ("cv-path-listed-twice", ["cv", "--data", "{repeated}", "--k", "2", "--out-dir", "{tmp}/out"], None, 2,
     "entry 'ok_0000.pgm' is listed twice"),
    ("eval-three-class-head", [*EVAL, "--checkpoint", "{three_class}"], None, 2,
     f"bad header: {THREE_CLASSES}"),
    ("predict-three-class-head", [*PREDICT, "--checkpoint", "{three_class}", "--data", "{corpus}"], None, 2,
     f"bad header: {THREE_CLASSES}"),
    ("cv-three-class-head", [*CV, "--k", "2", "--config", "{tmp}/input.json"], {"architecture": THREE_CLASS_ARCH}, 1,
     f"ShapeError: {THREE_CLASSES}"),
    ("train-three-class-head", [*TRAIN, "--config", "{three_class_config}"], None, 1, f"ShapeError: {THREE_CLASSES}"),
    ("grid-search-three-class-head", [*GRID_SEARCH, "--config", "{three_class_config}"], {"learning_rate": [0.01]}, 1,
     f"ShapeError: {THREE_CLASSES}"),
    # a gen corpus whose header names 3 classes and whose last six rows are labelled 2
    ("train-three-class-manifest", ["train", "--data", "{three_classes}", "--out-dir", "{tmp}/out"], None, 2,
     THREE_CLASS_HEADER),
    ("cv-three-class-manifest", ["cv", "--data", "{three_classes}", "--k", "2", "--out-dir", "{tmp}/out"], None, 2,
     THREE_CLASS_HEADER),
    ("eval-three-class-manifest", [*EVAL, "--data", "{three_classes}"], None, 2, THREE_CLASS_HEADER),
    ("train-million-class-header", ["train", "--data", "{million_classes}", "--out-dir", "{tmp}/out"], None, 2,
     "got '#wellqc-manifest v2 num_classes=1000000' (byte offset 0)"),
    ("eval-checkpoint-input-shape-64", [*EVAL, "--checkpoint", "{input_64}"], None, 1, SHAPE_64_NAMES),
    ("predict-checkpoint-input-shape-64", [*PREDICT, "--checkpoint", "{input_64}", "--data", "{corpus}"], None, 1,
     SHAPE_64_NAMES),
]

# id, edit of the checkpoint's JSON header (the logistic architecture), what the error line names
CHECKPOINT_CASES = [
    ("string-dense-units", lambda h: h["layers"][1].update(units="x"), 'layers[1].units: expected an integer, got "x"'),
    ("unknown-layer-kind", lambda h: h["layers"][0].update(kind="Conv3D"), "unknown layer kind 'Conv3D'"),
    ("missing-input-shape", lambda h: h.pop("input_shape"), "input_shape: missing required key"),
    ("dense-before-flatten", lambda h: h["layers"].pop(0), "layer 0 (Dense): expects a flat vector input"),
    ("v2-hyperparams-key", lambda h: h.update(hyperparams=configio.dump(Hyperparams())),
     "unknown key(s) 'hyperparams'"),
]


def as_v2_header(header):
    """The header a v2 file of the same model held: its architecture beside four keys v3 dropped."""
    architecture = dict(header)
    shapes = param_shapes(configio.load(ArchitectureSpec, architecture))
    header.clear()
    header.update(
        architecture=architecture,
        best_epoch=1,
        history=[{"epoch": 1, "train_loss": 0.7, "train_ce": 0.7, "train_accuracy": 0.5, "val_loss": 0.7,
                  "val_accuracy": 0.5}],
        hyperparams=configio.dump(Hyperparams()),
        params=[{"name": name, "shape": list(shape)} for name, shape in shapes.items()],
    )


# one epoch, should a count check not fire
ONE_EPOCH = ["--set", "hyperparams.epochs=1"]

# id, argv, what the error line names
COUNT_CASES = [
    ("grid-search-jobs-0", [*GRID_SEARCH, *ONE_EPOCH, "--jobs", "0"], "--jobs must be >= 1, got 0"),
    ("grid-search-jobs-minus-2", [*GRID_SEARCH, *ONE_EPOCH, "--jobs", "-2"], "--jobs must be >= 1, got -2"),
    ("cv-jobs-0", [*CV, *ONE_EPOCH, "--k", "2", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    ("cv-jobs-minus-2", [*CV, *ONE_EPOCH, "--k", "2", "--jobs", "-2"], "--jobs must be >= 1, got -2"),
    ("cv-k-0", [*CV, *ONE_EPOCH, "--k", "0"], "--k must be >= 2, got 0"),
    ("cv-k-1", [*CV, *ONE_EPOCH, "--k", "1", "--jobs", "2"], "--k must be >= 2, got 1"),
    ("grad-check-batch-0", ["grad-check", "--out-dir", "{tmp}/out", "--batch", "0"], "--batch must be >= 1, got 0"),
    ("grad-check-batch-minus-1", ["grad-check", "--out-dir", "{tmp}/out", "--batch", "-1"],
     "--batch must be >= 1, got -1"),
    ("grad-check-tolerance-0", ["grad-check", "--out-dir", "{tmp}/out", "--tolerance", "0"],
     "--tolerance must be > 0, got 0.0"),
    ("grad-check-tolerance-minus-1", ["grad-check", "--out-dir", "{tmp}/out", "--tolerance", "-1"],
     "--tolerance must be > 0, got -1.0"),
    ("grad-check-tolerance-nan", ["grad-check", "--out-dir", "{tmp}/out", "--tolerance", "nan"],
     "--tolerance must be > 0, got nan"),
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpora (small, tiny, uneven, one with a crop missing, empty, one listing a crop twice, two whose headers name
    3 and 1,000,000 classes), a one-well frame, a config with a 3-class head and three checkpoints.

    The checkpoints are a trained logistic model, the bytes of a 3-class
    model, which ``Checkpoint.save`` refuses to write, and an untrained
    logistic model of 64x64 crops.
    """
    root = tmp_path_factory.mktemp("workspace")
    assert main(["gen", "--seed", "1", "--ok", "4", "--ng", "4", "--out-dir", str(root / "corpus")]) == 0
    assert main(["gen", "--seed", "2", "--ok", "2", "--ng", "2", "--out-dir", str(root / "tiny")]) == 0
    assert main(["gen", "--seed", "3", "--ok", "2", "--ng", "6", "--out-dir", str(root / "uneven")]) == 0
    assert main(["gen", "--seed", "1", "--ok", "6", "--ng", "6", "--out-dir", str(root / "holed")]) == 0
    (root / "holed" / "ok_0003.pgm").unlink()
    (root / "empty.tsv").write_text("#wellqc-manifest v2 num_classes=2\n")
    records = (root / "corpus" / "manifest.tsv").read_text().splitlines(keepends=True)
    (root / "corpus" / "repeated.tsv").write_text("".join([*records, records[1]]))
    (root / "corpus" / "million.tsv").write_text("".join([records[0].replace("=2", "=1000000"), *records[1:]]))
    assert main(["gen", "--seed", "4", "--ok", "6", "--ng", "12", "--out-dir", str(root / "three")]) == 0
    header, *rows = (root / "three" / "manifest.tsv").read_text().splitlines(keepends=True)
    rows[-6:] = [row.replace("\t1", "\t2") for row in rows[-6:]]
    (root / "three" / "manifest.tsv").write_text("".join([header.replace("=2", "=3"), *rows]))
    train = ["train", "--data", str(root / "corpus" / "manifest.tsv"), "--set", "hyperparams.epochs=1"]
    assert main([*train, "--model", "logistic", "--out-dir", str(root / "model")]) == 0
    (root / "three_class.json").write_text(json.dumps({"architecture": THREE_CLASS_ARCH}))
    header = json.dumps(THREE_CLASS_ARCH, sort_keys=True, separators=(",", ":")).encode()
    weights = np.zeros(111 * 111 * 3 + 3, dtype="<f4").tobytes()  # dense1.W, then dense1.b
    (root / "three_class.bin").write_bytes(magic_line(len(header)) + header + weights)
    spec_64 = logistic_architecture((64, 64, 1))
    Checkpoint(spec_64, init_model(spec_64, np.random.default_rng(0)).params).save(root / "input_64.bin")
    write_pgm(np.zeros((111, 111)), root / "frame.pgm")
    return {
        "corpus": str(root / "corpus" / "manifest.tsv"),
        "tiny": str(root / "tiny" / "manifest.tsv"),
        "uneven": str(root / "uneven" / "manifest.tsv"),
        "holed": str(root / "holed" / "manifest.tsv"),
        "empty": str(root / "empty.tsv"),
        "repeated": str(root / "corpus" / "repeated.tsv"),
        "frame": str(root / "frame.pgm"),
        "checkpoint": str(root / "model" / "checkpoint.bin"),
        "three_classes": str(root / "three" / "manifest.tsv"),
        "million_classes": str(root / "corpus" / "million.tsv"),
        "three_class_config": str(root / "three_class.json"),
        "three_class": str(root / "three_class.bin"),
        "input_64": str(root / "input_64.bin"),
    }


def run_cli(argv, capsys, **paths):
    capsys.readouterr()
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    return code, err.splitlines()


@pytest.mark.parametrize(
    "argv, content, names", [case[1:] for case in CONFIG_CASES], ids=[case[0] for case in CONFIG_CASES]
)
def test_malformed_config_exits_1_with_one_line(workspace, tmp_path, capsys, argv, content, names):
    if content is not None:
        (tmp_path / "input.json").write_text(json.dumps(content))
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError: "), lines
    assert names in lines[0]


@pytest.mark.parametrize(
    "argv, content, code, names", [case[1:] for case in UNREAD_INPUT_CASES], ids=[case[0] for case in UNREAD_INPUT_CASES]
)
def test_input_that_fails_to_load_leaves_no_out_dir(workspace, tmp_path, capsys, argv, content, code, names):
    if content is not None:
        (tmp_path / "input.json").write_text(json.dumps(content))
    exit_code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert exit_code == code
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert names in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, names", [case[1:] for case in COUNT_CASES], ids=[case[0] for case in COUNT_CASES]
)
def test_count_below_its_minimum_exits_1_and_writes_nothing(workspace, tmp_path, capsys, argv, names):
    (tmp_path / "input.json").write_text(json.dumps({"learning_rate": [0.01]}))
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ValueError: "), lines
    assert names in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, names", [case[1:] for case in CHECKPOINT_CASES], ids=[case[0] for case in CHECKPOINT_CASES]
)
def test_defective_checkpoint_header_exits_2_with_one_line(workspace, tmp_path, capsys, edit, names):
    bad = tmp_path / "checkpoint.bin"
    shutil.copyfile(workspace["checkpoint"], bad)
    rewrite_header(bad, edit)
    code, lines = run_cli(EVAL, capsys, tmp=tmp_path, **{**workspace, "checkpoint": bad})
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: FormatError: "), lines
    assert names in lines[0]
    assert not (tmp_path / "out").exists()


def test_v2_checkpoint_exits_2_with_one_line(workspace, tmp_path, capsys):
    old = tmp_path / "checkpoint.bin"
    shutil.copyfile(workspace["checkpoint"], old)
    rewrite_header(old, as_v2_header, version=2)
    code, lines = run_cli(EVAL, capsys, tmp=tmp_path, **{**workspace, "checkpoint": old})
    assert code == 2
    assert lines == [f"error: FormatError: {old}: unsupported checkpoint version 'v2'"]
    assert not (tmp_path / "out").exists()


DEEP = "[" * 200_000  # nests past the JSON parser's depth

# id, argv, exit code, what the error line names; {tmp}/input.json holds DEEP
DEEP_JSON_CASES = [
    ("config", CONFIG, 1, "ConfigError: {tmp}/input.json: invalid JSON: maximum recursion depth exceeded"),
    ("tile-grid", TILE, 1, "ConfigError: {tmp}/input.json: invalid JSON: maximum recursion depth exceeded"),
    ("grid-search-grid", GRID_SEARCH, 1, "ConfigError: {tmp}/input.json: invalid JSON: maximum recursion depth exceeded"),
    ("arch", GRAD_CHECK, 1, "ConfigError: {tmp}/input.json: invalid JSON: maximum recursion depth exceeded"),
    ("set-seed", [*TRAIN, "--set", "seed=" + "[" * 5_000], 1,
     "ConfigError: seed: override value nests past the JSON parser's depth"),
    ("checkpoint-header", [*EVAL, "--checkpoint", "{tmp}/deep.bin"], 2,
     "FormatError: {tmp}/deep.bin: bad header: maximum recursion depth exceeded"),
]


@pytest.mark.parametrize(
    "argv, code, names", [case[1:] for case in DEEP_JSON_CASES], ids=[case[0] for case in DEEP_JSON_CASES]
)
def test_json_nested_past_the_parser_depth_exits_with_one_line(workspace, tmp_path, capsys, argv, code, names):
    (tmp_path / "input.json").write_text(DEEP)
    blocks = Checkpoint.load(workspace["checkpoint"]).params.values()
    (tmp_path / "deep.bin").write_bytes(magic_line(len(DEEP)) + DEEP.encode() + b"".join(b.tobytes() for b in blocks))
    exit_code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert exit_code == code
    assert len(lines) == 1 and lines[0].startswith(f"error: {names.format(tmp=tmp_path)}"), lines
    assert not (tmp_path / "out").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


SYNTAX_BYTES = st.sampled_from(b' \t\n\r\x0b\x0c\x1c0123456789-"{}[],:')  # separators, digits and JSON syntax


def value_paths(value, prefix=()):
    """The key/index path of every value inside a JSON value, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from value_paths(child, (*prefix, key))


def edited(value, path, edit):
    """A copy of the JSON value ``value`` whose container at ``path`` has been passed to ``edit``."""
    out = json.loads(json.dumps(value))
    target = out
    for key in path:
        target = target[key]
    edit(target)
    return out


def replaced(header, path, value):
    """A copy of ``header`` with the value at ``path`` replaced by ``value``."""
    return edited(header, path[:-1], lambda target: target.__setitem__(path[-1], value))


def defective_checkpoints(data: bytes):
    """A real v3 file cut short, with bytes of its magic line and header overwritten, or with another JSON header.

    Overwrites stay out of the weight blocks, since every 32-bit pattern there
    is a float32 the decoder must take. Another header is arbitrary JSON, or
    the file's own header with one value replaced by arbitrary JSON.
    """
    nl = data.index(b"\n")
    header_end = nl + 1 + int(data[:nl].split(b" ")[2])
    header, blocks = json.loads(data[nl + 1 : header_end]), data[header_end:]

    def overwrite(edits):
        return bytes(edits.get(i, byte) for i, byte in enumerate(data[:header_end])) + blocks

    def with_header(value):
        text = json.dumps(value).encode()
        return magic_line(len(text)) + text + blocks

    one_value_replaced = st.tuples(st.sampled_from(list(value_paths(header))), JSON_VALUES).map(
        lambda pair: replaced(header, *pair)
    ).filter(lambda edited: edited != header)
    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.dictionaries(st.integers(0, header_end - 1), SYNTAX_BYTES | st.integers(0, 255), min_size=1, max_size=4)
        .map(overwrite)
        .filter(lambda edited: edited != data),
        (JSON_VALUES | one_value_replaced).map(with_header),
    )


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return (root / f"example{i}" for i in itertools.count())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_defective_v3_checkpoint_exits_2_with_one_line(workspace, fuzz_dirs, data):
    real = Path(workspace["checkpoint"]).read_bytes()
    defective = data.draw(defective_checkpoints(real), label="checkpoint")
    example = next(fuzz_dirs)
    example.mkdir()
    (example / "checkpoint.bin").write_bytes(defective)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([arg.format(tmp=example, **{**workspace, "checkpoint": example / "checkpoint.bin"}) for arg in EVAL])
    lines = stderr.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: FormatError: "), lines
    assert not (example / "out").exists()


# id, argv; {tmp}/small.pgm is a 50x50 crop, which {tmp}/manifest.tsv lists, and {tmp}/well.pgm a 111x111 one
CROP_CASES = [
    ("manifest-entry", ["eval", "--checkpoint", "{checkpoint}", "--data", "{tmp}/manifest.tsv", "--out-dir", "{tmp}/out"]),
    ("predict-paths", ["predict", "--checkpoint", "{checkpoint}", "--out-dir", "{tmp}/out", "{tmp}/well.pgm",
                       "{tmp}/small.pgm"]),
]


@pytest.mark.parametrize("argv", [case[1] for case in CROP_CASES], ids=[case[0] for case in CROP_CASES])
def test_crop_of_another_size_exits_2_naming_its_file(workspace, tmp_path, capsys, argv):
    write_pgm(np.zeros((111, 111)), tmp_path / "well.pgm")
    write_pgm(np.zeros((50, 50)), tmp_path / "small.pgm")
    (tmp_path / "manifest.tsv").write_text("#wellqc-manifest v2 num_classes=2\nwell.pgm\t0\nsmall.pgm\t1\n")
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 2
    small = shorten(repr(str(tmp_path / "small.pgm")))
    assert lines == [f"error: FormatError: {small}: crop is 50x50 pixels, expected 111x111"]


# id, argv; {tmp}/cut.pgm is a 111x111 PGM cut to 3 raster bytes, which {tmp}/manifest.tsv lists
TRUNCATED_PGM_CASES = [
    ("tile-frame", ["tile", "--frame", "{tmp}/cut.pgm", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"]),
    ("predict-path", ["predict", "--checkpoint", "{checkpoint}", "--out-dir", "{tmp}/out", "{tmp}/cut.pgm"]),
    ("manifest-entry", ["predict", "--checkpoint", "{checkpoint}", "--data", "{tmp}/manifest.tsv", "--out-dir",
                        "{tmp}/out"]),
]


@pytest.mark.parametrize(
    "argv", [case[1] for case in TRUNCATED_PGM_CASES], ids=[case[0] for case in TRUNCATED_PGM_CASES]
)
def test_truncated_pgm_exits_2_naming_its_file(workspace, tmp_path, capsys, argv):
    write_pgm(np.zeros((111, 111)), tmp_path / "cut.pgm")
    data = (tmp_path / "cut.pgm").read_bytes()
    header = len(b"P5\n111 111\n255\n")
    (tmp_path / "cut.pgm").write_bytes(data[: header + 3])
    (tmp_path / "manifest.tsv").write_text("#wellqc-manifest v2 num_classes=2\ncut.pgm\t0\n")
    (tmp_path / "input.json").write_text(json.dumps(TILE_GRID))
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 2
    assert lines == [
        f"error: FormatError: {shorten(repr(str(tmp_path / 'cut.pgm')))}: truncated raster: expected 12321 bytes, "
        f"found 3 (byte offset {header + 3})"
    ]


def test_non_integer_manifest_label_exits_2_with_its_offset(workspace, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("#wellqc-manifest v2 num_classes=2\nwell.pgm\tx\n")
    code, lines = run_cli(EVAL, capsys, tmp=tmp_path, **{**workspace, "corpus": manifest})
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: FormatError: "), lines
    assert "label 'x'" in lines[0] and "(byte offset 34)" in lines[0]


# id, manifest bytes, what the error line names; the offset counts bytes, not characters
MANIFEST_CASES = [
    ("non-utf8-path", b"#wellqc-manifest v2 num_classes=2\n\xff\xfe.pgm\t0\n",
     "not UTF-8 text (invalid start byte) (byte offset 34)"),
    ("bad-label-after-non-ascii-path",
     "#wellqc-manifest v2 num_classes=2\nbrunnen-\u00fc.pgm\t0\nwell.pgm\tx\n".encode(),
     "label 'x', not an integer (byte offset 51)"),
]


@pytest.mark.parametrize(
    "content, names", [case[1:] for case in MANIFEST_CASES], ids=[case[0] for case in MANIFEST_CASES]
)
def test_defective_manifest_exits_2_with_its_byte_offset(workspace, tmp_path, capsys, content, names):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(content)
    code, lines = run_cli(EVAL, capsys, tmp=tmp_path, **{**workspace, "corpus": manifest})
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: FormatError: "), lines
    assert names in lines[0]


def as_v1_manifest(text):
    """The manifest a v1 file of the same corpus held: each record tagged, and each crop listed again under hflip."""
    header, *records = text.splitlines()
    rows = [f"{r}\treal\tnone" for r in records] + [f"{r}\taugmented\thflip" for r in records]
    return "\n".join([header.replace(" v2 ", " v1 "), *rows]) + "\n"


def test_v1_manifest_exits_2_with_one_line(workspace, tmp_path, capsys):
    old = tmp_path / "manifest.tsv"
    old.write_text(as_v1_manifest(Path(workspace["corpus"]).read_text()))
    code, lines = run_cli(TRAIN, capsys, tmp=tmp_path, **{**workspace, "corpus": old})
    assert code == 2
    assert lines == [
        f"error: FormatError: {old}: manifest version 1 is no longer read; to make it v2, keep only the rows whose "
        "4th field is 'none', cut each to its first two fields (path and label), and change the header's v1 to v2"
    ]
    assert not (tmp_path / "out").exists()


LONG = 100_000
V2 = "#wellqc-manifest v2 num_classes=2\n"
TRAIN_ON_INPUT = ["train", "--data", "{tmp}/input", "--out-dir", "{tmp}/out"]
EVAL_INPUT = [*EVAL, "--checkpoint", "{tmp}/input"]
TILE_INPUT = ["tile", "--frame", "{tmp}/input", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"]

# id, argv, contents of {tmp}/input (None: not written), exit code, what the error line names; {tmp}/a\x0bb.pgm is a
# 50x50 crop
QUOTED_VALUE_CASES = [
    ("set-long-learning-rate", [*TRAIN, "--set", "hyperparams.learning_rate=" + "a" * LONG], None, 1,
     'ConfigError: hyperparams.learning_rate: expected a number, got "aaaaa'),
    ("v1-manifest-long-label", TRAIN_ON_INPUT,
     "#wellqc-manifest v1 num_classes=2\na.pgm\t" + "x" * LONG + "\treal\tnone\n", 2,
     "manifest version 1 is no longer read"),
    ("manifest-long-label", TRAIN_ON_INPUT, V2 + "a.pgm\t" + "x" * LONG + "\n", 2, "entry 'a.pgm' has label 'xxxxx"),
    ("manifest-long-path", TRAIN_ON_INPUT, V2 + "x" * LONG + "\t-\n", 2, "entry 'xxxxx"),
    ("manifest-long-header", TRAIN_ON_INPUT, "#wellqc-manifest v2 num_classes=" + "x" * LONG + "\n", 2,
     "got '#wellqc-manifest v2 num_class...xxxxx"),
    ("manifest-long-version", TRAIN_ON_INPUT, "#wellqc-manifest v" + "9" * 4_000 + " num_classes=2\n", 2,
     "got '#wellqc-manifest v99999999999...9999"),
    ("manifest-vertical-tab-in-path", TRAIN_ON_INPUT, V2 + "a\x0bb.pgm\t-\n", 2,
     r"entry 'a\x0bb.pgm' has no label; fill in the manifest skeleton first"),
    ("manifest-file-separator-in-path", TRAIN_ON_INPUT, V2 + "a\x1cb.pgm\tx\n", 2,
     r"entry 'a\x1cb.pgm' has label 'x', not an integer"),
    ("manifest-line-separator-in-path", TRAIN_ON_INPUT, V2 + "a\u2028b.pgm\t7\n", 1,
     r"LabelError: {tmp}/input: entry 'a\u2028b.pgm' has label '7', outside [0, 2)"),
    ("crop-vertical-tab-in-path", [*PREDICT, "--data", "{tmp}/input"], V2 + "a\x0bb.pgm\t0\n", 2,
     r"/a\x0bb.pgm': crop is 50x50 pixels, expected 111x111"),
    ("pgm-long-width", TILE_INPUT, b"P5\n" + b"9" * 5_000 + b" 111\n255\n", 2, "width, got b'99999"),
    ("pgm-long-magic", TILE_INPUT, b"x" * LONG, 2, "not a binary PGM (magic b'xxxxx"),
    ("pgm-huge-sides", TILE_INPUT, b"P5\n" + b"9" * 3_000 + b" " + b"9" * 3_000 + b"\n255\n", 2, "width b'99999"),
    ("pgm-sheared-width", TILE_INPUT, b"P5\n887 888\n255\n" + bytes(888 * 888), 2,
     "888 byte(s) after the 887x888 raster; wellqc reads one image per file (byte offset 787671)"),
    ("config-long-unknown-key", [*TRAIN, "--config", "{tmp}/input"], json.dumps({"x" * LONG: 1}), 1,
     "ConfigError: RunConfig: unknown key(s) 'xxxxx"),
    ("config-long-layer-kind", [*TRAIN, "--config", "{tmp}/input"],
     json.dumps({"architecture": {"layers": [{"kind": "x" * LONG}]}}), 1, "unknown layer kind 'xxxxx"),
    ("config-long-metric", [*TRAIN, "--config", "{tmp}/input"], json.dumps({"early_stopping": {"metric": "x" * LONG}}),
     1, "early stopping metric must be val_loss or val_accuracy, got 'xxxxx"),
    ("set-4000-digit-seed", [*TRAIN, "--set", "seed=" + "9" * 4_000], None, 1,
     "ConfigError: seed: expected an integer of at most 64 bits, got 99999"),
    ("grid-4000-digit-learning-rate", [*GRID_SEARCH, "--grid", "{tmp}/input"],
     json.dumps({"learning_rate": [int("9" * 4_000)]}), 1, "learning_rate[0]: expected an integer of at most 64 bits"),
    ("checkpoint-long-magic-line", EVAL_INPUT, b"x" * LONG + b"\n", 2, "bad magic line b'xxxxx"),
    ("checkpoint-long-version", EVAL_INPUT, b"WELLQC-CKPT v" + b"3" * LONG + b" 10\n", 2,
     "unsupported checkpoint version 'v33333"),
    ("checkpoint-long-header-length", EVAL_INPUT, b"WELLQC-CKPT v3 " + b"x" * LONG + b"\n", 2,
     "bad header length b'xxxxx"),
]


@pytest.mark.parametrize(
    "argv, content, code, names", [case[1:] for case in QUOTED_VALUE_CASES], ids=[case[0] for case in QUOTED_VALUE_CASES]
)
def test_value_from_an_input_is_quoted_on_one_short_line(workspace, tmp_path, capsys, argv, content, code, names):
    write_pgm(np.zeros((50, 50)), tmp_path / "a\x0bb.pgm")
    if content is not None:
        (tmp_path / "input").write_bytes(content if isinstance(content, bytes) else content.encode())
    exit_code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert exit_code == code
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert names.format(tmp=tmp_path) in lines[0]
    assert len(lines[0].replace(str(tmp_path), "").encode()) < 300, len(lines[0])
    assert not (tmp_path / "out").exists()


MANIFEST_BYTES = st.sampled_from(b"\t\n\r\x0b\x1c0123456789-")  # separators, digits and the unlabelled mark
FIELD_TEXT = (
    st.text(st.sampled_from("\t\n\r\x0b\x1c0123456789-") | st.characters(codec="utf-8"), max_size=6)
    | st.integers(100, 2_000).map(lambda n: "x" * n)
)


def defective_manifests(data: bytes):
    """A real v2 manifest cut short, with 1-4 bytes overwritten, with a line listed twice, with a field added or
    replaced, or with a record's two fields replaced.

    Overwrites lean toward separators, digits and "-". A new field is short text that leans the same way, or a run of
    hundreds of characters.
    """
    lines = data.decode().splitlines(keepends=True)

    def overwrite(edits):
        return bytes(edits.get(i, byte) for i, byte in enumerate(data))

    def listed_twice(pair):
        line, at = pair
        return "".join([*lines[:at], lines[line], *lines[at:]]).encode()

    def with_field(edit):
        line, index, text, replace = edit
        fields = lines[line].rstrip("\n").split("\t")
        fields[index % len(fields) : index % len(fields) + replace] = [text]
        return "".join([*lines[:line], "\t".join(fields) + "\n", *lines[line + 1 :]]).encode()

    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.dictionaries(st.integers(0, len(data) - 1), MANIFEST_BYTES | st.integers(0, 255), min_size=1, max_size=4)
        .map(overwrite)
        .filter(lambda edited: edited != data),
        st.tuples(st.integers(0, len(lines) - 1), st.integers(1, len(lines))).map(listed_twice),
        st.tuples(st.integers(1, len(lines) - 1), st.integers(0, 2), FIELD_TEXT, st.integers(0, 1))
        .map(with_field)
        .filter(lambda edited: edited != data),
        st.tuples(st.integers(1, len(lines) - 1), FIELD_TEXT, FIELD_TEXT).map(
            lambda edit: "".join([*lines[: edit[0]], f"{edit[1]}\t{edit[2]}\n", *lines[edit[0] + 1 :]]).encode()
        ),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_defective_v2_manifest_predicts_or_exits_with_one_short_line(workspace, fuzz_dirs, data):
    corpus = Path(workspace["corpus"])
    defective = data.draw(defective_manifests(corpus.read_bytes()), label="manifest")
    manifest = corpus.with_name("fuzzed.tsv")  # beside the crops its paths name
    manifest.write_bytes(defective)
    out_dir = next(fuzz_dirs) / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["predict", "--checkpoint", workspace["checkpoint"], "--data", str(manifest), "--out-dir", str(out_dir)])
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == []
        with open(out_dir / "predictions.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + len(DatasetManifest.load(manifest).entries)
    else:
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert len(lines[0].replace(str(corpus.parent), "").encode()) < 300, len(lines[0])
        assert not out_dir.exists()


PGM_BYTES = st.sampled_from(b" \t\n#0123456789P5")  # separators, a comment mark, digits and the magic's letters
LONG_TOKEN_BYTES = st.sampled_from([b"0", b"9", b"x", b"-", b"#"])


def defective_frames(data: bytes):
    """A real P5 frame cut short, with 1-4 header bytes overwritten, or with one header token replaced by a run of
    hundreds of one character."""
    header_end = data.index(b"255\n") + 4
    tokens = data[:header_end].split()

    def overwrite(edits):
        return bytes(edits.get(i, byte) for i, byte in enumerate(data))

    def long_token(edit):
        index, char, length = edit
        return b" ".join([*tokens[:index], char * length, *tokens[index + 1 :]]) + b"\n" + data[header_end:]

    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.dictionaries(st.integers(0, header_end - 1), PGM_BYTES | st.integers(0, 255), min_size=1, max_size=4)
        .map(overwrite)
        .filter(lambda edited: edited != data),
        st.tuples(st.integers(0, len(tokens) - 1), LONG_TOKEN_BYTES, st.integers(100, 2_000)).map(long_token),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_defective_frame_tiles_or_exits_with_one_short_line(workspace, fuzz_dirs, data):
    """A frame that still decodes but is smaller than the one-well grid exits 1 (``GridOutOfBounds``, a contract
    violation); every other damaged frame tiles or exits 2."""
    defective = data.draw(defective_frames(Path(workspace["frame"]).read_bytes()), label="frame")
    example = next(fuzz_dirs)
    example.mkdir()
    (example / "frame.pgm").write_bytes(defective)
    (example / "grid.json").write_text(json.dumps(TILE_GRID))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["tile", "--frame", str(example / "frame.pgm"), "--grid", str(example / "grid.json"), "--out-dir",
                     str(example / "out")])
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == []
        assert (example / "out" / "manifest_skeleton.tsv").is_file()
        return
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert len(lines[0].replace(str(example), "").encode()) < 300, len(lines[0])
    assert not (example / "out").exists()
    if code == 1:
        assert lines[0].startswith("error: GridOutOfBounds: "), lines
        assert min(read_pgm(example / "frame.pgm")[0].shape) < 111
    else:
        assert code == 2 and lines[0].startswith("error: FormatError: "), lines


CONFIG_TYPES = (RunConfig, Hyperparams, EarlyStoppingConfig, ArchitectureSpec, LayerSpec, TileGrid, GridSpec)
LONG_DIGITS = st.integers(100, 4_000).map(lambda n: int("9" * n))  # json reads integers of up to 4,300 digits
LONG_TEXT = st.integers(100, 2_000).map(lambda n: "x" * n)
CONFIG_VALUES = JSON_VALUES | LONG_DIGITS | LONG_DIGITS.map(lambda n: -n) | LONG_TEXT
CONFIG_KEYS = (
    st.sampled_from(sorted({f.name for cls in CONFIG_TYPES for f in dataclasses.fields(cls)})) | st.text(max_size=8)
    | LONG_TEXT
)


def defective_configs(config):
    """A valid config value with one value replaced, one key added, or one key or array item removed, or another JSON
    value in its place.

    Added keys lean toward the field names of the config types, so a layer gains a field its kind may or may not take
    (``LayerKind.accepts``). Values lean toward runs of hundreds of digits or characters.
    """
    paths = list(value_paths(config))
    objects = [path for path in [(), *paths] if isinstance(functools.reduce(lambda v, k: v[k], path, config), dict)]

    def with_key(edit):
        path, key, value = edit
        return edited(config, path, lambda target: target.__setitem__(key, value))

    def without(path):
        return edited(config, path[:-1], lambda target: target.__delitem__(path[-1]))

    return st.one_of(
        CONFIG_VALUES,
        st.tuples(st.sampled_from(paths), CONFIG_VALUES).map(lambda pair: replaced(config, *pair)),
        st.tuples(st.sampled_from(objects), CONFIG_KEYS, CONFIG_VALUES).map(with_key),
        st.sampled_from(paths).map(without),
    ).filter(lambda value: value != config)


def architecture_rejected(value) -> bool:
    """Whether the strict loader, or the architecture's shape check, refuses ``value``."""
    try:
        configio.load(ArchitectureSpec, value).validate()
    except (WellQcError, ValueError):
        return True
    return False


# type, argv, a valid value; {tmp}/missing.tsv does not exist and {tmp}/dot.pgm is a 1x1 frame, so a valid value still
# fails (exit 2 on the manifest, exit 1 on a grid outside the frame) before the out-dir
CONFIG_COMMANDS = [
    (RunConfig, ["train", "--data", "{tmp}/missing.tsv", "--config", "{tmp}/input.json", "--out-dir", "{tmp}/out"],
     configio.dump(default_run_config())),
    (GridSpec, ["grid-search", "--data", "{tmp}/missing.tsv", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"],
     {"learning_rate": [0.001, 0.0003], "batch_size": [8], "dropout_rate": [0.2], "l2_lambda": [0.3]}),
    (TileGrid, ["tile", "--frame", "{tmp}/dot.pgm", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"], TILE_GRID),
    (ArchitectureSpec, ["grad-check", "--arch", "{tmp}/input.json", "--out-dir", "{tmp}/out"], TOY_ARCH),
]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_defective_config_exits_with_one_short_line(fuzz_dirs, data):
    """Every config type, through the command that loads it. An architecture the loader accepts would run the
    gradient check, so ``grad-check --arch`` takes only rejected ones; the run config carries the same layer
    fields to ``train`` whether they are accepted or not."""
    cls, argv, config = data.draw(st.sampled_from(CONFIG_COMMANDS), label="command")
    value = data.draw(defective_configs(config), label="config")
    if cls is ArchitectureSpec:
        assume(architecture_rejected(value))
    example = next(fuzz_dirs)
    example.mkdir()
    (example / "input.json").write_text(json.dumps(value))
    write_pgm(np.zeros((1, 1)), example / "dot.pgm")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([arg.format(tmp=example) for arg in argv])
    lines = stderr.getvalue().splitlines()
    assert code in (1, 2)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert len(lines[0].replace(str(example), "").encode()) < 300, lines[0][:500]
    assert not (example / "out").exists()


def test_wellqc_config_environment_variable_is_ignored(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WELLQC_CONFIG", str(tmp_path / "missing.json"))
    argv = [*TRAIN, "--model", "logistic", "--set", "hyperparams.epochs=1"]
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 0, lines
