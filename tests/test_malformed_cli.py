"""Malformed inputs through the CLI: the documented exit code and one stderr line.

Exit code 1 is a contract violation (here: a config the strict loader
rejects), exit code 2 an I/O or format error (a defective checkpoint header
or manifest, a checkpoint of another format version, a crop of the wrong
size, a truncated PGM). No input may end in a traceback.
"""

import json
import shutil

import numpy as np
import pytest

from wellqc import configio
from wellqc.cli import main
from wellqc.data.pgm import write_pgm
from wellqc.nn.arch import default_architecture

from tests.test_checkpoint import rewrite_header

TRAIN = ["train", "--data", "{corpus}", "--out-dir", "{tmp}/out"]
GRID_SEARCH = ["grid-search", "--data", "{corpus}", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"]
CV = ["cv", "--data", "{corpus}", "--out-dir", "{tmp}/out"]
TILE = ["tile", "--frame", "{frame}", "--grid", "{tmp}/input.json", "--out-dir", "{tmp}/out"]
GRAD_CHECK = ["grad-check", "--arch", "{tmp}/input.json", "--out-dir", "{tmp}/out"]
CONFIG = [*TRAIN, "--config", "{tmp}/input.json"]
EVAL = ["eval", "--checkpoint", "{checkpoint}", "--data", "{corpus}", "--out-dir", "{tmp}/out"]

TILE_GRID = {"origin_x": 0, "origin_y": 0, "pitch_x": 111, "pitch_y": 111, "rows": 1, "cols": 1}
ARCH = configio.dump(default_architecture())
ARCH_STRING_CHANNELS = json.loads(json.dumps(ARCH))
ARCH_STRING_CHANNELS["layers"][0]["out_channels"] = "4"
ARCH_DROPOUT_RATE = json.loads(json.dumps(ARCH))
ARCH_DROPOUT_RATE["layers"][8]["rate"] = 0.2

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

# id, edit of the checkpoint's JSON header, what the error line names
CHECKPOINT_CASES = [
    ("missing-hyperparams", lambda h: h.pop("hyperparams"), "hyperparams: missing required key"),
    ("string-learning-rate", lambda h: h["hyperparams"].update(learning_rate="x"),
     'hyperparams.learning_rate: expected a number, got "x"'),
    ("history-row-without-train-loss", lambda h: h["history"][0].pop("train_loss"),
     "history[0].train_loss: missing required key"),
    ("negative-shape", lambda h: h["params"][0].update(shape=[-12321, 2]), "header params are not"),
    ("duplicate-param-name", lambda h: h["params"].append(h["params"][0]), "header params are not"),
]


def as_v1_header(header):
    """The header a v1 file of the same model held."""
    header["format_version"] = 1
    header["architecture"]["num_classes"] = 2
    header["hyperparams"].update(optimizer="adam", loss="sparse_categorical_cross_entropy")


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
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus, a one-well frame and a trained logistic checkpoint."""
    root = tmp_path_factory.mktemp("workspace")
    assert main(["gen", "--seed", "1", "--ok", "4", "--ng", "4", "--out-dir", str(root / "corpus")]) == 0
    assert main([
        "train", "--model", "logistic", "--data", str(root / "corpus" / "manifest.tsv"),
        "--out-dir", str(root / "model"), "--set", "hyperparams.epochs=1",
    ]) == 0
    write_pgm(np.zeros((111, 111)), root / "frame.pgm")
    return {
        "corpus": str(root / "corpus" / "manifest.tsv"),
        "frame": str(root / "frame.pgm"),
        "checkpoint": str(root / "model" / "checkpoint.bin"),
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


def test_v1_checkpoint_exits_2_with_one_line(workspace, tmp_path, capsys):
    old = tmp_path / "checkpoint.bin"
    shutil.copyfile(workspace["checkpoint"], old)
    rewrite_header(old, as_v1_header, version=1)
    code, lines = run_cli(EVAL, capsys, tmp=tmp_path, **{**workspace, "checkpoint": old})
    assert code == 2
    assert lines == [f"error: FormatError: {old}: unsupported checkpoint version v1"]


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
    (tmp_path / "manifest.tsv").write_text("#wellqc-manifest v1 num_classes=2\nwell.pgm\t0\treal\tnone\nsmall.pgm\t1\treal\tnone\n")
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 2
    assert lines == [f"error: FormatError: {tmp_path / 'small.pgm'}: crop is 50x50 pixels, expected 111x111"]


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
    (tmp_path / "manifest.tsv").write_text("#wellqc-manifest v1 num_classes=2\ncut.pgm\t0\treal\tnone\n")
    (tmp_path / "input.json").write_text(json.dumps(TILE_GRID))
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 2
    assert lines == [
        f"error: FormatError: {tmp_path / 'cut.pgm'}: truncated raster: expected 12321 bytes, found 3 "
        f"(byte offset {header + 3})"
    ]


def test_non_integer_manifest_label_exits_2_with_its_offset(workspace, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("#wellqc-manifest v1 num_classes=2\nwell.pgm\tx\treal\tnone\n")
    code, lines = run_cli(EVAL, capsys, tmp=tmp_path, **{**workspace, "corpus": manifest})
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: FormatError: "), lines
    assert "label 'x'" in lines[0] and "(byte offset 34)" in lines[0]


# id, manifest bytes, what the error line names; the offset counts bytes, not characters
MANIFEST_CASES = [
    ("non-utf8-path", b"#wellqc-manifest v1 num_classes=2\n\xff\xfe.pgm\t0\treal\tnone\n",
     "not UTF-8 text (invalid start byte) (byte offset 34)"),
    ("bad-label-after-non-ascii-path",
     "#wellqc-manifest v1 num_classes=2\nbrunnen-\u00fc.pgm\t0\treal\tnone\nwell.pgm\tx\treal\tnone\n".encode(),
     "label 'x', not an integer (byte offset 61)"),
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


def test_wellqc_config_environment_variable_is_ignored(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WELLQC_CONFIG", str(tmp_path / "missing.json"))
    argv = [*TRAIN, "--model", "logistic", "--set", "hyperparams.epochs=1"]
    code, lines = run_cli(argv, capsys, tmp=tmp_path, **workspace)
    assert code == 0, lines
