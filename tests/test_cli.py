"""End to end: every subcommand through ``wellqc.cli.main`` on a fixed-seed corpus.

The whole sequence runs twice in fresh directories. Every call must exit 0,
the two runs must write byte-identical artifacts, and grid search and
cross-validation must give the same results with one worker as with two.
"""

import csv
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from wellqc import parallel
from wellqc.cli import main
from wellqc.data.pgm import read_pgm, write_pgm
from wellqc.parallel import blas_threads

FIXED_EPOCHS = ["--set", "hyperparams.epochs=2", "--set", "early_stopping.enabled=false"]
ONE_EPOCH = ["--set", "hyperparams.epochs=1"]
EARLY_STOPPING = {"hyperparams": {"epochs": 4, "learning_rate": 0.003}, "early_stopping": {"patience": 1}}
TOY_ARCH = {
    "input_shape": [10, 10, 1],
    "layers": [
        {"kind": "Conv2D", "out_channels": 3, "kernel_size": 3},
        {"kind": "ReLU"},
        {"kind": "MaxPool2D", "window": 2},
        {"kind": "Flatten"},
        {"kind": "Dense", "units": 2},
        {"kind": "Softmax"},
    ],
}


def call(*argv):
    assert main(list(argv)) == 0, argv


def run_pipeline(root: Path) -> dict[str, bytes]:
    """gen -> tile -> train -> eval -> predict -> grid-search -> cv -> grad-check in ``root``.

    Returns {relative path: bytes} of every file the sequence leaves behind.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        call("gen", "--seed", "7", "--ok", "12", "--ng", "12", "--out-dir", "corpus")
        crops = [read_pgm(p)[0] for p in sorted(Path("corpus").glob("*.pgm"))[:6]]
        write_pgm(np.block([crops[:3], crops[3:]]), "frame.pgm")
        grid = {"origin_x": 0, "origin_y": 0, "pitch_x": 111, "pitch_y": 111, "rows": 2, "cols": 3}
        Path("tile_grid.json").write_text(json.dumps(grid))
        call("tile", "--frame", "frame.pgm", "--grid", "tile_grid.json", "--out-dir", "tiles")

        data = ["--data", "corpus/manifest.tsv"]
        call("train", *data, "--out-dir", "cnn", "--seed", "3", *FIXED_EPOCHS)
        Path("early_stopping.json").write_text(json.dumps(EARLY_STOPPING))
        call("train", *data, "--out-dir", "cnn_es", "--seed", "1", "--config", "early_stopping.json")
        call("train", "--model", "logistic", *data, "--out-dir", "logistic", *FIXED_EPOCHS)
        call("eval", "--checkpoint", "cnn/checkpoint.bin", *data, "--out-dir", "eval")
        call("predict", "--checkpoint", "cnn/checkpoint.bin", "--out-dir", "predict_paths",
             *sorted(str(p) for p in Path("tiles").glob("*.pgm")))
        call("predict", "--checkpoint", "cnn_es/checkpoint.bin", *data, "--out-dir", "predict_data")

        Path("hp_grid.json").write_text(json.dumps({"learning_rate": [0.001, 0.0003], "batch_size": [8]}))
        for jobs in ("1", "2"):
            call("grid-search", *data, "--grid", "hp_grid.json", "--jobs", jobs, "--out-dir", f"grid{jobs}", *ONE_EPOCH)
            call("cv", *data, "--k", "2", "--jobs", jobs, "--out-dir", f"cv{jobs}", *ONE_EPOCH)
        call("train", *data, "--config", "grid1/best_config.json", "--out-dir", "from_best")

        call("grad-check", "--out-dir", "grad_check")
        Path("arch.json").write_text(json.dumps(TOY_ARCH))
        call("grad-check", "--arch", "arch.json", "--out-dir", "grad_check_arch")
        return {str(p): p.read_bytes() for p in sorted(Path(".").rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return [run_pipeline(tmp_path_factory.mktemp(f"run{i}")) for i in range(2)]


def test_every_subcommand_writes_its_artifacts(runs):
    expected = [
        "tiles/manifest_skeleton.tsv",
        *[f"{d}/{name}" for d in ("cnn", "cnn_es", "logistic", "from_best")
          for name in ("checkpoint.bin", "history.csv", "resolved_config.json")],
        "eval/report.json", "eval/report.csv", "eval/report.txt",
        "predict_paths/predictions.csv", "predict_data/predictions.csv",
        "grid1/grid_results.json", "grid1/grid_results.csv", "grid1/best_config.json", "cv1/cv_report.json",
        "grad_check/grad_check.json", "grad_check_arch/grad_check.json",
    ]
    assert [name for name in expected if name not in runs[0]] == []
    assert len(runs[0]["predict_paths/predictions.csv"].splitlines()) == 1 + 6
    assert len(runs[0]["predict_data/predictions.csv"].splitlines()) == 1 + 24


def test_rerun_is_byte_identical(runs):
    first, second = runs
    assert sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []


@pytest.mark.parametrize("name", ["grid_results.json", "grid_results.csv", "best_config.json"])
def test_grid_search_jobs_1_matches_jobs_2(runs, name):
    assert runs[0][f"grid1/{name}"] == runs[0][f"grid2/{name}"]


def test_cross_validation_jobs_1_matches_jobs_2(runs):
    assert runs[0]["cv1/cv_report.json"] == runs[0]["cv2/cv_report.json"]


def test_grid_search_jobs_1_matches_jobs_2_on_a_host_with_more_cpus(tmp_path, monkeypatch):
    """With 8 CPUs each of two workers once trained at 4 OpenBLAS threads, where --jobs 1 trains at one."""
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)
    monkeypatch.chdir(tmp_path)
    call("gen", "--seed", "1", "--ok", "48", "--ng", "49", "--out-dir", "corpus")
    Path("hp_grid.json").write_text(json.dumps({"learning_rate": [0.001, 0.003]}))
    for jobs in ("1", "2"):
        call("grid-search", "--data", "corpus/manifest.tsv", "--grid", "hp_grid.json", "--seed", "1",
             "--set", "hyperparams.epochs=3", "--set", "early_stopping.enabled=false",
             "--jobs", jobs, "--out-dir", f"grid{jobs}")
    assert Path("grid1/grid_results.json").read_bytes() == Path("grid2/grid_results.json").read_bytes()


def test_logistic_eval_does_not_follow_the_callers_blas_thread_count(tmp_path, monkeypatch, several_blas_threads):
    """The logistic model's 160-row product changed bits between one and two OpenBLAS threads."""
    monkeypatch.chdir(tmp_path)
    call("gen", "--seed", "3", "--ok", "80", "--ng", "80", "--out-dir", "corpus")
    data = ["--data", "corpus/manifest.tsv"]
    call("train", "--model", "logistic", *data, "--out-dir", "logistic", *FIXED_EPOCHS)
    call("eval", "--checkpoint", "logistic/checkpoint.bin", *data, "--out-dir", "default")
    with blas_threads():
        call("eval", "--checkpoint", "logistic/checkpoint.bin", *data, "--out-dir", "one_thread")
    assert Path("default/report.json").read_bytes() == Path("one_thread/report.json").read_bytes()


def test_logistic_resolved_config_reruns_to_the_same_checkpoint(tmp_path, monkeypatch):
    """The resolved config of ``train --model logistic`` names the logistic model, so it re-runs without --model."""
    monkeypatch.chdir(tmp_path)
    call("gen", "--seed", "1", "--ok", "6", "--ng", "6", "--out-dir", "corpus")
    data = ["--data", "corpus/manifest.tsv"]
    call("train", "--model", "logistic", *data, "--out-dir", "logistic", *FIXED_EPOCHS)
    call("train", *data, "--config", "logistic/resolved_config.json", "--out-dir", "rerun")
    assert Path("rerun/checkpoint.bin").read_bytes() == Path("logistic/checkpoint.bin").read_bytes()


def test_early_stopping_keeps_the_best_epoch(runs):
    rows = list(csv.DictReader(runs[0]["cnn_es/history.csv"].decode().splitlines()))
    assert len(rows) < EARLY_STOPPING["hyperparams"]["epochs"]
    best = min(rows, key=lambda row: (float(row["val_loss"]), int(row["epoch"])))
    assert len(rows) == int(best["epoch"]) + EARLY_STOPPING["early_stopping"]["patience"]


def test_best_config_resolves_to_itself(runs):
    best = json.loads(runs[0]["grid1/best_config.json"])
    assert json.loads(runs[0]["from_best/resolved_config.json"]) == best


def test_grad_check_passes(runs):
    for name in ("grad_check/grad_check.json", "grad_check_arch/grad_check.json"):
        assert json.loads(runs[0][name])["passed"] is True


def test_predict_on_an_empty_manifest_writes_only_the_header(runs, tmp_path):
    (tmp_path / "checkpoint.bin").write_bytes(runs[0]["cnn/checkpoint.bin"])
    (tmp_path / "manifest.tsv").write_text("#wellqc-manifest v2 num_classes=2\n")
    call("predict", "--checkpoint", str(tmp_path / "checkpoint.bin"), "--data", str(tmp_path / "manifest.tsv"),
         "--out-dir", str(tmp_path / "out"))
    assert (tmp_path / "out" / "predictions.csv").read_text() == "id,predicted_label,prob_defective\n"


def test_predict_keeps_an_id_with_a_comma_in_one_field(runs, tmp_path, monkeypatch):
    (tmp_path / "checkpoint.bin").write_bytes(runs[0]["cnn/checkpoint.bin"])
    (tmp_path / "c").mkdir()
    write_pgm(np.zeros((111, 111)), tmp_path / "c" / "a,b.pgm")
    monkeypatch.chdir(tmp_path)
    call("predict", "--checkpoint", "checkpoint.bin", "--out-dir", "out", "c/a,b.pgm")
    with open("out/predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "predicted_label", "prob_defective"]
    assert [len(row) for row in rows] == [3, 3]
    assert rows[1][0] == "c/a,b.pgm"


def test_calls_in_one_process_share_no_parsed_values(tmp_path, monkeypatch):
    """The parser is built once per process; each call's options must still be its own."""
    monkeypatch.chdir(tmp_path)
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"]))
    call("gen", "--seed", "7", "--ok", "4", "--ng", "4", "--out-dir", "corpus")
    data = ["--data", "corpus/manifest.tsv", *ONE_EPOCH]
    call("-v", "train", *data, "--out-dir", "first", "--set", "seed=5", "--set", "hyperparams.batch_size=4")
    call("train", *data, "--out-dir", "second", "--set", "hyperparams.learning_rate=0.01")
    first, second = (json.loads(Path(d, "resolved_config.json").read_text()) for d in ("first", "second"))
    assert (first["seed"], first["hyperparams"]["batch_size"]) == (5, 4)
    assert first["hyperparams"]["learning_rate"] != 0.01
    assert (second["seed"], second["hyperparams"]["batch_size"]) != (5, 4)
    assert second["hyperparams"]["learning_rate"] == 0.01

    images = sorted(str(p) for p in Path("corpus").glob("*.pgm"))
    call("predict", "--checkpoint", "first/checkpoint.bin", "--out-dir", "p1", *images[:3])
    call("predict", "--checkpoint", "first/checkpoint.bin", "--out-dir", "p2", images[3])
    ids = [[row["id"] for row in csv.DictReader(Path(d, "predictions.csv").read_text().splitlines())] for d in ("p1", "p2")]
    assert ids == [images[:3], images[3:4]]
    assert levels == [logging.INFO, logging.DEBUG] + [logging.INFO] * 3


def unpack(files: dict[str, bytes], root: Path, prefixes) -> None:
    """Write the files of ``files`` under any of ``prefixes`` into ``root``, at their relative paths."""
    for name, data in files.items():
        if name.startswith(tuple(prefixes)):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)


def test_predict_by_paths_and_by_manifest_write_the_same_probabilities(runs, tmp_path, monkeypatch):
    unpack(runs[0], tmp_path, ["corpus/", "cnn/"])
    monkeypatch.chdir(tmp_path)
    paths = [line.split("\t")[0] for line in Path("corpus/manifest.tsv").read_text().splitlines()[1:]]
    call("predict", "--checkpoint", "cnn/checkpoint.bin", "--data", "corpus/manifest.tsv", "--out-dir", "by_data")
    call("predict", "--checkpoint", "cnn/checkpoint.bin", "--out-dir", "by_paths", *[f"corpus/{p}" for p in paths])
    rows = [list(csv.DictReader(Path(d, "predictions.csv").read_text().splitlines())) for d in ("by_data", "by_paths")]
    assert [r["id"] for r in rows[0]] == paths
    assert [r["id"] for r in rows[1]] == [f"corpus/{p}" for p in paths]
    by_data, by_paths = ([(r["predicted_label"], r["prob_defective"]) for r in rs] for rs in rows)
    assert by_data == by_paths


def test_eval_names_the_method_after_the_checkpoint(runs, tmp_path, monkeypatch):
    assert json.loads(runs[0]["eval/report.json"])["method"] == "CNN"
    unpack(runs[0], tmp_path, ["corpus/", "logistic/"])
    monkeypatch.chdir(tmp_path)
    call("eval", "--checkpoint", "logistic/checkpoint.bin", "--data", "corpus/manifest.tsv", "--out-dir", "eval")
    call("eval", "--checkpoint", "logistic/checkpoint.bin", "--data", "corpus/manifest.tsv", "--out-dir", "named",
         "--method", "baseline")
    assert json.loads(Path("eval/report.json").read_text())["method"] == "logistic"
    assert json.loads(Path("named/report.json").read_text())["method"] == "baseline"
