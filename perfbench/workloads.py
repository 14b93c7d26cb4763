"""The benchmark's four workloads: what each sets up and what one op runs.

Every op drives the program through ``wellqc.cli.main`` with the arguments a
user would type. Set-up makes the inputs (corpus, frames, grid file,
pre-trained checkpoint); the program receives only those files. All inputs
derive from the run's seed. An op's artifacts must be byte-identical to those
of every earlier op with the same key.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from wellqc.data.manifest import DatasetManifest
from wellqc.data.pgm import write_pgm
from wellqc.data.splits import split_train_val
from wellqc.data.synth import DEFECT_KINDS, render_well
from wellqc.data.wells import CROP_SIZE
from wellqc.training.config import default_run_config

# Seed of the recorded baseline. Seed 1 is kept back for checking claims.
BASELINE_SEED = 0


@dataclass
class OpResult:
    items: int
    key: str
    artifacts: dict = field(default_factory=dict)  # name -> path


def fixed_epochs(epochs: int) -> list:
    return ["--set", f"hyperparams.epochs={epochs}", "--set", "early_stopping.enabled=false"]


def train_count(manifest_path: str, seed: int) -> int:
    """How many examples ``wellqc train`` puts in the train split."""
    train_m, _ = split_train_val(DatasetManifest.load(manifest_path), default_run_config().split_fraction, seed)
    return len(train_m.entries)


def last_val_accuracy(history_path: str) -> float:
    with open(history_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["val_accuracy"])


class Workload:
    name = ""
    items_alias = ""  # the name users know items_per_s by on this workload
    items_unit = ""
    alias_scale = 1.0
    gate_accuracy = True  # val_accuracy must beat chance on BASELINE_SEED

    def setup(self, call, seed: int) -> None:
        raise NotImplementedError

    def outputs(self, index: int) -> list:
        """Directories op ``index`` writes.

        They are removed, untimed, before the op, so every op writes new
        files as a user writing to a fresh out-dir does. Truncating and
        rewriting existing files instead makes ext4 flush them on close,
        which on a shared disk adds hundreds of milliseconds of jitter.
        """
        return []

    def op(self, call, index: int) -> OpResult:
        raise NotImplementedError

    def quality(self, result: OpResult) -> float:
        """Model quality read from the op's artifacts; raises on malformed output."""
        raise NotImplementedError


class TrainCnn(Workload):
    """The headline cost: conv and pool forward and backward at batch 16, Adam every step."""

    name = "train_cnn"
    items_alias = "train_images_per_s"
    items_unit = "images*epochs/s"
    EPOCHS = 3
    PER_CLASS = 48

    def setup(self, call, seed):
        self.seed = seed
        n = str(self.PER_CLASS)
        call(["gen", "--seed", str(seed), "--ok", n, "--ng", n, "--out-dir", "corpus"])
        self.n_train = train_count("corpus/manifest.tsv", seed)

    def outputs(self, index):
        return ["train_out"]

    def op(self, call, index):
        call(["train", "--data", "corpus/manifest.tsv", "--out-dir", "train_out", "--seed", str(self.seed),
              *fixed_epochs(self.EPOCHS)])
        return OpResult(self.n_train * self.EPOCHS, "train",
                        {"checkpoint.bin": "train_out/checkpoint.bin", "history.csv": "train_out/history.csv"})

    def quality(self, result):
        return last_val_accuracy(result.artifacts["history.csv"])


class ScanQc(Workload):
    """Inference only: tile a frame, write and read 64 crops, one checkpoint load, one forward at batch 64."""

    name = "scan_qc"
    items_alias = "predict_images_per_s"
    items_unit = "crops/s"
    gate_accuracy = False
    FRAMES = 4
    GRID = 8
    PRETRAIN_PER_CLASS = 32
    PRETRAIN_EPOCHS = 2

    def setup(self, call, seed):
        n = str(self.PRETRAIN_PER_CLASS)
        call(["gen", "--seed", str(seed), "--ok", n, "--ng", n, "--out-dir", "corpus"])
        call(["train", "--data", "corpus/manifest.tsv", "--out-dir", "model", "--seed", str(seed),
              *fixed_epochs(self.PRETRAIN_EPOCHS)])
        os.makedirs("frames")
        self.truth = [self._render_frame(seed, k) for k in range(self.FRAMES)]
        grid = {"origin_x": 0, "origin_y": 0, "pitch_x": CROP_SIZE, "pitch_y": CROP_SIZE,
                "rows": self.GRID, "cols": self.GRID}
        with open("grid.json", "w", encoding="utf-8") as fh:
            json.dump(grid, fh)

    def _render_frame(self, seed, k):
        """Write frames/frame<k>.pgm, a GRIDxGRID mosaic of wells; returns the true labels."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        share = rng.uniform(0.1, 0.4)
        wells, labels = [], []
        for _ in range(self.GRID * self.GRID):
            defect = DEFECT_KINDS[rng.integers(len(DEFECT_KINDS))] if rng.random() < share else None
            wells.append(render_well(rng, defect))
            labels.append(int(defect is not None))
        rows = [wells[r * self.GRID:(r + 1) * self.GRID] for r in range(self.GRID)]
        write_pgm(np.block(rows), f"frames/frame{k}.pgm")
        return labels

    def outputs(self, index):
        k = index % self.FRAMES
        return [f"crops/frame{k}", f"pred/frame{k}"]

    def op(self, call, index):
        k = index % self.FRAMES
        crops_dir = f"crops/frame{k}"
        call(["tile", "--frame", f"frames/frame{k}.pgm", "--grid", "grid.json", "--out-dir", crops_dir])
        crops = [f"{crops_dir}/r{r:03d}c{c:03d}.pgm" for r in range(self.GRID) for c in range(self.GRID)]
        call(["predict", "--checkpoint", "model/checkpoint.bin", "--out-dir", f"pred/frame{k}", *crops])
        return OpResult(len(crops), f"frame{k}", {"predictions.csv": f"pred/frame{k}/predictions.csv"})

    def quality(self, result):
        """Share of crops whose predicted label matches the rendered truth."""
        with open(result.artifacts["predictions.csv"], encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        truth = self.truth[int(result.key.removeprefix("frame"))]
        if len(rows) != len(truth) or not all(0.0 <= float(r["prob_defective"]) <= 1.0 for r in rows):
            raise ValueError(f"{result.artifacts['predictions.csv']}: expected {len(truth)} rows of probabilities")
        return sum(int(r["predicted_label"]) == t for r, t in zip(rows, truth)) / len(truth)


class CorpusBaseline(Workload):
    """Reads a corpus back for a logistic train and an eval with reports.

    The data layer and a dense-only model; no conv or pool.
    """

    name = "corpus_baseline"
    items_alias = "corpus_images_per_s"
    items_unit = "images/s"
    PER_CLASS = 200
    HELDOUT_PER_CLASS = 100
    EPOCHS = 3
    CORPORA = 2  # ops alternate between the corpora, so every artifact repeats within a run

    def setup(self, call, seed):
        self.seed = seed
        n = str(self.HELDOUT_PER_CLASS)
        call(["gen", "--seed", str(1000 * seed), "--ok", n, "--ng", n, "--out-dir", "heldout"])
        n = str(self.PER_CLASS)
        for j in range(self.CORPORA):
            call(["gen", "--seed", str(1000 * seed + 1 + j), "--ok", n, "--ng", n, "--out-dir", f"corpus{j}"])

    def outputs(self, index):
        return ["baseline", "eval"]

    def op(self, call, index):
        j = index % self.CORPORA
        call(["train", "--model", "logistic", "--data", f"corpus{j}/manifest.tsv", "--out-dir", "baseline",
              "--seed", str(self.seed), *fixed_epochs(self.EPOCHS)])
        call(["eval", "--checkpoint", "baseline/checkpoint.bin", "--data", "heldout/manifest.tsv",
              "--method", "logistic", "--out-dir", "eval"])
        return OpResult(2 * self.PER_CLASS, f"corpus{j}", {
            "checkpoint.bin": "baseline/checkpoint.bin",
            "history.csv": "baseline/history.csv",
            "report.json": "eval/report.json",
        })

    def quality(self, result):
        """Accuracy on the held-out corpus."""
        with open(result.artifacts["report.json"], encoding="utf-8") as fh:
            return float(json.load(fh)["metrics"]["accuracy"])


class GridSweep(Workload):
    """The only concurrent path: grid cells on a thread pool over numpy, and backward at batch 64."""

    name = "grid_sweep"
    items_alias = "grid_cells_per_min"
    items_unit = "cells/min"
    alias_scale = 60.0
    PER_CLASS = 48
    EPOCHS = 2
    GRID = {"batch_size": [16, 64], "learning_rate": [1e-3, 3e-4]}

    def setup(self, call, seed):
        self.seed = seed
        self.jobs = min(2, os.cpu_count() or 1)
        n = str(self.PER_CLASS)
        call(["gen", "--seed", str(seed), "--ok", n, "--ng", n, "--out-dir", "corpus"])
        with open("grid.json", "w", encoding="utf-8") as fh:
            json.dump(self.GRID, fh)

    def outputs(self, index):
        return ["grid_out"]

    def op(self, call, index):
        call(["grid-search", "--data", "corpus/manifest.tsv", "--grid", "grid.json", "--jobs", str(self.jobs),
              "--out-dir", "grid_out", "--seed", str(self.seed), *fixed_epochs(self.EPOCHS)])
        cells = len(self.GRID["batch_size"]) * len(self.GRID["learning_rate"])
        return OpResult(cells, "grid", {"grid_results.json": "grid_out/grid_results.json"})

    def quality(self, result):
        """Validation accuracy of the best-ranked cell."""
        with open(result.artifacts["grid_results.json"], encoding="utf-8") as fh:
            return float(json.load(fh)[0]["val_accuracy"])


WORKLOADS = {w.name: w for w in (TrainCnn, ScanQc, CorpusBaseline, GridSweep)}
