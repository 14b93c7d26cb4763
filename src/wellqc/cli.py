"""Command-line entry point for the whole pipeline.

Subcommands: gen, tile, train, grid-search, cv, eval, predict, grad-check.
Config precedence is built-in defaults < --config file < --set overrides, and
no environment variable takes part. Each command reads and checks its inputs
(config, grid, manifest, corpus, checkpoint, architecture, threshold) before
it creates its out-dir, so a malformed input leaves none behind; then the
fully-resolved config is logged and written into the out-dir. Exit codes: 0
success, 1 contract/validation failure, 2 I/O or format error. Every failure
prints one line, "error: <type>: <message>", to stderr.

Every command runs at one OpenBLAS thread (``wellqc.parallel`` states the
rule), so its output does not depend on the host's CPU count or on --jobs.

Every JSON input (the run config with its --set overrides, a tile grid, a
grid-search spec, a --arch file) goes through one strict loader,
``wellqc.configio``: an unknown key, a missing required key or a value of the
wrong JSON type exits 1 with a line naming the key, e.g.
"error: ConfigError: hyperparams.epochs: expected an integer, got 1.5".
A --set value is parsed as JSON when it can be, so "--set seed=3" gives the
integer 3 and "--set early_stopping.enabled=false" the boolean; anything else
stays a string and fails where a number or boolean is expected. Checkpoint and
manifest defects are format errors and exit 2.

The pipeline is binary: a well is OK (label 0) or defective (label 1). A
manifest (--data) is the line "#wellqc-manifest v2 num_classes=2", then one
"path<TAB>label" line per crop, its path relative to the manifest and listed
once; ``gen`` writes one, and ``tile`` one whose labels "-" are to be filled in.
A model's Softmax head is 2 wide; a config, --arch file or checkpoint with
another width is rejected as it is read.
"""

import argparse
import csv
import functools
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from wellqc import __version__, configio
from wellqc.errors import EmptyEvaluation, FormatError, GradCheckFailure, NonFiniteGradient, ShapeError, WellQcError
from wellqc.data.manifest import DatasetManifest, load_examples, read_crops, write_manifest
from wellqc.data.pgm import read_pgm, write_pgm
from wellqc.data.splits import kfold_split, split_train_val
from wellqc.data.synth import DEFECT_KINDS, generate_synthetic
from wellqc.data.tiles import TileGrid, tile_scan
from wellqc.data.wells import CROP_SIZE, NUM_CLASSES
from wellqc.gradcheck import grad_check
from wellqc.metrics import check_threshold, emit_report, evaluate_checkpoint, method_name, predict, report_text
from wellqc.nn.arch import ArchitectureSpec, LayerSpec
from wellqc.nn.model import init_model
from wellqc.parallel import blas_threads, pad_heap_top
from wellqc.training.checkpoint import Checkpoint
from wellqc.training.config import resolve_run_config
from wellqc.training.loop import history_csv, train
from wellqc.training.search import GridSpec, cross_validate, grid_search, grid_table_csv

log = logging.getLogger("wellqc")

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_IO = 2


def _add_config_args(p):
    p.add_argument("--config", help="run config JSON (default: the built-in config)")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key, e.g. hyperparams.learning_rate=0.01 (repeatable)",
    )
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")


def _resolve_config(args):
    overrides = list(args.overrides or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    config = resolve_run_config(args.config, overrides)
    _check_input_shape(config.architecture)
    return config


def _check_input_shape(spec) -> None:
    shape, crop_shape = spec.input_shape, (CROP_SIZE, CROP_SIZE, 1)
    if shape != crop_shape:
        raise ShapeError(f"architecture.input_shape {shape} does not match the crops' {crop_shape}")


def _load_classifier(args) -> Checkpoint:
    """The --checkpoint model, checked to take the crops, once --threshold is checked."""
    check_threshold(args.threshold)
    checkpoint = Checkpoint.load(args.checkpoint)
    _check_input_shape(checkpoint.spec)
    return checkpoint


def _prepare_out_dir(args, config=None) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config is not None:
        resolved = configio.dump(config)
        log.info("resolved config: %s", json.dumps(resolved, sort_keys=True))
        configio.write_json(out_dir / "resolved_config.json", resolved, sort_keys=True)
    return out_dir


def _check_at_least(args, name: str, least: int) -> None:
    """Reject ``--name`` below ``least`` before anything is written."""
    value = getattr(args, name)
    if value < least:
        raise ValueError(f"--{name} must be >= {least}, got {value}")


def _load_split(args, config):
    manifest = DatasetManifest.load(args.data)
    train_m, val_m = split_train_val(manifest, config.split_fraction, config.seed)
    return load_examples(train_m), load_examples(val_m)


def cmd_gen(args) -> int:
    mix = None
    if args.mix:
        mix = {}
        for item in args.mix.split(","):
            kind, _, value = item.partition("=")
            mix[kind.strip()] = float(value)
    out_dir = Path(args.out_dir)
    manifest = generate_synthetic(args.gen_seed, args.ok, args.ng, defect_mix=mix, out_dir=out_dir)
    counts = manifest.class_counts()
    print(f"gen: wrote {len(manifest.entries)} images ({counts}) and manifest.tsv to {out_dir}")
    return EXIT_OK


def cmd_tile(args) -> int:
    frame, _ = read_pgm(args.frame)
    grid = configio.load_file(TileGrid, args.grid)
    crops = tile_scan(frame, grid)
    out_dir = _prepare_out_dir(args)
    names = []
    for row, col, pixels in crops:
        names.append(f"r{row:03d}c{col:03d}.pgm")
        write_pgm(pixels, out_dir / names[-1], maxval=255)
    skeleton = out_dir / "manifest_skeleton.tsv"
    write_manifest(skeleton, [(name, "-") for name in names])
    print(f"tile: wrote {len(crops)} crops and {skeleton.name} to {out_dir} (fill in labels)")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config(args)
    if args.model == "logistic":
        config = config.as_logistic_baseline()
    train_set, val_set = _load_split(args, config)
    out_dir = _prepare_out_dir(args, config)
    run = train(config, train_set, val_set)
    ckpt_path = out_dir / "checkpoint.bin"
    run.checkpoint.save(ckpt_path)
    (out_dir / "history.csv").write_text(history_csv(run.history), encoding="utf-8")
    print(
        f"train[{method_name(config.architecture)}]: {len(run.history)} epochs, best epoch {run.best_epoch} "
        f"(val_loss={run.best.val_loss:.4f}, val_accuracy={run.best.val_accuracy:.4f}) -> {ckpt_path}"
    )
    return EXIT_OK


def cmd_grid_search(args) -> int:
    _check_at_least(args, "jobs", 1)
    config = _resolve_config(args)
    grid = configio.load_file(GridSpec, args.grid)
    grid.cells(config)  # a value the hyperparameters reject fails here, before the out-dir
    train_set, val_set = _load_split(args, config)
    out_dir = _prepare_out_dir(args, config)
    results, best_config = grid_search(grid, config, train_set, val_set, jobs=args.jobs)
    (out_dir / "grid_results.csv").write_text(grid_table_csv(results), encoding="utf-8")
    configio.write_json(out_dir / "grid_results.json", [asdict(r) for r in results])
    if best_config is None:
        raise NonFiniteGradient("every grid cell failed; see the result table")
    configio.write_json(out_dir / "best_config.json", configio.dump(best_config))
    top = results[0]
    print(
        f"grid-search: {len(results)} cells, best cell {top.index} "
        f"(val_accuracy={top.val_accuracy:.4f}) -> {out_dir / 'grid_results.csv'}"
    )
    return EXIT_OK


def cmd_cv(args) -> int:
    _check_at_least(args, "jobs", 1)
    _check_at_least(args, "k", 2)
    config = _resolve_config(args)
    manifest = DatasetManifest.load(args.data)
    pairs = kfold_split(manifest, args.k, config.seed)
    corpus = load_examples(manifest)
    out_dir = _prepare_out_dir(args, config)
    report = cross_validate(config, corpus, pairs, jobs=args.jobs)
    configio.write_json(out_dir / "cv_report.json", asdict(report))
    acc = report.mean.get("accuracy", float("nan"))
    std = report.std.get("accuracy", float("nan"))
    print(f"cv: {args.k} folds, accuracy {acc:.4f} +/- {std:.4f} -> {out_dir / 'cv_report.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    checkpoint = _load_classifier(args)
    dataset = load_examples(DatasetManifest.load(args.data))
    if len(dataset) == 0:
        raise EmptyEvaluation("cannot evaluate an empty dataset")
    out_dir = _prepare_out_dir(args)
    report = evaluate_checkpoint(checkpoint, dataset, threshold=args.threshold, method=args.method)
    for fmt, name in (("json", "report.json"), ("csv", "report.csv"), ("text", "report.txt")):
        emit_report(report, out_dir / name, format=fmt)
    sys.stdout.write(report_text(report))
    print(f"eval: {len(dataset)} examples -> {out_dir}")
    return EXIT_OK


def cmd_predict(args) -> int:
    if not args.data and not args.images:
        raise ValueError("predict needs --data or image paths")
    if args.data and args.images:
        raise ValueError("predict takes --data or image paths, not both")
    checkpoint = _load_classifier(args)
    if args.data:
        dataset = load_examples(DatasetManifest.load(args.data))
        images, ids = dataset.images, dataset.ids
    else:
        images = read_crops(args.images)
        ids = [str(path) for path in args.images]
    out_dir = _prepare_out_dir(args)
    labels, p1 = predict(checkpoint, images, threshold=args.threshold)
    out_path = out_dir / "predictions.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "predicted_label", "prob_defective"])
        writer.writerows([i, label, f"{p:.6f}"] for i, label, p in zip(ids, labels.tolist(), p1.tolist()))
    n_defective = int(labels.sum())
    print(f"predict: {len(ids)} images, {n_defective} flagged defective -> {out_path}")
    return EXIT_OK


def _toy_architecture() -> ArchitectureSpec:
    return ArchitectureSpec(
        input_shape=(12, 12, 1),
        layers=(
            LayerSpec("Conv2D", out_channels=4, kernel_size=3),
            LayerSpec("ReLU"),
            LayerSpec("MaxPool2D", window=2),
            LayerSpec("Flatten"),
            LayerSpec("Dense", units=8),
            LayerSpec("ReLU"),
            LayerSpec("Dropout"),
            LayerSpec("Dense", units=2),
            LayerSpec("Softmax"),
        ),
    )


def cmd_grad_check(args) -> int:
    _check_at_least(args, "batch", 1)
    if not args.tolerance > 0:
        raise ValueError(f"--tolerance must be > 0, got {args.tolerance}")
    arch = configio.load_file(ArchitectureSpec, args.arch) if args.arch else _toy_architecture()
    rng = np.random.default_rng(args.check_seed)
    model = init_model(arch, rng)  # validates the architecture
    out_dir = _prepare_out_dir(args)
    batch = rng.random((args.batch, *arch.input_shape), dtype=np.float32)
    labels = rng.integers(0, NUM_CLASSES, args.batch)
    report = grad_check(model, batch, labels, tolerance=args.tolerance)
    configio.write_json(out_dir / "grad_check.json", report.to_dict())
    status = "ok," if report.passed else "FAILED"
    print(f"grad-check: {status} max_rel_err={report.max_rel_err:.3e} -> {out_dir / 'grad_check.json'}")
    if not report.passed:
        raise GradCheckFailure(f"gradient mismatch above {args.tolerance:g} in: {', '.join(report.failing_params())}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="wellqc",
        description="Defect-detection QC pipeline for microwell scanner images.",
    )
    parser.add_argument("--version", action="version", version=f"wellqc {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled corpus")
    p.add_argument("--seed", dest="gen_seed", type=int, required=True)
    p.add_argument("--ok", type=int, required=True, help="number of non-defective images")
    p.add_argument("--ng", type=int, required=True, help="number of defective images")
    p.add_argument("--mix", help=f"defect mix, e.g. occlusion_blob=0.5,scratch_line=0.5 (kinds: {', '.join(DEFECT_KINDS)})")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tile", help="cut a scanner frame into per-well crops")
    p.add_argument("--frame", required=True, help="input frame (binary PGM)")
    p.add_argument("--grid", required=True, help="tile grid JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("train", help="train the classifier (or the logistic baseline)")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--model", choices=("cnn", "logistic"), default="cnn")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="train one model per hyperparameter grid cell")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--grid", required=True, help="grid spec JSON")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("eval", help="evaluate a checkpoint and emit QC reports")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="labeled dataset manifest")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--method", help="method name in the report (default: from the checkpoint's architecture)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify images with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset manifest to predict over")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out-dir", required=True)
    p.add_argument("images", nargs="*", help="PGM files (alternative to --data)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("grad-check", help="verify backprop against finite differences")
    p.add_argument("--arch", help="architecture JSON (default: built-in toy model)")
    p.add_argument("--seed", dest="check_seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    ``pad_heap_top()`` sets glibc's ``M_TOP_PAD`` before the command body
    runs. The setting holds for the rest of the process and is never
    restored (``wellqc.parallel`` says why and how its value was measured);
    it changes no arithmetic. The body runs inside ``blas_threads()``.
    """
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    pad_heap_top()
    try:
        with blas_threads():
            return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (WellQcError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
