"""Command-line entry point for the whole pipeline.

Subcommands: gen, tile, train, grid-search, cv, eval, predict, grad-check.
Config precedence is built-in defaults < --config file < --set overrides, and
no environment variable takes part; the fully-resolved config is logged and
written into the out-dir before anything runs. Exit codes: 0 success, 1
contract/validation failure, 2 I/O or format error. Every failure prints one
line, "error: <type>: <message>", to stderr.

Every JSON input (the run config with its --set overrides, a tile grid, a
grid-search spec, a --arch file) goes through one strict loader,
``wellqc.configio``: an unknown key, a missing required key or a value of the
wrong JSON type exits 1 with a line naming the key, e.g.
"error: ConfigError: hyperparams.epochs: expected an integer, got 1.5".
A --set value is parsed as JSON when it can be, so "--set seed=3" gives the
integer 3 and "--set early_stopping.enabled=false" the boolean; anything else
stays a string and fails where a number or boolean is expected. Checkpoint and
manifest defects are format errors and exit 2.
"""

import argparse
import functools
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from wellqc import __version__, configio
from wellqc.errors import FormatError, GradCheckFailure, WellQcError
from wellqc.data.augment import AUG_NONE
from wellqc.data.manifest import DatasetManifest, load_examples, read_crop, write_manifest
from wellqc.data.pgm import read_pgm, write_pgm
from wellqc.data.splits import split_train_val
from wellqc.data.synth import DEFECT_KINDS, generate_synthetic
from wellqc.data.tiles import ScanFrame, TileGrid, tile_scan
from wellqc.gradcheck import grad_check
from wellqc.metrics import emit_report, evaluate_checkpoint, predict, report_text
from wellqc.nn.arch import ArchitectureSpec, LayerSpec
from wellqc.nn.model import init_model
from wellqc.training.checkpoint import Checkpoint
from wellqc.training.config import resolve_run_config
from wellqc.training.loop import history_csv, train, train_logistic_baseline
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
    return resolve_run_config(args.config, overrides)


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
    out_dir = _prepare_out_dir(args)
    manifest = generate_synthetic(args.gen_seed, args.ok, args.ng, defect_mix=mix, out_dir=out_dir)
    counts = manifest.class_counts()
    print(f"gen: wrote {len(manifest.entries)} images ({counts}) and manifest.tsv to {out_dir}")
    return EXIT_OK


def cmd_tile(args) -> int:
    pixels, _ = read_pgm(args.frame)
    frame = ScanFrame(pixels=pixels)
    grid = configio.load_file(TileGrid, args.grid)
    crops = tile_scan(frame, grid)
    out_dir = _prepare_out_dir(args)
    names = []
    for crop in crops:
        names.append(f"r{crop.row:03d}c{crop.col:03d}.pgm")
        write_pgm(crop.pixels, out_dir / names[-1], maxval=255)
    skeleton = out_dir / "manifest_skeleton.tsv"
    write_manifest(skeleton, 2, [(name, "-", "real", AUG_NONE) for name in names])
    print(f"tile: wrote {len(crops)} crops and {skeleton.name} to {out_dir} (fill in labels)")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config(args)
    out_dir = _prepare_out_dir(args, config)
    train_set, val_set = _load_split(args, config)
    trainer = train_logistic_baseline if args.model == "logistic" else train
    checkpoint = trainer(config, train_set, val_set)
    ckpt_path = out_dir / "checkpoint.bin"
    checkpoint.save(ckpt_path)
    (out_dir / "history.csv").write_text(history_csv(checkpoint.history), encoding="utf-8")
    best = checkpoint.history[checkpoint.best_epoch - 1]
    print(
        f"train[{args.model}]: {len(checkpoint.history)} epochs, best epoch {checkpoint.best_epoch} "
        f"(val_loss={best.val_loss:.4f}, val_accuracy={best.val_accuracy:.4f}) -> {ckpt_path}"
    )
    return EXIT_OK


def cmd_grid_search(args) -> int:
    _check_at_least(args, "jobs", 1)
    config = _resolve_config(args)
    out_dir = _prepare_out_dir(args, config)
    grid = configio.load_file(GridSpec, args.grid)
    train_set, val_set = _load_split(args, config)
    results, best_config = grid_search(grid, config, train_set, val_set, jobs=args.jobs)
    (out_dir / "grid_results.csv").write_text(grid_table_csv(results), encoding="utf-8")
    configio.write_json(out_dir / "grid_results.json", [asdict(r) for r in results])
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
    out_dir = _prepare_out_dir(args, config)
    manifest = DatasetManifest.load(args.data)
    report = cross_validate(config, manifest, args.k, jobs=args.jobs)
    configio.write_json(out_dir / "cv_report.json", asdict(report))
    acc = report.mean.get("accuracy", float("nan"))
    std = report.std.get("accuracy", float("nan"))
    print(f"cv: {args.k} folds, accuracy {acc:.4f} +/- {std:.4f} -> {out_dir / 'cv_report.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out_dir = _prepare_out_dir(args)
    checkpoint = Checkpoint.load(args.checkpoint)
    manifest = DatasetManifest.load(args.data)
    dataset = load_examples(manifest)
    report = evaluate_checkpoint(checkpoint, dataset, threshold=args.threshold, method=args.method)
    for fmt, name in (("json", "report.json"), ("csv", "report.csv"), ("text", "report.txt")):
        emit_report(report, out_dir / name, format=fmt)
    sys.stdout.write(report_text(report))
    print(f"eval: {len(dataset)} examples -> {out_dir}")
    return EXIT_OK


def cmd_predict(args) -> int:
    out_dir = _prepare_out_dir(args)
    checkpoint = Checkpoint.load(args.checkpoint)
    if args.data:
        manifest = DatasetManifest.load(args.data)
        dataset = load_examples(manifest)
        images, ids = dataset.images, dataset.ids
    else:
        images = np.stack([read_crop(path)[:, :, None] for path in args.images])
        ids = [str(path) for path in args.images]
    labels, p1 = predict(checkpoint, images, threshold=args.threshold)
    out_path = out_dir / "predictions.csv"
    lines = ["id,predicted_label,prob_defective"]
    for i, example_id in enumerate(ids):
        lines.append(f"{example_id},{int(labels[i])},{float(p1[i]):.6f}")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    out_dir = _prepare_out_dir(args)
    arch = configio.load_file(ArchitectureSpec, args.arch) if args.arch else _toy_architecture()
    rng = np.random.default_rng(args.check_seed)
    model = init_model(arch, rng)
    batch = rng.random((args.batch, *arch.input_shape), dtype=np.float32)
    labels = rng.integers(0, arch.num_classes, args.batch)
    try:
        report = grad_check(model, batch, labels, tolerance=args.tolerance)
    except GradCheckFailure as exc:
        report = exc.report
        configio.write_json(out_dir / "grad_check.json", report.to_dict())
        print(f"grad-check: FAILED max_rel_err={report.max_rel_err:.3e} -> {out_dir / 'grad_check.json'}")
        raise
    configio.write_json(out_dir / "grad_check.json", report.to_dict())
    print(f"grad-check: ok, max_rel_err={report.max_rel_err:.3e} -> {out_dir / 'grad_check.json'}")
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
    p.add_argument("--method", default="CNN", help="method name in the report")
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
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.command == "predict" and not args.data and not args.images:
        print("error: ValueError: predict needs --data or image paths", file=sys.stderr)
        return EXIT_CONTRACT
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (WellQcError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
