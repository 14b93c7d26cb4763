"""Image I/O, tiling, labeling, augmentation, synthesis, and splitting."""

from wellqc.data.augment import AUG_NONE, AUG_OPS, augment_pixels
from wellqc.data.manifest import (
    Dataset,
    DatasetManifest,
    ManifestEntry,
    expand_dataset,
    load_examples,
)
from wellqc.data.pgm import read_pgm, write_pgm
from wellqc.data.splits import kfold_split, split_train_val
from wellqc.data.synth import DEFECT_KINDS, generate_synthetic, render_well
from wellqc.data.tiles import ScanFrame, TileGrid, tile_scan
from wellqc.data.wells import CROP_SIZE, LABEL_NG, LABEL_OK, WellImage

__all__ = [
    "AUG_NONE",
    "AUG_OPS",
    "augment_pixels",
    "Dataset",
    "DatasetManifest",
    "ManifestEntry",
    "expand_dataset",
    "load_examples",
    "read_pgm",
    "write_pgm",
    "kfold_split",
    "split_train_val",
    "DEFECT_KINDS",
    "generate_synthetic",
    "render_well",
    "ScanFrame",
    "TileGrid",
    "tile_scan",
    "CROP_SIZE",
    "LABEL_OK",
    "LABEL_NG",
    "WellImage",
]
