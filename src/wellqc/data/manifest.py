"""Dataset manifests: which crop files make up a dataset, and their labels.

A manifest is a UTF-8 TSV file: a header line, then one record per line,

    #wellqc-manifest v2 num_classes=2
    path<TAB>label

The header is that exact line (``HEADER``): the pipeline is binary, so a
header naming another class count, like any other first line, is a
FormatError. ``path`` is relative to the manifest's directory, and ``label``
is ``LABEL_OK`` (0) or ``LABEL_NG`` (1). Each path may appear once ("./a.pgm"
is "a.pgm"), so no split can put one image on both of its sides; a repeated
path is a FormatError that names it. A v1 file, which tagged entries with an
origin and an augmentation, is rejected with a line that says how to turn it
into v2.

``load_examples`` turns a manifest into one preallocated image batch,
decoding each file straight into its row, so a load holds the corpus once.
"""

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wellqc.errors import FormatError, LabelError, shorten
from wellqc.data.pgm import read_pgm
from wellqc.data.wells import CROP_SIZE, NUM_CLASSES

HEADER = f"#wellqc-manifest v2 num_classes={NUM_CLASSES}"


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    root: Path | None = None  # directory paths are relative to; not serialized

    def class_counts(self) -> dict[int, int]:
        counts = {c: 0 for c in range(NUM_CLASSES)}
        for e in self.entries:
            counts[e.label] += 1
        return counts

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        lines, offsets, offset = [], [], 0
        for raw in path.read_bytes().splitlines(keepends=True):
            try:
                lines.append(raw.decode("utf-8").rstrip("\r\n"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: not UTF-8 text ({exc.reason})", offset=offset + exc.start) from None
            offsets.append(offset)
            offset += len(raw)
        first = lines[0] if lines else ""
        if first.startswith("#wellqc-manifest v1 "):
            raise FormatError(
                f"{path}: manifest version 1 is no longer read; to make it v2, keep only the rows whose 4th field is "
                "'none', cut each to its first two fields (path and label), and change the header's v1 to v2"
            )
        if first != HEADER:
            raise FormatError(f"{path}: expected the header line {HEADER!r}, got {shorten(repr(first))}", offset=0)
        entries = {}  # path -> entry
        for line, offset in zip(lines[1:], offsets[1:]):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}: expected 2 tab-separated fields, got {len(parts)}", offset=offset)
            p, label = os.path.normpath(parts[0]), parts[1]  # one spelling per path: "./a.pgm" is "a.pgm"
            entry = f"{path}: entry {shorten(repr(p))}"
            if label == "-":
                raise FormatError(f"{entry} has no label; fill in the manifest skeleton first", offset=offset)
            try:
                value = int(label)
            except ValueError:
                raise FormatError(f"{entry} has label {shorten(repr(label))}, not an integer", offset=offset) from None
            if not 0 <= value < NUM_CLASSES:
                raise LabelError(f"{entry} has label {shorten(repr(label))}, outside [0, {NUM_CLASSES})")
            if p in entries:
                raise FormatError(f"{entry} is listed twice; an image may appear once", offset=offset)
            entries[p] = ManifestEntry(path=p, label=value)
        return cls(entries=list(entries.values()), root=path.parent)


def write_manifest(path, records) -> None:
    """Write the header line and one (path, label) record per line.

    A label of "-" marks an unlabelled record, as in the skeleton ``tile``
    writes; ``DatasetManifest.load`` rejects it until it is filled in.
    """
    lines = [HEADER]
    lines += [f"{p}\t{label}" for p, label in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Dataset:
    """Materialized examples: image stack, labels, and ids (the manifest paths)."""

    images: np.ndarray  # (N, 111, 111, 1) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64
    ids: list[str]

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, rows) -> "Dataset":
        """A copy of the examples at ``rows``, in that order."""
        return Dataset(images=self.images[rows], labels=self.labels[rows], ids=[self.ids[i] for i in rows])


def load_examples(manifest: DatasetManifest) -> Dataset:
    """Read every manifest entry into one batch; an example's id is its path.

    Paths are relative to the manifest's directory, or to the working
    directory for a manifest that was not loaded from a file.
    """
    base = manifest.root or Path(".")
    try:
        images = read_crops([base / e.path for e in manifest.entries])
    except OSError as exc:  # the file name comes from the manifest: cut it like any value quoted from a file
        exc.filename = exc.filename and shorten(str(exc.filename))
        raise
    labels = np.array([e.label for e in manifest.entries], dtype=np.int64)
    return Dataset(images=images, labels=labels, ids=[e.path for e in manifest.entries])


def read_crops(paths) -> np.ndarray:
    """Decode crops into one (N, 111, 111, 1) float32 batch; row i is ``paths[i]``.

    Each file is decoded straight into its row, so the batch is the only copy
    of the pixels. A crop of another size is a FormatError naming its file,
    quoted as ``read_pgm`` quotes it.
    """
    images = np.empty((len(paths), CROP_SIZE, CROP_SIZE, 1), dtype=np.float32)
    for i, path in enumerate(paths):
        pixels, _ = read_pgm(path)
        if pixels.shape != (CROP_SIZE, CROP_SIZE):
            height, width = pixels.shape
            raise FormatError(
                f"{shorten(repr(str(path)))}: crop is {width}x{height} pixels, expected {CROP_SIZE}x{CROP_SIZE}"
            )
        images[i, :, :, 0] = pixels
    return images
