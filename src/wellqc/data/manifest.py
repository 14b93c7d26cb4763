"""Dataset manifests: which image files exist, their labels and provenance.

A manifest is a TSV file with one record per line:

    #wellqc-manifest v1 num_classes=2
    path<TAB>label<TAB>origin<TAB>augmentation

``origin`` is real | synthetic | augmented; ``augmentation`` is none | hflip |
vflip | rot180 and is applied on load, so augmented entries reference their
source file rather than duplicating pixels on disk. A (path, augmentation)
pair therefore identifies an example and may not repeat.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wellqc.errors import FormatError, LabelError
from wellqc.data.augment import AUG_NONE, AUG_OPS, augment_pixels
from wellqc.data.pgm import read_pgm
from wellqc.data.wells import CROP_SIZE

MANIFEST_VERSION = 1
ORIGINS = ("real", "synthetic", "augmented")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    origin: str = "real"
    aug: str = AUG_NONE

    def __post_init__(self):
        if self.origin not in ORIGINS:
            raise FormatError(f"unknown origin {self.origin!r}")
        if self.aug != AUG_NONE and self.aug not in AUG_OPS:
            raise FormatError(f"unknown augmentation {self.aug!r}")

    @property
    def example_id(self) -> str:
        return self.path if self.aug == AUG_NONE else f"{self.path}+{self.aug}"


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    num_classes: int = 2
    root: Path | None = None  # directory paths are relative to; not serialized

    def __post_init__(self):
        self.validate()

    def validate(self) -> "DatasetManifest":
        seen = set()
        for e in self.entries:
            if not 0 <= e.label < self.num_classes:
                raise LabelError(f"{e.path}: label {e.label} outside [0, {self.num_classes})")
            key = (e.path, e.aug)
            if key in seen:
                raise FormatError(f"duplicate (path, augmentation) pair: {key}")
            seen.add(key)
        return self

    def class_counts(self) -> dict[int, int]:
        counts = {c: 0 for c in range(self.num_classes)}
        for e in self.entries:
            counts[e.label] += 1
        return counts

    def save(self, path) -> None:
        write_manifest(path, self.num_classes, ((e.path, e.label, e.origin, e.aug) for e in self.entries))

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
        if not lines or not lines[0].startswith("#wellqc-manifest "):
            raise FormatError(f"{path}: missing manifest header line", offset=0)
        header = lines[0].split()
        try:
            version = int(header[1].lstrip("v"))
            num_classes = int(dict(kv.split("=") for kv in header[2:])["num_classes"])
        except (IndexError, KeyError, ValueError):
            raise FormatError(f"{path}: malformed header {lines[0]!r}", offset=0) from None
        if version != MANIFEST_VERSION:
            raise FormatError(f"{path}: unsupported manifest version {version}")
        entries = []
        for line, offset in zip(lines[1:], offsets[1:]):
            if line.strip():
                parts = line.split("\t")
                if len(parts) != 4:
                    raise FormatError(f"{path}: expected 4 tab-separated fields, got {len(parts)}", offset=offset)
                p, label, origin, aug = parts
                if label == "-":
                    raise FormatError(
                        f"{path}: entry {p} has no label; fill in the manifest skeleton first",
                        offset=offset,
                    )
                try:
                    label = int(label)
                except ValueError:
                    raise FormatError(
                        f"{path}: entry {p} has label {label!r}, not an integer", offset=offset
                    ) from None
                entries.append(ManifestEntry(path=p, label=label, origin=origin, aug=aug))
        return cls(entries=entries, num_classes=num_classes, root=path.parent)


def write_manifest(path, num_classes: int, records) -> None:
    """Write the header line and one (path, label, origin, augmentation) record per line.

    A label of "-" marks an unlabelled record, as in the skeleton ``tile``
    writes; ``DatasetManifest.load`` rejects it until it is filled in.
    """
    lines = [f"#wellqc-manifest v{MANIFEST_VERSION} num_classes={num_classes}"]
    lines += [f"{p}\t{label}\t{origin}\t{aug}" for p, label, origin, aug in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Dataset:
    """Materialized examples: image stack, labels, and stable example ids."""

    images: np.ndarray  # (N, 111, 111, 1) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64
    ids: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, rows) -> "Dataset":
        """A copy of the examples at ``rows``, in that order."""
        return Dataset(images=self.images[rows], labels=self.labels[rows], ids=[self.ids[i] for i in rows])


def load_examples(manifest: DatasetManifest) -> Dataset:
    """Read every manifest entry into memory, applying tagged augmentations.

    Paths are relative to the manifest's directory, or to the working
    directory for a manifest that was not loaded from a file.
    """
    base = manifest.root or Path(".")
    n = len(manifest.entries)
    images = np.empty((n, CROP_SIZE, CROP_SIZE, 1), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    ids = []
    pixel_cache: dict[str, np.ndarray] = {}
    for i, e in enumerate(manifest.entries):
        if e.path not in pixel_cache:
            pixel_cache[e.path] = read_crop(base / e.path)
        images[i, :, :, 0] = augment_pixels(pixel_cache[e.path], e.aug)
        labels[i] = e.label
        ids.append(e.example_id)
    return Dataset(images=images, labels=labels, ids=ids)


def read_crop(path) -> np.ndarray:
    """One well crop's (111, 111) float32 pixels; another size is a FormatError naming the file."""
    pixels, _ = read_pgm(path)
    if pixels.shape != (CROP_SIZE, CROP_SIZE):
        height, width = pixels.shape
        raise FormatError(f"{path}: crop is {width}x{height} pixels, expected {CROP_SIZE}x{CROP_SIZE}")
    return pixels
