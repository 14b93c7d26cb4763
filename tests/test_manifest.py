"""Manifest format and dataset loading."""

import numpy as np
import numpy.testing as npt
import pytest

from wellqc.errors import FormatError, LabelError
from wellqc.data.augment import augment_pixels
from wellqc.data.manifest import (
    DatasetManifest,
    ManifestEntry,
    load_examples,
)
from wellqc.data.pgm import write_pgm
from wellqc.data.wells import CROP_SIZE


def make_manifest(n_per_class, origin="synthetic"):
    entries = []
    for label in (0, 1):
        for i in range(n_per_class):
            entries.append(ManifestEntry(path=f"c{label}_{i:03d}.pgm", label=label, origin=origin))
    return DatasetManifest(entries=entries)


class TestManifestFile:
    def test_save_load_round_trip(self, tmp_path):
        manifest = make_manifest(3)
        path = tmp_path / "manifest.tsv"
        manifest.save(path)
        loaded = DatasetManifest.load(path)
        assert loaded.entries == manifest.entries
        assert loaded.num_classes == 2
        assert loaded.root == tmp_path

    def test_header_line_is_versioned(self, tmp_path):
        manifest = make_manifest(1)
        path = tmp_path / "manifest.tsv"
        manifest.save(path)
        assert path.read_text().splitlines()[0] == "#wellqc-manifest v1 num_classes=2"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a.pgm\t0\treal\tnone\n")
        with pytest.raises(FormatError, match="header"):
            DatasetManifest.load(path)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(LabelError):
            DatasetManifest(entries=[ManifestEntry(path="a.pgm", label=2)])

    def test_duplicate_path_aug_pair_rejected(self):
        entries = [
            ManifestEntry(path="a.pgm", label=0),
            ManifestEntry(path="a.pgm", label=0),
        ]
        with pytest.raises(FormatError, match="duplicate"):
            DatasetManifest(entries=entries)

    def test_same_path_different_aug_allowed(self):
        entries = [
            ManifestEntry(path="a.pgm", label=0),
            ManifestEntry(path="a.pgm", label=0, origin="augmented", aug="hflip"),
        ]
        manifest = DatasetManifest(entries=entries)
        assert len(manifest.entries) == 2

    def test_unlabeled_skeleton_row_rejected_with_hint(self, tmp_path):
        path = tmp_path / "skel.tsv"
        path.write_text("#wellqc-manifest v1 num_classes=2\na.pgm\t-\treal\tnone\n")
        with pytest.raises(FormatError, match="fill in"):
            DatasetManifest.load(path)

    def test_non_integer_label_is_a_format_error_with_offset(self, tmp_path):
        path = tmp_path / "bad.tsv"
        header = "#wellqc-manifest v1 num_classes=2\n"
        path.write_text(header + "a.pgm\t0\treal\tnone\nb.pgm\tx\treal\tnone\n")
        with pytest.raises(FormatError, match="'x'") as info:
            DatasetManifest.load(path)
        assert info.value.offset == len(header) + len("a.pgm\t0\treal\tnone\n")


class TestLoadExamples:
    def test_loads_pixels_labels_and_applies_augs(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(CROP_SIZE, CROP_SIZE)).astype(np.float32) / 255.0
        write_pgm(raw, tmp_path / "well.pgm")
        entries = [
            ManifestEntry(path="well.pgm", label=1),
            ManifestEntry(path="well.pgm", label=1, origin="augmented", aug="hflip"),
        ]
        manifest = DatasetManifest(entries=entries, root=tmp_path)
        dataset = load_examples(manifest)
        assert len(dataset) == 2
        npt.assert_array_equal(dataset.labels, [1, 1])
        npt.assert_allclose(dataset.images[0, :, :, 0], raw, atol=1e-6)
        npt.assert_array_equal(dataset.images[1, :, :, 0], augment_pixels(dataset.images[0, :, :, 0], "hflip"))
        assert dataset.ids == ["well.pgm", "well.pgm+hflip"]
