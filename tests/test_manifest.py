"""Manifest format and dataset loading."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from wellqc.errors import FormatError, LabelError
from wellqc.data import manifest as manifest_module
from wellqc.data.augment import augment_pixels
from wellqc.data.manifest import (
    DatasetManifest,
    ManifestEntry,
    load_examples,
    read_crop,
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

    def test_path_spelling_another_entrys_example_id_rejected(self):
        entries = [
            ManifestEntry(path="a.pgm", label=0, origin="augmented", aug="hflip"),
            ManifestEntry(path="a.pgm+hflip", label=1),
        ]
        with pytest.raises(FormatError, match="duplicate example 'a.pgm\\+hflip'"):
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

    def test_peak_memory_is_the_batch_and_a_few_crops(self, tmp_path):
        """No decoded crop outlives its rows; caching every crop doubled the peak (2.02x the batch at 120)."""
        rng = np.random.default_rng(1)
        n = 120
        for i in range(n):
            write_pgm(rng.random((CROP_SIZE, CROP_SIZE)), tmp_path / f"c{i:03d}.pgm")
        entries = [ManifestEntry(path=f"c{i:03d}.pgm", label=i % 2) for i in range(n)]
        manifest = DatasetManifest(entries=entries, root=tmp_path)
        read_crop(tmp_path / "c000.pgm")  # first-call set-up stays out of the measurement
        tracemalloc.start()
        try:
            dataset = load_examples(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        crop = CROP_SIZE * CROP_SIZE * 4
        # the batch, a few crops in flight, and bookkeeping of under 1 KiB per entry
        assert peak <= dataset.images.nbytes + 4 * crop + 1024 * n, (peak / dataset.images.nbytes, peak)

    def test_each_file_is_decoded_once_into_every_row_that_lists_it(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        for name in ("a.pgm", "b.pgm", "c.pgm"):
            write_pgm(rng.random((CROP_SIZE, CROP_SIZE)), tmp_path / name)
        listed = [("b.pgm", "none"), ("a.pgm", "hflip"), ("b.pgm", "rot180"), ("c.pgm", "none"),
                  ("a.pgm", "none"), ("b.pgm", "vflip"), ("a.pgm", "rot180")]
        entries = [ManifestEntry(path=p, label=0, origin="real" if aug == "none" else "augmented", aug=aug)
                   for p, aug in listed]
        decoded = []
        real_read_pgm = manifest_module.read_pgm
        monkeypatch.setattr(manifest_module, "read_pgm", lambda path: decoded.append(path) or real_read_pgm(path))
        dataset = load_examples(DatasetManifest(entries=entries, root=tmp_path))
        assert decoded == [tmp_path / "b.pgm", tmp_path / "a.pgm", tmp_path / "c.pgm"]
        monkeypatch.undo()
        for row, (p, aug) in enumerate(listed):
            expected = augment_pixels(read_crop(tmp_path / p), aug)
            assert dataset.images[row, :, :, 0].tobytes() == expected.tobytes(), (p, aug)
        assert dataset.ids == [e.example_id for e in entries]

    def test_the_first_unreadable_file_in_entry_order_is_named(self, tmp_path):
        write_pgm(np.zeros((CROP_SIZE, CROP_SIZE)), tmp_path / "ok.pgm")
        write_pgm(np.zeros((50, 50)), tmp_path / "z_small.pgm")
        (tmp_path / "a_cut.pgm").write_bytes(b"P5\n111 111\n255\n\0\0\0")
        entries = [ManifestEntry(path="ok.pgm", label=0), ManifestEntry(path="z_small.pgm", label=0),
                   ManifestEntry(path="a_cut.pgm", label=1), ManifestEntry(path="z_small.pgm", label=0, aug="hflip")]
        with pytest.raises(FormatError, match="z_small.pgm: crop is 50x50"):
            load_examples(DatasetManifest(entries=entries, root=tmp_path))
