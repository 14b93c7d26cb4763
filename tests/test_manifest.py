"""Manifest format and dataset loading."""

import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from wellqc.errors import FormatError, LabelError
from wellqc.data import manifest as manifest_module
from wellqc.data.manifest import (
    DatasetManifest,
    ManifestEntry,
    load_examples,
    read_crops,
    write_manifest,
)
from wellqc.data.pgm import write_pgm
from wellqc.data.wells import CROP_SIZE

HEADER = "#wellqc-manifest v2 num_classes=2\n"


def make_manifest(n_per_class):
    entries = []
    for label in (0, 1):
        for i in range(n_per_class):
            entries.append(ManifestEntry(path=f"c{label}_{i:03d}.pgm", label=label))
    return DatasetManifest(entries=entries)


def load_text(tmp_path, text):
    path = tmp_path / "manifest.tsv"
    path.write_text(text, encoding="utf-8")
    return DatasetManifest.load(path)


class TestManifestFile:
    def test_write_load_round_trip(self, tmp_path):
        manifest = make_manifest(3)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, [(e.path, e.label) for e in manifest.entries])
        loaded = DatasetManifest.load(path)
        assert loaded.entries == manifest.entries
        assert loaded.root == tmp_path

    def test_header_line_is_fixed(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        write_manifest(path, [("c0_000.pgm", 0), ("c1_000.pgm", 1)])
        assert path.read_text() == HEADER + "c0_000.pgm\t0\nc1_000.pgm\t1\n"

    @pytest.mark.parametrize(
        "first",
        ["a.pgm\t0", "#wellqc-manifest v2 num_classes=3", "#wellqc-manifest v2 num_classes=1000000",
         "#wellqc-manifest v3 num_classes=2", "#wellqc-manifest v2 num_classes=2 ", "#wellqc-manifest v2"],
    )
    def test_first_line_other_than_the_header_rejected(self, tmp_path, first):
        expected = f"expected the header line '#wellqc-manifest v2 num_classes=2', got {first!r}"
        with pytest.raises(FormatError, match=re.escape(expected)) as info:
            load_text(tmp_path, first + "\na.pgm\t0\n")
        assert info.value.offset == 0

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="got ''"):
            load_text(tmp_path, "")

    def test_label_out_of_range_rejected(self, tmp_path):
        with pytest.raises(LabelError, match=r"entry 'a.pgm' has label '2', outside \[0, 2\)"):
            load_text(tmp_path, HEADER + "a.pgm\t2\n")

    @pytest.mark.parametrize("again", ["a.pgm", "./a.pgm", ".//a.pgm"])
    def test_repeated_path_rejected_naming_it(self, tmp_path, again):
        records = "a.pgm\t0\nb.pgm\t1\n"
        with pytest.raises(FormatError, match="entry 'a.pgm' is listed twice") as info:
            load_text(tmp_path, HEADER + records + again + "\t0\n")
        assert info.value.offset == len(HEADER) + len(records)

    def test_record_of_four_fields_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="expected 2 tab-separated fields, got 4"):
            load_text(tmp_path, HEADER + "a.pgm\t0\treal\tnone\n")

    def test_unlabeled_skeleton_row_rejected_with_hint(self, tmp_path):
        with pytest.raises(FormatError, match="fill in"):
            load_text(tmp_path, HEADER + "a.pgm\t-\n")

    def test_non_integer_label_is_a_format_error_with_offset(self, tmp_path):
        with pytest.raises(FormatError, match="'x'") as info:
            load_text(tmp_path, HEADER + "a.pgm\t0\nb.pgm\tx\n")
        assert info.value.offset == len(HEADER) + len("a.pgm\t0\n")


class TestLoadExamples:
    def test_loads_pixels_labels_and_path_ids(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(2, CROP_SIZE, CROP_SIZE)).astype(np.float32) / 255.0
        write_pgm(raw[0], tmp_path / "a.pgm")
        write_pgm(raw[1], tmp_path / "b.pgm")
        manifest = DatasetManifest(entries=[ManifestEntry("b.pgm", 1), ManifestEntry("a.pgm", 0)], root=tmp_path)
        dataset = load_examples(manifest)
        npt.assert_array_equal(dataset.labels, [1, 0])
        npt.assert_allclose(dataset.images[:, :, :, 0], raw[::-1], atol=1e-6)
        assert dataset.ids == ["b.pgm", "a.pgm"]

    def test_peak_memory_is_the_batch_and_a_few_crops(self, tmp_path):
        """No decoded crop outlives its rows; caching every crop doubled the peak (2.02x the batch at 120)."""
        rng = np.random.default_rng(1)
        n = 120
        for i in range(n):
            write_pgm(rng.random((CROP_SIZE, CROP_SIZE)), tmp_path / f"c{i:03d}.pgm")
        entries = [ManifestEntry(path=f"c{i:03d}.pgm", label=i % 2) for i in range(n)]
        manifest = DatasetManifest(entries=entries, root=tmp_path)
        read_crops([tmp_path / "c000.pgm"])  # first-call set-up stays out of the measurement
        tracemalloc.start()
        try:
            dataset = load_examples(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        crop = CROP_SIZE * CROP_SIZE * 4
        # the batch, a few crops in flight, and bookkeeping of under 1 KiB per entry
        assert peak <= dataset.images.nbytes + 4 * crop + 1024 * n, (peak / dataset.images.nbytes, peak)

    def test_each_file_is_decoded_once_in_entry_order(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        for name in ("a.pgm", "b.pgm", "c.pgm"):
            write_pgm(rng.random((CROP_SIZE, CROP_SIZE)), tmp_path / name)
        entries = [ManifestEntry(path=p, label=0) for p in ("b.pgm", "c.pgm", "a.pgm")]
        decoded = []
        real_read_pgm = manifest_module.read_pgm
        monkeypatch.setattr(manifest_module, "read_pgm", lambda path: decoded.append(path) or real_read_pgm(path))
        dataset = load_examples(DatasetManifest(entries=entries, root=tmp_path))
        assert decoded == [tmp_path / "b.pgm", tmp_path / "c.pgm", tmp_path / "a.pgm"]
        monkeypatch.undo()
        for row, entry in enumerate(entries):
            assert dataset.images[row].tobytes() == read_crops([tmp_path / entry.path])[0].tobytes()

    def test_the_first_unreadable_file_in_entry_order_is_named(self, tmp_path):
        write_pgm(np.zeros((CROP_SIZE, CROP_SIZE)), tmp_path / "ok.pgm")
        write_pgm(np.zeros((50, 50)), tmp_path / "z_small.pgm")
        (tmp_path / "a_cut.pgm").write_bytes(b"P5\n111 111\n255\n\0\0\0")
        entries = [ManifestEntry(path="ok.pgm", label=0), ManifestEntry(path="z_small.pgm", label=0),
                   ManifestEntry(path="a_cut.pgm", label=1)]
        with pytest.raises(FormatError, match="z_small.pgm': crop is 50x50"):
            load_examples(DatasetManifest(entries=entries, root=tmp_path))
