"""Synthetic corpus generator: determinism, structure, and labels."""

import numpy as np
import pytest

from wellqc.errors import ConfigError
from wellqc.data.manifest import load_examples
from wellqc.data.synth import DEFECT_KINDS, generate_synthetic, render_well
from wellqc.data.wells import CROP_SIZE


def corpus_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestDeterminism:
    def test_same_seed_gives_byte_identical_corpus(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(seed=11, n_ok=6, n_ng=6, out_dir=a)
        generate_synthetic(seed=11, n_ok=6, n_ng=6, out_dir=b)
        assert corpus_bytes(a) == corpus_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(seed=11, n_ok=4, n_ng=0, out_dir=a)
        generate_synthetic(seed=12, n_ok=4, n_ng=0, out_dir=b)
        assert corpus_bytes(a) != corpus_bytes(b)

    def test_images_do_not_depend_on_sibling_count(self, tmp_path):
        # per-image seed streams: image i is the same whatever comes after it
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(seed=5, n_ok=2, n_ng=0, out_dir=a)
        generate_synthetic(seed=5, n_ok=4, n_ng=0, out_dir=b)
        assert (a / "ok_0000.pgm").read_bytes() == (b / "ok_0000.pgm").read_bytes()


class TestCorpusStructure:
    def test_counts_and_labels(self, tmp_path):
        manifest = generate_synthetic(seed=3, n_ok=5, n_ng=7, out_dir=tmp_path)
        assert manifest.class_counts() == {0: 5, 1: 7}
        expected = [(f"ok_{i:04d}.pgm", 0) for i in range(5)] + [(f"ng_{i:04d}.pgm", 1) for i in range(7)]
        assert [(e.path, e.label) for e in manifest.entries] == expected

    def test_ng_zero_yields_all_ok(self, tmp_path):
        manifest = generate_synthetic(seed=3, n_ok=4, n_ng=0, out_dir=tmp_path)
        assert {e.label for e in manifest.entries} == {0}

    def test_manifest_file_loads_back(self, tmp_path):
        manifest = generate_synthetic(seed=9, n_ok=3, n_ng=3, out_dir=tmp_path)
        dataset = load_examples(manifest)
        assert len(dataset) == 6
        assert dataset.images.shape == (6, CROP_SIZE, CROP_SIZE, 1)
        assert dataset.images.min() >= 0.0 and dataset.images.max() <= 1.0

    def test_rendered_well_is_brighter_on_the_ring(self):
        rng = np.random.default_rng(0)
        img = render_well(rng)
        assert img.shape == (CROP_SIZE, CROP_SIZE)
        center = CROP_SIZE // 2
        ring_band = img[center, 15:30].mean()  # crosses the annulus
        corner = img[:10, :10].mean()
        assert ring_band > corner + 0.2

    @pytest.mark.parametrize("kind", DEFECT_KINDS)
    def test_each_defect_changes_the_image(self, kind):
        ok = render_well(np.random.default_rng(21))
        ng = render_well(np.random.default_rng(21), defect=kind)
        assert np.abs(ok - ng).max() > 0.05


class TestDefectMix:
    def test_mix_must_sum_to_one(self, tmp_path):
        with pytest.raises(ConfigError, match="sum to 1"):
            generate_synthetic(seed=1, n_ok=1, n_ng=1, defect_mix={"scratch_line": 0.5}, out_dir=tmp_path)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown defect"):
            generate_synthetic(seed=1, n_ok=1, n_ng=1, defect_mix={"crack": 1.0}, out_dir=tmp_path)

    def test_single_kind_mix_runs(self, tmp_path):
        manifest = generate_synthetic(
            seed=2, n_ok=2, n_ng=3, defect_mix={"scratch_line": 1.0}, out_dir=tmp_path
        )
        assert manifest.class_counts()[1] == 3

    def test_negative_counts_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_synthetic(seed=1, n_ok=-1, n_ng=0, out_dir=tmp_path)
