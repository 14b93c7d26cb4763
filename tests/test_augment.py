"""Augmentation ops: involution, group identities, value preservation."""

import numpy as np
import numpy.testing as npt
import pytest

from wellqc.data.augment import AUG_OPS, augment_pixels
from wellqc.data.manifest import DatasetManifest, ManifestEntry, load_examples
from wellqc.data.pgm import write_pgm
from wellqc.data.wells import CROP_SIZE


def augmented_example(root, seed, label, op):
    """Load one well through a manifest entry that tags it with ``op``."""
    rng = np.random.default_rng(seed)
    write_pgm(rng.random((CROP_SIZE, CROP_SIZE)), root / f"w{seed}.pgm")
    entry = ManifestEntry(path=f"w{seed}.pgm", label=label, origin="augmented", aug=op)
    return load_examples(DatasetManifest(entries=[entry], root=root))


class TestAugmentPixels:
    def test_hflip_probe(self):
        probe = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(augment_pixels(probe, "hflip"), [[2.0, 1.0], [4.0, 3.0]])

    def test_vflip_probe(self):
        probe = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(augment_pixels(probe, "vflip"), [[3.0, 4.0], [1.0, 2.0]])

    @pytest.mark.parametrize("op", AUG_OPS)
    def test_each_op_is_an_involution(self, op):
        rng = np.random.default_rng(1)
        x = rng.random((CROP_SIZE, CROP_SIZE, 1))
        npt.assert_array_equal(augment_pixels(augment_pixels(x, op), op), x)

    def test_rot180_is_hflip_of_vflip(self):
        rng = np.random.default_rng(2)
        x = rng.random((CROP_SIZE, CROP_SIZE, 1))
        npt.assert_array_equal(
            augment_pixels(x, "rot180"), augment_pixels(augment_pixels(x, "vflip"), "hflip")
        )

    @pytest.mark.parametrize("op", AUG_OPS)
    def test_pixel_value_multiset_is_preserved(self, op):
        rng = np.random.default_rng(3)
        x = rng.random((CROP_SIZE, CROP_SIZE, 1))
        npt.assert_array_equal(np.sort(augment_pixels(x, op), axis=None), np.sort(x, axis=None))

    def test_none_is_identity(self):
        x = np.random.default_rng(4).random((4, 4))
        npt.assert_array_equal(augment_pixels(x, "none"), x)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            augment_pixels(np.zeros((2, 2)), "rot90")


class TestAugmentExample:
    """Examples are augmented by tagging manifest entries; the op is applied on load."""

    @pytest.mark.parametrize("op", AUG_OPS)
    def test_label_is_preserved(self, op, tmp_path):
        assert augmented_example(tmp_path, seed=5, label=1, op=op).labels.tolist() == [1]

    def test_source_id_records_the_op(self, tmp_path):
        assert augmented_example(tmp_path, seed=6, label=0, op="hflip").ids == ["w6.pgm+hflip"]

    def test_original_pixels_untouched(self):
        x = np.random.default_rng(7).random((CROP_SIZE, CROP_SIZE, 1))
        before = x.copy()
        augment_pixels(x, "vflip")
        npt.assert_array_equal(x, before)
