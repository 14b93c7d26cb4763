"""Stratified splitting: counts, disjointness, exhaustiveness, determinism."""

import pytest

from wellqc.errors import EmptyClass, FormatError
from wellqc.data.manifest import DatasetManifest
from wellqc.data.splits import kfold_split, split_train_val
from wellqc.data.synth import generate_synthetic

from tests.test_manifest import make_manifest


def keys(manifest):
    return {e.path for e in manifest.entries}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_image_sits_on_both_sides_of_a_split(tmp_path, seed):
    """Listing a crop under more than one entry let a split put it on both sides; now no entry can repeat a path."""
    generate_synthetic(seed, 20, 20, out_dir=tmp_path)
    text = (tmp_path / "manifest.tsv").read_text()
    manifest = DatasetManifest.load(tmp_path / "manifest.tsv")
    train, val = split_train_val(manifest, 0.2, seed=0)
    assert keys(train).isdisjoint(keys(val)) and keys(train) | keys(val) == keys(manifest)
    for train, val in kfold_split(manifest, 5, seed=0):
        assert keys(train).isdisjoint(keys(val)) and keys(train) | keys(val) == keys(manifest)
    listed_again = text.splitlines()[1 + seed]
    (tmp_path / "listed_again.tsv").write_text(text + listed_again + "\n")
    with pytest.raises(FormatError, match=f"entry '{listed_again.split()[0]}' is listed twice"):
        DatasetManifest.load(tmp_path / "listed_again.tsv")


class TestTrainValSplit:
    def test_500_500_at_fraction_02(self):
        manifest = make_manifest(500)
        train, val = split_train_val(manifest, 0.2, seed=0)
        assert train.class_counts() == {0: 400, 1: 400}
        assert val.class_counts() == {0: 100, 1: 100}

    def test_half_split_on_two_per_class(self):
        manifest = make_manifest(2)
        train, val = split_train_val(manifest, 0.5, seed=0)
        assert train.class_counts() == {0: 1, 1: 1}
        assert val.class_counts() == {0: 1, 1: 1}

    def test_disjoint_and_exhaustive(self):
        manifest = make_manifest(37)
        train, val = split_train_val(manifest, 0.2, seed=5)
        assert keys(train) & keys(val) == set()
        assert keys(train) | keys(val) == keys(manifest)

    def test_same_seed_identical_split(self):
        manifest = make_manifest(50)
        a = split_train_val(manifest, 0.2, seed=9)
        b = split_train_val(manifest, 0.2, seed=9)
        assert a[0].entries == b[0].entries and a[1].entries == b[1].entries

    def test_different_seed_same_counts_different_permutation(self):
        manifest = make_manifest(50)
        a_train, a_val = split_train_val(manifest, 0.2, seed=1)
        b_train, b_val = split_train_val(manifest, 0.2, seed=2)
        assert a_val.class_counts() == b_val.class_counts()
        assert a_val.entries != b_val.entries

    def test_rounding_to_nearest(self):
        manifest = make_manifest(7)  # 0.2 * 7 = 1.4 -> 1 per class
        _, val = split_train_val(manifest, 0.2, seed=0)
        assert val.class_counts() == {0: 1, 1: 1}

    def test_fraction_bounds_enforced(self):
        manifest = make_manifest(4)
        with pytest.raises(ValueError):
            split_train_val(manifest, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_train_val(manifest, 1.0, seed=0)

    def test_class_with_one_example_raises(self):
        from wellqc.data.manifest import DatasetManifest, ManifestEntry

        manifest = DatasetManifest(
            entries=[
                ManifestEntry(path="a.pgm", label=0),
                ManifestEntry(path="b.pgm", label=0),
                ManifestEntry(path="c.pgm", label=1),
            ]
        )
        with pytest.raises(EmptyClass, match="class 1"):
            split_train_val(manifest, 0.5, seed=0)


class TestKFold:
    def test_five_folds_on_balanced_1000(self):
        manifest = make_manifest(500)
        pairs = kfold_split(manifest, 5, seed=0)
        assert len(pairs) == 5
        for train, val in pairs:
            assert train.class_counts() == {0: 400, 1: 400}
            assert val.class_counts() == {0: 100, 1: 100}

    def test_validation_folds_partition_the_manifest(self):
        manifest = make_manifest(23)
        pairs = kfold_split(manifest, 4, seed=3)
        all_val = [keys(val) for _, val in pairs]
        union = set().union(*all_val)
        assert union == keys(manifest)
        for i in range(len(all_val)):
            for j in range(i + 1, len(all_val)):
                assert all_val[i] & all_val[j] == set()

    def test_fold_sizes_differ_by_at_most_one_per_class(self):
        manifest = make_manifest(23)
        pairs = kfold_split(manifest, 4, seed=3)
        for label in (0, 1):
            sizes = [val.class_counts()[label] for _, val in pairs]
            assert max(sizes) - min(sizes) <= 1

    def test_two_folds_on_two_per_class(self):
        manifest = make_manifest(2)
        pairs = kfold_split(manifest, 2, seed=0)
        for _, val in pairs:
            assert val.class_counts() == {0: 1, 1: 1}

    def test_train_is_complement_of_val(self):
        manifest = make_manifest(11)
        for train, val in kfold_split(manifest, 3, seed=1):
            assert keys(train) | keys(val) == keys(manifest)
            assert keys(train) & keys(val) == set()

    def test_fold_assignment_reproducible(self):
        manifest = make_manifest(30)
        a = kfold_split(manifest, 5, seed=7)
        b = kfold_split(manifest, 5, seed=7)
        for (ta, va), (tb, vb) in zip(a, b):
            assert ta.entries == tb.entries and va.entries == vb.entries

    def test_k_larger_than_class_raises(self):
        manifest = make_manifest(3)
        with pytest.raises(EmptyClass):
            kfold_split(manifest, 4, seed=0)

    def test_k_below_two_rejected(self):
        manifest = make_manifest(5)
        with pytest.raises(ValueError):
            kfold_split(manifest, 1, seed=0)
