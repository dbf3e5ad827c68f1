"""Binary-format, rotation, scenario, and subsetting tests."""

import re
import struct

import numpy as np
import pytest

from adslab.datasets import (
    Dataset,
    IdxFormatError,
    ScenarioSpec,
    feature_stats,
    load_cifar10,
    load_idx,
    make_scenario,
    rgb_to_gray28,
    rotate_images,
    sample_subset,
    standardize,
)
from adslab.synthdata import generate_dataset, synth_images, write_idx_pair


@pytest.fixture(scope="module")
def idx_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    images, labels = synth_images("mnist", "train", 120, seed=1)
    ip, lp = root / "imgs", root / "labs"
    write_idx_pair(images, labels, ip, lp)
    return ip, lp, images, labels


class TestLoadIdx:
    def test_parses_counts_and_dims(self, idx_pair):
        ip, lp, images, labels = idx_pair
        ds = load_idx(ip, lp)
        assert len(ds) == 120
        assert ds.n_features == 784
        np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))

    def test_pixels_scaled_to_unit_interval(self, idx_pair):
        ip, lp, images, _ = idx_pair
        ds = load_idx(ip, lp)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        np.testing.assert_allclose(ds.images[0], images[0].reshape(-1) / 255.0)

    def test_wrong_magic_rejected(self, idx_pair, tmp_path):
        ip, lp, *_ = idx_pair
        with pytest.raises(IdxFormatError, match="wrong magic"):
            load_idx(ip, ip)  # image magic where a label file is expected

    def test_truncated_payload_rejected(self, idx_pair, tmp_path):
        ip, lp, *_ = idx_pair
        data = ip.read_bytes()
        cut = tmp_path / "cut"
        cut.write_bytes(data[: len(data) // 2])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(cut, lp)

    def test_zero_image_file_named(self, tmp_path):
        ip, lp = tmp_path / "imgs", tmp_path / "labs"
        write_idx_pair(np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.uint8), ip, lp)
        with pytest.raises(IdxFormatError) as err:
            load_idx(ip, lp)
        assert str(err.value) == f"{ip}: holds no images"

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        ip, lp, images, labels = idx_pair
        short = tmp_path / "short-labels"
        write_idx_pair(images, labels[:100], ip, short)
        # rebuild the label file with a smaller count but leave images alone
        with open(short, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 100))
            fh.write(labels[:100].tobytes())
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(ip, short)


class TestGenerateDataset:
    @pytest.mark.parametrize("name,n_train,n_test,message", [
        ("mnist", 10, 0, "n_test must be >= 1 for mnist, got 0"),
        ("mnist", 0, 10, "n_train must be >= 1 for mnist, got 0"),
        ("cifar10", 4, 10, "n_train must be >= 5 for cifar10, got 4"),
    ])
    def test_refuses_a_split_that_would_not_load(self, tmp_path, name, n_train, n_test,
                                                 message):
        with pytest.raises(ValueError, match=message):
            generate_dataset(tmp_path / "d", name, n_train=n_train, n_test=n_test)
        assert not (tmp_path / "d").exists()


class TestLoadCifar10:
    def make_batch(self, path, n=50, seed=0):
        rng = np.random.default_rng(seed)
        recs = np.empty((n, 3073), dtype=np.uint8)
        recs[:, 0] = rng.integers(0, 10, size=n)
        recs[:, 1:] = rng.integers(0, 256, size=(n, 3072))
        path.write_bytes(recs.tobytes())
        return recs

    def test_parses_batches(self, tmp_path):
        p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
        r1 = self.make_batch(p1, 50, 0)
        r2 = self.make_batch(p2, 30, 1)
        ds = load_cifar10([p1, p2])
        assert len(ds) == 80
        assert ds.n_features == 784
        np.testing.assert_array_equal(ds.labels[:50], r1[:, 0].astype(np.int64))

    def test_white_pixel_is_one(self):
        rgb = np.ones((1, 3, 32, 32))
        gray = rgb_to_gray28(rgb)
        np.testing.assert_allclose(gray, 1.0, atol=1e-12)

    def test_bad_record_size_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 5000)
        with pytest.raises(ValueError, match="record"):
            load_cifar10([p])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            load_cifar10([])


class TestRotate:
    def grid_ds(self, side=9, n=6, seed=0):
        rng = np.random.default_rng(seed)
        imgs = rng.uniform(0, 1, size=(n, side * side))
        return Dataset(imgs, rng.integers(0, 10, size=n))

    def test_zero_angle_bitwise_identity(self):
        ds = self.grid_ds()
        rot = rotate_images(ds, 0.0)
        assert rot.images.tobytes() == ds.images.tobytes()

    def test_zero_angle_copy_matches_the_bilinear_path_on_loaded_idx(self, idx_pair):
        # at 1e-300 degrees the rotation rounds to the identity (cosine 1.0, sine
        # terms far below an ulp), so the bilinear path runs with weights 1 and 0
        ds = load_idx(*idx_pair[:2])
        copy = rotate_images(ds, 0.0)
        bilinear = rotate_images(ds, 1e-300)
        assert copy.images.tobytes() == bilinear.images.tobytes() == ds.images.tobytes()
        assert not np.shares_memory(copy.images, ds.images)

    def test_full_turn_identity_within_tolerance(self):
        ds = self.grid_ds()
        rot = rotate_images(ds, 360.0)
        np.testing.assert_allclose(rot.images, ds.images, atol=1e-9)

    def test_center_pixel_fixed_point(self):
        ds = self.grid_ds(side=9)
        center = (9 * 9) // 2  # flat index of pixel (4, 4)
        for angle in (17.0, 45.0, 90.0, 133.7, 270.0):
            rot = rotate_images(ds, angle)
            np.testing.assert_allclose(rot.images[:, center], ds.images[:, center], atol=1e-12)

    def test_labels_preserved(self):
        ds = self.grid_ds()
        rot = rotate_images(ds, 22.5)
        np.testing.assert_array_equal(rot.labels, ds.labels)

    def test_non_square_rejected(self):
        ds = Dataset(np.zeros((3, 10)) + 0.5, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="square"):
            rotate_images(ds, 10.0)


class TestStandardize:
    def test_per_feature_mean_is_zero_on_fit_split(self):
        rng = np.random.default_rng(4)
        imgs = rng.uniform(0, 1, size=(500, 49))
        ds = Dataset(imgs, rng.integers(0, 10, size=500))
        mean, std = feature_stats(ds.images)
        out = standardize(ds, mean, std)
        assert np.max(np.abs(out.images.mean(axis=0))) < 1e-9

    def test_constant_feature_maps_to_zero(self):
        imgs = np.ones((50, 3))
        imgs[:, 1] = np.linspace(0, 1, 50)
        ds = Dataset(imgs, np.zeros(50, dtype=np.int64))
        mean, std = feature_stats(ds.images)
        out = standardize(ds, mean, std)
        assert np.all(out.images[:, 0] == 0.0)


class TestSampleSubset:
    def balanced_ds(self, per_class=40, n_classes=10, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(n_classes), per_class)
        imgs = rng.uniform(0, 1, size=(labels.size, 16))
        return Dataset(imgs, labels)

    def test_full_fraction_is_permutation(self):
        ds = self.balanced_ds()
        sub = sample_subset(ds, 1.0, seed=5)
        assert len(sub) == len(ds)
        assert sorted(map(tuple, sub.images)) == sorted(map(tuple, ds.images))

    def test_balanced_half_split_is_exact(self):
        ds = self.balanced_ds()
        sub = sample_subset(ds, 0.5, seed=5)
        _, counts = np.unique(sub.labels, return_counts=True)
        assert np.all(counts == 20)

    def test_table_grid_subset_sizes(self):
        ds = self.balanced_ds(per_class=100)
        for frac in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            sub = sample_subset(ds, frac, seed=2)
            assert len(sub) == round(frac * 1000)
        # seeded random class counts and fractions, every class quota >= 1
        rng = np.random.default_rng(11)
        for case in range(300):
            frac = float(rng.uniform(0.02, 1.0))
            counts = rng.integers(int(np.ceil(1 / frac)) + 1, 400, size=rng.integers(1, 11))
            labels = np.repeat(np.arange(len(counts)), counts)
            ds = Dataset(np.zeros((len(labels), 1)), labels)
            sub = sample_subset(ds, frac, seed=case)
            assert len(sub) == round(frac * len(labels))
            got = np.bincount(sub.labels, minlength=len(counts))
            assert np.all(np.abs(got - frac * counts) < 1)

    def test_deterministic(self):
        ds = self.balanced_ds()
        a = sample_subset(ds, 0.3, seed=9)
        b = sample_subset(ds, 0.3, seed=9)
        np.testing.assert_array_equal(a.images, b.images)

    def test_degrades_to_unstratified_with_warning(self):
        ds = self.balanced_ds(per_class=3)
        with pytest.warns(UserWarning, match="unstratified"):
            sub = sample_subset(ds, 0.2, seed=1)
        assert len(sub) == round(0.2 * len(ds))

    def test_bad_fraction_rejected(self):
        ds = self.balanced_ds()
        with pytest.raises(ValueError):
            sample_subset(ds, 0.0, seed=0)


@pytest.fixture(scope="module")
def synth_pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    pool = {}
    for name in ("mnist", "fashion_mnist"):
        paths = generate_dataset(root, name, n_train=600, n_test=300, seed=3)
        pool[name] = {split: load_idx(*files) for split, files in paths.items()}
    return pool


class TestMakeScenario:
    def test_split_filters_and_remaps(self, synth_pool):
        spec = ScenarioSpec("split_m", "split", dataset="mnist",
                            classes_a=(0, 1, 2, 3, 4), classes_b=(5, 6, 7, 8, 9))
        sc = make_scenario(spec, synth_pool, seed=0)
        assert set(np.unique(sc.task1_train.labels)) <= {0, 1, 2, 3, 4}
        assert set(np.unique(sc.task2_train.labels)) <= {0, 1, 2, 3, 4}
        assert sc.n_classes == 5

    def test_transfer_carves_fractions(self, synth_pool):
        spec = ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist",
                            eval_fraction=0.5, calib_fraction=0.3)
        sc = make_scenario(spec, synth_pool, seed=0)
        assert len(sc.task1_eval) == round(0.5 * 300)
        assert len(sc.calib_subset) == round(0.3 * 600)

    def test_same_seed_identical_subsets(self, synth_pool):
        spec = ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist")
        a = make_scenario(spec, synth_pool, seed=7)
        b = make_scenario(spec, synth_pool, seed=7)
        np.testing.assert_array_equal(a.calib_subset.images, b.calib_subset.images)
        np.testing.assert_array_equal(a.task1_eval.images, b.task1_eval.images)

    def test_task1_train_standardized(self, synth_pool):
        spec = ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist")
        sc = make_scenario(spec, synth_pool, seed=1)
        assert np.max(np.abs(sc.task1_train.images.mean(axis=0))) < 1e-9

    def test_rotated_scenario(self, synth_pool):
        spec = ScenarioSpec("rot", "rotated", dataset="mnist", angle_a=0.0, angle_b=22.5)
        sc = make_scenario(spec, synth_pool, seed=0)
        assert sc.n_classes == 10
        assert len(sc.task2_train) == len(sc.task1_train)

    @pytest.mark.parametrize("cap", [1, 100, 150, 10_000])
    def test_eval_cap_keeps_the_leading_rows(self, synth_pool, cap):
        spec = ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist",
                            eval_fraction=0.5)
        whole = make_scenario(spec, synth_pool, seed=3)
        cut = make_scenario(spec, synth_pool, seed=3, eval_cap=cap)
        for name in ("task1_eval", "task2_eval"):
            full, kept = getattr(whole, name), getattr(cut, name)
            n = min(cap, len(full))  # each evaluation set has 150 rows
            assert (kept.images.tobytes(), kept.labels.tobytes()) == \
                   (full.images[:n].tobytes(), full.labels[:n].tobytes())
        for name in ("task1_train", "task2_train", "calib_subset"):
            assert getattr(cut, name).images.tobytes() == getattr(whole, name).images.tobytes()

    def test_split_without_a_class_names_the_scenario(self, synth_pool):
        spec = ScenarioSpec("split_x", "split", dataset="mnist",
                            classes_a=(0, 1), classes_b=(10, 11))
        with pytest.raises(ValueError, match=r"scenario split_x: no samples with classes "
                                             r"\[10, 11\] in dataset 'mnist'"):
            make_scenario(spec, synth_pool, seed=0)

    def test_missing_dataset_named(self, synth_pool):
        spec = ScenarioSpec("mc", "transfer", src="mnist", dst="cifar10")
        with pytest.raises(ValueError, match="dataset 'cifar10' not loaded"):
            make_scenario(spec, synth_pool, seed=0)

    def test_unequal_split_rejected_at_construction(self):
        with pytest.raises(ValueError, match="equal size"):
            ScenarioSpec("s", "split", dataset="mnist", classes_a=(0, 1), classes_b=(2,))

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            ScenarioSpec("bad", "split", dataset="mnist",
                         classes_a=(0, 1, 2), classes_b=(2, 3, 4))

    @pytest.mark.parametrize("bad", ["../../x,y", "a,b", "a b", "", ".hidden", "-x"])
    def test_id_that_is_not_a_plain_name_rejected(self, bad):
        # the id names profile files and is a CSV cell: "../../x,y" would put a
        # profile outside the experiment and shift every later report column
        with pytest.raises(ValueError, match=re.escape(f"scenario id {bad!r} must match")):
            ScenarioSpec(bad, "transfer", src="mnist", dst="fashion_mnist")

