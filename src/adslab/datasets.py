"""Dataset ingestion and continual-learning scenario construction.

Loaders parse the native binary containers (big-endian IDX for the
MNIST family, record-based CIFAR-10 batches) at the paths that
``dataset_paths`` gives, which is also where ``synthdata`` writes.
A ``Dataset`` is its images and labels. Scenario construction covers
cross-dataset transfer, class splits, and rotated variants, and carves
out the evaluation and calibration subsets; it is the one place that
cuts an evaluation set to ``eval_cap`` rows. Standardization statistics
are computed on the task-1 train split and frozen for every other split.
"""

from __future__ import annotations

import os
import re
import struct
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

CIFAR_RECORD_BYTES = 1 + 3 * 32 * 32

IDX_FILENAMES = {"train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
                 "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")}
CIFAR_TRAIN_BATCHES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))


def dataset_paths(root, name: str) -> dict:
    """{split: its files} of dataset ``name`` under ``root/name/``: the train
    batches and the test batch for ``cifar10``, else the IDX (images, labels) pair."""
    files = ({"train": CIFAR_TRAIN_BATCHES, "test": ("test_batch.bin",)}
             if name == "cifar10" else IDX_FILENAMES)
    return {split: [os.path.join(root, name, f) for f in split_files]
            for split, split_files in files.items()}


@dataclass
class Dataset:
    images: np.ndarray   # (N, d) float64
    labels: np.ndarray   # (N,) int64

    def __post_init__(self):
        if self.images.ndim != 2 or self.images.shape[0] == 0:
            raise ValueError(f"images must be a non-empty (N, d) matrix, got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels length must match image count")
        if not np.all(np.isfinite(self.images)):
            raise ValueError("images contain non-finite values")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def n_features(self) -> int:
        return self.images.shape[1]

    def take(self, indices: np.ndarray | slice) -> "Dataset":
        """The rows at ``indices``: a copy for an index array, a view for a slice."""
        return Dataset(self.images[indices], self.labels[indices])


class IdxFormatError(ValueError):
    pass


def _read_idx_header(data: bytes, path, expected_magic: int, kind: str) -> tuple[int, tuple[int, ...]]:
    if len(data) < 8:
        raise IdxFormatError(f"{path}: truncated file (no IDX header)")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: wrong magic 0x{magic:08x} for {kind} file, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxFormatError(f"{path}: truncated file (incomplete dimension list)")
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    return header_len, dims


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a [0,1]-scaled flat dataset."""
    with open(images_path, "rb") as fh:
        img_data = fh.read()
    with open(labels_path, "rb") as fh:
        lab_data = fh.read()

    img_off, img_dims = _read_idx_header(img_data, images_path, IDX_IMAGE_MAGIC, "image")
    n, rows, cols = img_dims
    if n == 0:
        raise IdxFormatError(f"{images_path}: holds no images")
    payload = img_data[img_off:]
    if len(payload) < n * rows * cols:
        raise IdxFormatError(f"{images_path}: truncated file (payload shorter than header count)")

    lab_off, lab_dims = _read_idx_header(lab_data, labels_path, IDX_LABEL_MAGIC, "label")
    (n_labels,) = lab_dims
    if n_labels != n:
        raise IdxFormatError(
            f"count mismatch: {images_path} has {n} images but {labels_path} has {n_labels} labels"
        )
    if len(lab_data) - lab_off < n_labels:
        raise IdxFormatError(f"{labels_path}: truncated file (payload shorter than header count)")

    pixels = np.frombuffer(payload, dtype=np.uint8, count=n * rows * cols)
    images = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(lab_data, dtype=np.uint8, count=n_labels, offset=lab_off).astype(np.int64)
    return Dataset(images, labels)


def _area_resize_weights(src: int, dst: int) -> np.ndarray:
    """Row-stochastic (dst, src) interval-overlap weights for 1-d area-average resizing."""
    scale = src / dst
    w = np.zeros((dst, src))
    for i in range(dst):
        lo, hi = i * scale, (i + 1) * scale
        j0, j1 = int(np.floor(lo)), int(np.ceil(hi))
        for j in range(j0, min(j1, src)):
            w[i, j] = min(hi, j + 1) - max(lo, j)
    return w / w.sum(axis=1, keepdims=True)


def rgb_to_gray28(rgb: np.ndarray) -> np.ndarray:
    """(N, 3, 32, 32) [0,1] RGB to (N, 784) grayscale via luminance + area resize."""
    gray = 0.299 * rgb[:, 0] + 0.587 * rgb[:, 1] + 0.114 * rgb[:, 2]
    w = _area_resize_weights(32, 28)
    resized = np.einsum("ij,njk,lk->nil", w, gray, w)
    return resized.reshape(len(rgb), 28 * 28)


def load_cifar10(batch_paths: Sequence) -> Dataset:
    """Parse CIFAR-10 binary batches; converts to 28x28 grayscale (d_in = 784)."""
    if not batch_paths:
        raise ValueError("empty CIFAR batch list")
    records = []
    for path in batch_paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) == 0 or len(data) % CIFAR_RECORD_BYTES != 0:
            raise ValueError(
                f"{path}: size {len(data)} is not a multiple of the {CIFAR_RECORD_BYTES}-byte record"
            )
        records.append(np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES))
    arr = np.vstack(records)
    labels = arr[:, 0].astype(np.int64)
    rgb = arr[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    images = rgb_to_gray28(rgb)
    return Dataset(images, labels)


def rotate_images(ds: Dataset, angle_deg: float) -> Dataset:
    """Rotate each image about its center (bilinear interpolation, zero fill).

    At 0 degrees this is a copy: bilinear weights of exactly 1 and 0 give
    the same bytes for finite images without -0.0, as every loader's are."""
    side = int(round(np.sqrt(ds.n_features)))
    if side * side != ds.n_features:
        raise ValueError(f"images are not square: {ds.n_features} pixels")
    if angle_deg == 0:
        return Dataset(ds.images.copy(), ds.labels.copy())
    theta = np.deg2rad(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    center = (side - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(side, dtype=np.float64),
                         np.arange(side, dtype=np.float64), indexing="ij")
    # inverse map: rotate destination coordinates by -theta around the center
    y = rr - center
    x = cc - center
    src_r = center + (c * y + s * x)
    src_c = center + (-s * y + c * x)

    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0

    imgs = ds.images.reshape(len(ds), side, side)
    out = np.zeros_like(imgs)
    for dr, dc, wgt in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        ri, ci = r0 + dr, c0 + dc
        valid = (ri >= 0) & (ri < side) & (ci >= 0) & (ci < side)
        ric = np.clip(ri, 0, side - 1)
        cic = np.clip(ci, 0, side - 1)
        out += np.where(valid, wgt, 0.0) * imgs[:, ric, cic]
    return Dataset(out.reshape(len(ds), -1), ds.labels.copy())


def feature_stats(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean/std; constant features get std 1 so they map to 0."""
    mean = images.mean(axis=0)
    std = images.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def standardize(ds: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    return Dataset((ds.images - mean) / std, ds.labels.copy())


def subset_size(n: int, fraction: float) -> int:
    """round(fraction * n), the size of a ``sample_subset`` of ``n`` rows; a
    fraction outside (0, 1] or a subset of no row is refused."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    total = int(round(fraction * n))
    if total < 1:
        raise ValueError(f"fraction {fraction} yields < 1 sample from {n}")
    return total


def sample_subset(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Class-stratified uniform subsample without replacement.

    Per-class counts use largest-remainder rounding so the total is
    round(fraction * N) exactly. If the fraction is too small to give
    every present class at least one slot, falls back to an unstratified
    sample (flagged by a warning).
    """
    n = len(ds)
    total = subset_size(n, fraction)
    rng = np.random.default_rng(seed)

    classes, counts = np.unique(ds.labels, return_counts=True)
    quotas = fraction * counts
    if np.any(quotas < 1.0):
        warnings.warn("fraction too small for stratification; sampling unstratified")
        return ds.take(rng.choice(n, size=total, replace=False))

    base = np.floor(quotas).astype(int)
    # the floors never sum past round(fraction * N), so slots are only added
    remainder = total - int(base.sum())
    if remainder > 0:
        # hand out leftovers by largest fractional part (ties by class order)
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:remainder]] += 1

    picked = []
    for cls, k in zip(classes, base):
        cls_idx = np.flatnonzero(ds.labels == cls)
        picked.append(rng.choice(cls_idx, size=k, replace=False))
    idx = np.concatenate(picked)
    rng.shuffle(idx)
    return ds.take(idx)


ID_PATTERN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def check_id(what: str, value: str) -> None:
    """Refuse an id that is not a plain name: ids become file names inside
    the experiment directory and unquoted CSV cells."""
    if not ID_PATTERN.fullmatch(value):
        raise ValueError(f"{what} {value!r} must match {ID_PATTERN.pattern}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One two-task continual-learning scenario recipe."""

    scenario_id: str
    kind: str                      # "transfer" | "split" | "rotated"
    src: str = ""                  # transfer: task-1 dataset name
    dst: str = ""                  # transfer: task-2 dataset name
    dataset: str = ""              # split/rotated: the single dataset name
    classes_a: tuple[int, ...] = ()
    classes_b: tuple[int, ...] = ()
    angle_a: float = 0.0
    angle_b: float = 0.0
    eval_fraction: float = 0.2
    calib_fraction: float = 0.3

    def __post_init__(self):
        check_id("scenario id", self.scenario_id)
        for name in ("classes_a", "classes_b"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.kind not in ("transfer", "split", "rotated"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        for frac in (self.eval_fraction, self.calib_fraction):
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"fractions must be in (0, 1], got {frac}")
        if self.kind == "split":
            if set(self.classes_a) & set(self.classes_b):
                raise ValueError("split class sets must be disjoint")
            if not self.classes_a or not self.classes_b:
                raise ValueError("split scenarios need both class sets")
            if len(self.classes_a) != len(self.classes_b):
                raise ValueError("split class sets must have equal size (shared head)")
        if self.kind == "rotated":
            for ang in (self.angle_a, self.angle_b):
                if not 0.0 <= ang < 360.0:
                    raise ValueError(f"angles must be in [0, 360), got {ang}")

    def tasks(self) -> tuple:
        """(dataset name, transform of its splits) of task 1 and of task 2, by kind."""
        if self.kind == "transfer":
            return (self.src, _unchanged), (self.dst, _unchanged)
        if self.kind == "split":
            return tuple((self.dataset, lambda ds, c=c: _filter_remap(ds, c, self))
                         for c in (self.classes_a, self.classes_b))
        return tuple((self.dataset, lambda ds, a=a: rotate_images(ds, a))
                     for a in (self.angle_a, self.angle_b))

    @property
    def dataset_names(self) -> tuple[str, ...]:
        """The datasets the scenario draws on, task 1's first."""
        return tuple(dict.fromkeys(name for name, _ in self.tasks()))


@dataclass
class Scenario:
    """Materialized scenario: standardized task datasets plus the carve-outs."""

    spec: ScenarioSpec
    task1_train: Dataset
    task1_eval: Dataset
    task2_train: Dataset
    calib_subset: Dataset
    task2_eval: Dataset
    n_classes: int
    seed: int

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    @property
    def input_dim(self) -> int:
        return self.task1_train.n_features


def _unchanged(ds: Dataset) -> Dataset:
    return ds


def _filter_remap(ds: Dataset, classes: Sequence[int], spec: ScenarioSpec) -> Dataset:
    classes = sorted(classes)
    mask = np.isin(ds.labels, classes)
    if not mask.any():
        raise ValueError(f"scenario {spec.scenario_id}: no samples with classes {classes} "
                         f"in dataset {spec.dataset!r}")
    remap = {c: i for i, c in enumerate(classes)}
    labels = np.array([remap[c] for c in ds.labels[mask]], dtype=np.int64)
    return Dataset(ds.images[mask], labels)


def make_scenario(spec: ScenarioSpec, pool: Mapping[str, Mapping[str, Dataset]],
                  seed: int, eval_cap: int | None = None) -> Scenario:
    """Build the task datasets, eval split, and calibration subset for a scenario.

    ``pool`` maps dataset name to its {"train": ..., "test": ...} splits,
    already loaded. Split scenarios remap each task's classes to [0, k);
    transfer and rotated scenarios keep the 10-way label space. Each
    evaluation set keeps its first ``eval_cap`` rows (a view; all if None).
    """
    for name in spec.dataset_names:
        if name not in pool:
            raise ValueError(f"scenario {spec.scenario_id}: dataset {name!r} not loaded")
    t1_train, t1_test, t2_train, t2_test = (
        transform(pool[name][split]) for name, transform in spec.tasks()
        for split in ("train", "test"))
    n_classes = len(spec.classes_a) if spec.kind == "split" else 10

    # freeze task-1 train statistics for every split of the scenario
    mean, std = feature_stats(t1_train.images)
    t1_train = standardize(t1_train, mean, std)
    t1_test = standardize(t1_test, mean, std)
    t2_train = standardize(t2_train, mean, std)
    t2_test = standardize(t2_test, mean, std)

    ss = np.random.SeedSequence([seed, 0xD5])
    eval_seed, calib_seed, eval2_seed = (int(s) for s in ss.generate_state(3))
    task1_eval = sample_subset(t1_test, spec.eval_fraction, eval_seed).take(slice(eval_cap))
    task2_eval = sample_subset(t2_test, spec.eval_fraction, eval2_seed).take(slice(eval_cap))
    calib = sample_subset(t1_train, spec.calib_fraction, calib_seed)

    return Scenario(spec, t1_train, task1_eval, t2_train, calib, task2_eval, n_classes, seed)

