"""Synthetic stand-in generator for the MNIST family and CIFAR-10.

Writes class-structured image sets in each dataset's binary layout, so
the whole ingestion path (binary parsing, scenarios, training) can run
offline at desk scale: 28x28 grayscale in IDX files, and for ``cifar10``
32x32 RGB in CIFAR-10 binary batches, at the paths
``datasets.dataset_paths`` gives. Each named dataset gets its own
class prototypes: smooth random fields plus per-sample jitter and noise,
separable enough for small ReLU nets to fit within a couple of epochs.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .datasets import CIFAR_TRAIN_BATCHES, IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, dataset_paths

# distinct prototype seeds per stand-in dataset name
NAME_SEEDS = {"mnist": 101, "fashion_mnist": 202, "cifar10": 303}


def _bilinear_upsample(coarse: np.ndarray, side: int) -> np.ndarray:
    k = coarse.shape[0]
    pos = np.linspace(0, k - 1, side)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, k - 1)
    f = pos - i0
    rows = coarse[i0][:, i0] * np.outer(1 - f, 1 - f) \
        + coarse[i0][:, i1] * np.outer(1 - f, f) \
        + coarse[i1][:, i0] * np.outer(f, 1 - f) \
        + coarse[i1][:, i1] * np.outer(f, f)
    return rows


def class_prototypes(seed: int, n_classes: int = 10, shape: tuple = (28, 28)) -> np.ndarray:
    """(n_classes, *shape) smooth fields in [0.1, 0.9]; a (3, side, side) shape
    stacks three independent planes."""
    rng = np.random.default_rng(seed)
    side = shape[-1]
    protos = np.empty((n_classes, *shape))
    for c in range(n_classes):
        for plane in protos[c].reshape(-1, side, side):
            coarse = rng.standard_normal((7, 7))
            field = _bilinear_upsample(coarse, side)
            field = (field - field.min()) / (field.max() - field.min() + 1e-12)
            plane[...] = 0.1 + 0.8 * field
    return protos


def synth_images(name: str, split: str, n: int, seed: int, noise: float = 0.06,
                 max_shift: int = 1, shape: tuple = (28, 28)) -> tuple[np.ndarray, np.ndarray]:
    """Sample (uint8 images (n, *shape), labels (n,)) for one split."""
    proto_seed = NAME_SEEDS.get(name, sum(name.encode()))
    protos = class_prototypes(proto_seed, shape=shape)
    rng = np.random.default_rng(np.random.SeedSequence([seed, proto_seed, 0 if split == "train" else 1]))
    labels = rng.integers(0, len(protos), size=n)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    eps = rng.standard_normal((n, *shape)) * noise
    images = np.empty((n, *shape))
    for i in range(n):
        img = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(-2, -1)) + eps[i]
        images[i] = np.clip(img, 0.0, 1.0)
    return np.round(images * 255).astype(np.uint8), labels.astype(np.uint8)


def write_idx_pair(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        fh.write(labels.tobytes())


def write_cifar_batch(images: np.ndarray, labels: np.ndarray, path) -> None:
    """One CIFAR-10 binary batch: per image a label byte, then its 1024 R, G and B bytes."""
    with open(path, "wb") as fh:
        fh.write(np.hstack([labels[:, None], images.reshape(len(images), 3 * 32 * 32)]).tobytes())


def check_counts(names, n_train: int, n_test: int, flags=("n_train", "n_test")) -> None:
    """Refuse split sizes that would not load for every dataset in ``names``: an
    empty split, or a CIFAR-10 train set with fewer images than batches."""
    least_train = len(CIFAR_TRAIN_BATCHES) if "cifar10" in names else 1
    for flag, n, least in zip(flags, (n_train, n_test), (least_train, 1)):
        if n < least:
            raise ValueError(f"{flag} must be >= {least} for {', '.join(names)}, got {n}")


def generate_dataset(root, name: str, n_train: int = 6000, n_test: int = 1500,
                     seed: int = 0) -> dict:
    """Write a synthetic dataset to ``dataset_paths(root, name)`` and return those paths."""
    check_counts([name], n_train, n_test)
    paths = dataset_paths(root, name)
    os.makedirs(os.path.join(root, name), exist_ok=True)
    for split, n in (("train", n_train), ("test", n_test)):
        if name == "cifar10":
            images, labels = synth_images(name, split, n, seed, shape=(3, 32, 32))
            for path, rows in zip(paths[split], np.array_split(np.arange(n), len(paths[split]))):
                write_cifar_batch(images[rows], labels[rows], path)
        else:
            write_idx_pair(*synth_images(name, split, n, seed), *paths[split])
    return paths
