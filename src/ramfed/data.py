"""Dataset ingestion, synthetic fixtures, user partitioning, batching.

Everything here is deterministic given its seed arguments: the synthetic
generator, the partitioner's shuffles, and the per-epoch batch order, which is
``default_rng([seed, epoch]).permutation(n)``.
"""

from __future__ import annotations

import csv
import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import Batch

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803

BLOB_RADIUS = 3.0
# NumPy's standard normal draws lie within 14 of 0, so this spread keeps every feature finite.
MAX_SPREAD = float(np.finfo(np.float64).max) / 16


class InputError(ValueError):
    """A config, snapshot or data file the program cannot use; the message names the file or key."""


@dataclass
class Dataset:
    """A pooled or per-user labelled dataset."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must match the feature row count")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite entries")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


# ---------------------------------------------------------------------------
# IDX binary format
# ---------------------------------------------------------------------------

def parse_idx(buf: bytes) -> np.ndarray:
    """Decode an IDX byte string into a uint8 array.

    Magic 0x00000801 yields a 1-D label vector, 0x00000803 a 3-D image
    tensor. Dimension sizes are big-endian u32, payload is row-major uint8.
    """
    if len(buf) < 4:
        raise InputError(f"truncated header: need 4 magic bytes, have {len(buf)} (offset 0)")
    (magic,) = struct.unpack_from(">I", buf, 0)
    if magic == IDX_MAGIC_LABELS:
        ndim = 1
    elif magic == IDX_MAGIC_IMAGES:
        ndim = 3
    else:
        raise InputError(f"bad magic 0x{magic:08x} (offset 0)")
    header_end = 4 + 4 * ndim
    if len(buf) < header_end:
        raise InputError(
            f"truncated header: need {ndim} dimension sizes, payload ends at offset {len(buf)}"
        )
    dims = struct.unpack_from(f">{ndim}I", buf, 4)
    count = 1
    for d in dims:
        count *= d
    if count > len(buf) - header_end:
        raise InputError(
            f"dimension product {count} overflows payload of "
            f"{len(buf) - header_end} bytes (offset {header_end})"
        )
    if len(buf) - header_end > count:
        raise InputError(f"trailing bytes after payload (offset {header_end + count})")
    data = np.frombuffer(buf, dtype=np.uint8, count=count, offset=header_end)
    return data.reshape(dims)


def write_idx(arr: np.ndarray) -> bytes:
    """Inverse of parse_idx; bit-exact round-trip for valid inputs."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 1:
        magic = IDX_MAGIC_LABELS
    elif arr.ndim == 3:
        magic = IDX_MAGIC_IMAGES
    else:
        raise ValueError(f"IDX arrays must be 1-D or 3-D, got {arr.ndim}-D")
    header = struct.pack(">I", magic) + struct.pack(f">{arr.ndim}I", *arr.shape)
    return header + arr.tobytes(order="C")


def load_idx(path) -> np.ndarray:
    """Read an IDX file, transparently decompressing gzip; faults name the file."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as err:
            raise InputError(f"{path}: corrupt gzip stream: {err}") from None
    try:
        return parse_idx(raw)
    except InputError as err:
        raise InputError(f"{path}: {err}") from None


_IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def find_idx_file(directory, stem: str) -> Path:
    directory = Path(directory)
    for name in (stem, stem + ".gz"):
        candidate = directory / name
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"{stem}[.gz] not found under {directory}")


def load_idx_dataset(directory, split: str = "train") -> Dataset:
    """Load an MNIST-layout IDX directory as flattened [0,1] features; faults name the file."""
    image_stem, label_stem = _IDX_FILES[split]
    image_path = find_idx_file(directory, image_stem)
    images = load_idx(image_path)
    if images.shape[1:] != (28, 28):
        raise InputError(f"{image_path}: images of shape {images.shape}, need (n, 28, 28)")
    label_path = find_idx_file(directory, label_stem)
    labels = load_idx(label_path)
    if images.shape[0] != labels.shape[0]:
        raise InputError(f"{label_path}: label count {labels.shape[0]} "
                         f"!= image count {images.shape[0]}")
    features = images.reshape(len(images), 28 * 28).astype(np.float64) / 255.0
    try:
        return Dataset(features, labels, num_classes=10)
    except ValueError as err:
        raise InputError(f"{image_path} and {label_path}: {err}") from None


# ---------------------------------------------------------------------------
# Synthetic 2-D fixture
# ---------------------------------------------------------------------------

def check_synthetic_2d(num_classes: int, per_class: int, spread: float,
                       size_name: str = "per_class") -> None:
    """The range checks on :func:`gen_synthetic_2d`'s arguments; a NaN spread fails."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if per_class < 1:
        raise ValueError(f"{size_name} must be >= 1")
    if not 0 <= spread <= MAX_SPREAD:
        raise ValueError(f"spread must be in [0, {MAX_SPREAD:.4g}]")


def gen_synthetic_2d(num_classes: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Isotropic Gaussian blobs, one per class, means on a circle of radius 3."""
    check_synthetic_2d(num_classes, per_class, spread)
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = BLOB_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    features = np.concatenate(
        [means[c] + spread * rng.standard_normal((per_class, 2)) for c in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(features, labels, num_classes)


def save_csv(dataset: Dataset, path) -> None:
    """Export a 2-D dataset as `x1,x2,label` rows."""
    if dataset.features.shape[1] != 2:
        raise ValueError("CSV export is defined for 2-D features only")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "label"])
        for (x1, x2), y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(x1)), repr(float(x2)), int(y)])


def load_csv(path, num_classes: int | None = None) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["x1", "x2", "label"]:
            raise ValueError(f"unexpected CSV header {header}")
        rows = [(float(r[0]), float(r[1]), int(r[2])) for r in reader]
    features = np.array([[r[0], r[1]] for r in rows])
    labels = np.array([r[2] for r in rows])
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(features, labels, num_classes)


# ---------------------------------------------------------------------------
# Heterogeneous partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    """How to split one pooled dataset across users.

    The first ``round(num_users * frequent_fraction / 100)`` users share the
    first ``round(C * frequent_pattern_fraction / 100)`` class ids; remaining
    users share the remaining classes exclusively. Both percentages are open
    (0, 100) so each group keeps at least one member.
    """

    num_users: int
    frequent_fraction: float
    frequent_pattern_fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.num_users < 2:
            raise ValueError("num_users must be >= 2")
        if self.seed < 0:
            raise ValueError("partition seed must be nonnegative")
        if not 0 < self.frequent_fraction < 100:
            raise ValueError("frequent_fraction must be in (0, 100)")
        if not 0 < self.frequent_pattern_fraction < 100:
            raise ValueError("frequent_pattern_fraction must be in (0, 100)")
        if not 1 <= self.num_frequent_users <= self.num_users - 1:
            raise ValueError(
                f"frequent_fraction {self.frequent_fraction} leaves "
                f"{self.num_frequent_users} frequent of {self.num_users} users; "
                "both groups need at least one member"
            )

    @property
    def num_frequent_users(self) -> int:
        return round(self.num_users * self.frequent_fraction / 100.0)

    def num_frequent_classes(self, num_classes: int) -> int:
        n = round(num_classes * self.frequent_pattern_fraction / 100.0)
        if not 1 <= n <= num_classes - 1:
            raise ValueError(
                f"frequent_pattern_fraction {self.frequent_pattern_fraction} "
                f"reserves {n} of {num_classes} classes; both class groups "
                "need at least one member"
            )
        return n


def partition_indices(data: Dataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Sample-index shards per user: disjoint, exhaustive, deterministic.

    Within each group the samples are dealt round-robin after a seeded
    shuffle, so shard sizes differ by at most one.
    """
    n_freq_classes = spec.num_frequent_classes(data.num_classes)
    present = np.unique(data.labels)
    if present.size != data.num_classes:
        missing = sorted(set(range(data.num_classes)) - set(present.tolist()))
        raise InputError(f"classes {missing} absent from the dataset")

    rng = np.random.default_rng(spec.seed)
    shards: list[list[np.ndarray]] = [[] for _ in range(spec.num_users)]
    groups = [
        (np.flatnonzero(data.labels < n_freq_classes), 0, spec.num_frequent_users),
        (
            np.flatnonzero(data.labels >= n_freq_classes),
            spec.num_frequent_users,
            spec.num_users - spec.num_frequent_users,
        ),
    ]
    for indices, first_user, group_size in groups:
        if indices.size < group_size:
            raise InputError(
                f"{indices.size} samples cannot cover {group_size} users "
                f"starting at user {first_user}"
            )
        shuffled = rng.permutation(indices)
        for offset in range(group_size):
            shards[first_user + offset].append(shuffled[offset::group_size])
    return [np.concatenate(parts) for parts in shards]


def partition_heterogeneous(data: Dataset, spec: PartitionSpec) -> list[Dataset]:
    return [data.take(idx) for idx in partition_indices(data, spec)]


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

def batch_indices(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Contiguous chunks of a shuffle of range(n) keyed by (seed, epoch); the last may be short."""
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


def batches(data: Dataset, batch_size: int, seed: int, epoch: int) -> list[Batch]:
    """The minibatches of one epoch, in the order of :func:`batch_indices`."""
    return [Batch(data.features[idx], data.labels[idx])
            for idx in batch_indices(len(data), batch_size, seed, epoch)]
