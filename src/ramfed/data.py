"""Dataset ingestion, synthetic fixtures, user partitioning, batching.

Everything here is deterministic given its seed arguments: the synthetic
generator, the partitioner's shuffles, and the per-epoch batch order, which is
``default_rng([seed, epoch]).permutation(n)`` with all of a round's seeding in one NumPy pass.
"""

from __future__ import annotations

import csv
import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .models import Batch

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803

BLOB_RADIUS = 3.0


class IdxFormatError(ValueError):
    """Malformed IDX payload; the message names the offending byte offset."""


class PartitionError(ValueError):
    """The requested split would leave some user without data."""


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
        raise IdxFormatError(f"truncated header: need 4 magic bytes, have {len(buf)} (offset 0)")
    (magic,) = struct.unpack_from(">I", buf, 0)
    if magic == IDX_MAGIC_LABELS:
        ndim = 1
    elif magic == IDX_MAGIC_IMAGES:
        ndim = 3
    else:
        raise IdxFormatError(f"bad magic 0x{magic:08x} (offset 0)")
    header_end = 4 + 4 * ndim
    if len(buf) < header_end:
        raise IdxFormatError(
            f"truncated header: need {ndim} dimension sizes, payload ends at offset {len(buf)}"
        )
    dims = struct.unpack_from(f">{ndim}I", buf, 4)
    count = 1
    for d in dims:
        count *= d
    if count > len(buf) - header_end:
        raise IdxFormatError(
            f"dimension product {count} overflows payload of "
            f"{len(buf) - header_end} bytes (offset {header_end})"
        )
    if len(buf) - header_end > count:
        raise IdxFormatError(f"trailing bytes after payload (offset {header_end + count})")
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
            raise IdxFormatError(f"{path}: corrupt gzip stream: {err}") from None
    try:
        return parse_idx(raw)
    except IdxFormatError as err:
        raise IdxFormatError(f"{path}: {err}") from None


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
    """Load an MNIST-layout IDX directory as flattened [0,1] features."""
    image_stem, label_stem = _IDX_FILES[split]
    images = load_idx(find_idx_file(directory, image_stem))
    label_path = find_idx_file(directory, label_stem)
    labels = load_idx(label_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"{label_path}: label count {labels.shape[0]} "
                             f"!= image count {images.shape[0]}")
    features = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return Dataset(features, labels.astype(np.int64), num_classes=10)


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
    if not spread >= 0:
        raise ValueError("spread must be nonnegative")


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
        raise PartitionError(f"classes {missing} absent from the dataset")

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
            raise PartitionError(
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

def _hash_constants(value: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pairs of ``count`` successive hashmix calls, as uint32 columns."""
    column = np.array([value * pow(mult, i, 1 << 32) % (1 << 32) for i in range(count + 1)])
    return column[:-1, None].astype(np.uint32), column[1:, None].astype(np.uint32)


# NumPy's SeedSequence with its pool of 4 words: 16 hashmix calls mix it, 8 draw PCG64's state.
_MIX_XOR, _MIX_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _seed_words(seeds: np.ndarray, epochs: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence([seeds[i], epochs[i]]).generate_state(4, np.uint64)``."""
    pool = np.zeros((4, len(seeds)), np.uint32)  # the entropy [seed, epoch], zero-padded
    pool[0], pool[1] = seeds, epochs
    pool = _hashmix(pool, _MIX_XOR[:4], _MIX_MULT[:4])
    for src in range(4):  # word src mixes into the other three, in order
        dst, k = [d for d in range(4) if d != src], slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _MIX_XOR[k], _MIX_MULT[k])
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(np.tile(pool, (2, 1)), _OUT_XOR, _OUT_MULT)  # cycles over the pool
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@dataclass
class _GivenState(ISeedSequence):
    """A seed sequence whose state is already drawn: PCG64 reads its 4 uint64 words."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def shuffle_orders(lengths, seeds, epochs) -> list[np.ndarray]:
    """``np.random.default_rng([seed, epoch]).permutation(n)`` per triple, all hashed together.

    Seeds and epochs must lie in [0, 2**32), where SeedSequence reads each as one word.
    """
    seeds, epochs = np.asarray(seeds), np.asarray(epochs)
    if any(w.size and (w.dtype.kind not in "iu" or (w >> 32).any()) for w in (seeds, epochs)):
        raise ValueError("seeds and epochs must be integers in [0, 2**32)")  # < 0 or > 32 bits
    return [np.random.Generator(np.random.PCG64(_GivenState(row))).permutation(n)
            for n, row in zip(lengths, _seed_words(seeds, epochs), strict=True)]


def batch_indices(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Contiguous chunks of a shuffle of range(n) keyed by (seed, epoch); the last may be short."""
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    (order,) = shuffle_orders([n], [seed], [epoch])
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


def batches(data: Dataset, batch_size: int, seed: int, epoch: int) -> list[Batch]:
    """The minibatches of one epoch, in the order of :func:`batch_indices`."""
    return [Batch(data.features[idx], data.labels[idx])
            for idx in batch_indices(len(data), batch_size, seed, epoch)]
