"""Small differentiable classifiers with hand-derived gradients.

Two model families: multinomial logistic regression and a fully-connected
ReLU network. Parameters live in a single flat float64 vector so that
broadcasting and relaying a model is a plain vector copy; the architecture
descriptor travels separately and never changes during a run. The analytic
gradients are validated against :func:`finite_diff_grad` in the test suite.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOGREG = "logreg"
MLP = "mlp"

_SNAPSHOT_MAGIC = b"RFP1"
_KIND_CODES = {LOGREG: 0, MLP: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}


@dataclass(frozen=True)
class ModelArch:
    """Architecture descriptor: fixes the flat parameter layout.

    The flat vector is the concatenation of per-layer blocks, one block per
    weight layer: first the weight matrix stored row-major with shape
    (fan_in, fan_out), then the bias of length fan_out. ``hidden_dims`` must
    be empty for logistic regression.
    """

    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.kind == LOGREG and self.hidden_dims:
            raise ValueError("logreg takes no hidden layers")
        if self.kind == MLP and not self.hidden_dims:
            raise ValueError("mlp needs at least one hidden layer in hidden_dims")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per weight layer, input to output."""
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    @property
    def num_params(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims())


@dataclass
class ModelParams:
    """A flat parameter vector bound to its architecture."""

    arch: ModelArch
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.arch.num_params,):
            raise ValueError(
                f"parameter vector has length {self.values.size}, "
                f"architecture requires {self.arch.num_params}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter vector contains non-finite entries")


@dataclass(frozen=True)
class Batch:
    """A labelled minibatch: features (B, d) and integer labels (B,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must match the feature row count")
        if self.features.shape[0] < 1:
            raise ValueError("batch must be nonempty")

    def __len__(self) -> int:
        return self.features.shape[0]


def init_params(arch: ModelArch, seed: int) -> ModelParams:
    """Deterministic init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    values = np.zeros(arch.num_params)
    for w, _ in split_layers(arch, values):
        scale = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-scale, scale, size=w.shape)
    return ModelParams(arch, values)


def split_layers(arch: ModelArch, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of a flat vector as per-layer (W, b) pairs; the one statement of the layout."""
    layers = []
    offset = 0
    for fan_in, fan_out in arch.layer_dims():
        w = values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, values[offset : offset + fan_out]))
        offset += fan_out
    return layers


def _forward_pass(layers: list[tuple[np.ndarray, np.ndarray]],
                  features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The input to each weight layer and the logits; ReLU on hidden layers. Unchecked."""
    activations = [features]
    for w, b in layers[:-1]:
        activations.append(np.maximum(activations[-1] @ w + b, 0.0))
    w, b = layers[-1]
    return activations, activations[-1] @ w + b


def check_features(features: np.ndarray, arch: ModelArch) -> np.ndarray:
    """The features as float64; they must be a (rows, input_dim) matrix for the architecture."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != arch.input_dim:
        raise ValueError(f"feature matrix must be (rows, {arch.input_dim}), got {features.shape}")
    return features


def check_labels(labels: np.ndarray, arch: ModelArch) -> None:
    """Labels must index the architecture's classes."""
    if labels.min() < 0 or labels.max() >= arch.num_classes:
        raise ValueError("labels out of range for the architecture")


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for a feature matrix; ReLU on hidden layers."""
    features = check_features(features, params.arch)
    return _forward_pass(split_layers(params.arch, params.values), features)[1]


def _softmax_terms(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy, stabilised with log-sum-exp, and the shifted
    exponentials and their row sums, from which the backward pass forms the softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    return float(np.mean(np.log(norm[:, 0]) - shifted[rows, labels])), exp, norm


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy, stabilised with log-sum-exp."""
    return _softmax_terms(logits, labels)[0]


def loss_and_grad(params: ModelParams, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    The gradient is taken w.r.t. the flat parameter vector and returned in
    the same layout. Non-finite results are not checked here: the training
    loop's per-step check turns them into a divergence.
    """
    arch = params.arch
    labels = np.asarray(batch.labels)
    check_labels(labels, arch)
    grad = np.empty(arch.num_params)
    loss = _loss_and_grad_into(split_layers(arch, params.values), split_layers(arch, grad),
                               check_features(batch.features, arch), labels)
    return loss, grad


def _loss_and_grad_into(layers, grad_layers, features: np.ndarray, labels: np.ndarray) -> float:
    """The batch loss, its gradient written into the ``grad_layers`` views; unchecked, for views
    made once per update."""
    activations, logits = _forward_pass(layers, features)
    loss, exp, norm = _softmax_terms(logits, labels)

    # Backward pass from the softmax probabilities; subgradient of ReLU at 0 is 0.
    rows = logits.shape[0]
    delta = exp / norm
    delta[np.arange(rows), labels] -= 1.0
    delta /= rows
    for i in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grad_layers[i]
        np.matmul(activations[i].T, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if i > 0:
            delta = (delta @ layers[i][0].T) * (activations[i] > 0.0)
    return loss


def finite_diff_grad(params: ModelParams, batch: Batch, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the batch loss, coordinate by coordinate.

    Deliberately routed through forward() + cross_entropy() only, so it stays
    independent of the analytic backward pass it is used to check.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = params.values
    grad = np.empty_like(base)
    for j in range(base.size):
        bumped = base.copy()
        bumped[j] = base[j] + eps
        up = cross_entropy(forward(ModelParams(params.arch, bumped), batch.features), batch.labels)
        bumped[j] = base[j] - eps
        down = cross_entropy(forward(ModelParams(params.arch, bumped), batch.features), batch.labels)
        grad[j] = (up - down) / (2.0 * eps)
    return grad


def atomic_write(path, data: str | bytes) -> None:
    """Write text (as UTF-8) or bytes through a temp file plus rename.

    An interrupted write never leaves a partial file at ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_params(params: ModelParams, path) -> None:
    """Write a parameter snapshot.

    Byte layout (all integers little-endian):
      magic          4 bytes  b"RFP1"
      kind           u8       0 = logreg, 1 = mlp
      input_dim      u32
      num_classes    u32
      n_hidden       u32
      hidden_dims    u32 * n_hidden
      n_values       u64
      values         f64 * n_values (little-endian IEEE 754)
    """
    arch = params.arch
    header = _SNAPSHOT_MAGIC + struct.pack(
        "<BIII",
        _KIND_CODES[arch.kind],
        arch.input_dim,
        arch.num_classes,
        len(arch.hidden_dims),
    )
    header += struct.pack(f"<{len(arch.hidden_dims)}I", *arch.hidden_dims)
    header += struct.pack("<Q", params.values.size)
    atomic_write(path, header + params.values.astype("<f8").tobytes())


def _unpack(fmt: str, blob: bytes, offset: int) -> tuple[tuple, int]:
    """Fields of ``fmt`` at ``offset`` and the offset just past them."""
    end = offset + struct.calcsize(fmt)
    if len(blob) < end:
        raise ValueError(f"truncated snapshot: needs {end} bytes, ends at offset {len(blob)}")
    return struct.unpack_from(fmt, blob, offset), end


def load_params(path) -> ModelParams:
    """Read a snapshot written by :func:`save_params`.

    Any malformed file raises ValueError; header faults name the offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {blob[:4]!r} (offset 0)")
    (kind_code, input_dim, num_classes, n_hidden), offset = _unpack("<BIII", blob, 4)
    if kind_code not in _KIND_NAMES:
        raise ValueError(f"unknown model kind byte {kind_code} (offset 4)")
    hidden, offset = _unpack(f"<{n_hidden}I", blob, offset)
    (n_values,), offset = _unpack("<Q", blob, offset)
    arch = ModelArch(_KIND_NAMES[kind_code], input_dim, num_classes, hidden)
    if arch.num_params != n_values:
        raise ValueError(f"snapshot holds {n_values} values, architecture needs {arch.num_params}")
    if len(blob) != offset + 8 * n_values:
        raise ValueError(f"payload of {n_values} values from offset {offset} "
                         f"does not end the file at offset {len(blob)}")
    values = np.frombuffer(blob, dtype="<f8", count=n_values, offset=offset).astype(np.float64)
    return ModelParams(arch, values)
