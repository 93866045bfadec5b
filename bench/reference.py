"""Independent re-implementation of what the benchmark checks ramfed against.

Nothing here imports ramfed. Each function is written from the README's
description of the behaviour (selection recipes, inverse-CDF channel,
partitioning, snapshot and metrics layouts) and from the streams the
determinism contract fixes (init, selection and per-user shuffle seeds).
The round replay uses its own softmax/backprop and composite step, so a
match to a stated tolerance says the program computes the same maths.
"""

from __future__ import annotations

import struct

import numpy as np

# Selection probabilities of the three rarest users under `tail_three`.
TAIL_THREE = (0.0107, 0.0078, 0.0053)
BLOB_RADIUS = 3.0
# A synthetic test set is drawn from the dataset seed plus this offset.
TEST_SEED_OFFSET = 900_001


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def selection_weights(kind: str, num_users: int, param: float = 0.9, weights=()) -> np.ndarray:
    """Normalized weights of an `explicit`, `geometric` or `tail_three` recipe."""
    if kind == "explicit":
        raw = np.asarray(weights, dtype=np.float64)
    elif kind == "geometric":
        raw = param ** np.arange(num_users, dtype=np.float64)
    elif kind == "tail_three":
        tail = np.asarray(TAIL_THREE)
        head = param ** np.arange(num_users - 3, dtype=np.float64)
        head *= (1.0 - tail.sum()) / head.sum()
        raw = np.concatenate([head, tail])
    else:
        raise ValueError(f"unknown recipe {kind!r}")
    return raw / raw.sum()


def replay_selections(weights: np.ndarray, ram_seed: int, rounds: int) -> np.ndarray:
    """Inverse-CDF draws over the cumulative weights, one uniform per round."""
    u = np.random.default_rng(ram_seed).random(rounds)
    picks = np.searchsorted(np.cumsum(weights), u, side="right")
    return np.minimum(picks, weights.size - 1)


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

def blobs(num_classes: int, per_class: int, spread: float, seed: int):
    """2-D Gaussian blobs, one per class, means evenly spaced on a circle."""
    rng = np.random.default_rng(seed)
    angle = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centre = BLOB_RADIUS * np.column_stack([np.cos(angle), np.sin(angle)])
    x = np.vstack([centre[c] + spread * rng.standard_normal((per_class, 2))
                   for c in range(num_classes)])
    return x, np.repeat(np.arange(num_classes), per_class)


def write_idx_file(path, array: np.ndarray) -> None:
    """IDX: big-endian magic (0x801 labels, 0x803 images), u32 dims, uint8 payload."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    magic = 0x801 if array.ndim == 1 else 0x803
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">I{array.ndim}I", magic, *array.shape))
        fh.write(array.tobytes())


def read_idx_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = struct.unpack_from(">I", blob)[0]
    ndim = {0x801: 1, 0x803: 3}[magic]
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    return np.frombuffer(blob, np.uint8, offset=4 + 4 * ndim).reshape(dims)


def idx_split(directory, split: str, size: int, seed: int):
    """Flattened [0, 1] features of an IDX split, seeded subset of `size` rows."""
    prefix = "train" if split == "train" else "t10k"
    images = read_idx_file(f"{directory}/{prefix}-images-idx3-ubyte")
    labels = read_idx_file(f"{directory}/{prefix}-labels-idx1-ubyte")
    x = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    y = labels.astype(np.int64)
    if 0 < size < len(y):
        keep = np.sort(np.random.default_rng(seed).permutation(len(y))[:size])
        x, y = x[keep], y[keep]
    return x, y


def partition(labels: np.ndarray, num_classes: int, num_users: int,
              frequent_fraction: float, frequent_pattern_fraction: float, seed: int):
    """Index shards: the first round(K*ff/100) users share the first
    round(C*fpf/100) classes, the rest share the others; each group is
    dealt round-robin after one seeded shuffle per group, in group order."""
    n_users = round(num_users * frequent_fraction / 100.0)
    n_classes = round(num_classes * frequent_pattern_fraction / 100.0)
    rng = np.random.default_rng(seed)
    shards = []
    for members, size in ((labels < n_classes, n_users), (labels >= n_classes, num_users - n_users)):
        dealt = rng.permutation(np.flatnonzero(members))
        shards += [dealt[k::size] for k in range(size)]
    return shards


def user_seed(shuffle_seed: int, user: int) -> int:
    return int(np.random.SeedSequence([shuffle_seed, user]).generate_state(1)[0])


def batch_orders(n: int, batch: int, seed: int, epoch: int):
    order = np.random.default_rng([seed, epoch]).permutation(n)
    return [order[i:i + batch] for i in range(0, n, batch)]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def layer_shapes(input_dim: int, hidden, num_classes: int):
    dims = [input_dim, *hidden, num_classes]
    return list(zip(dims[:-1], dims[1:]))


def init_theta(shapes, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in shapes:
        bound = 1.0 / np.sqrt(fan_in)
        parts += [rng.uniform(-bound, bound, size=fan_in * fan_out), np.zeros(fan_out)]
    return np.concatenate(parts)


def unpack(shapes, theta):
    out, at = [], 0
    for fan_in, fan_out in shapes:
        w = theta[at:at + fan_in * fan_out].reshape(fan_in, fan_out)
        at += fan_in * fan_out
        out.append((w, theta[at:at + fan_out]))
        at += fan_out
    return out


def logits(shapes, theta, x):
    layers = unpack(shapes, theta)
    for w, b in layers[:-1]:
        x = np.maximum(x @ w + b, 0.0)
    w, b = layers[-1]
    return x @ w + b


def mean_ce(z, y) -> float:
    """Mean cross-entropy via log-sum-exp around the row maximum."""
    top = z.max(axis=1)
    lse = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
    return float((lse - z[np.arange(len(y)), y]).sum() / len(y))


def ce_and_grad(shapes, theta, x, y):
    """Mean cross-entropy and its gradient in the flat (W row-major, b) layout."""
    layers = unpack(shapes, theta)
    inputs, masks = [x], []
    for w, b in layers[:-1]:
        z = inputs[-1] @ w + b
        masks.append(z > 0.0)
        inputs.append(np.where(masks[-1], z, 0.0))
    w, b = layers[-1]
    z = inputs[-1] @ w + b
    rows = np.arange(len(y))
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    f = float((np.log(total[:, 0]) - shifted[rows, y]).sum() / len(y))
    p = e / total
    p[rows, y] -= 1.0
    d = p / len(y)
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append(d.sum(axis=0))
        grads.append((inputs[i].T @ d).ravel())
        if i:
            d = (d @ layers[i][0].T) * masks[i - 1]
    return f, np.concatenate(grads[::-1])


def accuracies(shapes, theta, x, y, num_classes: int):
    """Overall and per-class argmax accuracy (NaN for absent classes)."""
    hit = logits(shapes, theta, x).argmax(axis=1) == y
    per_class = [float(hit[y == c].mean()) if np.any(y == c) else float("nan")
                 for c in range(num_classes)]
    return float(hit.mean()), per_class


# ---------------------------------------------------------------------------
# Round engine
# ---------------------------------------------------------------------------

def replay_rounds(shards, run, selections, rounds: int):
    """Replay `rounds` rounds of relay + H local epochs of joint (theta, t) SGD.

    `shards` is a list of (x, y); `run` a dict with shapes, epochs, batch,
    lr_theta, lr_t, alpha, gamma, init_seed, shuffle_seed. Returns the
    per-round (t_global, loss of the relayed theta on the relayed user's
    shard) and the theta relayed in the last round.
    """
    alpha, gamma, shapes = run["alpha"], run["gamma"], run["shapes"]
    theta0 = init_theta(shapes, run["init_seed"])
    pairs = [(theta0, 0.0)] * len(shards)
    seeds = [user_seed(run["shuffle_seed"], u) for u in range(len(shards))]
    trace = []
    theta_g = theta0
    for r in range(rounds):
        pick = int(selections[r])
        theta_g, t_g = pairs[pick]
        x, y = shards[pick]
        trace.append((t_g, mean_ce(logits(shapes, theta_g, x), y)))
        updated = []
        for (x, y), seed in zip(shards, seeds):
            theta, t = theta_g.copy(), t_g
            size = min(run["batch"], len(y))
            for h in range(run["epochs"]):
                for rows in batch_orders(len(y), size, seed, r * run["epochs"] + h):
                    f, g = ce_and_grad(shapes, theta, x[rows], y[rows])
                    active = 1.0 if f > t else 0.0
                    theta = theta - run["lr_theta"] * ((1.0 - gamma) * active / alpha + gamma) * g
                    t = t - run["lr_t"] * (1.0 - gamma) * (1.0 - active / alpha)
            updated.append((theta, t))
        pairs = updated
    return trace, theta_g


# ---------------------------------------------------------------------------
# Artifact readers
# ---------------------------------------------------------------------------

def read_snapshot(path):
    """Decode model.bin: b"RFP1", kind u8, input_dim u32, num_classes u32,
    n_hidden u32, hidden u32 each, n_values u64, f64 values; little-endian."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RFP1":
        raise ValueError("bad snapshot magic")
    kind, input_dim, num_classes, n_hidden = struct.unpack_from("<BIII", blob, 4)
    at = 17
    hidden = struct.unpack_from(f"<{n_hidden}I", blob, at)
    at += 4 * n_hidden
    (count,) = struct.unpack_from("<Q", blob, at)
    at += 8
    if len(blob) != at + 8 * count:
        raise ValueError(f"snapshot payload is {len(blob) - at} bytes for {count} values")
    values = np.frombuffer(blob, "<f8", count=count, offset=at).astype(np.float64)
    return {"kind": kind, "input_dim": input_dim, "num_classes": num_classes,
            "hidden": tuple(hidden), "theta": values}


def read_metrics(path, num_classes: int):
    """Rows of metrics.csv as dicts; the header must be exactly the README's."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = (["round", "overall_acc"] + [f"per_class_acc_{c}" for c in range(num_classes)]
              + ["global_t", "selected_user_freq_snapshot"])
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"metrics header {lines[:1]} is not {header}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"metrics row has {len(cells)} cells: {line!r}")
        rows.append({
            "round": int(cells[0]),
            "overall_acc": float(cells[1]),
            "per_class_acc": [float(v) for v in cells[2:2 + num_classes]],
            "global_t": float(cells[2 + num_classes]),
            "freq": [float(v) for v in cells[-1].split("|")],
        })
    return rows
