"""Reference computations the benchmark checks stepnm's outputs against.

Each one is written from its definition with plain numpy and imports nothing
from stepnm, so a fault in the program cannot hide by appearing on both sides
of a check.
"""

from __future__ import annotations

import math

import numpy as np


def nm_mask(weights, n: int, m: int) -> np.ndarray:
    """0/1 mask keeping n of every m consecutive weights along the last axis.

    Each group is sorted by the key (-|w|, index), so the n largest
    magnitudes are kept and a tie goes to the lower index.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got {n}:{m}")
    if w.ndim == 0 or w.shape[-1] % m:
        raise ValueError(f"last extent of shape {w.shape} is not a multiple of m={m}")
    groups = np.abs(w).reshape(-1, m)
    index = np.broadcast_to(np.arange(m), groups.shape)
    # np.lexsort sorts by its last key first
    order = np.lexsort((index, -groups), axis=1)
    mask = np.zeros(groups.shape)
    np.put_along_axis(mask, order[:, :n], 1.0, axis=1)
    return mask.reshape(w.shape)


def mlp_loss(layers, inputs, labels) -> float:
    """Mean softmax cross-entropy of a ReLU MLP with (out, in) weights.

    ``layers`` is a sequence of (weight, bias) pairs; ReLU follows every
    layer but the last.
    """
    h = np.asarray(inputs, dtype=np.float64)
    for i, (weight, bias) in enumerate(layers):
        h = h @ np.asarray(weight, dtype=np.float64).T + bias
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    raw = np.asarray(labels, dtype=np.float64)
    labels = raw.astype(np.int64)
    if not np.array_equal(labels, raw):
        raise ValueError("labels must be whole class ids")
    z = h - h.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def drift_bound(g: float, beta2: float, t: int, t0: int, delta: float) -> float:
    """Closed-form drift bound sqrt(4 G^2 (1-beta2)^2 (t-t0) log(2/delta))."""
    return math.sqrt(4.0 * g * g * (1.0 - beta2) ** 2 * (t - t0) * math.log(2.0 / delta))


def per_step_bound(g: float, beta2: float) -> float:
    """Per-step increment bound sqrt(2) (1-beta2) G of the corrected second moment."""
    return math.sqrt(2.0) * (1.0 - beta2) * g


def rel_error(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale
