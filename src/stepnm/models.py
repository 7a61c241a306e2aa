"""An MLP classifier with an explicit forward/backward pass, and its blobs data.

Affine layers with relu/tanh between them, then softmax cross-entropy; the
backward pass walks the layers in reverse.  Weights are stored (out_features,
in_features) so that N:M groups along the innermost axis run over each
output's reduction dimension.  Parameters, their gradients and the optimizer
moments are ParamBuffers: one flat float64 array each, whose named views are
the per-layer arrays.  ``loss_and_grad`` fills one, and ``check_layout`` is
the one test that a buffer has a given layout; nothing converts a dict.

``forward_loss`` and ``loss_and_grad`` check every call against the spec:
batch shapes, class ids, and the parameters' layout (built once per spec and
shared).

``DataConfig`` owns a dataset: it checks each data field once, and ``build`` draws it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, check_kind

# the model keys each model kind reads beside layer_sizes
MODEL_KEYS = {"mlp_classifier": ("activation",)}
ACTIVATIONS = ("relu", "tanh")
# the data keys each data kind reads
DATA_KEYS = {"blobs": ("n_samples", "n_features", "n_classes", "noise_std", "seed", "batch_size")}


# ---------------------------------------------------------------------------
# model specs and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: layer sizes plus the hidden activation."""

    kind: str
    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        check_kind("model", self.kind, MODEL_KEYS)
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(f"layer_sizes needs >= 2 positive extents, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


@functools.lru_cache(maxsize=64)  # a process trains few specs
def param_shapes(spec: ModelSpec) -> MappingProxyType:
    """Parameter names and shapes, weights stored (out, in), layer by layer.

    The layout is built once per spec and shared: it is a read-only mapping,
    so no caller can change what a later call returns.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    sizes = spec.layer_sizes
    for i in range(1, len(sizes)):
        shapes[f"fc{i}.weight"] = (sizes[i], sizes[i - 1])
        shapes[f"fc{i}.bias"] = (sizes[i],)
    return MappingProxyType(shapes)


class ParamBuffer(dict):
    """One contiguous float64 array, ``flat``, and its named views.

    The views take the names and shapes of ``shapes``, laid out back to back
    in that order; ``bounds`` holds each one's (start, stop) in ``flat``.
    Writing through a view (``buffer[name] += x`` too) writes ``flat`` and
    the reverse.  Rebinding or removing an entry raises TypeError, since a
    new array would not be part of ``flat``, and so does ``copy``, which
    would share the views; ``dict(buffer)`` is a plain dict of the views.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.shapes = shapes
        self.bounds = []
        stop = 0
        for shape in shapes.values():
            start, stop = stop, stop + math.prod(shape)
            self.bounds.append((start, stop))
        self.flat = np.zeros(stop)
        super().__init__((name, self.flat[start:stop].reshape(shape))
                         for (name, shape), (start, stop) in zip(shapes.items(), self.bounds))

    def _fixed(self, *args, **kwargs):
        raise TypeError("a ParamBuffer's entries are views of its flat array; "
                        "write through them (buffer[name][...] = x) instead")

    __delitem__ = __ior__ = update = pop = popitem = clear = setdefault = copy = _fixed

    def __setitem__(self, name, value):
        if name not in self or self[name] is not value:  # += stores the same view back
            self._fixed()


def check_layout(buffer, what: str, shapes=None) -> None:
    """Raise DimensionError unless ``buffer`` is a ParamBuffer laid out as ``shapes``.

    A layout is the names and shapes in order; without ``shapes`` any passes.
    """
    if not isinstance(buffer, ParamBuffer):
        raise DimensionError(f"{what} must be a ParamBuffer, got {type(buffer).__name__}")
    if shapes is not None and buffer.shapes is not shapes and (
            list(buffer.shapes.items()) != list(shapes.items())):
        raise DimensionError(f"{what} laid out as {dict(buffer.shapes)}, not {dict(shapes)}")


def init_params(spec: ModelSpec, seed) -> ParamBuffer:
    """Seeded scaled-normal weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = ParamBuffer(param_shapes(spec))
    for name, shape in params.shapes.items():
        if not name.endswith(".bias"):
            params[name][...] = rng.normal(0.0, 1.0 / np.sqrt(shape[1]), shape)
    return params


def check_targets(spec: ModelSpec, targets, rows: int) -> np.ndarray:
    """``rows`` class ids checked against ``spec``, as the int64 vector the loss reads.

    The targets must be a [rows] vector of integral class ids in
    [0, n_classes); an int64 vector needs no integrality test and is
    returned as it is.  Raises DimensionError for a misshapen target or an
    id out of range, and DomainError for an id that is not integral.
    """
    labels = np.asarray(targets)
    if labels.shape != (rows,):
        raise DimensionError("classifier targets must be a [batch] vector of class ids")
    if labels.dtype != np.int64:
        # NaN fails this compare; +-inf fails the range check below
        fractional = np.floor(labels) != labels
        if fractional.any():
            raise DomainError(
                f"classifier targets must be integral class ids, got {labels[fractional][0]}"
            )
    n_classes = spec.layer_sizes[-1]
    low, high = labels.min(initial=0), labels.max(initial=0)
    if low < 0 or high >= n_classes:
        raise DimensionError(
            f"class id {low if low < 0 else high} outside the output range [0, {n_classes})"
        )
    return labels.astype(np.int64, copy=False)


def _pass(spec: ModelSpec, params: ParamBuffer, batch, backward: bool,
          out: ParamBuffer | None = None):
    """Mean batch loss, plus every parameter's gradient when ``backward``.

    The batch goes through ``check_targets``, and ``params`` must be a
    ParamBuffer laid out as ``param_shapes(spec)``.  The forward pass applies
    each activation in place, and keeps each layer's input only when
    ``backward``; the backward pass walks the layers in reverse, forming
    dW = g.T @ h and db = sum(g) per layer, into ``out`` as
    ``loss_and_grad`` says, and skipping the gradient of the input batch.
    Each layer's g @ W is formed before its dW, so ``out`` may be ``params``.
    """
    inputs, targets = batch
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.layer_sizes[0]:
        raise DimensionError(
            f"inputs must be [batch, {spec.layer_sizes[0]}], got {inputs.shape}"
        )
    n = inputs.shape[0]
    targets = check_targets(spec, targets, n)
    shapes = param_shapes(spec)
    check_layout(params, "parameters", shapes)
    arrays = list(params.values())  # weight, bias, weight, bias, ... in layer order
    # the in-place forms below do the operations of the plain expressions
    # (x @ W.T + b, relu/tanh, pred - max, expz / sumexp, g / n) on fresh arrays
    n_layers = spec.n_layers
    layer_inputs = [inputs]
    for i in range(n_layers):
        pred = layer_inputs[-1] @ arrays[2 * i].T
        pred += arrays[2 * i + 1]
        if i < n_layers - 1:
            if not backward:  # the next layer's input is the only one needed
                layer_inputs.clear()
            layer_inputs.append(np.maximum(pred, 0.0, out=pred) if spec.activation == "relu"
                                else np.tanh(pred, out=pred))
    # the ufuncs' reduce is what the ndarray methods (max, sum) call, without their wrapper
    z = pred
    z -= np.maximum.reduce(pred, axis=1, keepdims=True)
    expz = np.exp(z)
    sumexp = np.add.reduce(expz, axis=1, keepdims=True)
    # row r's target logit, indexed in the flat (n * C) logits
    at = np.arange(0, z.size, z.shape[1])
    at += targets
    # sum / n is the bits of mean()
    loss = -np.add.reduce(z.ravel().take(at) - np.log(sumexp[:, 0])) / n
    if not backward:
        return float(loss), None
    g = expz
    g /= sumexp
    g.ravel()[at] -= 1.0
    g /= n
    out = ParamBuffer(shapes) if out is None else out
    check_layout(out, "gradient buffer", shapes)
    grads = list(out.values())  # weight, bias, weight, bias, ... in layer order
    for i in range(n_layers - 1, -1, -1):
        h = layer_inputs[i]
        g_in = g @ arrays[2 * i] if i > 0 else None  # read W before dW overwrites it
        np.matmul(g.T, h, out=grads[2 * i])
        np.add.reduce(g, axis=0, out=grads[2 * i + 1])
        if i > 0:
            # the relu subgradient at exactly 0 is +0.0
            g = np.where(h > 0.0, g_in, 0.0) if spec.activation == "relu" else g_in * (1.0 - h * h)
    return float(loss), out


def forward_loss(spec: ModelSpec, params: ParamBuffer, batch) -> float:
    """Mean softmax cross-entropy over the batch."""
    return _pass(spec, params, batch, backward=False)[0]


def loss_and_grad(spec: ModelSpec, params: ParamBuffer, batch,
                  out: ParamBuffer | None = None) -> tuple[float, ParamBuffer]:
    """Loss plus gradients for every parameter, in one forward/backward pass.

    The gradients fill ``out``, a ParamBuffer laid out as ``param_shapes(spec)``
    (DimensionError otherwise), or a new one; that buffer is returned.
    It may be ``params``, whose weights the gradients then overwrite.
    """
    return _pass(spec, params, batch, backward=True, out=out)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """In-memory supervised dataset with a batching size."""

    inputs: np.ndarray
    targets: np.ndarray
    batch_size: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets)
        if targets.dtype != np.int64:  # int64 class ids, as check_targets makes them, stay
            targets = targets.astype(np.float64, copy=False)
        if inputs.ndim != 2:
            raise DimensionError(f"inputs must be 2-d, got shape {inputs.shape}")
        if targets.shape[0] != inputs.shape[0]:
            raise DimensionError("inputs and targets disagree on sample count")
        if not (1 <= self.batch_size <= inputs.shape[0]):
            raise ConfigError(
                f"need n_samples >= batch_size >= 1, got {inputs.shape[0]} and {self.batch_size}"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    def full_batch(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs, self.targets


def batch_iterator(dataset: Dataset, seed):
    """Endless seeded epoch shuffles; tail samples that do not fill a batch are dropped."""
    rng = np.random.default_rng(seed)
    n, b = dataset.n_samples, dataset.batch_size
    per_epoch = n // b
    while True:
        order = rng.permutation(n)
        for i in range(per_epoch):
            idx = order[i * b : (i + 1) * b]
            yield dataset.inputs[idx], dataset.targets[idx]


@dataclass(frozen=True)
class DataConfig:
    """Gaussian blobs, one per class, checked here and drawn by ``build``."""

    kind: str  # blobs
    n_samples: int = 256
    n_features: int = 2
    n_classes: int = 2
    noise_std: float = 0.1
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        check_kind("data", self.kind, DATA_KEYS)
        if self.n_samples < 1:
            raise ConfigError(f"data.n_samples must be >= 1, got {self.n_samples}")
        if self.n_classes < 2:
            raise ConfigError(f"data.n_classes must be >= 2 for blobs, got {self.n_classes}")
        if self.noise_std < 0:
            raise ConfigError(f"data.noise_std must be >= 0, got {self.noise_std}")
        for key in ("n_features", "batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"data.{key} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"data.seed must be >= 0, got {self.seed}")

    def build(self) -> Dataset:
        """The dataset drawn from ``seed``: 3 N(0, 1) centres, samples labelled by class in turn."""
        rng = np.random.default_rng(self.seed)
        shape = (self.n_samples, self.n_features)
        centers = 3.0 * rng.standard_normal((self.n_classes, self.n_features))
        labels = np.arange(self.n_samples) % self.n_classes
        inputs = centers[labels] + self.noise_std * rng.standard_normal(shape)
        return Dataset(inputs, labels.astype(np.float64), batch_size=min(self.batch_size, self.n_samples))
