"""Local training, confidence-based sample filtering, and model aggregation.

All arithmetic is float64 numpy.  The classifier is a small fully connected
network with ReLU hidden layers and a softmax head; nothing here depends on a
deep-learning framework, which keeps byte-level determinism under our control
and fixes the size of a model update (`param_bits`) independently of the
training schedule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

LOG_GUARD = 1e-30  # floor inside log() so a confident wrong answer stays finite

_EVAL_CHUNK = 4096


@dataclass(frozen=True)
class ModelParameters:
    """Dense network weights: per layer a (out, in) matrix and (out,) bias."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    architecture: tuple[int, ...]

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            layers=tuple((w.copy(), b.copy()) for w, b in self.layers),
            architecture=self.architecture,
        )


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (n, d) float64 with integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"feature/label counts differ: {self.features.shape[0]} vs {self.labels.shape[0]}"
            )
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of the confidence filter on one worker's data."""

    included_indices: np.ndarray  # ascending positions into the local dataset
    excluded_count: int


def init_model(architecture: Sequence[int], rng: np.random.Generator) -> ModelParameters:
    """Fresh parameters: weights ~ N(0, 1/fan_in), biases zero."""
    arch = tuple(int(n) for n in architecture)
    if len(arch) < 2 or any(n < 1 for n in arch):
        raise ValueError(f"architecture needs >= 2 positive layer widths, got {arch}")
    layers = []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        w = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append((w, np.zeros(fan_out)))
    return ModelParameters(layers=tuple(layers), architecture=arch)


def param_bits(architecture: Sequence[int]) -> int:
    """Model update size in bits: one float64 per weight or bias."""
    arch = tuple(int(n) for n in architecture)
    return 64 * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(arch[:-1], arch[1:]))


def _forward_batch(model: ModelParameters, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Probabilities and the per-layer activations needed for backprop."""
    if x.ndim != 2 or x.shape[1] != model.architecture[0]:
        raise ValueError(
            f"input shape {x.shape} does not match network input width "
            f"{model.architecture[0]}"
        )
    acts = [x]
    a = x
    last = len(model.layers) - 1
    for i, (w, b) in enumerate(model.layers):
        z = a @ w.T + b
        if i < last:
            a = np.maximum(z, 0.0)
            acts.append(a)
        else:
            z -= z.max(axis=1, keepdims=True)  # shift-invariant softmax
            e = np.exp(z)
            a = e / e.sum(axis=1, keepdims=True)
    return a, acts


def loss_and_gradient(
    model: ModelParameters, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross entropy over a batch and its gradient wrt every parameter.

    Args:
        model: current parameters.
        x: batch features, shape (n, d).
        y: batch labels, shape (n,).

    Returns:
        (loss, grads) with grads shaped exactly like model.layers.
    """
    n = x.shape[0]
    probs, acts = _forward_batch(model, x)
    if y.size and (y.min() < 0 or y.max() >= probs.shape[1]):
        raise ValueError(f"labels outside [0, {probs.shape[1]})")
    p_true = probs[np.arange(n), y]
    loss = float(np.mean(-np.log(np.maximum(p_true, LOG_GUARD))))

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0  # d loss / d logits = probs - onehot
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.layers)  # type: ignore
    for i in range(len(model.layers) - 1, -1, -1):
        a_prev = acts[i]
        grads[i] = (delta.T @ a_prev, delta.sum(axis=0))
        if i > 0:
            delta = delta @ model.layers[i][0]
            delta *= acts[i] > 0.0  # ReLU mask, subgradient 0 at the kink
    return loss, grads


def sgd_epoch(
    model: ModelParameters,
    data: LabeledDataset,
    indices: np.ndarray,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
) -> ModelParameters:
    """One pass of mini-batch SGD over data[indices] in a fresh shuffle.

    Runs ceil(len(indices) / batch_size) updates (the tail batch may be
    short) and returns new parameters; the input model is untouched.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    order = rng.permutation(np.asarray(indices, dtype=np.intp))
    layers = [(w.copy(), b.copy()) for w, b in model.layers]
    work = ModelParameters(layers=tuple(layers), architecture=model.architecture)
    for start in range(0, order.size, batch_size):
        batch = order[start : start + batch_size]
        _, grads = loss_and_gradient(work, data.features[batch], data.labels[batch])
        for (w, b), (gw, gb) in zip(layers, grads):
            w -= lr * gw
            b -= lr * gb
    return work


def filter_samples(
    model: ModelParameters, data: LabeledDataset, threshold: float
) -> FilterDecision:
    """Keep samples the model is still unsure about.

    A sample is excluded when its top softmax probability exceeds threshold;
    threshold 1.0 keeps everything, threshold 0.0 excludes everything.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    included = []
    for start in range(0, len(data), _EVAL_CHUNK):
        probs, _ = _forward_batch(model, data.features[start : start + _EVAL_CHUNK])
        keep = probs.max(axis=1) <= threshold
        included.append(np.flatnonzero(keep) + start)
    idx = np.concatenate(included) if included else np.empty(0, dtype=np.intp)
    return FilterDecision(included_indices=idx, excluded_count=len(data) - idx.size)


def local_round(
    global_model: ModelParameters,
    data: LabeledDataset,
    epochs: int,
    batch_size: int,
    lr: float,
    threshold: float,
    rng: np.random.Generator,
) -> tuple[ModelParameters, FilterDecision]:
    """One worker's round: full first epoch, filter, remaining epochs on the rest.

    The filter always runs (its verdict prices the round's workload) but with
    epochs == 1 training is exactly one plain epoch.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    model = sgd_epoch(global_model, data, np.arange(len(data)), batch_size, lr, rng)
    decision = filter_samples(model, data, threshold)
    for _ in range(epochs - 1):
        model = sgd_epoch(model, data, decision.included_indices, batch_size, lr, rng)
    return model, decision


def aggregate(updates: Sequence[tuple[ModelParameters, int]]) -> ModelParameters:
    """Dataset-size weighted average of worker models."""
    if not updates:
        raise ValueError("aggregate needs at least one update")
    arch = updates[0][0].architecture
    total = 0
    for model, size in updates:
        if model.architecture != arch:
            raise ValueError(f"architecture mismatch: {model.architecture} vs {arch}")
        if size < 0:
            raise ValueError(f"dataset sizes must be non-negative, got {size}")
        total += size
    if total <= 0:
        raise ValueError("aggregate needs a positive total dataset size")
    layers = []
    for i in range(len(updates[0][0].layers)):
        w = sum((size / total) * m.layers[i][0] for m, size in updates)
        b = sum((size / total) * m.layers[i][1] for m, size in updates)
        layers.append((w, b))
    return ModelParameters(layers=tuple(layers), architecture=arch)


def evaluate(model: ModelParameters, data: LabeledDataset) -> tuple[float, float]:
    """Mean cross entropy and top-1 accuracy (argmax ties -> lowest index)."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    loss_sum = 0.0
    correct = 0
    for start in range(0, len(data), _EVAL_CHUNK):
        feats = data.features[start : start + _EVAL_CHUNK]
        labels = data.labels[start : start + _EVAL_CHUNK]
        probs, _ = _forward_batch(model, feats)
        p_true = probs[np.arange(labels.size), labels]
        loss_sum += float(-np.log(np.maximum(p_true, LOG_GUARD)).sum())
        correct += int((probs.argmax(axis=1) == labels).sum())
    return loss_sum / len(data), correct / len(data)
