"""Local training, confidence-based sample filtering, and model aggregation.

All arithmetic is float64 numpy.  The classifier is a small fully connected
network with ReLU hidden layers and a softmax head; nothing here depends on a
deep-learning framework, which keeps byte-level determinism under our control
and fixes the size of a model update (`param_bits`) independently of the
training schedule.
"""
from __future__ import annotations

import math
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

    def take(self, rows: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[rows], self.labels[rows])


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


def _stack(model: ModelParameters, k: int) -> ModelParameters:
    """k copies of a 2-D model along a new leading worker axis."""
    return ModelParameters(
        layers=tuple((np.repeat(w[None], k, axis=0), np.repeat(b[None], k, axis=0))
                     for w, b in model.layers),
        architecture=model.architecture,
    )


def _member(model: ModelParameters, i: int) -> ModelParameters:
    """Worker i of a stacked model, as 2-D views."""
    return ModelParameters(
        layers=tuple((w[i], b[i]) for w, b in model.layers), architecture=model.architecture
    )


def _forward_batch(model: ModelParameters, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Probabilities and the per-layer activations needed for backprop.

    A stacked model (weights (k, out, in), biases (k, out)) takes x of shape
    (k, n, d) and runs x[i] through worker i; every product and reduction on
    a slice is the one a 2-D call makes, so each slice's bytes are too.
    """
    if x.ndim != model.layers[0][0].ndim or x.shape[-1] != model.architecture[0]:
        raise ValueError(
            f"input shape {x.shape} does not match network input width "
            f"{model.architecture[0]}"
        )
    acts = [x]
    a = x
    last = len(model.layers) - 1
    for i, (w, b) in enumerate(model.layers):
        z = a @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        if i < last:
            a = np.maximum(z, 0.0, out=z)
            acts.append(a)
        else:
            z -= np.maximum.reduce(z, axis=-1, keepdims=True)  # shift-invariant softmax
            a = np.exp(z, out=z)
            a /= np.add.reduce(a, axis=-1, keepdims=True)
    return a, acts


def gradient(model: ModelParameters, x: np.ndarray, y: np.ndarray,
             out: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
    """Gradient of the mean cross entropy over a batch wrt every parameter, written into out.

    Args:
        model: current parameters, 2-D or stacked over k workers.
        x: batch features, shape (n, d); for a stacked model, k batches of
            n rows one after another, shape (k*n, d), worker i's first.
        y: target rows, shape (rows, classes) for the rows of x: one-hot
            for a labelled batch (np.eye(classes)[labels]).
        out: one (gw, gb) pair per layer, shaped like model.layers; every
            element is overwritten, and views of a larger block will do.
    """
    rows, classes = x.shape[0], model.architecture[-1]
    if rows == 0:
        raise ValueError("cannot take the gradient of an empty batch")
    if y.shape != (rows, classes):
        raise ValueError(f"targets must have shape {(rows, classes)}, got {y.shape}")
    weights = model.layers[0][0]
    if weights.ndim == 3:
        x = x.reshape(weights.shape[0], -1, x.shape[-1])
    n = x.shape[-2]
    delta, acts = _forward_batch(model, x)  # d loss / d logits = (probs - targets) / n, in place
    delta -= y.reshape(delta.shape)
    delta /= n
    for i in range(len(model.layers) - 1, -1, -1):
        gw, gb = out[i]
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=gw)
        np.add.reduce(delta, axis=-2, out=gb)
        if i > 0:
            delta = delta @ model.layers[i][0]
            # ReLU mask, subgradient 0 at the kink: activations are +0.0 or
            # positive, so their sign is exactly 0.0 or 1.0
            delta *= np.sign(acts[i])


def loss_and_gradient(
    model: ModelParameters, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross entropy over a batch and its gradient wrt every parameter.

    Arguments as for gradient; returns (loss, grads) with grads fresh arrays
    shaped exactly like model.layers and the loss the mean over all rows.
    Training steps through gradient alone and never computes the loss.
    """
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in model.layers]
    gradient(model, x, y, grads)
    probs, _ = _forward_batch(model, x.reshape(*model.layers[0][0].shape[:-2], -1, x.shape[-1]))
    return -np.vdot(y, np.log(np.maximum(probs, LOG_GUARD))) / x.shape[0], grads


def _layout(block: np.ndarray, arch: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per layer, (weights, biases) as views of the rows of a (k, P) parameter block."""
    layers, at = [], 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        end = at + fan_out * fan_in
        layers.append((block[:, at:end].reshape(len(block), fan_out, fan_in),
                       block[:, end:end + fan_out]))
        at = end + fan_out
    return tuple(layers)


def sgd_epoch(
    model: ModelParameters,
    data: Sequence[LabeledDataset],
    batch_size: int,
    lr: float,
    rng: Sequence[np.random.Generator],
    epochs: int = 1,
) -> ModelParameters:
    """`epochs` passes of mini-batch SGD for a stack of k workers, each in a fresh shuffle.

    The model is stacked (see local_round), and data and rng are k-long
    sequences: worker i trains on every row of data[i], one pass in the order
    rng[i].permutation(len(data[i])), drawn afresh for each pass.  A pass
    runs ceil(len(data[i]) / batch_size) updates (the tail batch may be
    short); returns new parameters, the input model is untouched.

    The stack trains as a copy ordered longest shard first (ties in worker
    order): one (k, P) parameter block, row i a worker's W0, b0, W1, b1, ...
    flattened, beside a gradient block of the same shape.  At each step the
    workers whose batches have the same length are neighbours, a row slice
    of both blocks: one gradient call writes into views of the slice, and
    the update is g *= lr then p -= g, each element's operations in a
    layer-by-layer update.  Every pass is one row of indices into the joined
    shards, in step order: one take gathers a pass's features, so each call
    reads one contiguous slice, and one take gives the labels of all passes,
    checked and turned into one-hot targets once.  Batches are never padded,
    so every worker gets the bytes it would get in a stack of its own,
    returned in input order as views of one (k, P) block.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0.0 < lr < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    weights = model.layers[0][0]
    if weights.ndim != 3 or weights.shape[0] != len(data):
        raise ValueError(f"{len(data)} datasets for a model of weight shape {weights.shape}")
    perms, first = [], 0  # per worker, (epochs, size): its shuffles as rows of the joined shards
    for d, r in zip(data, rng, strict=True):
        perms.append(np.stack([r.permutation(len(d)) for _ in range(epochs)]) + first)
        first += len(d)
    order = sorted(range(len(perms)), key=lambda i: -perms[i].shape[1])  # longest first, stable
    perms = [perms[i] for i in order]
    sizes = [p.shape[1] for p in perms]
    arch = model.architecture
    params = np.empty((len(data), param_bits(arch) // 64))  # P from arch: k may be 0
    for views, layer in zip(_layout(params, arch), model.layers):
        for view, array in zip(views, layer):
            array.take(order, axis=0, out=view)
    grads = np.empty_like(params)
    # one pass's schedule: workers of one batch length are a contiguous run of
    # the ordered stack (a full batch is a prefix, equal short tails mean equal
    # sizes) and train in place on a row slice of the blocks
    plan = []  # (row count, model of views, gradient views, parameter rows, gradient rows)
    slices: dict[tuple[int, int], tuple] = {}  # worker range -> its views and rows
    rows = [np.empty((epochs, 0), dtype=np.intp)]  # every pass's rows, in step order
    for start in range(0, max(sizes, default=0), batch_size):
        groups: dict[int, list[int]] = {}  # batch length -> workers
        for i, size in enumerate(sizes):
            if size > start:
                groups.setdefault(min(batch_size, size - start), []).append(i)
        for length, group in groups.items():
            key = (group[0], group[-1] + 1)
            if key not in slices:
                p, g = params[slice(*key)], grads[slice(*key)]
                slices[key] = (ModelParameters(layers=_layout(p, arch), architecture=arch),
                               _layout(g, arch), p, g)
            plan.append((length * len(group), *slices[key]))
            rows.extend(perms[i][:, start:start + length] for i in group)
    rows = np.concatenate(rows, axis=1)  # (epochs, rows of one pass)
    # the joined shards: empty heads fix the dtypes and let a stack hold no workers
    labels = np.concatenate([np.empty(0, dtype=np.intp), *(d.labels for d in data)]).take(rows)
    classes = model.architecture[-1]
    if labels.size and (np.minimum.reduce(labels, axis=None) < 0
                        or np.maximum.reduce(labels, axis=None) >= classes):
        raise ValueError(f"labels outside [0, {classes})")
    targets = np.eye(classes).take(labels, axis=0)
    features = np.concatenate([np.empty((0, model.architecture[0])), *(d.features for d in data)])
    x_all = np.empty((rows.shape[1], model.architecture[0]))  # one pass's rows, refilled
    for epoch in range(epochs):
        # every index is a row of the joined shards, so clipping changes nothing;
        # the default mode="raise" would gather into a buffer and copy it over
        features.take(rows[epoch], axis=0, out=x_all, mode="clip")
        offset = 0
        for n, sub, out, p, g in plan:
            stop = offset + n
            gradient(sub, x_all[offset:stop], targets[epoch, offset:stop], out)
            offset = stop
            g *= lr
            p -= g
    inverse = sorted(range(len(order)), key=order.__getitem__)  # back to input order
    # into the gradient block, which training no longer needs: no third stack-sized
    # array; every index is a row, so clipping changes nothing and nothing is buffered
    params.take(inverse, axis=0, out=grads, mode="clip")
    return ModelParameters(layers=_layout(grads, arch), architecture=arch)


def filter_samples(
    model: ModelParameters, data: LabeledDataset, threshold: float
) -> FilterDecision:
    """Keep samples the model is still unsure about.

    A sample is excluded when its top softmax probability exceeds threshold;
    threshold 1.0 keeps everything, threshold 0.0 excludes everything.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if threshold == 1.0:
        # no softmax probability exceeds 1: skip the forward pass
        return FilterDecision(included_indices=np.arange(len(data)), excluded_count=0)
    included = []
    for start in range(0, len(data), _EVAL_CHUNK):
        probs, _ = _forward_batch(model, data.features[start : start + _EVAL_CHUNK])
        keep = probs.max(axis=1) <= threshold
        included.append(np.flatnonzero(keep) + start)
    idx = np.concatenate(included) if included else np.empty(0, dtype=np.intp)
    return FilterDecision(included_indices=idx, excluded_count=len(data) - idx.size)


def local_round(
    global_model: ModelParameters,
    data: Sequence[LabeledDataset],
    epochs: int,
    batch_size: int,
    lr: float,
    threshold: float,
    rng: Sequence[np.random.Generator],
) -> tuple[list[ModelParameters], list[FilterDecision]]:
    """The workers' round: full first epoch, filter, remaining epochs on the rest.

    data and rng hold one dataset and one stream per worker.  Every worker
    starts from global_model and they train as one stack: weights
    (k, out, in) and biases (k, out), one SGD step for all of them at a time
    (see sgd_epoch).  That is two sgd_epoch calls: one pass on every sample,
    then, after each worker is filtered on its own model, epochs - 1 passes
    on the rows its filter kept.  The filter always runs (its verdict prices
    the round's workload) but with epochs == 1 training is exactly one plain
    epoch, in one call.  Returns the lists of models and decisions, in worker
    order; a worker's bytes do not depend on which others share its stack.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if any(len(d) == 0 for d in data):
        raise ValueError("cannot train on an empty dataset")
    stack = sgd_epoch(_stack(global_model, len(data)), data, batch_size, lr, rng)
    decisions = [filter_samples(_member(stack, i), d, threshold) for i, d in enumerate(data)]
    if epochs > 1:
        # a worker that kept every row passes d itself: a copy of it would only add memory
        kept = [d if decision.excluded_count == 0 else d.take(decision.included_indices)
                for d, decision in zip(data, decisions)]
        stack = sgd_epoch(stack, kept, batch_size, lr, rng, epochs=epochs - 1)
    return [_member(stack, i) for i in range(len(data))], decisions


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
