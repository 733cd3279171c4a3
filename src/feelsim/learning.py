"""Local training, confidence-based sample filtering, and model aggregation.

All arithmetic is float64 numpy.  The classifier is a small fully connected
network with ReLU hidden layers and a softmax head; nothing here depends on a
deep-learning framework, which keeps byte-level determinism under our control
and fixes the size of a model update (`param_bits`) independently of the
training schedule.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

LOG_GUARD = 1e-30  # floor inside log() so a confident wrong answer stays finite


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

    def take(self, rows: np.ndarray | slice) -> "LabeledDataset":
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


def _member(model: ModelParameters, i: int) -> ModelParameters:
    """Worker i of a stacked model, as 2-D views."""
    return ModelParameters(
        layers=tuple((w[i], b[i]) for w, b in model.layers), architecture=model.architecture
    )


def _buffer(pools: list, role: int, shape: tuple[int, ...]) -> np.ndarray:
    """An array of this shape at the start of pools[role], which first grows to the next
    power of two of elements if it is too short; with no pools, a fresh array.  A view
    keeps the pool it was bound to, so a growth leaves every earlier view valid."""
    if not pools:
        return np.empty(shape)
    size = math.prod(shape)
    if len(pools[role]) < size:
        pools[role] = np.empty(1 << (size - 1).bit_length())
    return pools[role][:size].reshape(shape)


class _Workspace(tuple):
    """The (gw, gb) pairs gradient writes, with every other operand of a step bound once.

    forward, read by _forward: each hidden layer's (transposed weights, output buffer,
    broadcast bias), the logits layer's, then the softmax buffers: a class-major copy of
    the logits for the row max (numpy's max over a short last axis is slow, over axis 0 it
    is not), the row max, its broadcast shift and the row sum.  backward, read by gradient:
    the probabilities as (rows, classes), the batch length as a float, per layer from the
    last down to layer 1 (delta_t, delta, input activation, gw, gb, weights, back buffer),
    back being the next layer's delta, and layer 0's (delta_t, delta, gw, gb), whose input
    is the call's x.  The weights and biases are the model's own arrays (views of a stack's
    parameter block), so the workspace sees every write into them.  Each buffer is a view of
    pools (see _buffer) in one role per buffer: the layers' outputs, the class-major logits,
    the row max and sum, then the hidden layers' deltas.  Steps run one at a time, each
    writing a buffer before it reads it, so all of a stack's workspaces share its pools."""

    def __new__(cls, model: ModelParameters, grads, shape: tuple[int, ...], pools=()):
        ws = super().__new__(cls, grads)  # shape: a batch's leading dims, (k, n) or (n,)
        arch = model.architecture
        ws.model, ws.rows, ws.x_shape = model, math.prod(shape), (*shape, arch[0])
        shapes = [*((*shape, n) for n in arch[1:]), (arch[-1], *shape), shape, (*shape, 1),
                  *((*shape, n) for n in arch[1:-1])]  # and the hidden layers' deltas
        buffers = [_buffer(pools, role, s) for role, s in enumerate(shapes)]
        out = buffers[:len(arch) - 1]
        classes, row_max, row_sum, *deltas = buffers[len(arch) - 1:]
        layers = tuple((w.swapaxes(-1, -2), z, b[..., None, :])
                       for (w, b), z in zip(model.layers, out))
        logits_t = out[-1].transpose(-1, *range(len(shape)))  # class-major view
        ws.forward = (layers[:-1], layers[-1], classes, logits_t, row_max, row_max[..., None],
                      row_sum)
        deltas.append(out[-1])
        backward = tuple((deltas[i].swapaxes(-1, -2), deltas[i], out[i - 1], *ws[i],
                          model.layers[i][0], deltas[i - 1])
                         for i in range(len(out) - 1, 0, -1))
        ws.backward = (out[-1].reshape(ws.rows, arch[-1]), float(shape[-1]),
                       backward, (deltas[0].swapaxes(-1, -2), deltas[0], *ws[0]))
        return ws


def _forward(bound: tuple, x: np.ndarray) -> np.ndarray:
    """Softmax probabilities of x into the logits buffer of a workspace's forward half, the
    hidden activations into its other output buffers.

    A max is exact in any order; the sum stays on the last axis, where numpy adds 8 or
    more classes in an order that a class-major sum would not keep."""
    hidden, (w_t, z, bias), classes, logits_t, row_max, shift, row_sum = bound
    a = x
    for h_w_t, h, h_bias in hidden:
        np.matmul(a, h_w_t, out=h)
        h += h_bias
        a = np.maximum(h, 0.0, out=h)
    np.matmul(a, w_t, out=z)
    z += bias
    # class-major, not the last axis: run_s 2.7 % / 4.7 % lower on preset-filtered / -unfiltered,
    # 8 of 10 pairs each
    np.copyto(classes, logits_t)
    np.maximum.reduce(classes, axis=0, out=row_max)
    z -= shift  # shift-invariant softmax
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True, out=row_sum)
    return z


def _shifted_exp(model: ModelParameters, x: np.ndarray) -> np.ndarray:
    """The forward-only pass: exp(logits - the row's top logit) for every row of x as
    (classes, rows), or (m, classes, n) for a model stacked over m workers whose x holds
    their n rows each one after another, as gradient's x does.  Feature-major, W @ x.T (the
    bytes of (x @ W.T).T), so the bias adds, ReLU, the max, the shift and exp run along rows
    as long as the batch, not over hundreds of rows of a few classes."""
    arch, lead = model.architecture, model.layers[0][0].shape[:-2]  # lead: (m,) or ()
    if x.ndim != 2 or x.shape[1] != arch[0]:
        raise ValueError(f"input shape {x.shape} does not match network input width {arch[0]}")
    m = math.prod(lead)
    if len(x) % m:
        raise ValueError(f"a stack of {m} workers needs a multiple of {m} rows, got {len(x)}")
    *hidden, (w, b) = model.layers
    a = x.reshape(*lead, -1, arch[0]).swapaxes(-1, -2)
    for h_w, h_b in hidden:
        a = np.matmul(h_w, a)
        a += h_b[..., None]
        np.maximum(a, 0.0, out=a)
    z = np.matmul(w, a)
    z += b[..., None]
    z -= np.maximum.reduce(z, axis=-2, keepdims=True)  # shift-invariant softmax
    return np.exp(z, out=z)


def _class_sums(e: np.ndarray) -> np.ndarray:
    """e summed over its class axis (-2) with the bytes of numpy's row-major
    np.add.reduce(..., axis=-1), whose pairwise order this restates: in turn below 8
    classes; up to 128, class i into accumulator i mod 8, combined as
    ((0+1)+(2+3))+((4+5)+(6+7)), then the c mod 8 left in turn; above 128, the halves split
    at c // 2 rounded down to a multiple of 8, each summed so.  Adding in turn moves bytes
    from 8 classes on."""
    c = e.shape[-2]
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _class_sums(e[..., :half, :]) + _class_sums(e[..., half:, :])
    if c < 8:
        s, rest = e[..., 0, :] + 0.0, range(1, c)  # numpy starts a short sum at 0.0
    else:
        r = e[..., :8, :].copy()
        for i in range(8, c - c % 8, 8):
            r += e[..., i:i + 8, :]
        s = (((r[..., 0, :] + r[..., 1, :]) + (r[..., 2, :] + r[..., 3, :]))
             + ((r[..., 4, :] + r[..., 5, :]) + (r[..., 6, :] + r[..., 7, :])))
        rest = range(c - c % 8, c)
    for i in rest:
        s += e[..., i, :]
    return s


def gradient(model: ModelParameters, x: np.ndarray, y: np.ndarray,
             out: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
    """Gradient of the mean cross entropy over a batch wrt every parameter, written into out.

    Args:
        model: current parameters, 2-D or stacked over k workers.
        x: batch features, shape (n, d); for a stacked model, k batches of n rows one
            after another, shape (k*n, d), worker i's first.
        y: target rows, shape (rows, classes): one-hot for a labelled batch.
        out: one (gw, gb) pair per layer, shaped like model.layers (views of a larger block
            will do), every element overwritten.  A _Workspace for this model and row
            count binds every other operand of the step, and the call runs its kernel
            (_forward, then the bound backward pass) on them; any other sequence is wrapped
            in a fresh one.  Training calls this once per step and batch length.
    """
    arch, rows = model.architecture, x.shape[0]
    if x.ndim != 2 or x.shape[1] != arch[0]:
        raise ValueError(f"input shape {x.shape} does not match network input width {arch[0]}")
    if rows == 0:
        raise ValueError("cannot take the gradient of an empty batch")
    if y.shape != (rows, arch[-1]):
        raise ValueError(f"targets must have shape {(rows, arch[-1])}, got {y.shape}")
    if not (isinstance(out, _Workspace) and out.model is model and out.rows == rows):
        lead = model.layers[0][0].shape[:-2]  # (k,) for a stack of k workers, else ()
        k = math.prod(lead)
        if rows % k:
            raise ValueError(f"a stack of {k} workers needs a multiple of {k} rows, got {rows}")
        out = _Workspace(model, out, (*lead, rows // k))
    x = x.reshape(out.x_shape)
    _forward(out.forward, x)
    probs, n, layers, (delta_t, delta, gw, gb) = out.backward
    probs -= y  # d loss / d logits = (probs - targets) / n, in place
    probs /= n  # a float: same bytes; numpy divides by a Python int more slowly
    for delta_t_i, delta_i, a, gw_i, gb_i, w, back in layers:
        np.matmul(delta_t_i, a, out=gw_i)
        np.add.reduce(delta_i, axis=-2, out=gb_i)
        np.matmul(delta_i, w, out=back)
        # ReLU mask, subgradient 0 at the kink: activations are +0.0 or positive, so
        # their sign, written over them as nothing reads them again, is 0.0 or 1.0
        back *= np.sign(a, out=a)
    np.matmul(delta_t, x, out=gw)
    np.add.reduce(delta, axis=-2, out=gb)


def loss_and_gradient(
    model: ModelParameters, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross entropy over a batch and its gradient wrt every parameter.

    Arguments as for gradient; returns (loss, grads), grads fresh arrays
    shaped like model.layers, the loss the mean over all rows from a second
    forward pass.  Training steps through gradient alone.
    """
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in model.layers]
    gradient(model, x, y, grads)
    probs = _shifted_exp(model, x)
    probs /= _class_sums(probs)[..., None, :]
    # vdot reads both in row order: y's (rows, classes) against the probabilities transposed back
    log_p = np.log(np.maximum(probs, LOG_GUARD)).swapaxes(-1, -2)
    return -np.vdot(y, log_p) / x.shape[0], grads


def _layout(block: np.ndarray, arch: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per layer, (weights, biases) as views of the rows of a (k, P) parameter block."""
    layers, at = [], 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        end = at + fan_out * fan_in
        layers.append((block[:, at:end].reshape(len(block), fan_out, fan_in),
                       block[:, end:end + fan_out]))
        at = end + fan_out
    return tuple(layers)


def _longest_first(sizes: Sequence[int]) -> list[int]:
    """Workers longest first, ties in worker order: the stack order of a pass on these
    row counts, in which workers whose batches have the same length are a row slice."""
    return sorted(range(len(sizes)), key=lambda i: -sizes[i])


class _Stack:
    """k workers' models trained as one: row j of a (k, P) parameter block is worker
    order[j]'s W0, b0, W1, b1, ... flattened, beside a gradient block of the same shape.

    A stack is built once for as many rounds as its owner trains k workers
    (a trial's round schedule keeps one), and builds each workspace its rounds reuse
    once.  Its blocks never move: load and reorder write into them, so a step's workspace,
    views of a row slice keyed by (lo, hi, batch length), stays valid for the stack's life,
    and every one it builds is kept.  Their buffers are views of pools, one array per buffer
    role, so their bytes follow its largest workspace, not its number of workspaces.  The two
    most recent plans are kept (a round's full pass and kept pass), and every plan's batches
    are views of one pass block, x and y, grown to the most rows seen; local_round gathers
    the filter's rows into x too.  onehot is the targets' one-hot table."""

    def __init__(self, arch: tuple[int, ...], k: int):
        self.arch, self.order, self.position = arch, list(range(k)), list(range(k))
        self.params = np.empty((k, param_bits(arch) // 64))  # P from arch: k may be 0
        self.grads = np.empty_like(self.params)
        self.model = ModelParameters(_layout(self.params, arch), arch)
        self.pools = [np.empty(0)] * (2 * len(arch))  # one per buffer role, see _Workspace
        self.onehot = np.eye(arch[-1])
        self.x, self.y = np.empty((0, arch[0])), np.empty((0, arch[-1]))
        self.plans: dict[tuple, tuple] = {}  # (order, sizes, batch_size) -> plan
        self.steps: dict[tuple[int, int, int], tuple] = {}  # (lo, hi, n) -> (ws, p, g)

    def load(self, model: ModelParameters, order: list[int]) -> None:
        """Fill the rows from model, row j read as worker order[j]: a 2-D model fills every
        row, so any order holds without a copy; a stacked one fills row j from its j-th."""
        if model.architecture != self.arch or sorted(order) != list(range(len(self.params))):
            raise ValueError(f"cannot load {model.architecture} in worker order {order} "
                             f"into a stack of {len(self.order)} x {self.arch}")
        for views, layer in zip(self.model.layers, model.layers):
            for view, array in zip(views, layer):
                np.copyto(view, array)
        self.order, self.position = order, sorted(range(len(order)), key=order.__getitem__)

    def reorder(self, order: list[int]) -> None:
        """Put worker order[j] in row j, in place."""
        if order != self.order:
            # via the gradient block, free between steps; every index is a row, so "clip"
            # changes nothing, and unlike "raise" it writes without an interim copy
            self.params.take([self.position[i] for i in order], axis=0, out=self.grads, mode="clip")
            np.copyto(self.params, self.grads)
            self.order, self.position = order, sorted(range(len(order)), key=order.__getitem__)

    def plan(self, sizes: list[int], batch_size: int) -> tuple:
        """A pass's plan for workers of these row counts, rows ordered longest first so that
        workers whose batches have the same length at a step are a row slice of the blocks.

        Returns (pos, x, y, steps): pos picks a pass's rows, in step order, from the workers'
        shuffled rows laid end to end; x and y take their features and targets; a step is
        (model, x rows, y rows, workspace, p rows, g rows)."""
        if any(sizes[i] < sizes[j] for i, j in zip(self.order, self.order[1:])):
            self.reorder(_longest_first(sizes))
        key = (tuple(self.order), tuple(sizes), batch_size)
        # cached: run_s 6.6 % / 5.6 % lower on preset-filtered / -unfiltered, 7 of 10 pairs each
        plan = self.plans[key] = self.plans.pop(key, None) or self._plan(sizes, batch_size)
        if len(self.plans) > 2:  # most recent last
            del self.plans[next(iter(self.plans))]
        return plan

    def _plan(self, sizes: list[int], batch_size: int) -> tuple:
        first = list(itertools.accumulate(sizes, initial=0))
        rows = first[-1]
        if rows > len(self.x):  # cached plans keep the block they were built on
            self.x, self.y = np.empty((rows, self.arch[0])), np.empty((rows, self.arch[-1]))
        x, y = self.x[:rows], self.y[:rows]
        pos, steps = [], []
        for start in range(0, max(sizes, default=0), batch_size):
            groups: dict[int, list[int]] = {}  # batch length -> rows of the stack
            for j, i in enumerate(self.order):
                if sizes[i] > start:
                    groups.setdefault(min(batch_size, sizes[i] - start), []).append(j)
            for n, group in groups.items():
                lo, hi = group[0], group[-1] + 1
                if (lo, hi, n) not in self.steps:  # built once per key, and kept
                    p, g = self.params[lo:hi], self.grads[lo:hi]
                    sub = ModelParameters(layers=_layout(p, self.arch), architecture=self.arch)
                    ws = _Workspace(sub, _layout(g, self.arch), (hi - lo, n), self.pools)
                    self.steps[lo, hi, n] = ws, p, g
                ws, p, g = self.steps[lo, hi, n]
                at = slice(len(pos), len(pos) + ws.rows)
                steps.append((ws.model, x[at], y[at], ws, p, g))
                for i in self.order[lo:hi]:
                    pos.extend(range(first[i] + start, first[i] + start + n))
        return np.array(pos, dtype=np.intp), x, y, steps


def sgd_epoch(
    stack: _Stack,
    data: LabeledDataset,
    rows: Sequence[np.ndarray],
    batch_size: int,
    lr: float,
    rng: Sequence[np.random.Generator],
    epochs: int = 1,
) -> None:
    """`epochs` passes of mini-batch SGD for local_round's stack of k workers, trained in
    place, each pass in a fresh shuffle.

    Worker i trains on the rows rows[i] of data (indices as numpy's take reads them), a
    pass in the order rows[i][rng[i].permutation(len(rows[i]))] drawn afresh each time, of
    ceil(len(rows[i]) / batch_size) updates.  A step is one gradient call per batch length
    into a row slice's workspace (_Stack.plan), then g *= lr and p -= g.  One take gathers
    a pass's features and one its targets, in step order, so each call reads contiguous
    slices.  Batches are never padded: every worker gets the bytes of a stack of its own.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0.0 < lr < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not len(stack.order) == len(rows) == len(rng):
        raise ValueError(f"{len(rows)} row sets, {len(rng)} streams, {len(stack.order)} workers")
    sizes = [len(r) for r in rows]
    shuffled = np.empty((epochs, sum(sizes)), dtype=np.intp)  # each pass's rows, worker by worker
    for r, g, at in zip(rows, rng, itertools.accumulate(sizes, initial=0)):
        part = shuffled[:, at:at + len(r)]
        part[...] = r
        for row in part:
            g.shuffle(row)  # the draws of g.permutation(len(r)), applied to r
    pos, x, y, steps = stack.plan(sizes, batch_size)
    cols = shuffled.take(pos, axis=1)  # (epochs, rows of one pass), in step order
    labels = data.labels.take(cols)  # mode "raise": every index is a row of data
    onehot = stack.onehot
    if labels.size and (np.minimum.reduce(labels, axis=None) < 0
                        or np.maximum.reduce(labels, axis=None) >= len(onehot)):
        raise ValueError(f"labels outside [0, {len(onehot)})")
    for epoch in range(epochs):
        # every index is checked, and unlike "raise" these write without an interim copy
        data.features.take(cols[epoch], axis=0, out=x, mode="wrap")
        onehot.take(labels[epoch], axis=0, out=y, mode="wrap")
        for sub, xs, ys, ws, p, g in steps:
            gradient(sub, xs, ys, ws)
            g *= lr
            p -= g


def filter_samples(
    model: ModelParameters, data: LabeledDataset, threshold: float
) -> FilterDecision:
    """Keep samples the model is still unsure about.

    A sample is excluded when its top softmax probability exceeds threshold;
    threshold 1.0 keeps everything, threshold 0.0 excludes everything.  model may be
    stacked over m workers, data then holding their n rows each one after another (see
    _shifted_exp); included_indices are positions into data all the same.

    The top probability is read as 1.0 / the row's sum: the top class's shifted exponential
    is exp(0) == 1.0, so this has the bytes of the largest e / sum.  A NaN or infinite
    logit makes the sum NaN, and that row fails the test, as its NaN probabilities would.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if threshold == 1.0:
        # no softmax probability exceeds 1: skip the forward pass
        return FilterDecision(included_indices=np.arange(len(data)), excluded_count=0)
    row_sum = _class_sums(_shifted_exp(model, data.features))
    idx = np.flatnonzero(1.0 / row_sum <= threshold)  # worker by worker for a stacked model
    return FilterDecision(included_indices=idx, excluded_count=len(data) - idx.size)


def local_round(
    global_model: ModelParameters,
    data: LabeledDataset,
    shards: Sequence[np.ndarray],
    epochs: int,
    batch_size: int,
    lr: float,
    threshold: float,
    rng: Sequence[np.random.Generator],
    stack: _Stack | None = None,
) -> tuple[list[ModelParameters], list[FilterDecision]]:
    """The workers' round: full first epoch, filter, remaining epochs on the rest.

    Worker i trains on data's rows at the positions shards[i] (a range will do), with the
    stream rng[i].  stack is a _Stack of len(shards) workers kept across rounds (run_round
    passes its trial's); None builds one for this call.  global_model is loaded into every
    row of the stack, and two sgd_epoch calls train it in place, sharing its plans and
    workspaces: a pass on every row, then, after each worker is filtered on its own model
    and rows, epochs - 1 passes on the rows it kept, shards[i][included_indices].  After the
    first pass the stack is longest first, so the workers of one shard length are a row
    slice [lo, hi): each such group is filtered in one filter_samples call on that slice of
    the stack, its rows gathered into the stack's pass block, and the one decision is split
    back to its workers.  The filter always runs: its verdict prices the round.  Returns
    models and decisions in worker order.  The models are 2-D views of the stack's rows,
    valid until that stack trains again.  A worker's bytes depend neither on which others
    share its stack nor on what the stack trained before.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    shards = [np.asarray(r) for r in shards]
    for i, r in enumerate(shards):  # take would wrap a negative index
        if not (r.size and 0 <= r.min() and r.max() < len(data)):
            raise ValueError(f"shard {i} is empty or indexes outside the {len(data)} rows")
    if stack is None:
        stack = _Stack(global_model.architecture, len(shards))
    stack.load(global_model, _longest_first([len(r) for r in shards]))  # rows all equal: free
    sgd_epoch(stack, data, shards, batch_size, lr, rng)
    # one feature-major filter pass per shard-length group, with evaluate's: preset-filtered
    # round_ms_p50 5 % lower, 10 of 10 pairs at each of seeds 1 and 3
    decided: dict[int, FilterDecision] = {}
    lo = 0
    for n, run in itertools.groupby(len(shards[i]) for i in stack.order):
        hi = lo + len(list(run))
        workers = stack.order[lo:hi]
        rows = np.concatenate([shards[i] for i in workers])
        x = stack.x[:len(rows)]  # the pass block, which held the first pass's rows
        data.features.take(rows, axis=0, out=x, mode="wrap")  # every index checked above
        group = ModelParameters(_layout(stack.params[lo:hi], stack.arch), stack.arch)
        included = filter_samples(group, LabeledDataset(x, data.labels.take(rows)),
                                  threshold).included_indices
        # worker j's rows are the group's [j * n, (j + 1) * n): split there
        ends = included.searchsorted(np.arange(0, len(rows) + 1, n)).tolist()
        for j, i in enumerate(workers):
            idx = included[ends[j]:ends[j + 1]] - j * n
            decided[i] = FilterDecision(included_indices=idx, excluded_count=n - idx.size)
        lo = hi
    decisions = [decided[i] for i in range(len(shards))]
    if epochs > 1:
        kept = [r[decision.included_indices] for r, decision in zip(shards, decisions)]
        sgd_epoch(stack, data, kept, batch_size, lr, rng, epochs=epochs - 1)
    return [_member(stack.model, j) for j in stack.position], decisions


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
    """Mean cross entropy and top-1 accuracy: a row is correct when its argmax is its label
    (argmax picks the lowest index on a tie and the first NaN in a row with a NaN)."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    probs = _shifted_exp(model, data.features)  # (classes, rows)
    probs /= _class_sums(probs)
    p_true = probs[data.labels, np.arange(len(data))]
    loss = float(-np.log(np.maximum(p_true, LOG_GUARD)).sum())
    correct = np.count_nonzero(probs.argmax(axis=0) == data.labels)
    return loss / len(data), correct / len(data)
