import math

import numpy as np
import pytest

from feelsim import learning
from feelsim.io_cli import generate_synthetic
from feelsim.learning import (
    LOG_GUARD,
    LabeledDataset,
    ModelParameters,
    aggregate,
    evaluate,
    filter_samples,
    gradient,
    init_model,
    local_round,
    param_bits,
)
from feelsim.streams import DOMAIN_TRAIN as TRAIN
from feelsim.streams import substream
import reference
from helpers import joined


def tiny_dataset(n=64, dim=6, classes=3, seed=300):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n).astype(np.int64)
    x = rng.normal(size=(n, dim)) + y[:, None] * 0.5
    return LabeledDataset(x, y)


def saturated(data):
    """data's rows made positive, scaled far out and labelled 0: after a pass every
    softmax saturates, so the filter at any threshold below 1 keeps none of them."""
    return LabeledDataset((np.abs(data.features) + 1.0) * 1e3, np.zeros_like(data.labels))


def zeroed(model):
    return ModelParameters(
        layers=tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers),
        architecture=model.architecture,
    )


def stacked(members):
    """The models of several workers as one stack, worker i at index i."""
    return ModelParameters(
        layers=tuple((np.stack([m.layers[i][0] for m in members]),
                      np.stack([m.layers[i][1] for m in members]))
                     for i in range(len(members[0].layers))),
        architecture=members[0].architecture)


def grads(model, x, y):
    """gradient's (gw, gb) pairs, written into fresh arrays shaped like model.layers."""
    out = [(np.full_like(w, np.nan), np.full_like(b, np.nan)) for w, b in model.layers]
    gradient(model, x, y, out)
    return out


def train_one(model, data, batch_size, lr, rng, epochs=1):
    """`epochs` passes of one worker over every row of data: a round at threshold 1.0,
    whose filter keeps every row.  Returns the worker's model."""
    (trained,), _ = local_round(model, data, [range(len(data))], epochs, batch_size, lr, 1.0,
                                [rng])
    return trained


def assert_models_equal(a, b):
    assert a.architecture == b.architecture
    for (w1, b1), (w2, b2) in zip(a.layers, b.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)


def assert_reference_bytes(pairs, model, x, y):
    """pairs hold the bytes of the plain reference's gradient, worker by worker."""
    k = len(model.layers[0][0]) if model.layers[0][0].ndim == 3 else None
    n = len(x) // (k or 1)
    for j in range(k or 1):
        layers = model.layers if k is None else [(w[j], b[j]) for w, b in model.layers]
        want = reference.gradient(layers, x[j * n:(j + 1) * n], y[j * n:(j + 1) * n])
        for (gw, gb), (rw, rb) in zip(pairs, want, strict=True):
            gw, gb = (gw, gb) if k is None else (gw[j], gb[j])
            assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()


def assert_round_matches_reference(model, data, shards, epochs, batch, lr, threshold, streams):
    """local_round gives every worker the bytes and kept rows of the plain reference's
    round of that worker alone; returns the decisions."""
    got, decisions = local_round(model, data, shards, epochs, batch, lr, threshold, streams())
    for g, r, rng, d in zip(got, shards, streams(), decisions, strict=True):
        layers, kept = reference.local_round(model.layers, data, r, epochs, batch, lr,
                                             threshold, rng)
        for (gw, gb), (ww, wb) in zip(g.layers, layers, strict=True):
            assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()
        assert d.excluded_count == len(r) - len(kept)
        assert np.array_equal(np.asarray(r)[d.included_indices], kept)
    return decisions


def confidently_wrong_model():
    """Single layer whose class-1 logit sits 1000 below class 0: p(1) underflows to 0."""
    return ModelParameters(layers=((np.zeros((2, 3)), np.array([0.0, -1000.0])),),
                           architecture=(3, 2))


class TestForward:
    def test_frozen_output_gradient(self):
        # zero weights and log-probability biases give softmax output [0.2, 0.3, 0.5]
        model = ModelParameters(layers=((np.zeros((3, 2)), np.log([0.2, 0.3, 0.5])),),
                                architecture=(2, 3))
        (gw, gb), = grads(model, np.ones((1, 2)), np.eye(3)[[1]])
        assert np.allclose(gb, [0.2, -0.7, 0.5], atol=1e-15)
        assert np.allclose(gw, np.outer([0.2, -0.7, 0.5], [1.0, 1.0]), atol=1e-15)

    def test_uniform_probs_loss_is_log_classes(self):
        zero = zeroed(init_model([4, 10], np.random.default_rng(0)))
        data = tiny_dataset(n=40, dim=4, classes=10)
        loss, _ = evaluate(zero, data)
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)
        # mean of (probs - onehot) with every prob at 1/10
        freq = np.bincount(data.labels, minlength=10) / len(data)
        assert np.allclose(grads(zero, data.features, np.eye(10)[data.labels])[0][1],
                           0.1 - freq, atol=1e-15)

    def test_loss_guard_blocks_log_of_zero(self):
        x, y = np.zeros((4, 3)), np.ones(4, dtype=np.int64)
        loss, _ = evaluate(confidently_wrong_model(), LabeledDataset(x, y))
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(LOG_GUARD), rel=1e-12)
        assert np.array_equal(grads(confidently_wrong_model(), x, np.eye(2)[y])[0][1],
                              [1.0, -1.0])

    def test_label_range_checked(self):
        # sgd_epoch checks the labels of all its passes once, before any step
        model = init_model([6, 3], np.random.default_rng(0))
        for dtype in (np.int32, np.int64):
            for bad in (3, 4, -1, np.iinfo(dtype).min, np.iinfo(dtype).max):
                data = tiny_dataset(n=8)
                data = LabeledDataset(data.features, data.labels.astype(dtype))
                data.labels[5] = bad  # after LabeledDataset's own check
                for epochs in (1, 2):
                    with pytest.raises(ValueError, match="labels outside"):
                        train_one(model, data, 4, 0.1, np.random.default_rng(1),
                                  epochs=epochs)

    def test_target_shape_checked(self):
        model = init_model([6, 3], np.random.default_rng(0))
        data = tiny_dataset(n=8)
        for targets in (data.labels, np.eye(4)[data.labels], np.eye(3)[data.labels[:7]],
                        np.eye(3)[data.labels][None]):
            with pytest.raises(ValueError, match="targets must have shape"):
                grads(model, data.features, targets)

    def test_relu_mask_by_sign_matches_bool_mask(self):
        # gradient masks with the sign of np.maximum(z, 0.0), which is
        # +0.0 or positive: the products must be the bool mask's, signed zeros too
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [-0.0, 0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf,
                   1.5, -2.0, 1e308, -1e308]
        rng = np.random.default_rng(325)
        z = rng.permutation(np.tile(special, 40))
        d = rng.permutation(np.tile([-3.0, -0.0, 0.0, 2.5, -tiny, 7e-320], 80))
        for a in (np.maximum(z, 0.0), np.maximum(z.copy(), 0.0, out=z.copy())):
            assert (d * np.sign(a)).tobytes() == (d * (a > 0.0)).tobytes()
            masked = d.copy()
            masked *= np.sign(a)
            assert masked.tobytes() == (d * (a > 0.0)).tobytes()

    def test_matches_label_reference(self):
        # the plain reference's gradient bytes, worker by worker, and its evaluation
        rng = np.random.default_rng(328)
        for arch, k, n in [([6, 3], 1, 9), ([6, 5, 3], 1, 16), ([6, 7, 4, 3], 3, 5)]:
            members = [init_model(arch, rng) for _ in range(k)]
            model = members[0] if k == 1 else stacked(members)
            x = rng.normal(size=(k * n, 6)) * 3.0
            y = rng.integers(0, 3, size=k * n)
            assert_reference_bytes(grads(model, x, np.eye(3)[y]), model, x, np.eye(3)[y])
            for j, member in enumerate(members):
                part = LabeledDataset(x[j * n:(j + 1) * n], y[j * n:(j + 1) * n])
                assert evaluate(member, part) == reference.evaluate(member.layers, part)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(301)
        model = init_model([6, 8, 3], rng)
        data = tiny_dataset()
        shifted_layers = list(model.layers)
        w, b = shifted_layers[-1]
        shifted_layers[-1] = (w, b + 123.456)
        shifted = ModelParameters(layers=tuple(shifted_layers),
                                  architecture=model.architecture)
        targets = np.eye(3)[data.labels]
        assert abs(evaluate(model, data)[0] - evaluate(shifted, data)[0]) <= 1e-12
        for (gw, gb), (sw, sb) in zip(grads(model, data.features, targets),
                                      grads(shifted, data.features, targets)):
            assert np.max(np.abs(gw - sw)) <= 1e-12
            assert np.max(np.abs(gb - sb)) <= 1e-12

    def test_matches_manual_forward(self):
        # on a one-sample batch the output bias gradient is probs - onehot
        rng = np.random.default_rng(302)
        model = init_model([6, 8, 3], rng)
        data = tiny_dataset(n=24)
        ref = reference.probabilities(model.layers, data.features)[0]
        for i, (row, label) in enumerate(zip(data.features, data.labels)):
            probs = grads(model, row[None, :], np.eye(3)[label[None]])[-1][1]
            probs[label] += 1.0
            assert np.allclose(probs, ref[i], atol=1e-12)

    def test_rejects_wrong_width(self):
        model = init_model([6, 3], np.random.default_rng(0))
        data = tiny_dataset(n=8, dim=5)
        with pytest.raises(ValueError):
            evaluate(model, data)
        with pytest.raises(ValueError, match="input shape"):
            grads(model, data.features, np.eye(3)[data.labels])


class TestGradientAndSgd:
    def test_single_step_rule_exact(self):
        model = init_model([6, 5, 3], np.random.default_rng(303))
        data = tiny_dataset(n=16)

        order = substream(9, TRAIN, 0).permutation(np.arange(16, dtype=np.intp))
        step = grads(model, data.features[order], np.eye(3)[data.labels[order]])
        stepped = ModelParameters(layers=tuple(
            (w - 0.1 * gw, b - 0.1 * gb)
            for (w, b), (gw, gb) in zip(model.layers, step)),
            architecture=model.architecture)

        trained = train_one(model, data, batch_size=16, lr=0.1, rng=substream(9, TRAIN, 0))
        assert_models_equal(stepped, trained)

    def test_update_count_is_ceil(self):
        # n=45, b=20 -> batches of 20, 20, 5, as the plain reference takes them
        model = init_model([6, 5, 3], np.random.default_rng(304))
        data = tiny_dataset(n=45)
        want = reference.sgd(model.layers, data, np.arange(45), 1, 20, 0.05, substream(9, TRAIN, 1))
        trained = train_one(model, data, batch_size=20, lr=0.05, rng=substream(9, TRAIN, 1))
        assert_models_equal(ModelParameters(tuple(want), model.architecture), trained)

    def test_gradient_mean_normalized(self):
        model = init_model([6, 5, 3], np.random.default_rng(305))
        data = tiny_dataset(n=32)
        half = data.take(np.arange(16))
        g16 = grads(model, half.features, np.eye(3)[half.labels])
        # duplicating every row leaves the mean gradient unchanged
        dup = LabeledDataset(np.concatenate([half.features] * 2),
                             np.concatenate([half.labels] * 2))
        gdup = grads(model, dup.features, np.eye(3)[dup.labels])
        for (gw, gb), (dw, db) in zip(g16, gdup):
            assert np.allclose(gw, dw, atol=1e-15)
            assert np.allclose(gb, db, atol=1e-15)

    def test_loss_matches_scalar_path(self):
        model = init_model([6, 5, 3], np.random.default_rng(306))
        data = tiny_dataset(n=10)
        loss, _ = evaluate(model, data)
        probs = reference.probabilities(model.layers, data.features)[0]
        per_sample = [-math.log(max(p[y], LOG_GUARD)) for p, y in zip(probs, data.labels)]
        assert loss == pytest.approx(float(np.mean(per_sample)), rel=1e-12)

    def test_input_model_untouched(self):
        model = init_model([6, 5, 3], np.random.default_rng(307))
        snap = [(w.copy(), b.copy()) for w, b in model.layers]
        data, shards = joined([tiny_dataset(n=20), tiny_dataset(n=13, seed=301)])
        local_round(model, data, shards, 3, 8, 0.1, 0.6,
                    [np.random.default_rng(1), np.random.default_rng(2)])
        for (w0, b0), (w1, b1) in zip(snap, model.layers):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_validation(self):
        model = init_model([6, 3], np.random.default_rng(0))
        data = tiny_dataset(n=8)
        with pytest.raises(ValueError):
            train_one(model, data, batch_size=0, lr=0.1, rng=np.random.default_rng(1))
        for lr in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                train_one(model, data, batch_size=4, lr=lr, rng=np.random.default_rng(1))
        for epochs in (0, -1):
            with pytest.raises(ValueError, match="epochs"):
                train_one(model, data, batch_size=4, lr=0.1, rng=np.random.default_rng(1),
                          epochs=epochs)

    def test_stack_of_no_workers(self):
        model = init_model([6, 3], np.random.default_rng(0))
        for threshold in (0.8, 1.0):
            models, decisions = local_round(model, tiny_dataset(), [], 3, 4, 0.1, threshold, [])
            assert models == [] and decisions == []

    def test_empty_batch_rejected(self):
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty batch"):
            grads(model, np.zeros((0, 6)), np.zeros((0, 3)))

    def test_central_training_reaches_accuracy_floor(self):
        # 30 full-data epochs on separable blobs must learn, not merely move
        rng = np.random.default_rng(71)
        data = generate_synthetic(8, 4, 1200, 0.3, rng)
        train, test = data.take(np.arange(1000)), data.take(np.arange(1000, 1200))
        model = train_one(init_model([8, 16, 4], rng), train, 20, 0.05, rng, epochs=30)
        _, acc = evaluate(model, test)
        assert acc >= 0.95


class TestGradientInto:
    """gradient writes the plain reference's gradient bytes into views of a flat (k, P)
    block, row i worker i's W0, b0, W1, b1, ... flattened, as a training stack lays out its
    parameters; a step of local_round has the bytes of a step through such views."""

    @staticmethod
    def block_views(model):
        arch = model.architecture
        k = model.layers[0][0].shape[0] if model.layers[0][0].ndim == 3 else None
        block = np.full((1 if k is None else k, param_bits(arch) // 64), np.nan)
        views, at = [], 0
        for fan_in, fan_out in zip(arch[:-1], arch[1:]):
            w = block[:, at:at + fan_out * fan_in].reshape(len(block), fan_out, fan_in)
            at += fan_out * fan_in
            views.append((w, block[:, at:at + fan_out]))
            at += fan_out
        if k is None:  # a 2-D model writes into row 0
            views = [(w[0], b[0]) for w, b in views]
        return block, views

    CASES = [
        ([6, 5, 3], None, 17),  # 2-D model
        ([6, 5, 4, 3], 3, 11),  # stacked: row stride P, not the layer size
        ([6, 5, 3], 1, 9),  # a stack of one
        ([784, 16, 10], 2, 20),  # 784 wide
    ]

    @staticmethod
    def case(arch, k, n, seed=331):
        rng = np.random.default_rng(seed)
        members = [init_model(arch, rng) for _ in range(k or 1)]
        model = members[0] if k is None else stacked(members)
        rows = n * (k or 1)
        x = rng.normal(size=(rows, arch[0]))
        y = np.eye(arch[-1])[rng.integers(0, arch[-1], size=rows)]
        return model, x, y, rng

    @pytest.mark.parametrize("arch, k, n", CASES)
    def test_views_of_a_flat_block_match_fresh_arrays(self, arch, k, n):
        model, x, y, _ = self.case(arch, k, n)
        want = grads(model, x, y)
        block, views = self.block_views(model)
        gradient(model, x, y, views)
        assert not np.isnan(block).any()  # every element written
        for (gw, gb), (rw, rb) in zip(views, want, strict=True):
            assert np.shares_memory(gw, block) and np.shares_memory(gb, block)
            if k is not None and k > 1:
                assert gw.strides[0] == gb.strides[0] == block.strides[0]
            assert np.array_equal(gw, rw) and np.array_equal(gb, rb)

    @staticmethod
    def round_of(arch, k, n, steps, lr, scale=1.0):
        """A round of one pass at batch n over shards of steps * n rows, one worker or k,
        from one 2-D model: (model, data, shards, models, stream maker)."""
        rng = np.random.default_rng(336)
        model, workers = init_model(arch, rng), k or 1
        rows = workers * steps * n
        data = LabeledDataset(rng.normal(size=(rows, arch[0])) * scale,
                              rng.integers(0, arch[-1], size=rows))
        shards = [range(j * steps * n, (j + 1) * steps * n) for j in range(workers)]

        def streams():
            return [substream(53, TRAIN, 0, j, 0) for j in range(workers)]

        models, _ = local_round(model, data, shards, 1, n, lr, 1.0, streams())
        return model, data, shards, models, streams

    @pytest.mark.parametrize("arch, k, n", [*CASES, ([6, 7, 10], 3, 13)])  # and 10 classes
    def test_workspace_matches_plain_views(self, arch, k, n):
        # one step of local_round per worker, in its stack's own workspace, has the bytes
        # of w - lr * g, g written by gradient into plain views: of a stacked model of k
        # copies of the global model, each worker's batch in its stream's order, or of the
        # 2-D global model
        model, data, shards, models, streams = self.round_of(arch, k, n, 1, 0.5)
        order = np.concatenate([np.asarray(r)[g.permutation(n)]
                                for r, g in zip(shards, streams())])
        plain = model if k is None else stacked([model] * k)
        _, views = self.block_views(plain)
        gradient(plain, data.features[order], np.eye(arch[-1])[data.labels[order]], views)
        for j, got in enumerate(models):
            for (w, b), (gw, gb), (v, c) in zip(model.layers, views, got.layers, strict=True):
                gw, gb = (gw, gb) if k is None else (gw[j], gb[j])
                assert (w - 0.5 * gw).tobytes() == v.tobytes()
                assert (b - 0.5 * gb).tobytes() == c.tobytes()

    @pytest.mark.parametrize("arch, k, n", [([6, 5, 4, 3], 3, 11), ([6, 7, 10], None, 13)])
    def test_reused_workspace_keeps_no_stale_values(self, arch, k, n):
        # three steps per worker through one workspace, each on fresh rows, have the
        # plain reference's bytes
        model, data, shards, models, streams = self.round_of(arch, k, n, 3, 0.1, scale=4.0)
        for got, r, g in zip(models, shards, streams(), strict=True):
            want = reference.sgd(model.layers, data, np.asarray(r), 1, n, 0.1, g)
            assert_models_equal(got, ModelParameters(tuple(want), model.architecture))

    @pytest.mark.parametrize("arch, k, n", [
        *CASES,
        ([6, 5, 4, 3], None, 11),  # two hidden layers, 2-D
        ([6, 5, 4, 3], 2, 1),  # one-row batches, stacked
        ([6, 7, 10], None, 1),  # a one-row batch, 2-D
    ])
    def test_kernel_matches_reference_bytes(self, arch, k, n):
        # against the plain reference, through plain views, for three batches
        model, _, _, rng = self.case(arch, k, n)
        for _ in range(3):
            rows = n * (k or 1)
            x = rng.normal(size=(rows, arch[0])) * 3.0
            y = np.eye(arch[-1])[rng.integers(0, arch[-1], size=rows)]
            _, plain = self.block_views(model)
            gradient(model, x, y, plain)
            assert_reference_bytes(plain, model, x, y)

    @pytest.mark.parametrize("arch, k", [([6, 5, 3], None), ([6, 5, 4, 3], 2)])
    def test_kernel_matches_reference_bytes_at_relu_kinks(self, arch, k):
        # small integers everywhere: many hidden pre-activations are exactly zero
        rng = np.random.default_rng(333)
        lead = () if k is None else (k,)
        model = ModelParameters(
            layers=tuple((rng.integers(-2, 3, size=(*lead, fan_out, fan_in)).astype(float),
                          rng.integers(-1, 2, size=(*lead, fan_out)).astype(float))
                         for fan_in, fan_out in zip(arch[:-1], arch[1:])),
            architecture=tuple(arch))
        n = 20
        rows = n * (k or 1)
        x = rng.integers(-2, 3, size=(rows, arch[0])).astype(float)
        y = np.eye(arch[-1])[rng.integers(0, arch[-1], size=rows)]
        w0, b0 = model.layers[0]
        z0 = x.reshape(*lead, n, arch[0]) @ w0.swapaxes(-1, -2) + b0[..., None, :]
        assert np.count_nonzero(z0 == 0.0) > 5  # kinks reached
        assert_reference_bytes(grads(model, x, y), model, x, y)

    @pytest.mark.parametrize("rows, width, target", [
        (8, 5, (8, 3)),  # input width
        (0, 6, (0, 3)),  # empty batch
        (8, 6, (8, 4)),  # target shape
        (7, 6, (7, 3)),  # rows not a multiple of the stack
    ])
    def test_checks_raise_as_the_reference(self, rows, width, target):
        # the checks run before the kernel: each raises its message and leaves the pairs
        # all NaN, as block_views made them
        message = {
            (8, 5): "input shape (8, 5) does not match network input width 6",
            (0, 6): "cannot take the gradient of an empty batch",
            (8, 6): "targets must have shape (8, 3), got (8, 4)",
            (7, 6): "a stack of 2 workers needs a multiple of 2 rows, got 7",
        }[rows, width]
        model, _, _, _ = self.case([6, 5, 3], 2, 4)
        block, views = self.block_views(model)
        with pytest.raises(ValueError) as caught:
            gradient(model, np.zeros((rows, width)), np.zeros(target), views)
        assert str(caught.value) == message
        assert np.isnan(block).all()

    @pytest.mark.parametrize("classes", [4, 10])
    def test_class_major_max_keeps_softmax_bytes(self, classes):
        # logits holding signed zeros, infinities, NaN and ties: the class-major
        # max equals numpy's max over the last axis, and the softmax rows have
        # the bytes they get with that max
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 2.5, 2.5, -7.0, 1e308, -1e308, 5e-324]
        rng = np.random.default_rng(334)
        z = rng.choice(special, size=(300, classes))
        z[:4] = [[0.0, -0.0] * (classes // 2), [-0.0, 0.0] * (classes // 2),
                 [-0.0] * classes, [2.5] * classes]
        want_max = np.maximum.reduce(z, axis=-1)
        assert np.array_equal(np.maximum.reduce(z.T.copy(), axis=0), want_max, equal_nan=True)

        def softmax(logits, row_max):
            p = logits - row_max[..., None]
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=-1, keepdims=True)
            return p

        # through gradient: one worker per row, zero weights, the logits carried by the
        # biases; a one-row batch's bias gradient is its probabilities minus its target
        k = len(z)
        model = ModelParameters(layers=((np.zeros((k, classes, 1)), z.copy()),),
                                architecture=(1, classes))
        x = np.full((k, 1), -1.0)
        y = np.eye(classes)[rng.integers(0, classes, size=k)]
        with np.errstate(all="ignore"):
            logits = x[:, None, :] @ model.layers[0][0].swapaxes(-1, -2)
            logits += model.layers[0][1][:, None, :]
            (_, gb), = grads(model, x, y)
            want = softmax(logits, np.maximum.reduce(logits, axis=-1))
            want -= y[:, None, :]
            want /= 1.0
            assert gb.tobytes() == want.tobytes()
            assert softmax(z, want_max).tobytes() == softmax(z, np.maximum.reduce(
                z.T.copy(), axis=0)).tobytes()


class TestFiltering:
    def test_threshold_one_keeps_everything(self):
        model = init_model([6, 5, 3], np.random.default_rng(308))
        data = tiny_dataset()
        dec = filter_samples(model, data, 1.0)
        assert dec.excluded_count == 0
        assert np.array_equal(dec.included_indices, np.arange(len(data)))

    def test_threshold_one_skips_the_forward_pass(self):
        # a model too narrow for the data: any forward pass would raise
        model = init_model([5, 3], np.random.default_rng(308))
        data = tiny_dataset(n=5000)
        with pytest.raises(ValueError, match="input shape"):
            filter_samples(model, data, 0.99)
        dec = filter_samples(model, data, 1.0)
        assert dec.excluded_count == 0
        assert np.array_equal(dec.included_indices, np.arange(len(data)))
        assert dec.included_indices.dtype == np.intp

    def test_threshold_zero_drops_everything(self):
        model = init_model([6, 5, 3], np.random.default_rng(309))
        data = tiny_dataset()
        dec = filter_samples(model, data, 0.0)
        assert dec.excluded_count == len(data)
        assert dec.included_indices.size == 0

    def test_boundary_is_inclusive(self):
        # two zeroed classes put every max prob exactly at 0.5: all kept
        zero = zeroed(init_model([4, 2], np.random.default_rng(0)))
        data = tiny_dataset(n=10, dim=4, classes=2)
        dec = filter_samples(zero, data, 0.5)
        assert dec.excluded_count == 0

    def test_nesting_in_threshold(self):
        model = init_model([6, 8, 3], np.random.default_rng(310))
        data = tiny_dataset(n=200)
        prev = None
        for th in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            dec = filter_samples(model, data, th)
            assert dec.excluded_count + dec.included_indices.size == 200
            cur = set(dec.included_indices.tolist())
            if prev is not None:
                assert prev <= cur
            prev = cur

    def test_matches_direct_probability_rule(self):
        model = init_model([6, 8, 3], np.random.default_rng(311))
        data = tiny_dataset(n=150)
        probs = reference.probabilities(model.layers, data.features)[0]
        keep = np.flatnonzero(probs.max(axis=1) <= 0.75)
        dec = filter_samples(model, data, 0.75)
        assert np.array_equal(dec.included_indices, keep)

    def test_whole_input_forward_matches_direct_rule(self):
        model = init_model([6, 8, 3], np.random.default_rng(312))
        data = tiny_dataset(n=5000)
        dec = filter_samples(model, data, 0.75)
        probs = reference.probabilities(model.layers, data.features)[0]
        keep = np.flatnonzero(probs.max(axis=1) <= 0.75)
        assert np.array_equal(dec.included_indices, keep)

    @pytest.mark.parametrize("classes", [2, 4, 10, 130])
    def test_top_probability_read_matches_reference_at_extremes(self, classes):
        # one worker per row of a stacked model whose zero weights leave its biases as the
        # row's logits: ties at the top, NaN, +inf, -inf and exponentials that underflow
        # to 0.  At every threshold that equals some row's top probability, and at its
        # neighbours, the filter keeps exactly the rows the reference's probabilities keep
        rng = np.random.default_rng(362)
        k = 300
        z = rng.normal(size=(k, classes)) * 10.0 ** rng.integers(-2, 4, size=(k, 1))
        special = rng.random(size=z.shape) < 0.05
        z[special] = rng.choice([np.nan, np.inf, -np.inf, -1e308, 1e308, 0.0], special.sum())
        z[:20, 1] = z[:20, 0] = z[:20].max(axis=1)  # ties at the top
        z[20:30] = 0.0  # every class tied: the top probability is 1 / classes
        members = [ModelParameters(((np.zeros((classes, 1)), row),), (1, classes)) for row in z]
        model, x = stacked(members), np.ones((k, 1))
        with np.errstate(all="ignore"):
            probs = [reference.probabilities(m.layers, x[:1])[0][0] for m in members]
            top = np.array([p.max() for p in probs])
            assert np.isnan(top).any() and any((p == 0.0).any() for p in probs)
            finite = np.unique(top[np.isfinite(top) & (top < 1.0)])
            thresholds = [0.0, *finite, *np.nextafter(finite, 0.0), *np.nextafter(finite, 1.0)]
            for threshold in thresholds:
                got = filter_samples(model, LabeledDataset(x, np.zeros(k, dtype=int)), threshold)
                assert np.array_equal(got.included_indices, np.flatnonzero(top <= threshold))

    def test_threshold_validated(self):
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError):
            filter_samples(model, tiny_dataset(), 1.5)


class TestLocalRound:
    def test_single_epoch_training_ignores_threshold(self):
        model = init_model([6, 5, 3], np.random.default_rng(313))
        data = tiny_dataset(n=40)
        (got,), (dec,) = local_round(model, *joined([data]), epochs=1, batch_size=16, lr=0.1,
                                     threshold=0.1, rng=[substream(9, TRAIN, 0, 0, 1)])
        ref = train_one(model, data, batch_size=16, lr=0.1, rng=substream(9, TRAIN, 0, 0, 1))
        assert_models_equal(got, ref)
        # the filter verdict is still reported, from the epoch-1 model
        expect = filter_samples(ref, data, 0.1)
        assert dec.excluded_count == expect.excluded_count
        assert np.array_equal(dec.included_indices, expect.included_indices)

    def test_threshold_one_equals_plain_epochs(self):
        model = init_model([6, 5, 3], np.random.default_rng(314))
        data = tiny_dataset(n=40)
        (got,), (dec,) = local_round(model, *joined([data]), epochs=3, batch_size=16, lr=0.1,
                                     threshold=1.0, rng=[substream(9, TRAIN, 2, 0, 5)])
        assert dec.excluded_count == 0
        want = reference.sgd(model.layers, data, np.arange(40), 3, 16, 0.1,
                             substream(9, TRAIN, 2, 0, 5))
        assert_models_equal(got, ModelParameters(tuple(want), model.architecture))

    def test_filter_applies_from_second_epoch(self):
        model = init_model([6, 5, 3], np.random.default_rng(315))
        data = tiny_dataset(n=60)
        (got,), (dec,) = local_round(model, *joined([data]), epochs=2, batch_size=16, lr=0.1,
                                     threshold=0.6, rng=[substream(11, TRAIN, 0, 0, 1)])
        # replay: epoch 1 on everything, filter on that model, epoch 2 on the rest
        ref_rng = substream(11, TRAIN, 0, 0, 1)
        after1 = train_one(model, data, batch_size=16, lr=0.1, rng=ref_rng)
        expect = filter_samples(after1, data, 0.6)
        after2 = train_one(after1, data.take(expect.included_indices), batch_size=16,
                           lr=0.1, rng=ref_rng)
        assert dec.excluded_count == expect.excluded_count
        assert_models_equal(got, after2)

    def test_deterministic_per_stream(self):
        model = init_model([6, 5, 3], np.random.default_rng(316))
        data = tiny_dataset(n=40)
        (a,), (da,) = local_round(model, *joined([data]), 3, 16, 0.1, 0.7,
                                  [substream(3, TRAIN, 1, 0, 2)])
        (b,), (db,) = local_round(model, *joined([data]), 3, 16, 0.1, 0.7,
                                  [substream(3, TRAIN, 1, 0, 2)])
        assert da.excluded_count == db.excluded_count
        assert_models_equal(a, b)

    def test_empty_dataset_rejected(self):
        model = init_model([6, 3], np.random.default_rng(0))
        empty = LabeledDataset(np.zeros((0, 6)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            local_round(model, *joined([empty]), 1, 16, 0.1, 0.7, [np.random.default_rng(1)])

    def test_rejects_empty_shard(self):
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError, match="shard 1 is empty or indexes outside"):
            local_round(model, tiny_dataset(n=40), [range(0, 20), range(20, 20)], 1, 16, 0.1,
                        0.7, [np.random.default_rng(1), np.random.default_rng(2)])

    @pytest.mark.parametrize("shard", [range(-1, 20), range(30, 41), range(40, 41)])
    def test_rejects_shard_outside_data(self, shard):
        # take would wrap a negative index onto a row of the data
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError, match="indexes outside the 40 rows"):
            local_round(model, tiny_dataset(n=40), [shard], 2, 16, 0.1, 0.7,
                        [np.random.default_rng(1)])

    def test_rejects_negative_index(self):
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError, match="indexes outside the 40 rows"):
            local_round(model, tiny_dataset(n=40), [np.array([3, 0, -1])], 2, 16, 0.1, 0.7,
                        [np.random.default_rng(1)])

    def test_strided_shard_trains_as_its_rows_listed(self):
        # a shard is its rows' positions: a strided range, the same rows listed and those
        # rows taken into a matrix of their own train the same bytes and keep the same rows
        model = init_model([6, 5, 3], np.random.default_rng(317))
        data = tiny_dataset(n=80)
        rows = np.arange(1, 80, 2)
        calls = [(data, range(1, 80, 2)), (data, rows), (data.take(rows), range(40))]
        got = [local_round(model, d, [r], 3, 16, 0.1, 0.6, [substream(5, TRAIN, 0, 0, 1)])
               for d, r in calls]
        (want,), (kept,) = got[0]
        assert 0 < kept.excluded_count < 40
        for (model_i,), (decision,) in got[1:]:
            assert_models_equal(model_i, want)
            assert np.array_equal(decision.included_indices, kept.included_indices)


def assert_filtered_groups(filtered, groups):
    """The filter's datasets, one per call, are the groups' shards one after another."""
    assert len(filtered) == len(groups)
    for data, group in zip(filtered, groups):
        assert np.array_equal(data.features, np.concatenate([s.features for s in group]))
        assert np.array_equal(data.labels, np.concatenate([s.labels for s in group]))


def skewed_shards():
    """Label-skewed shards of 40, 37, 40 and 23 rows; the last one's features are
    scaled so far out that every softmax saturates and the filter keeps nothing."""
    data = tiny_dataset(n=400, seed=320)
    shards = []
    for size, classes, scale in [(40, (0, 1), 1.0), (37, (1, 2), 1.0),
                                 (40, (0, 2), 1.0), (23, (2,), 1e3)]:
        idx = np.flatnonzero(np.isin(data.labels, classes))[:size]
        part = data.take(idx)
        shards.append(LabeledDataset(part.features * scale, part.labels))
    return shards


class TestStackedRound:
    """Workers trained as one stack get exactly the bytes of a stack of their own."""

    def test_matches_single_worker_calls(self):
        model = init_model([6, 5, 3], np.random.default_rng(321))
        shards = skewed_shards()

        def streams():
            return [substream(13, TRAIN, 0, w, 4) for w in range(len(shards))]

        # batch 16 gives tails of 8, 5, 8 and 7 rows in epoch 1: one step trains
        # workers 0 and 2 together, neighbours once the stack is ordered longest first
        models, decisions = local_round(model, *joined(shards), 3, 16, 0.1, 0.7, streams())
        kept = [d.included_indices.size for d in decisions]
        assert kept[-1] == 0 and len(set(kept)) == len(kept)  # ragged later epochs
        for shard, rng, got, decision in zip(shards, streams(), models, decisions):
            (ref,), (expect,) = local_round(model, *joined([shard]), 3, 16, 0.1, 0.7, [rng])
            assert_models_equal(got, ref)
            assert decision.excluded_count == expect.excluded_count
            assert np.array_equal(decision.included_indices, expect.included_indices)

    def test_stacked_gradient_matches_per_worker_calls(self):
        rng = np.random.default_rng(323)
        models = [init_model([6, 5, 3], rng) for _ in range(3)]
        data = tiny_dataset(n=3 * 11, seed=324)
        stacked_grads = grads(stacked(models), data.features, np.eye(3)[data.labels])
        for j, model in enumerate(models):
            rows = slice(11 * j, 11 * (j + 1))
            ref = grads(model, data.features[rows], np.eye(3)[data.labels[rows]])
            for (gw, gb), (rw, rb) in zip(stacked_grads, ref):
                assert np.array_equal(gw[j], rw)
                assert np.array_equal(gb[j], rb)

    def test_one_gradient_call_per_batch_length(self, monkeypatch):
        rows, filtered, passes = [], [], []
        grad, keep, epoch = learning.gradient, learning.filter_samples, learning.sgd_epoch

        def counting(model, x, y, out):
            rows.append(x.shape[0])
            grad(model, x, y, out)

        def recording(model, data, threshold):
            # a copy: the rows are gathered into the stack's pass block, which the next
            # filter call and pass write over
            filtered.append(LabeledDataset(data.features.copy(), data.labels))
            return keep(model, data, threshold)

        def sgd_passes(*args, epochs=1):
            passes.append(epochs)
            return epoch(*args, epochs=epochs)

        monkeypatch.setattr(learning, "gradient", counting)
        monkeypatch.setattr(learning, "filter_samples", recording)
        monkeypatch.setattr(learning, "sgd_epoch", sgd_passes)
        model = init_model([6, 5, 3], np.random.default_rng(322))
        shards = skewed_shards()
        streams = [substream(13, TRAIN, 0, w, 4) for w in range(len(shards))]
        local_round(model, *joined(shards), 1, 16, 0.1, 0.7, streams)
        # steps of 16 x 4 workers, then 16 x 3 + 7, then 8 x 2 + 5
        assert rows == [64, 48, 7, 16, 5]
        assert passes == [1]  # epochs 1: one call, then the filter
        # one filter call per shard length, on the group's rows in stack order: longest
        # first, ties in worker order
        assert_filtered_groups(filtered, [[shards[0], shards[2]], [shards[1]], [shards[3]]])

        # the presets' shape: two 160-row shards at batch 20, threshold 1.0
        rows.clear()
        filtered.clear()
        passes.clear()
        data = tiny_dataset(n=320, seed=326)
        shards = [data.take(np.arange(160)), data.take(np.arange(160, 320))]
        local_round(model, *joined(shards), 3, 20, 0.1, 1.0, streams[:2])
        assert rows == [40] * 8 * 3  # eight steps of 2 x 20 rows per epoch
        assert passes == [1, 2]  # pass 1 on all rows, then the other two on the kept
        assert_filtered_groups(filtered, [shards])  # both workers in one call

    def test_second_call_trains_on_kept_rows(self, monkeypatch):
        calls = []
        epoch = learning.sgd_epoch

        def recording(model, data, rows, *args, **kwargs):
            calls.append((data, [np.asarray(r) for r in rows]))
            return epoch(model, data, rows, *args, **kwargs)

        monkeypatch.setattr(learning, "sgd_epoch", recording)
        model = init_model([6, 5, 3], np.random.default_rng(322))
        shards = skewed_shards()

        def streams():
            return [substream(13, TRAIN, 0, w, 4) for w in range(len(shards))]

        def assert_rows(data, rows, parts):
            assert len(rows) == len(parts)
            for r, part in zip(rows, parts, strict=True):
                assert np.array_equal(data.features[r], part.features)
                assert np.array_equal(data.labels[r], part.labels)

        # threshold 1.0 keeps every row: both calls train every row of each
        # worker's shard, from the one dataset the round joined
        local_round(model, *joined(shards), 3, 16, 0.1, 1.0, streams())
        (first, rows1), (second, rows2) = calls
        assert first is second
        assert_rows(first, rows1, shards)
        assert all(np.array_equal(a, b) for a, b in zip(rows1, rows2, strict=True))
        calls.clear()
        _, decisions = local_round(model, *joined(shards), 3, 16, 0.1, 0.7, streams())
        (first, rows1), (second, rows2) = calls
        assert first is second
        assert_rows(first, rows1, shards)
        kept = [dec.included_indices for dec in decisions]
        assert [len(r) for r in rows2] == [k.size for k in kept] != [len(s) for s in shards]
        assert_rows(second, rows2, [s.take(k) for s, k in zip(shards, kept, strict=True)])

    def test_grouped_filter_matches_reference_on_mixed_sizes(self, monkeypatch):
        # shards of 30, 17, 30, 5, 17, 30 and 1 scattered rows: the stack filters its four
        # shard-length groups in one call each, longest first, and every worker's decision
        # is that of the reference's round of that worker alone
        calls = []
        keep = learning.filter_samples

        def recording(model, data, threshold):
            calls.append(len(data))
            return keep(model, data, threshold)

        monkeypatch.setattr(learning, "filter_samples", recording)
        data = tiny_dataset(n=200, seed=363)
        sizes = [30, 17, 30, 5, 17, 30, 1]
        order = np.random.default_rng(364).permutation(len(data))
        shards = np.split(order[:sum(sizes)], np.cumsum(sizes)[:-1])
        model = init_model([6, 7, 3], np.random.default_rng(365))

        def streams():
            return [substream(19, TRAIN, 0, w, 2) for w in range(len(sizes))]

        decisions = assert_round_matches_reference(model, data, shards, 2, 8, 0.5, 0.6,
                                                   streams)
        assert calls == [90, 34, 5, 1]
        kept = [d.included_indices.size for d in decisions]
        assert 0 < sum(kept) < sum(sizes) and kept != sizes

    def test_rejects_mismatched_streams(self):
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError):
            local_round(model, *joined(skewed_shards()), 1, 16, 0.1, 0.7,
                        [np.random.default_rng(1)])


def round_case(sizes, scales, classes, arch, batch, kinks):
    """A model of this architecture and the joined shards of the given sizes, worker i's
    features scaled by scales[i]: scale 1e3 saturates them (see saturated), scale 0 gives
    every row one prediction.  With kinks the features and the model's parameters are
    small integers, so that many hidden pre-activations of the first step are exactly 0."""
    data = tiny_dataset(n=sum(sizes), dim=arch[0], classes=classes, seed=340 + sum(sizes))
    rng = np.random.default_rng(sum(sizes) + batch)
    model = init_model(arch, rng)
    if kinks:
        data = LabeledDataset(np.rint(data.features), data.labels)
        model = ModelParameters(tuple((rng.integers(-2, 3, size=w.shape).astype(float),
                                       rng.integers(-1, 2, size=b.shape).astype(float))
                                      for w, b in model.layers), model.architecture)
    ends = np.cumsum([0, *sizes])
    shards = [data.take(slice(a, b)) for a, b in zip(ends[:-1], ends[1:])]
    shards = [saturated(s) if scale == 1e3 else LabeledDataset(s.features * scale, s.labels)
              for s, scale in zip(shards, scales)]
    return model, *joined(shards)


ROUND_CASES = [
    # sizes, feature scales, classes, architecture, batch, epochs, threshold, ReLU kinks
    ([40, 40, 40], [1, 1, 1], 4, [6, 5, 4], 8, 5, 0.7, False),  # equal shards, batch divides
    ([40, 37, 23], [1, 1, 1e3], 4, [6, 5, 4], 7, 2, 0.7, False),  # unequal; one keeps nothing
    ([12, 23, 40], [0, 1, 1], 10, [6, 7, 5, 10], 5, 5, 0.5, False),  # ascending: order flips
    ([30, 30], [1, 1], 10, [6, 8, 10], 10, 1, 0.9, False),  # one epoch
    ([25, 40, 40, 9], [1e3, 1, 0, 1], 4, [6, 7, 5, 4], 16, 2, 0.6, False),
    ([40, 40], [1, 1], 4, [6, 5, 4], 20, 5, 1.0, False),  # the presets' shape: all rows kept
    ([33, 33, 33], [1, 1, 1], 4, [6, 5, 4], 11, 5, 0.6, False),  # kept sets reorder the stack
    ([24, 24, 17], [1, 1, 1], 3, [6, 5, 4, 3], 8, 3, 0.6, True),  # ReLU kinks
    ([20, 17], [1, 1], 10, [784, 16, 10], 20, 2, 0.9, False),  # 784 wide
    ([5, 3, 5], [1, 1, 1], 4, [6, 5, 4], 1, 2, 0.7, False),  # one-row batches
]


class TestRoundAgainstReference:
    """A stacked round gives each worker the bytes and filter verdict of the plain
    reference's round of that worker alone."""

    @staticmethod
    def rounds(sizes, scales, classes, arch, batch, epochs, threshold, kinks):
        model, data, shards = round_case(sizes, scales, classes, arch, batch, kinks)
        if kinks:
            w0, b0 = model.layers[0]
            assert np.count_nonzero(data.features @ w0.T + b0 == 0.0) > 5 * len(sizes)

        def streams():
            return [substream(19, TRAIN, 0, w, epochs) for w in range(len(shards))]

        return assert_round_matches_reference(model, data, shards, epochs, batch, 0.1,
                                              threshold, streams)

    @pytest.mark.parametrize("case", ROUND_CASES)
    def test_matches_two_call_round(self, case):
        self.rounds(*case)

    def test_cases_reach_every_filter_outcome(self):
        # a worker keeping nothing, one keeping everything beside one that does
        # not, and kept counts that reorder the stack for the later epochs
        kept = [[d.included_indices.size for d in self.rounds(*case)] for case in ROUND_CASES]
        assert any(0 in k for k in kept)
        assert any(n == size and k != case[0]
                   for k, case in zip(kept, ROUND_CASES) for n, size in zip(k, case[0]))
        assert any(sorted(k, reverse=True) != k and case[0] == sorted(case[0], reverse=True)
                   for k, case in zip(kept, ROUND_CASES))


def random_epoch_cases():
    rng = np.random.default_rng(327)
    for _ in range(8):
        k = int(rng.integers(1, 6))
        yield [int(n) for n in rng.integers(0, 60, size=k)], int(rng.integers(1, 24))


EPOCH_CASES = [
    ([40, 40, 40], 16),  # equal sizes: one group per step
    ([37], 8),  # k = 1
    ([40, 0, 23], 16),  # a worker with no kept indices
    ([0, 0, 0], 16),  # no steps at all
    ([40, 37, 40, 23], 16),  # tails 8, 5, 8, 7: workers 0 and 2 train together
    *random_epoch_cases(),
    ([5, 23, 40], 16),  # ascending sizes: the longest-first stack reverses them
]

KEEP = 0.999  # no row of an unsaturated shard is this sure after one pass


def epoch_case(sizes, batch):
    """A model, the joined data and shards of len(sizes) workers, and a stream maker.
    Worker j's shard is a sorted random subset of sizes[j] of its 60 rows; at size 0 it is
    all 60 saturated instead, which a filter at KEEP drops whole after the first pass, so
    that every later pass trains worker j on sizes[j] rows, in a stack reordered when a
    worker drops from longest to none."""
    rng = np.random.default_rng(sum(sizes) + batch)
    model = init_model([6, 5, 3], rng)
    parts = [tiny_dataset(n=60, seed=330 + j) for j in range(len(sizes))]
    parts = [d.take(np.sort(rng.choice(60, size=n, replace=False))) if n
             else saturated(d) for d, n in zip(parts, sizes)]

    def streams():
        return [substream(17, TRAIN, 0, j, batch) for j in range(len(sizes))]

    return model, *joined(parts), streams


class TestEpochAgainstReference:
    """local_round's passes after the filter give the plain reference's bytes on any mix
    of row counts, 0 for a worker whose filter kept nothing (see epoch_case)."""

    @staticmethod
    def passes(sizes, batch, epochs):
        """1 + epochs passes at KEEP, checked against the reference."""
        model, data, shards, streams = epoch_case(sizes, batch)
        decisions = assert_round_matches_reference(model, data, shards, 1 + epochs, batch, 0.1,
                                                   KEEP, streams)
        assert [d.included_indices.size for d in decisions] == sizes

    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_matches_reference_loop(self, sizes, batch):
        self.passes(sizes, batch, 1)

    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_every_step_updates_views_of_one_stack(self, sizes, batch, monkeypatch):
        # every step writes into views of one parameter block, and the pass after the
        # filter trains sizes[j] rows of worker j, none for a worker with no kept rows
        calls = []
        grad = learning.gradient

        def recording(model, x, y, out):
            calls.append((model.layers, len(x)))
            grad(model, x, y, out)

        monkeypatch.setattr(learning, "gradient", recording)
        self.passes(sizes, batch, 1)
        _, _, shards, _ = epoch_case(sizes, batch)
        assert sum(n for _, n in calls) == sum(len(r) for r in shards) + sum(sizes)
        for layers, _ in calls:
            for (w, b), (w0, b0) in zip(layers, calls[0][0]):
                assert w.base is not None and w.base is w0.base
                assert b.base is not None and b.base is b0.base

    @pytest.mark.parametrize("epochs", [2, 4])  # epochs 1: test_matches_reference_loop
    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_passes_match_reference_loop(self, sizes, batch, epochs):
        self.passes(sizes, batch, epochs)

    @pytest.mark.parametrize("epochs", [2, 4])
    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_passes_equal_chained_calls(self, sizes, batch, epochs):
        # at threshold 1.0 a round's 1 + (epochs - 1) passes, in two sgd_epoch calls, give
        # the bytes of the reference's one loop of epochs passes
        model, data, shards, streams = epoch_case(sizes, batch)
        got, _ = local_round(model, data, shards, epochs, batch, 0.1, 1.0, streams())
        for g, r, rng in zip(got, shards, streams(), strict=True):
            want = reference.sgd(model.layers, data, np.asarray(r), epochs, batch, 0.1, rng)
            assert_models_equal(g, ModelParameters(tuple(want), model.architecture))

    def test_one_permuted_call_draws_a_permutation_per_pass(self):
        # sgd_epoch shuffles a worker's passes, rows of a column slice of one block, in one
        # Generator.permuted call: each pass and the generator's state after it are those of
        # a fresh permutation drawn per pass, and the block's other columns stay as they were
        rng = np.random.default_rng(43)
        for _ in range(300):
            epochs, n = int(rng.integers(1, 7)), int(rng.integers(0, 90))
            rows = rng.choice(10_000, size=n, replace=False)
            seed = int(rng.integers(2**32))
            block = np.full((epochs, n + 5), -1, dtype=np.intp)
            part = block[:, 2:n + 2]
            part[...] = rows
            g, want = np.random.default_rng(seed), np.random.default_rng(seed)
            g.permuted(part, axis=1, out=part)
            passes = [rows[want.permutation(n)] for _ in range(epochs)]
            assert np.array_equal(part, np.array(passes, dtype=np.intp).reshape(epochs, n))
            assert g.bit_generator.state == want.bit_generator.state
            assert (block[:, :2] == -1).all() and (block[:, n + 2:] == -1).all()


class TestAggregateAndEvaluate:
    def test_weighted_mean_exact(self):
        rng = np.random.default_rng(317)
        m1 = init_model([4, 3], rng)
        m2 = init_model([4, 3], rng)
        out = aggregate([(m1, 100), (m2, 300)])
        for (w1, _), (w2, _), (wo, _) in zip(m1.layers, m2.layers, out.layers):
            assert np.allclose(wo, 0.25 * w1 + 0.75 * w2, atol=1e-15)

    def test_identical_inputs_fixed_point(self):
        m = init_model([4, 3], np.random.default_rng(318))
        out = aggregate([(m, 10), (m, 20), (m, 30)])
        for (w0, b0), (w1, b1) in zip(m.layers, out.layers):
            assert np.allclose(w0, w1, atol=1e-15)
            assert np.allclose(b0, b1, atol=1e-15)

    def test_errors(self):
        m = init_model([4, 3], np.random.default_rng(319))
        other = init_model([4, 5, 3], np.random.default_rng(319))
        with pytest.raises(ValueError):
            aggregate([])
        with pytest.raises(ValueError):
            aggregate([(m, 1), (other, 1)])
        with pytest.raises(ValueError):
            aggregate([(m, 0), (m, 0)])
        with pytest.raises(ValueError):
            aggregate([(m, -1), (m, 2)])

    def test_evaluate_zero_model(self):
        zero = zeroed(init_model([6, 4, 3], np.random.default_rng(0)))
        data = tiny_dataset(n=90, dim=6, classes=3)
        loss, acc = evaluate(zero, data)
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)
        # argmax of a uniform row is class 0
        assert acc == pytest.approx(float(np.mean(data.labels == 0)), abs=1e-15)

    @pytest.mark.parametrize("classes", [4, 10])
    def test_evaluate_ties_go_to_the_first_class(self, classes):
        # a zero model gives every class the same probability: only label-0 rows count
        zero = zeroed(init_model([6, 5, classes], np.random.default_rng(0)))
        data = tiny_dataset(n=800, dim=6, classes=classes, seed=354)
        _, acc = evaluate(zero, data)
        assert acc == np.count_nonzero(data.labels == 0) / 800

    def test_evaluate_nan_row_takes_argmax(self):
        # rows: NaN (argmax: class 0), a tie of classes 0 and 1, class 2 twice;
        # one row with no maximum and one with two must not pass for a clean set
        model = ModelParameters(layers=((np.array([[0.0], [0.0], [5.0]]),
                                         np.array([1.0, 1.0, 0.0])),), architecture=(1, 3))
        data = LabeledDataset(np.array([[np.nan], [0.0], [1.0], [1.0]]), np.array([0, 0, 2, 0]))
        loss, acc = evaluate(model, data)
        assert math.isnan(loss) and acc == 0.75

    def test_evaluate_whole_input_forward_consistent(self):
        model = init_model([6, 8, 3], np.random.default_rng(320))
        big = tiny_dataset(n=5000)
        loss_big, acc_big = evaluate(model, big)
        probs = reference.probabilities(model.layers, big.features)[0]
        p_true = probs[np.arange(5000), big.labels]
        want_loss = float(np.mean(-np.log(np.maximum(p_true, LOG_GUARD))))
        want_acc = float(np.mean(probs.argmax(axis=1) == big.labels))
        assert loss_big == pytest.approx(want_loss, rel=1e-12)
        assert acc_big == pytest.approx(want_acc, abs=1e-15)

    def test_evaluate_loss_guard_blocks_log_of_zero(self):
        data = LabeledDataset(np.zeros((4, 3)), np.array([1, 1, 0, 0]))
        loss, acc = evaluate(confidently_wrong_model(), data)
        assert loss == pytest.approx(-0.5 * math.log(LOG_GUARD), rel=1e-12)
        assert acc == 0.5


class TestSerialization:
    def test_bit_count_reference_architecture(self):
        assert param_bits([784, 32, 10]) == 1_628_800
        model = init_model([784, 32, 10], np.random.default_rng(322))
        assert 64 * sum(w.size + b.size for w, b in model.layers) == 1_628_800


class TestDatasetValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((4, 2)), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(4), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((4, 2)), np.full(4, -1, dtype=np.int64))

    def test_take_subsets(self):
        data = tiny_dataset(n=20)
        sub = data.take(np.array([3, 5, 7]))
        assert np.array_equal(sub.features, data.features[[3, 5, 7]])
        assert np.array_equal(sub.labels, data.labels[[3, 5, 7]])

    def test_init_model_validation(self):
        with pytest.raises(ValueError):
            init_model([5], np.random.default_rng(0))
        with pytest.raises(ValueError):
            init_model([5, 0, 3], np.random.default_rng(0))


class TestRarelyReachedChecks:
    """Checks that the rest of this file never reaches, one case each."""

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: LabeledDataset(np.zeros((4, 2)), np.zeros((4, 1), dtype=np.int64)),
                     "labels must be 1-D", id="labels-2d"),
        pytest.param(lambda: local_round(init_model([6, 3], np.random.default_rng(0)),
                                         *joined([tiny_dataset(n=40)]), 0, 16, 0.1, 0.7,
                                         [np.random.default_rng(1)]),
                     "epochs must be >= 1", id="local-round-epochs-0"),
        pytest.param(lambda: evaluate(init_model([6, 3], np.random.default_rng(0)),
                                      LabeledDataset(np.zeros((0, 6)), np.zeros(0, dtype=int))),
                     "empty dataset", id="evaluate-empty"),
    ])
    def test_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()
