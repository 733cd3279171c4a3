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
    init_model,
    local_round,
    loss_and_gradient,
    param_bits,
    sgd_epoch,
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


def train_stack(model, data, batch_size, lr, rng, epochs=1):
    """sgd_epoch on a _Stack filled from model, over the datasets joined into one, worker i
    training every row of data[i]; returns the stack's model in worker order."""
    width = model.architecture[0]
    whole = data[0] if len(data) == 1 else LabeledDataset(  # one dataset: itself, unchecked again
        np.concatenate([np.empty((0, width)), *(d.features for d in data)]),
        np.concatenate([np.empty(0, dtype=np.intp), *(d.labels for d in data)]))
    ends = np.cumsum([0, *(len(d) for d in data)])
    rows = [np.arange(a, b) for a, b in zip(ends[:-1], ends[1:])]
    stack = learning._Stack(model.architecture, len(rows))
    stack.load(model, list(range(len(rows))))
    sgd_epoch(stack, whole, rows, batch_size, lr, rng, epochs=epochs)
    stack.reorder(list(range(len(rows))))  # back to worker order
    return stack.model


def train_one(model, data, batch_size, lr, rng, epochs=1):
    """sgd_epoch on a stack of one worker, returned as that worker's 2-D model."""
    trained = train_stack(stacked([model]), [data], batch_size, lr, [rng], epochs=epochs)
    return learning._member(trained, 0)


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


def confidently_wrong_model():
    """Single layer whose class-1 logit sits 1000 below class 0: p(1) underflows to 0."""
    return ModelParameters(layers=((np.zeros((2, 3)), np.array([0.0, -1000.0])),),
                           architecture=(3, 2))


class TestForward:
    def test_frozen_output_gradient(self):
        # zero weights and log-probability biases give softmax output [0.2, 0.3, 0.5]
        model = ModelParameters(layers=((np.zeros((3, 2)), np.log([0.2, 0.3, 0.5])),),
                                architecture=(2, 3))
        _, grads = loss_and_gradient(model, np.ones((1, 2)), np.eye(3)[[1]])
        (gw, gb), = grads
        assert np.allclose(gb, [0.2, -0.7, 0.5], atol=1e-15)
        assert np.allclose(gw, np.outer([0.2, -0.7, 0.5], [1.0, 1.0]), atol=1e-15)

    def test_uniform_probs_loss_is_log_classes(self):
        zero = zeroed(init_model([4, 10], np.random.default_rng(0)))
        data = tiny_dataset(n=40, dim=4, classes=10)
        loss, grads = loss_and_gradient(zero, data.features, np.eye(10)[data.labels])
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)
        # mean of (probs - onehot) with every prob at 1/10
        freq = np.bincount(data.labels, minlength=10) / len(data)
        assert np.allclose(grads[0][1], 0.1 - freq, atol=1e-15)

    def test_loss_guard_blocks_log_of_zero(self):
        x, y = np.zeros((4, 3)), np.ones(4, dtype=np.int64)
        loss, grads = loss_and_gradient(confidently_wrong_model(), x, np.eye(2)[y])
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(LOG_GUARD), rel=1e-12)
        assert np.array_equal(grads[0][1], [1.0, -1.0])

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
                loss_and_gradient(model, data.features, targets)

    def test_relu_mask_by_sign_matches_bool_mask(self):
        # loss_and_gradient masks with the sign of np.maximum(z, 0.0), which is
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
        # the plain reference's gradient bytes and mean loss, worker by worker
        rng = np.random.default_rng(328)
        for arch, k, n in [([6, 3], 1, 9), ([6, 5, 3], 1, 16), ([6, 7, 4, 3], 3, 5)]:
            members = [init_model(arch, rng) for _ in range(k)]
            model = members[0] if k == 1 else stacked(members)
            x = rng.normal(size=(k * n, 6)) * 3.0
            y = rng.integers(0, 3, size=k * n)
            loss, grads = loss_and_gradient(model, x, np.eye(3)[y])
            assert_reference_bytes(grads, model, x, np.eye(3)[y])
            parts = [LabeledDataset(x[j * n:(j + 1) * n], y[j * n:(j + 1) * n]) for j in range(k)]
            want = np.mean([reference.evaluate(m.layers, d)[0] for m, d in zip(members, parts)])
            assert loss == pytest.approx(want, rel=1e-12)

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
        loss, grads = loss_and_gradient(model, data.features, targets)
        loss_s, grads_s = loss_and_gradient(shifted, data.features, targets)
        assert abs(loss - loss_s) <= 1e-12
        for (gw, gb), (sw, sb) in zip(grads, grads_s):
            assert np.max(np.abs(gw - sw)) <= 1e-12
            assert np.max(np.abs(gb - sb)) <= 1e-12

    def test_matches_manual_forward(self):
        # on a one-sample batch the output bias gradient is probs - onehot
        rng = np.random.default_rng(302)
        model = init_model([6, 8, 3], rng)
        data = tiny_dataset(n=24)
        ref = reference.probabilities(model.layers, data.features)[0]
        for i, (row, label) in enumerate(zip(data.features, data.labels)):
            _, grads = loss_and_gradient(model, row[None, :], np.eye(3)[label[None]])
            probs = grads[-1][1].copy()
            probs[label] += 1.0
            assert np.allclose(probs, ref[i], atol=1e-12)

    def test_rejects_wrong_width(self):
        model = init_model([6, 3], np.random.default_rng(0))
        data = tiny_dataset(n=8, dim=5)
        with pytest.raises(ValueError):
            evaluate(model, data)
        with pytest.raises(ValueError, match="input shape"):
            loss_and_gradient(model, data.features, np.eye(3)[data.labels])


class TestGradientAndSgd:
    def test_single_step_rule_exact(self):
        model = init_model([6, 5, 3], np.random.default_rng(303))
        data = tiny_dataset(n=16)

        order = substream(9, TRAIN, 0).permutation(np.arange(16, dtype=np.intp))
        _, grads = loss_and_gradient(model, data.features[order], np.eye(3)[data.labels[order]])
        stepped = ModelParameters(layers=tuple(
            (w - 0.1 * gw, b - 0.1 * gb)
            for (w, b), (gw, gb) in zip(model.layers, grads)),
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
        _, g16 = loss_and_gradient(model, half.features, np.eye(3)[half.labels])
        # duplicating every row leaves the mean gradient unchanged
        dup = LabeledDataset(np.concatenate([half.features] * 2),
                             np.concatenate([half.labels] * 2))
        _, gdup = loss_and_gradient(model, dup.features, np.eye(3)[dup.labels])
        for (gw, gb), (dw, db) in zip(g16, gdup):
            assert np.allclose(gw, dw, atol=1e-15)
            assert np.allclose(gb, db, atol=1e-15)

    def test_loss_matches_scalar_path(self):
        model = init_model([6, 5, 3], np.random.default_rng(306))
        data = tiny_dataset(n=10)
        loss, _ = loss_and_gradient(model, data.features, np.eye(3)[data.labels])
        probs = reference.probabilities(model.layers, data.features)[0]
        per_sample = [-math.log(max(p[y], LOG_GUARD)) for p, y in zip(probs, data.labels)]
        assert loss == pytest.approx(float(np.mean(per_sample)), rel=1e-12)

    def test_input_model_untouched(self):
        model = stacked([init_model([6, 5, 3], np.random.default_rng(307))])
        snap = [(w.copy(), b.copy()) for w, b in model.layers]
        data = tiny_dataset(n=20)
        train_stack(model, [data], batch_size=8, lr=0.1, rng=[np.random.default_rng(1)])
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
        empty = ModelParameters(layers=tuple((np.empty((0, *w.shape)), np.empty((0, *b.shape)))
                                             for w, b in model.layers),
                                architecture=model.architecture)
        trained = train_stack(empty, [], batch_size=4, lr=0.1, rng=[], epochs=2)
        assert [w.shape for w, _ in trained.layers] == [(0, 3, 6)]
        models, decisions = local_round(model, tiny_dataset(), [], 2, 4, 0.1, 0.8, [])
        assert models == [] and decisions == []

    def test_empty_batch_rejected(self):
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty batch"):
            loss_and_gradient(model, np.zeros((0, 6)), np.zeros((0, 3)))

    def test_central_training_reaches_accuracy_floor(self):
        # 30 full-data epochs on separable blobs must learn, not merely move
        rng = np.random.default_rng(71)
        data = generate_synthetic(8, 4, 1200, 0.3, rng)
        train, test = data.take(np.arange(1000)), data.take(np.arange(1000, 1200))
        model = init_model([8, 16, 4], rng)
        for _ in range(30):
            model = train_one(model, train, 20, 0.05, rng)
        _, acc = evaluate(model, test)
        assert acc >= 0.95


class TestGradientInto:
    """gradient writes the bytes of loss_and_gradient's gradients into views of
    a flat (k, P) block, row i worker i's W0, b0, W1, b1, ... flattened."""

    @staticmethod
    def block_views(model):
        k = model.layers[0][0].shape[0] if model.layers[0][0].ndim == 3 else None
        block = np.full((1 if k is None else k, param_bits(model.architecture) // 64), np.nan)
        views = learning._layout(block, model.architecture)
        if k is None:  # a 2-D model writes into row 0
            views = tuple((w[0], b[0]) for w, b in views)
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
        _, want = loss_and_gradient(model, x, y)
        block, views = self.block_views(model)
        learning.gradient(model, x, y, views)
        assert not np.isnan(block).any()  # every element written
        for (gw, gb), (rw, rb) in zip(views, want, strict=True):
            assert np.shares_memory(gw, block) and np.shares_memory(gb, block)
            if k is not None and k > 1:
                assert gw.strides[0] == gb.strides[0] == block.strides[0]
            assert np.array_equal(gw, rw) and np.array_equal(gb, rb)

    @staticmethod
    def workspace(model, k, n):
        _, views = TestGradientInto.block_views(model)
        return learning._Workspace(model, views, (n,) if k is None else (k, n))

    @pytest.mark.parametrize("arch, k, n", [*CASES, ([6, 7, 10], 3, 13)])  # and 10 classes
    def test_workspace_matches_plain_views(self, arch, k, n):
        model, x, y, _ = self.case(arch, k, n)
        _, plain = self.block_views(model)
        learning.gradient(model, x, y, plain)
        ws = self.workspace(model, k, n)
        learning.gradient(model, x, y, ws)
        for (gw, gb), (pw, pb) in zip(ws, plain, strict=True):
            assert gw.tobytes() == pw.tobytes() and gb.tobytes() == pb.tobytes()

    @pytest.mark.parametrize("arch, k, n", [([6, 5, 4, 3], 3, 11), ([6, 7, 10], None, 13)])
    def test_reused_workspace_keeps_no_stale_values(self, arch, k, n):
        # three steps through one workspace, each with fresh x and y, match fresh calls
        model, _, _, rng = self.case(arch, k, n)
        ws = self.workspace(model, k, n)
        for _ in range(3):
            rows = n * (k or 1)
            x = rng.normal(size=(rows, arch[0])) * 4.0
            y = np.eye(arch[-1])[rng.integers(0, arch[-1], size=rows)]
            learning.gradient(model, x, y, ws)
            _, want = loss_and_gradient(model, x, y)
            for (gw, gb), (rw, rb) in zip(ws, want, strict=True):
                assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()

    def test_workspace_of_another_model_or_shape_gives_only_its_pairs(self):
        # a workspace built for another model or row count is wrapped like a plain sequence:
        # its bound kernel, stale for this call, must not run
        model, x, y, _ = self.case([6, 5, 3], 2, 8)
        other, _, _, _ = self.case([6, 5, 3], 2, 8, seed=332)
        for ws in (self.workspace(other, 2, 8), self.workspace(model, 2, 5)):
            learning.gradient(model, x, y, ws)
            assert_reference_bytes(ws, model, x, y)

    @pytest.mark.parametrize("arch, k, n", [
        *CASES,
        ([6, 5, 4, 3], None, 11),  # two hidden layers, 2-D
        ([6, 5, 4, 3], 2, 1),  # one-row batches, stacked
        ([6, 7, 10], None, 1),  # a one-row batch, 2-D
    ])
    def test_kernel_matches_reference_bytes(self, arch, k, n):
        # against the plain reference, through a fresh workspace (plain views, wrapped)
        # and through one workspace reused for three batches
        model, _, _, rng = self.case(arch, k, n)
        ws = self.workspace(model, k, n)
        for _ in range(3):
            rows = n * (k or 1)
            x = rng.normal(size=(rows, arch[0])) * 3.0
            y = np.eye(arch[-1])[rng.integers(0, arch[-1], size=rows)]
            _, plain = self.block_views(model)
            learning.gradient(model, x, y, plain)
            assert_reference_bytes(plain, model, x, y)
            learning.gradient(model, x, y, ws)
            assert_reference_bytes(ws, model, x, y)

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
        ws = self.workspace(model, k, n)
        for _ in range(2):
            learning.gradient(model, x, y, ws)
            assert_reference_bytes(ws, model, x, y)
        _, plain = self.block_views(model)
        learning.gradient(model, x, y, plain)
        assert_reference_bytes(plain, model, x, y)

    @pytest.mark.parametrize("rows, width, target", [
        (8, 5, (8, 3)),  # input width
        (0, 6, (0, 3)),  # empty batch
        (8, 6, (8, 4)),  # target shape
        (7, 6, (7, 3)),  # rows not a multiple of the stack
    ])
    def test_checks_raise_as_the_reference(self, rows, width, target):
        # the checks run before the kernel, with a workspace built for a valid batch:
        # each raises its message and leaves the pairs all NaN, as block_views made them
        message = {
            (8, 5): "input shape (8, 5) does not match network input width 6",
            (0, 6): "cannot take the gradient of an empty batch",
            (8, 6): "targets must have shape (8, 3), got (8, 4)",
            (7, 6): "a stack of 2 workers needs a multiple of 2 rows, got 7",
        }[rows, width]
        model, _, _, _ = self.case([6, 5, 3], 2, 4)
        ws = self.workspace(model, 2, 4)
        with pytest.raises(ValueError) as caught:
            learning.gradient(model, np.zeros((rows, width)), np.zeros(target), ws)
        assert str(caught.value) == message
        assert all(np.isnan(g).all() for pair in ws for g in pair)

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

        # through the forward pass: one worker per row, zero weights, the
        # logits carried by the biases
        k = len(z)
        model = ModelParameters(layers=((np.zeros((k, classes, 1)), z.copy()),),
                                architecture=(1, classes))
        x = np.full((k, 1, 1), -1.0)
        with np.errstate(all="ignore"):
            logits = x @ model.layers[0][0].swapaxes(-1, -2)
            logits += model.layers[0][1][:, None, :]
            probs = learning._probabilities(model, x)
            want = softmax(logits, np.maximum.reduce(logits, axis=-1))
            assert probs.tobytes() == want.tobytes()
            assert softmax(z, want_max).tobytes() == softmax(z, np.maximum.reduce(
                z.T.copy(), axis=0)).tobytes()


class TestFiltering:
    def test_threshold_one_keeps_everything(self):
        model = init_model([6, 5, 3], np.random.default_rng(308))
        data = tiny_dataset()
        dec = filter_samples(model, data, 1.0)
        assert dec.excluded_count == 0
        assert np.array_equal(dec.included_indices, np.arange(len(data)))

    def test_threshold_one_skips_the_forward_pass(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass run at threshold 1.0")

        monkeypatch.setattr(learning, "_probabilities", no_forward)
        model = init_model([6, 5, 3], np.random.default_rng(308))
        data = tiny_dataset(n=5000)
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
        ref_rng = substream(9, TRAIN, 2, 0, 5)
        ref = model
        for _ in range(3):
            ref = train_one(ref, data, batch_size=16, lr=0.1, rng=ref_rng)
        assert_models_equal(got, ref)

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
        loss, grads = loss_and_gradient(stacked(models), data.features, np.eye(3)[data.labels])
        losses = []
        for j, model in enumerate(models):
            rows = slice(11 * j, 11 * (j + 1))
            part_loss, ref = loss_and_gradient(model, data.features[rows],
                                              np.eye(3)[data.labels[rows]])
            losses.append(part_loss)
            for (gw, gb), (rw, rb) in zip(grads, ref):
                assert np.array_equal(gw[j], rw)
                assert np.array_equal(gb[j], rb)
        assert loss == pytest.approx(np.mean(losses), rel=1e-12)

    def test_one_gradient_call_per_batch_length(self, monkeypatch):
        rows, filtered, passes = [], [], []
        grad, keep, epoch = learning.gradient, learning.filter_samples, learning.sgd_epoch

        def counting(model, x, y, out):
            rows.append(x.shape[0])
            grad(model, x, y, out)

        def recording(model, data, threshold):
            filtered.append((model, data))
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

        # the presets' shape: two 160-row shards at batch 20, threshold 1.0
        rows.clear()
        filtered.clear()
        passes.clear()
        data = tiny_dataset(n=320, seed=326)
        shards = [data.take(np.arange(160)), data.take(np.arange(160, 320))]
        local_round(model, *joined(shards), 3, 20, 0.1, 1.0, streams[:2])
        assert rows == [40] * 8 * 3  # eight steps of 2 x 20 rows per epoch
        assert passes == [1, 2]  # pass 1 on all rows, then the other two on the kept
        # once per worker, on its own rows and the stack's workspace of its row and shard
        assert all(np.array_equal(d.features, s.features) and np.array_equal(d.labels, s.labels)
                   for (_, d), s in zip(filtered, shards, strict=True))
        (first, _), (second, _) = filtered
        assert isinstance(first, learning._Workspace)
        assert first.x_shape == second.x_shape == (1, 160, 6)
        for (w, b), (v, c) in zip(first.model.layers, second.model.layers):
            assert w.shape[0] == b.shape[0] == 1
            assert w.base is v.base is not None and not np.shares_memory(w, v)

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

    def test_rejects_mismatched_streams(self):
        model = init_model([6, 3], np.random.default_rng(0))
        with pytest.raises(ValueError):
            local_round(model, *joined(skewed_shards()), 1, 16, 0.1, 0.7,
                        [np.random.default_rng(1)])


def round_case(sizes, scales, classes, seed):
    """Shards of the given sizes, worker i's features scaled by scales[i].  Scale
    1e3 also makes them positive and the labels 0, so every softmax saturates
    (the filter keeps nothing); scale 0 gives every row one prediction."""
    data = tiny_dataset(n=sum(sizes), classes=classes, seed=seed)
    ends = np.cumsum([0, *sizes])
    shards = []
    for a, b, scale in zip(ends[:-1], ends[1:], scales):
        x, y = data.features[a:b], data.labels[a:b]
        if scale == 1e3:
            x, y = np.abs(x) + 1.0, np.zeros_like(y)
        shards.append(LabeledDataset(x * scale, y))
    return shards


ROUND_CASES = [
    # sizes, feature scales, classes, architecture, batch, epochs, threshold
    ([40, 40, 40], [1, 1, 1], 4, [6, 5, 4], 8, 5, 0.7),  # equal shards, batch divides
    ([40, 37, 23], [1, 1, 1e3], 4, [6, 5, 4], 7, 2, 0.7),  # unequal; one keeps nothing
    ([12, 23, 40], [0, 1, 1], 10, [6, 7, 5, 10], 5, 5, 0.5),  # ascending: the order flips
    ([30, 30], [1, 1], 10, [6, 8, 10], 10, 1, 0.9),  # one epoch
    ([25, 40, 40, 9], [1e3, 1, 0, 1], 4, [6, 7, 5, 4], 16, 2, 0.6),
    ([40, 40], [1, 1], 4, [6, 5, 4], 20, 5, 1.0),  # the presets' shape: all rows kept
    ([33, 33, 33], [1, 1, 1], 4, [6, 5, 4], 11, 5, 0.6),  # kept sets reorder the stack
]


class TestRoundAgainstReference:
    """A stacked round gives each worker the bytes and filter verdict of the plain
    reference's round of that worker alone."""

    @staticmethod
    def rounds(sizes, scales, classes, arch, batch, epochs, threshold):
        data, shards = joined(round_case(sizes, scales, classes, seed=340 + sum(sizes)))
        model = init_model(arch, np.random.default_rng(sum(sizes) + batch))

        def streams():
            return [substream(19, TRAIN, 0, w, epochs) for w in range(len(shards))]

        return (local_round(model, data, shards, epochs, batch, 0.1, threshold, streams()),
                [reference.local_round(model.layers, data, r, epochs, batch, 0.1, threshold, g)
                 for r, g in zip(shards, streams())], shards)

    @pytest.mark.parametrize("case", ROUND_CASES)
    def test_matches_two_call_round(self, case):
        (got, decisions), want, shards = self.rounds(*case)
        for g, (layers, kept), d, r in zip(got, want, decisions, shards, strict=True):
            for (gw, gb), (ww, wb) in zip(g.layers, layers, strict=True):
                assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()
            assert d.excluded_count == len(r) - len(kept)
            assert np.array_equal(d.included_indices, kept - r.start)

    def test_cases_reach_every_filter_outcome(self):
        # a worker keeping nothing, one keeping everything beside one that does
        # not, and kept counts that reorder the stack for the later epochs
        kept = [[d.included_indices.size for d in self.rounds(*case)[0][1]]
                for case in ROUND_CASES]
        assert any(0 in k for k in kept)
        assert any(n == size and k != case[0]
                   for k, case in zip(kept, ROUND_CASES) for n, size in zip(k, case[0]))
        assert any(sorted(k, reverse=True) != k and case[0] == sorted(case[0], reverse=True)
                   for k, case in zip(kept, ROUND_CASES))


class TestTrialStack:
    """One _Stack trained round after round gives the bytes of a fresh stack per round. It
    builds each workspace once and keeps it, the steps' and the filter's alike, and every
    buffer they bind is a view of one of the stack's pools."""

    @staticmethod
    def round(model, sizes, r, stack, threshold=0.4):
        shards = round_case(sizes, [1] * len(sizes), 4, seed=350 + sum(sizes))

        def streams():
            return [substream(29, TRAIN, 0, w, r) for w in range(len(sizes))]

        got = local_round(model, *joined(shards), 3, 8, 0.1, threshold, streams(), stack=stack)
        return got, local_round(model, *joined(shards), 3, 8, 0.1, threshold, streams())

    def test_reused_stack_matches_fresh_stacks(self, monkeypatch):
        # patterns A, A, B, A: B is ascending, so it is loaded in the reverse order, and
        # kept counts reorder the stack in place between a round's two calls
        moves, dropped = [], 0
        reorder = learning._Stack.reorder

        def recording(stack, order):
            moves.append(order != stack.order)
            reorder(stack, order)

        monkeypatch.setattr(learning._Stack, "reorder", recording)
        a, b = [40, 37, 40, 23], [12, 23, 30, 40]
        model = init_model([6, 7, 4], np.random.default_rng(351))
        stack = learning._Stack(model.architecture, 4)
        for r, sizes in enumerate([a, a, b, a]):
            (models, decisions), (want, expect) = self.round(model, sizes, r, stack)
            for m in models:
                assert all(np.shares_memory(w, stack.params) for w, _ in m.layers)
            for got, ref in zip(models, want, strict=True):
                assert_models_equal(got, ref)
            for d, e in zip(decisions, expect, strict=True):
                assert d.excluded_count == e.excluded_count
                assert np.array_equal(d.included_indices, e.included_indices)
                dropped += d.excluded_count
            model = aggregate([(m, n) for m, n in zip(models, sizes)])  # before it trains again
        assert any(moves) and dropped

    def test_step_workspaces_follow_load_and_reorder(self):
        # workspaces bind views of the parameter block: after a new model is loaded and the
        # rows are permuted in place, a pass through them updates the new rows, with the
        # bytes of a fresh stack holding the same rows
        arch, sizes, batch = (6, 7, 4), [12, 12, 12], 5
        rng = np.random.default_rng(354)
        data = tiny_dataset(n=36, classes=4, seed=355)
        rows = [np.arange(12 * w, 12 * (w + 1)) for w in range(3)]

        def streams():
            return [substream(37, TRAIN, 0, w, 0) for w in range(3)]

        stack = learning._Stack(arch, 3)
        stack.load(init_model(arch, rng), [0, 1, 2])
        stack.plan(sizes, batch)
        built = dict(stack.steps)
        members = [init_model(arch, rng) for _ in range(3)]
        stack.load(stacked(members), [2, 0, 1])  # workers 2, 0, 1 get members 0, 1, 2
        stack.reorder([1, 2, 0])  # rows: worker 1 (members[2]), 2 (members[0]), 0 (members[1])
        sgd_epoch(stack, data, rows, batch, 0.3, streams(), epochs=2)
        assert stack.steps and all(stack.steps[key][0] is ws for key, (ws, _, _) in built.items())
        fresh = learning._Stack(arch, 3)
        moved = stacked([members[2], members[0], members[1]])
        fresh.load(moved, [1, 2, 0])
        sgd_epoch(fresh, data, rows, batch, 0.3, streams(), epochs=2)
        assert stack.order == fresh.order == [1, 2, 0]
        assert stack.params.tobytes() == fresh.params.tobytes()
        assert not any(np.array_equal(w, v) for (w, _), (v, _) in zip(stack.model.layers,
                                                                     moved.layers))

    @pytest.mark.parametrize("batch", [8, 40])
    def test_step_workspaces_built_once_on_pools(self, batch, monkeypatch):
        # 300 filtered rounds of three workers of 40 rows, in short batches or in one
        # batch per kept pass: the kept counts give new plans and new row slices round
        # after round.  Each (lo, hi, n) workspace, a step's or the filter's, is built once
        # and kept, every buffer it binds is a view of one of the stack's pools, and every
        # round gives a fresh stack's bytes.
        built = []

        class Counting(learning._Workspace):
            def __new__(cls, model, grads, shape, pools=()):
                ws = super().__new__(cls, model, grads, shape, pools)
                built.append(ws)
                return ws

        monkeypatch.setattr(learning, "_Workspace", Counting)
        k, arch = 3, (6, 7, 4)
        model = init_model(arch, np.random.default_rng(352))
        stack = learning._Stack(arch, k)
        data = tiny_dataset(n=3 * 40, classes=4, seed=353)
        shards = [data.take(np.arange(40 * w, 40 * (w + 1))) for w in range(k)]
        trial = []

        def streams(r):
            return [substream(31, TRAIN, 0, w, r) for w in range(k)]

        for r in range(300):
            built.clear()
            models, _ = local_round(model, *joined(shards), 2, batch, 0.5, 0.6, streams(r),
                                    stack=stack)
            trial += [ws for ws in built if ws]
            want, _ = local_round(model, *joined(shards), 2, batch, 0.5, 0.6, streams(r))
            for got, ref in zip(models, want, strict=True):
                assert_models_equal(got, ref)
            model = aggregate([(m, 40) for m in models])
            assert len(stack.plans) <= 2
        kept = [ws for ws, _, _ in stack.steps.values()]
        assert [id(ws) for ws in trial] == [id(ws) for ws in kept]  # every key built once
        assert len(kept) > 2 * 2 * k
        views = stack_buffers(stack)
        assert views and all((j, j + 1, 40) in stack.steps for j in range(k))  # the filter's
        for view in views:
            assert_pool_view(view)

    def test_pools_grow_under_bound_workspaces(self):
        # shards that grow round by round, in batches as long as the longest: each round's
        # steps and filter workspaces are longer than any before, so the pools grow under
        # workspaces already bound.  The pool arrays they still hold stay within twice the
        # stack's current pools, and rounds back on the first rounds' shard lengths, through
        # workspaces bound to outgrown pools, still give a fresh stack's bytes.
        k, arch = 3, (6, 7, 4)
        data = tiny_dataset(n=3 * 64, classes=4, seed=357)
        model = init_model(arch, np.random.default_rng(358))
        stack = learning._Stack(arch, k)
        rounds = [[n, n + 3, n + 1] for n in range(2, 61, 6)]

        def run(model, sizes, r):
            ranges = [range(64 * w, 64 * w + n) for w, n in enumerate(sizes)]

            def streams():
                return [substream(43, TRAIN, 0, w, r) for w in range(k)]

            models, _ = local_round(model, data, ranges, 2, 64, 0.5, 0.6, streams(), stack=stack)
            want, _ = local_round(model, data, ranges, 2, 64, 0.5, 0.6, streams())
            for got, ref in zip(models, want, strict=True):
                assert_models_equal(got, ref)
            return aggregate([(m, n) for m, n in zip(models, sizes)])

        outgrown = set()
        for r, sizes in enumerate(rounds):
            model = run(model, sizes, r)
            pools = {id(view.base): view.base for view in stack_buffers(stack)}
            assert sum(p.nbytes for p in pools.values()) <= 2 * sum(p.nbytes for p in stack.pools)
            outgrown.update(i for i, p in pools.items() if not any(p is q for q in stack.pools))
        assert outgrown
        for r, sizes in enumerate(rounds[:3], len(rounds)):
            model = run(model, sizes, r)
            used = [ws for *_, steps in stack.plans.values() for *_, ws, _, _ in steps]
            assert any(id(view.base) in outgrown
                       for ws in used for view in buffers(stack, (ws.forward, ws.backward)))

    def test_kept_filter_halves_match_plain_members(self):
        # the filter runs in the stack's workspace of a worker's row and shard length,
        # bound to views of the stack's pools: on shards of 40, 37, 40 and 23 rows, through
        # rounds, a load and a row-permuting reorder, its decisions are those of fresh 2-D
        # views of the rows, and workers 0 and 2, of 40 rows each, take turns in the same
        # pools
        shards = skewed_shards()
        data, ranges = joined(shards)
        parts = [data.take(slice(r.start, r.stop)) for r in ranges]
        arch = (6, 5, 3)
        rng = np.random.default_rng(356)
        model = init_model(arch, rng)
        stack = learning._Stack(arch, len(shards))

        def assert_same(a, b):
            assert a.excluded_count == b.excluded_count
            assert a.included_indices.tobytes() == b.included_indices.tobytes()

        def check(threshold):
            kept = [stack.workspace(j, j + 1, len(part))[0]
                    for j, part in zip(stack.position, parts)]
            decisions = [filter_samples(ws, part, threshold) for ws, part in zip(kept, parts)]
            for j, (decision, part) in enumerate(zip(decisions, parts)):
                plain = learning._member(stack.model, stack.position[j])
                assert_same(decision, filter_samples(plain, part, threshold))
            before = decisions[0]
            filter_samples(kept[2], parts[2], threshold)  # B writes over A's buffers
            assert_same(filter_samples(kept[0], parts[0], threshold), before)
            return decisions

        outcomes = set()
        for r in range(4):
            streams = [substream(41, TRAIN, 0, w, r) for w in range(len(shards))]
            models, _ = local_round(model, data, ranges, 3, 16, 0.1, 0.7, streams, stack=stack)
            for m, j in zip(models, stack.position, strict=True):
                assert all(w.base is stack.params for w, _ in m.layers)
                assert_models_equal(m, learning._member(stack.model, j))
            outcomes.update(d.excluded_count for d in check(0.7))
            model = aggregate([(m, len(p)) for m, p in zip(models, parts)])
        assert len(outcomes) > 2
        members = [init_model(arch, rng) for _ in shards]
        stack.load(stacked(members), [3, 1, 0, 2])
        stack.reorder([2, 0, 3, 1])
        # rows hold workers 2, 0, 3, 1, loaded as members 3, 2, 0, 1
        assert np.array_equal(learning._member(stack.model, 0).layers[0][0],
                              members[3].layers[0][0])
        for threshold in (0.4, 0.6, 0.9):
            check(threshold)
        assert sorted({n for lo, hi, n in stack.steps if n > 16}) == [23, 37, 40]
        for view in stack_buffers(stack):
            assert_pool_view(view)

    def test_filter_shares_a_step_workspace(self, monkeypatch):
        # one worker whose 16-row shard fits one batch of 20: the filter's key is the
        # step's, (0, 1, 16), so it runs in the very workspace the step built, which is
        # built once, and decides as a plain 2-D view holding the same weights
        built, filtered = [], []
        keep = learning.filter_samples

        class Counting(learning._Workspace):
            def __new__(cls, model, grads, shape, pools=()):
                ws = super().__new__(cls, model, grads, shape, pools)
                built.append(ws)
                return ws

        def recording(model, data, threshold):
            filtered.append(model)
            return keep(model, data, threshold)

        monkeypatch.setattr(learning, "_Workspace", Counting)
        monkeypatch.setattr(learning, "filter_samples", recording)
        data = tiny_dataset(n=16, seed=359)
        stack = learning._Stack((6, 5, 3), 1)
        model = init_model((6, 5, 3), np.random.default_rng(360))
        _, (decision,) = local_round(model, data, [range(16)], 1, 20, 0.5, 0.4,
                                     [substream(47, TRAIN, 0, 0, 0)], stack=stack)
        assert list(stack.steps) == [(0, 1, 16)]
        (step,) = [ws for *_, ws, _, _ in stack.plan([16], 20)[3]]
        assert len(filtered) == 1 and filtered[0] is step is stack.steps[0, 1, 16][0]
        assert len(built) == len(stack.steps) == 1
        want = keep(learning._member(stack.model, 0), data, 0.4)
        assert 0 < decision.excluded_count < 16
        assert decision.excluded_count == want.excluded_count
        assert decision.included_indices.tobytes() == want.included_indices.tobytes()


def buffers(stack, bound):
    """The arrays in bound, nested operand tuples of a stack's workspaces, that are not
    views of its parameter or gradient block: the buffers those workspaces bind."""
    for item in bound:
        if isinstance(item, tuple):
            yield from buffers(stack, item)
        elif isinstance(item, np.ndarray) and not (np.may_share_memory(item, stack.params)
                                                   or np.may_share_memory(item, stack.grads)):
            yield item


def stack_buffers(stack):
    """Every buffer that a stack's workspaces bind."""
    return list(buffers(stack, [(ws.forward, ws.backward) for ws, _, _ in stack.steps.values()]))


def assert_pool_view(view):
    """view starts at the first element of a 1-D float64 array that owns its memory."""
    pool = view.base
    assert pool is not None and pool.base is None
    assert pool.ndim == 1 and pool.dtype == np.float64
    assert view.__array_interface__["data"][0] == pool.__array_interface__["data"][0]


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


def epoch_case(sizes, batch):
    """A stack of len(sizes) workers, their data, kept indices, the kept rows
    of each worker's data and a stream maker."""
    rng = np.random.default_rng(sum(sizes) + batch)
    stack = stacked([init_model([6, 5, 3], rng) for _ in sizes])
    data = [tiny_dataset(n=60, seed=330 + j) for j in range(len(sizes))]
    kept = [np.sort(rng.choice(60, size=n, replace=False)) for n in sizes]

    def streams():
        return [substream(17, TRAIN, 0, j, batch) for j in range(len(sizes))]

    return stack, data, kept, [d.take(k) for d, k in zip(data, kept)], streams


def reference_passes(stack, data, kept, batch, streams, epochs=1):
    """Each worker of stack trained alone by the plain reference, stacked again."""
    trained = []
    for j, (d, k, g) in enumerate(zip(data, kept, streams, strict=True)):
        layers = reference.sgd(learning._member(stack, j).layers, d, k, epochs, batch, 0.1, g)
        trained.append(ModelParameters(tuple(layers), stack.architecture))
    return stacked(trained)


class TestEpochAgainstReference:
    """sgd_epoch gives the plain reference's bytes on any mix of shard sizes."""

    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_matches_reference_loop(self, sizes, batch):
        stack, data, kept, rows, streams = epoch_case(sizes, batch)
        got = train_stack(stack, rows, batch, 0.1, streams())
        assert_models_equal(got, reference_passes(stack, data, kept, batch, streams()))
        if not any(sizes):
            assert_models_equal(got, stack)

    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_every_step_updates_views_of_one_stack(self, sizes, batch, monkeypatch):
        calls = []
        grad = learning.gradient

        def recording(model, x, y, out):
            calls.append(model.layers)
            grad(model, x, y, out)

        monkeypatch.setattr(learning, "gradient", recording)
        stack, _, _, rows, streams = epoch_case(sizes, batch)
        train_stack(stack, rows, batch, 0.1, streams())
        assert bool(calls) == any(sizes)  # a stack with no rows takes no step
        for layers in calls:
            for (w, b), (w0, b0) in zip(layers, calls[0]):
                assert w.base is not None and w.base is w0.base
                assert b.base is not None and b.base is b0.base

    @pytest.mark.parametrize("epochs", [2, 4])  # epochs 1: test_matches_reference_loop
    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_passes_match_reference_loop(self, sizes, batch, epochs):
        stack, data, kept, rows, streams = epoch_case(sizes, batch)
        got = train_stack(stack, rows, batch, 0.1, streams(), epochs=epochs)
        assert_models_equal(got, reference_passes(stack, data, kept, batch, streams(), epochs))

    @pytest.mark.parametrize("epochs", [2, 4])
    @pytest.mark.parametrize("sizes, batch", EPOCH_CASES)
    def test_passes_equal_chained_calls(self, sizes, batch, epochs):
        stack, _, _, rows, streams = epoch_case(sizes, batch)
        got = train_stack(stack, rows, batch, 0.1, streams(), epochs=epochs)
        want, rngs = stack, streams()
        for _ in range(epochs):
            want = train_stack(want, rows, batch, 0.1, rngs)
        assert_models_equal(got, want)


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
        pytest.param(lambda: learning._Stack((6, 3), 2).load(
            init_model([6, 4, 3], np.random.default_rng(0)), [0, 1]),
                     "cannot load", id="stack-load-other-architecture"),
        pytest.param(lambda: learning._Stack((6, 3), 2).load(
            init_model([6, 3], np.random.default_rng(0)), [0, 0]),
                     "cannot load", id="stack-load-repeated-worker"),
        pytest.param(lambda: local_round(init_model([6, 3], np.random.default_rng(0)),
                                         *joined([tiny_dataset(n=40)]), 0, 16, 0.1, 0.7,
                                         [np.random.default_rng(1)]),
                     "epochs must be >= 1", id="local-round-epochs-0"),
        pytest.param(lambda: evaluate(init_model([6, 3], np.random.default_rng(0)),
                                      LabeledDataset(np.zeros((0, 6)), np.zeros(0, dtype=int))),
                     "empty dataset", id="evaluate-empty"),
        pytest.param(lambda: filter_samples(learning._Stack((6, 3), 2).workspace(0, 1, 16)[0],
                                            tiny_dataset(n=15), 0.5),
                     r"input shape \(15, 6\) does not match the workspace's \(16, 6\)",
                     id="filter-workspace-rows"),
    ])
    def test_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()
