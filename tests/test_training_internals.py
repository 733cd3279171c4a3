"""Resource checks of the training engine: the one test module that names the private
internals of feelsim.learning (_Stack, _Workspace, _forward, _shifted_exp, _class_sums, a
stack's pools, steps, plans and position).

Every other module pins training by its bytes, through tests/reference.py and public calls
(local_round, filter_samples, evaluate, gradient with plain (gw, gb) pairs, run_round), and
test_no_other_module_names_learning_internals keeps it so.  What is left here is what bytes
cannot show: each workspace is built once per key, its buffers are views of the stack's
pools, the pools and the plan cache stay bounded, the forward-only passes build none, a
trial's stack is freed without the cyclic collector, and a workspace bound to another model
never runs.  And one rule that bytes show only case by case: the class-axis sum adds as
numpy's last-axis sum does, at every class count.
"""
import gc
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from feelsim import federation, learning
from feelsim.federation import ExperimentState, default_deadline, run_round
from feelsim.io_cli import load_config, run_from_config
from feelsim.learning import aggregate, filter_samples, init_model, local_round, param_bits
from feelsim.streams import DOMAIN_INIT
from feelsim.streams import DOMAIN_TRAIN as TRAIN
from feelsim.streams import substream
from helpers import ROOT, joined
from test_federation import ARCH, TEST_DATA, fast_config, make_fleet
from test_learning import assert_models_equal, assert_reference_bytes, stacked, tiny_dataset


@pytest.fixture
def built(monkeypatch):
    """Every _Workspace built while the test runs, in build order."""
    workspaces = []

    class Counting(learning._Workspace):
        def __new__(cls, model, grads, shape, pools=()):
            ws = super().__new__(cls, model, grads, shape, pools)
            workspaces.append(ws)
            return ws

    monkeypatch.setattr(learning, "_Workspace", Counting)
    return workspaces


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


class TestTrialStack:
    """One _Stack trained round after round builds each step's workspace once and keeps it,
    every buffer they bind is a view of one of the stack's pools, the filter builds none, and
    every round gives a fresh stack's bytes."""

    @pytest.mark.parametrize("batch", [8, 40])
    def test_step_workspaces_built_once_on_pools(self, batch, built):
        # 300 filtered rounds of three workers of 40 rows, in short batches or in one
        # batch per kept pass: the kept counts give new plans and new row slices round
        # after round.  Each (lo, hi, n) step workspace is built once and kept, every buffer
        # it binds is a view of one of the stack's pools, and every round gives a fresh
        # stack's bytes.
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
        assert views
        for view in views:
            assert_pool_view(view)

    def test_pools_grow_under_bound_workspaces(self):
        # shards that grow round by round, in batches as long as the longest: each round's
        # step workspaces are longer than any before, so the pools grow under
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

    def test_filter_builds_no_workspace(self, built, monkeypatch):
        # one worker whose 16-row shard fits one batch of 20: the round builds the step's
        # workspace only, and the filter runs on a stacked view of the stack's own row,
        # deciding as a plain 2-D view holding the same weights
        filtered = []
        keep = learning.filter_samples

        def recording(model, data, threshold):
            filtered.append(model)
            return keep(model, data, threshold)

        monkeypatch.setattr(learning, "filter_samples", recording)
        data = tiny_dataset(n=16, seed=359)
        stack = learning._Stack((6, 5, 3), 1)
        model = init_model((6, 5, 3), np.random.default_rng(360))
        _, (decision,) = local_round(model, data, [range(16)], 1, 20, 0.5, 0.4,
                                     [substream(47, TRAIN, 0, 0, 0)], stack=stack)
        assert list(stack.steps) == [(0, 1, 16)]
        assert len(built) == 1 and built[0] is stack.steps[0, 1, 16][0]
        (group,) = filtered
        assert group.layers[0][0].shape == (1, 5, 6)
        assert all(np.shares_memory(a, stack.params) for layer in group.layers for a in layer)
        want = keep(learning._member(stack.model, 0), data, 0.4)
        assert 0 < decision.excluded_count < 16
        assert decision.excluded_count == want.excluded_count
        assert decision.included_indices.tobytes() == want.included_indices.tobytes()


class TestTrialWorkspaces:
    """A trial's stack builds each workspace its rounds reuse once, and frees them with
    itself: nothing it holds refers back to it."""

    @pytest.mark.parametrize("preset, steps", [("synthetic_filtered", 47),
                                               ("synthetic_unfiltered", 1)])
    def test_preset_workspace_builds(self, preset, steps, built, monkeypatch, tmp_path):
        # a seed-1 preset run: one workspace per distinct step (lo, hi, n) and none for the
        # forward-only passes; the filter runs once a round on both scheduled 160-row shards,
        # in one forward pass below threshold 1 and in none at 1, and evaluate in one a round
        evaluated, filtering, forwards = [], [], []
        evaluate, keep = federation.evaluate, learning.filter_samples
        shifted_exp = learning._shifted_exp

        def counting_evaluate(model, data):
            evaluated.append(len(data))
            return evaluate(model, data)

        def recording_filter(model, data, threshold):
            filtering.append(len(data))
            return keep(model, data, threshold)

        def counting_forward(model, x):
            forwards.append(len(x))
            return shifted_exp(model, x)

        monkeypatch.setattr(federation, "evaluate", counting_evaluate)
        monkeypatch.setattr(learning, "filter_samples", recording_filter)
        monkeypatch.setattr(learning, "_shifted_exp", counting_forward)
        config = load_config(ROOT / "configs" / f"{preset}.json")
        run_from_config(config, seed=1, out_dir=tmp_path, quiet=True)
        # keyed by their first row's address and shape
        keys = {(ws.model.layers[0][0].__array_interface__["data"][0], ws.x_shape) for ws in built}
        assert all(built) and len(built) == len(keys) == steps  # step workspaces only
        assert filtering == [320] * config.rounds
        assert len(evaluated) == config.rounds
        filter_passes = filtering if config.threshold < 1.0 else []
        assert sorted(forwards) == sorted(filter_passes + evaluated)

    def test_trial_stack_freed_without_the_cyclic_collector(self):
        # with the collector off, the trial's stack and its parameter block die as soon as
        # the state and the models a round returned are dropped
        fleet, train = make_fleet()
        cfg = fast_config(epochs=3, threshold=0.4, seed=61)
        cfg = replace(cfg, deadline_s=default_deadline(fleet, cfg, param_bits(ARCH), 0))
        gc.collect()
        gc.disable()
        try:
            state = ExperimentState(model=init_model(ARCH, np.random.default_rng(61)),
                                    workers=fleet, train_data=train, test_data=TEST_DATA)
            for r in range(1, 3):
                run_round(state, cfg, r)
            streams = [substream(61, DOMAIN_INIT, w) for w in range(len(fleet))]
            models, decisions = local_round(state.model, train, [w.rows for w in fleet], 3, 32,
                                            0.05, 0.4, streams, stack=state.schedule.stack)
            assert 0 < sum(d.excluded_count for d in decisions) < len(train)
            stack = state.schedule.stack
            refs = [weakref.ref(stack), weakref.ref(stack.params)]
            del state, models, stack
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestGradientInto:
    def test_workspace_of_another_model_or_shape_gives_only_its_pairs(self):
        # a workspace built for another model or row count is wrapped like a plain sequence:
        # its bound kernel, stale for this call, must not run
        rng = np.random.default_rng(331)
        model, other = (stacked([init_model([6, 5, 3], rng) for _ in range(2)]) for _ in range(2))
        x, y = rng.normal(size=(16, 6)), np.eye(3)[rng.integers(0, 3, size=16)]
        for bound, n in [(other, 8), (model, 5)]:
            block = np.full((2, param_bits(bound.architecture) // 64), np.nan)
            ws = learning._Workspace(bound, learning._layout(block, bound.architecture), (2, n))
            learning.gradient(model, x, y, ws)
            assert_reference_bytes(ws, model, x, y)


class TestClassSums:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
    def test_equal_numpy_last_axis_sum_at_every_class_count(self, lead):
        # the filter reads its top probability from this sum and evaluate divides by it:
        # it must keep the bytes of numpy's row-major sum, whose pairwise order changes at
        # 8 and above 128 classes; a numpy release that changes that order fails here
        rng = np.random.default_rng(361)
        for classes in range(2, 301):
            rows = rng.uniform(size=(*lead, 37, classes)) * 10.0 ** rng.integers(
                -300, 300, size=(*lead, 37, classes))
            want = np.add.reduce(rows, axis=-1)
            got = learning._class_sums(np.ascontiguousarray(rows.swapaxes(-1, -2)))
            assert got.tobytes() == want.tobytes(), classes


class TestRarelyReachedChecks:
    """Checks of the stack that no public call reaches, one case each."""

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: learning._Stack((6, 3), 2).load(
            init_model([6, 4, 3], np.random.default_rng(0)), [0, 1]),
                     "cannot load", id="stack-load-other-architecture"),
        pytest.param(lambda: learning._Stack((6, 3), 2).load(
            init_model([6, 3], np.random.default_rng(0)), [0, 0]),
                     "cannot load", id="stack-load-repeated-worker"),
        pytest.param(lambda: filter_samples(learning._Stack((6, 3), 2).model,
                                            tiny_dataset(n=15), 0.5),
                     "a stack of 2 workers needs a multiple of 2 rows, got 15",
                     id="filter-stack-rows"),
    ])
    def test_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


INTERNALS = re.compile(r"\b_(Stack|Workspace|forward|probabilities|member|layout|buffer"
                       r"|longest_first|shifted_exp|class_sums)\b"
                       r"|\.(pools|steps|plans|position)\b")


def test_no_other_module_names_learning_internals():
    # the other modules pin training through public calls, so that a change to the
    # engine's internals restates only this one; loss_and_gradient, which training never
    # calls, is left to acceptance criterion 1
    found = []
    for path in sorted(ROOT.joinpath("tests").glob("*.py")):
        if path.name == "test_training_internals.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if INTERNALS.search(line) or ("loss_and_gradient" in line
                                          and path.name != "test_acceptance.py"):
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)
