"""Layer timing and counting for the benchmark, done from outside the program.

feelsim's modules call one another through module globals: `federation`
imports local_round, sample_channel, beam_and_gain, minimize_round_energy,
aggregate, evaluate, default_deadline and substream into its own namespace,
and run_experiment looks up run_round at call time; sgd_epoch, filter_samples,
loss_and_gradient, round_energy_objective and golden_section_min are globals
of the module that calls them. A Probe rebinds those names to wrappers while
it is entered and puts the originals back on exit, so the program itself
carries no instrumentation.

loss_and_gradient and round_energy_objective run 10^4 to 10^5 times a run, so
they are counted without timestamps: timing every call roughly doubles the
run of the 784-wide fleet.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict


class Probe:
    """Rebinds feelsim functions while entered.

    Always records each run_round's start and end and every deadline that
    default_deadline returns. With trace=True it also keeps, per layer span,
    [calls, total seconds, self seconds] (self time excludes the wrapped
    spans called inside it) and the counters in `counts`.
    """

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.rounds: list[tuple[float, float]] = []
        self.deadlines: list[float] = []
        self.spans: defaultdict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probe":
        try:
            self._install()
        except BaseException:
            self.__exit__()  # a half-installed probe would wrap twice next time
            raise
        return self

    def _install(self) -> None:
        from feelsim import federation, io_cli, learning, resource_optimizer

        self._rebind(federation, "run_round", self._round_clock)
        self._rebind(federation, "default_deadline", self._deadline_log)
        if not self.trace:
            return
        spans = [
            (federation, "run_round", "federation.run_round", None),
            (federation, "default_deadline", "federation.deadline", None),
            (federation, "local_round", "learning.local_round", None),
            (federation, "sample_channel", "channel.sample", None),
            (federation, "beam_and_gain", "channel.beam", None),
            (federation, "minimize_round_energy", "resource_optimizer.plan",
             functools.partial(self._raises, "infeasible", resource_optimizer.InfeasibleError)),
            (federation, "aggregate", "learning.aggregate", None),
            (federation, "evaluate", "learning.evaluate", None),
            (federation, "substream", "streams.substream", None),
            (io_cli, "substream", "streams.substream", None),
            (io_cli, "load_dataset", "io_cli.load_dataset", None),
            (io_cli, "build_workers", "io_cli.build_workers", None),
            (io_cli, "write_metrics", "io_cli.write_metrics", None),
            (learning, "sgd_epoch", "learning.sgd_epoch", None),
            (learning, "filter_samples", "learning.filter", self._filter_tally),
            (resource_optimizer, "golden_section_min", "numerics.golden", self._budget_tally),
        ]
        for module, attr, name, inner in spans:
            self._rebind(module, attr, lambda fn, name=name, inner=inner:
                         self._timed(name, inner(fn) if inner else fn))
        self._rebind(learning, "loss_and_gradient", self._grad_tally)
        self._rebind(resource_optimizer, "round_energy_objective", self._objective_tally)

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _rebind(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def _round_clock(self, fn):
        clock, rounds = time.perf_counter, self.rounds

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rounds.append((t0, clock()))
        return wrapper

    def _deadline_log(self, fn):
        def wrapper(*args, **kwargs):
            deadline = fn(*args, **kwargs)
            self.deadlines.append(deadline)
            return deadline
        return wrapper

    def _timed(self, name: str, fn):
        clock, stack, span = time.perf_counter, self._stack, self.spans[name]

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
        return wrapper

    def _raises(self, counter: str, error: type[Exception], fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except error:
                self.counts[counter] += 1
                raise
        return wrapper

    def _filter_tally(self, fn):
        counts = self.counts

        def wrapper(model, data, threshold):
            decision = fn(model, data, threshold)
            counts["filter_seen"] += len(data)
            counts["filter_kept"] += decision.included_indices.size
            return decision
        return wrapper

    def _budget_tally(self, fn):
        # golden_section_min evaluates the objective twice, then once per
        # iteration; every evaluation here goes through round_energy_objective
        signature, counts = inspect.signature(fn), self.counts

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            before = counts["objective_evals"]
            result = fn(*args, **kwargs)
            if counts["objective_evals"] - before - 2 >= bound.arguments["max_iter"]:
                counts["golden_budget_exhausted"] += 1
            return result
        return wrapper

    def _grad_tally(self, fn):
        counts = self.counts

        def wrapper(model, x, y):
            counts["grad_calls"] += 1
            counts["grad_samples"] += x.shape[0]
            return fn(model, x, y)
        return wrapper

    def _objective_tally(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["objective_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper


def layer_values(probe: Probe, records, paths) -> dict[str, float]:
    """Per-layer metrics of one traced run_from_config.

    `records` and `paths` are what run_from_config returned; every name here
    is a `per_layer` metric of BENCHMARK.json except trace.overhead_s, which
    compares whole runs.
    """
    spans, counts = probe.spans, probe.counts
    plans = spans["resource_optimizer.plan"][0]
    scheduled = sum(len(r.worker_stats) for trial in records for r in trial)
    delivered = sum(r.n_updates for trial in records for r in trial)
    return {
        "learning.local_round_s": spans["learning.local_round"][1],
        "learning.sgd_epoch_s": spans["learning.sgd_epoch"][1],
        "learning.grad_calls": counts["grad_calls"],
        "learning.grad_samples": counts["grad_samples"],
        "learning.filter_s": spans["learning.filter"][1],
        "learning.filter_kept_frac": counts["filter_kept"] / counts["filter_seen"],
        "learning.evaluate_s": spans["learning.evaluate"][1],
        "learning.aggregate_s": spans["learning.aggregate"][1],
        "resource_optimizer.plan_s": spans["resource_optimizer.plan"][1],
        "resource_optimizer.plan_calls": plans,
        "resource_optimizer.objective_evals": counts["objective_evals"],
        "resource_optimizer.evals_per_plan": counts["objective_evals"] / plans,
        "resource_optimizer.infeasible": counts["infeasible"],
        "numerics.golden_s": spans["numerics.golden"][1],
        "numerics.golden_budget_exhausted": counts["golden_budget_exhausted"],
        "channel.sample_s": spans["channel.sample"][1],
        "channel.beam_s": spans["channel.beam"][1],
        "channel.beam_calls": spans["channel.beam"][0],
        "streams.substream_calls": spans["streams.substream"][0],
        "streams.substream_s": spans["streams.substream"][1],
        "federation.round_self_s": spans["federation.run_round"][2],
        "federation.deadline_s": spans["federation.deadline"][1],
        "federation.delivered_frac": delivered / scheduled,
        "io_cli.load_dataset_s": spans["io_cli.load_dataset"][1],
        "io_cli.build_workers_s": spans["io_cli.build_workers"][1],
        "io_cli.write_metrics_s": spans["io_cli.write_metrics"][1],
        "io_cli.bytes_written": sum(p.stat().st_size for p in paths.values()),
    }
