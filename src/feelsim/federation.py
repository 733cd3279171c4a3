"""Round orchestration: partitioning, scheduling, training, energy accounting.

A round proceeds as: sample the scheduled workers, read the matched-filter
gains of their uplink channels (every worker uploads on its own orthogonal
share of the band; the gains are drawn a window of rounds at a time), run local
training (full first epoch, confidence filter, remaining epochs on the
surviving samples), split the bandwidth, plan each worker's compute/upload
operating point, charge energy budgets, and aggregate the updates that made it
back in time.

Every random draw comes from a stream keyed by (seed, domain, trial, worker,
round), so per-worker work is order-independent: a round trains its scheduled
workers as one stacked model, and no worker's bytes depend on which others
share its stack.  A trial's round streams are derived a window of rounds at a
time (_Schedule): the window's channels are drawn there in one block, and its
training streams replayed in a few reused generators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .channel import sample_gains, uplink_rate

# unused here: bench/tracer.py rebinds these two names (ROADMAP item 1)
from .channel import beam_and_gain, sample_channel
from .learning import (
    LabeledDataset,
    ModelParameters,
    _Stack,
    aggregate,
    evaluate,
    init_model,
    local_round,
    param_bits,
)
from .resource_optimizer import (
    DeviceBounds,
    InfeasibleBandwidthError,
    InfeasibleError,
    ResourcePlan,
    Workload,
    effective_cycles,
    minimize_round_energy,
    optimal_bandwidth,
)
from .streams import (
    DOMAIN_CHANNEL,
    DOMAIN_DEADLINE,
    DOMAIN_INIT,
    DOMAIN_SELECT,
    DOMAIN_TRAIN,
    reseed,
    stream_seeds,
    substream,
)

if TYPE_CHECKING:  # annotations only: io_cli imports this module at run time
    from .io_cli import ExperimentConfig

BANDWIDTH_MODES = ("equal", "adaptive")
CHANNEL_MODES = ("block", "static")


class ConfigError(ValueError):
    """Bad configuration file: parse failure or constraint violation."""


@dataclass(eq=False)  # an array field has no == that gives a bool
class WorkerProfile:
    """One edge device: its shard (positions in train), hardware envelope, and placement."""

    worker_id: int
    rows: np.ndarray
    bounds: DeviceBounds
    distance_m: float
    los_angle: float
    remaining_energy_j: float = math.inf


@dataclass(frozen=True)
class WorkerRoundStats:
    """What one scheduled worker did in one round.

    charged is the plan the ledger charged: the worker's plan when it delivered, that plan
    cut to its compute when its battery died mid-round, and a zero plan on its share of the
    band when its round could not be planned.  In each case bandwidth_hz is its share."""

    worker_id: int
    kappa: int  # samples the confidence filter dropped
    charged: ResourcePlan
    feasible: bool  # True when the update was delivered and charged in full
    remaining_energy_j: float


@dataclass(frozen=True)
class RoundRecord:
    """Global view of one round."""

    round_index: int
    test_loss: float
    test_accuracy: float
    inst_energy_j: float
    cum_energy_j: float
    excluded_fraction: float
    n_updates: int
    worker_stats: tuple[WorkerRoundStats, ...]


@dataclass
class ExperimentState:
    """Mutable state threaded through the rounds of one trial.

    config, with its deadline resolved, the fleet in workers and the model's architecture are
    fixed for the state's life: the state runs one trial under one config.  train_data is the
    training split, which every trial shares: each worker's rows index it.  schedule holds the
    trial's round streams and training stack, drawn from them; run_round builds it in the
    state's first round.
    """

    config: ExperimentConfig
    model: ModelParameters
    workers: list[WorkerProfile]
    train_data: LabeledDataset
    test_data: LabeledDataset
    trial: int = 0
    cumulative_energy_j: float = 0.0
    schedule: _Schedule | None = None


def partition_iid(
    data: LabeledDataset, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Disjoint random split of data's row positions into k shards, sizes within one."""
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} shards, got {k}")
    return np.array_split(rng.permutation(n), k)  # the first n % k shards take one more


def partition_noniid(
    data: LabeledDataset,
    k: int,
    rng: np.random.Generator,
    classes_per_worker: int = 2,
) -> list[np.ndarray]:
    """Label-skewed split: each worker sees exactly classes_per_worker classes.

    Class identities are dealt around a shuffled cycle, so no worker sees the same class
    twice; each class's samples are split evenly among the workers that hold it.  Every
    class reaches a worker only when k * classes_per_worker is at least the class count;
    otherwise the classes past the end of the deal are left out.  Returns each shard's row
    positions in data.
    """
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} shards, got {k}")
    classes = np.unique(data.labels)
    c = classes.size
    if not 1 <= classes_per_worker <= c:
        raise ValueError(f"classes_per_worker must be in [1, {c}], got {classes_per_worker}")
    deal = classes[rng.permutation(c)][np.arange(k * classes_per_worker) % c]
    chunks = {}
    for cls, slots in zip(*np.unique(deal, return_counts=True)):
        idx = rng.permutation(np.flatnonzero(data.labels == cls))
        if idx.size < slots:
            raise ValueError(f"class {cls} has {idx.size} samples for {slots} shard slots")
        chunks[cls] = iter(np.array_split(idx, slots))
    return [np.concatenate([next(chunks[cls]) for cls in held])
            for held in deal.reshape(k, classes_per_worker)]


def schedule_size(k: int, fraction: float) -> int:
    """Workers scheduled per round: ceil(fraction * k), at least 1, at most k."""
    return min(k, max(1, math.ceil(fraction * k)))


def select_workers(
    workers: list[WorkerProfile], fraction: float, rng: np.random.Generator
) -> list[WorkerProfile]:
    """Uniform sample of ceil(fraction * K) distinct workers, id order."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = len(workers)
    if k == 0:
        raise ValueError("no workers to select from")
    n_sel = schedule_size(k, fraction)
    chosen = sorted(rng.choice(k, size=n_sel, replace=False).tolist())
    return [workers[i] for i in chosen]


def _channel_gains(
    profiles: list[WorkerProfile], seeds: list, config: ExperimentConfig,
    rng: np.random.Generator,
) -> list[float]:
    """Matched-filter gain beta of each profile's channel, drawn on its stream in seeds
    (stream_seeds' pairs), which rng replays one after another."""
    return sample_gains(
        (reseed(rng, s) for s in seeds), [p.distance_m for p in profiles],
        [p.los_angle for p in profiles], config.pathloss_exp, config.rician_k_db,
        config.antennas, config.noise_power_w,
    )


def _workload(p: WorkerProfile, config: ExperimentConfig, bits: int, excluded: int) -> Workload:
    """Worker p's round job: its shard, less `excluded` rows after the first epoch."""
    return Workload(len(p.rows), excluded, config.epochs, config.cycles_per_sample, bits)


def default_deadline(
    workers: list[WorkerProfile], config: ExperimentConfig, model_bits: int, trial: int
) -> float:
    """Round deadline giving 1.5x slack over a pessimistic straight-through pass.

    Budgeted as the slowest worker's unfiltered compute time at f_max plus the
    worst worker's upload time on an equal bandwidth share at full power,
    derated by a 6 dB fading margin (round-time channels are fresh draws).
    Uses a dedicated stream so the figure does not disturb (or depend on) the
    simulation's own channel draws.
    """
    if not workers:
        raise ValueError("no workers to derive a deadline from")
    share = config.bandwidth_hz / schedule_size(len(workers), config.select_fraction)
    seeds = stream_seeds(config.seed, [(DOMAIN_DEADLINE, trial, p.worker_id)
                                       for p in workers])
    betas = _channel_gains(workers, seeds, config, np.random.Generator(np.random.PCG64(0)))
    beta_worst = min(betas) / 4.0  # 6 dB margin for the per-round refresh
    p_max = min(p.bounds.p_max_w for p in workers)
    t_up = model_bits / uplink_rate(share, beta_worst, p_max)
    t_cmp = max(effective_cycles(_workload(p, config, model_bits, 0)) / p.bounds.f_max_hz
                for p in workers)
    return 1.5 * (t_cmp + t_up)


# streams a schedule window holds at most: a long trial or a large fleet is drawn in parts
_WINDOW_STREAMS = 4096


class _Schedule:
    """A trial's round streams: each round's selection, the matched-filter gains of its
    selected workers' channels, and the (state, inc) seeds of their training streams, the
    streams substream would open; and the trial's training stack for the scheduled count,
    whose blocks, plans and step workspaces every round reuses.  A round's local models are
    views of the stack, valid until the next round trains; run_round aggregates them before
    it returns.

    draw(first) replaces the rounds it holds by a window from round `first` up to
    config.rounds, or further when `first` is past it, of at most _WINDOW_STREAMS streams.
    Each kind of stream in the window is hashed in one stream_seeds call, and every channel
    in the window is drawn in one sample_gains block, from each profile's distance_m and
    los_angle as they are when the window is drawn.  take(r) drops round r and returns its
    selection, its gains and its training streams, replayed in reused generators that stay
    valid until the next take.  The schedule copies its state's config, trial, fleet and
    architecture, and keeps no reference to the state, which holds it: no cycle keeps a
    trial's stack alive for the cyclic collector.
    """

    def __init__(self, state: ExperimentState):
        self.config, self.trial = state.config, state.trial
        self.workers = list(state.workers)
        self.rounds: dict[int, tuple[list[WorkerProfile], list[float], list]] = {}
        n = schedule_size(len(self.workers), self.config.select_fraction)
        self.stack = _Stack(state.model.architecture, n)
        self.generators = [np.random.Generator(np.random.PCG64(0)) for _ in range(n + 1)]

    def draw(self, first: int) -> None:
        config, trial = self.config, self.trial
        seed, fraction = config.seed, config.select_fraction
        # one selection, then a channel and a training stream per scheduled worker
        per_round = 2 * schedule_size(len(self.workers), fraction) + 1
        last = min(config.rounds, first + _WINDOW_STREAMS // per_round - 1)
        window = range(first, max(first, last) + 1)
        rng = self.generators[0]
        picks = [select_workers(self.workers, fraction, reseed(rng, s))
                 for s in stream_seeds(seed, [(DOMAIN_SELECT, trial, r) for r in window])]
        slots = [(p, r) for r, picked in zip(window, picks) for p in picked]
        # a static channel is drawn once a trial: its key has no round
        static = config.channel_mode == "static"
        betas = _channel_gains(
            [p for p, _ in slots],
            stream_seeds(seed, [(DOMAIN_CHANNEL, trial, p.worker_id) if static
                                else (DOMAIN_CHANNEL, trial, p.worker_id, r) for p, r in slots]),
            config, rng)
        train = stream_seeds(seed, [(DOMAIN_TRAIN, trial, p.worker_id, r) for p, r in slots])
        self.rounds, end = {}, 0
        for r, picked in zip(window, picks):
            start, end = end, end + len(picked)
            self.rounds[r] = (picked, betas[start:end], train[start:end])

    def take(self, round_index: int) -> tuple[list[WorkerProfile], list[float], list]:
        selected, betas, train = self.rounds.pop(round_index)
        return selected, betas, [reseed(g, s) for g, s in zip(self.generators[1:], train)]


def run_round(state: ExperimentState, round_index: int) -> RoundRecord:
    """Advance the experiment by one deadline-bound communication round, under state.config."""
    config = state.config
    if config.deadline_s is None:
        raise ValueError("run_round needs a resolved deadline; see run_experiment")
    deadline = config.deadline_s
    model_bits = param_bits(state.model.architecture)
    schedule = state.schedule = state.schedule or _Schedule(state)
    if round_index not in schedule.rounds:
        schedule.draw(round_index)
    selected, betas, train_rngs = schedule.take(round_index)

    local_models, decisions = local_round(
        state.model, state.train_data, [p.rows for p in selected], config.epochs,
        config.batch_size, config.learning_rate, config.threshold,
        train_rngs, stack=schedule.stack,
    )
    # a diverged model drops every sample as NaN fails the filter, and would be priced as
    # a cheap round: stop the run instead
    if not np.isfinite(schedule.stack.params).all():
        raise ConfigError(f"trial {state.trial}, round {round_index}: training diverged to "
                          f"non-finite weights at learning_rate {config.learning_rate!r}")
    workloads = [_workload(p, config, model_bits, d.excluded_count)
                 for p, d in zip(selected, decisions)]

    def plan_all(shares: list[float]) -> list[ResourcePlan | None]:
        plans: list[ResourcePlan | None] = []
        for profile, workload, share, beta in zip(selected, workloads, shares, betas):
            try:
                plans.append(
                    minimize_round_energy(workload, deadline, share, beta, profile.bounds)
                )
            except InfeasibleError:
                plans.append(None)
        return plans

    shares = [config.bandwidth_hz / len(selected)] * len(selected)
    plans = plan_all(shares)
    if config.bandwidth_mode == "adaptive":
        # a link padded up to p_min needs less than its share; the band it
        # frees goes to the other links in proportion to their shares
        shrunk = {}
        for i, (profile, plan, beta) in enumerate(zip(selected, plans, betas)):
            if plan is not None and plan.p_w == profile.bounds.p_min_w:
                try:
                    shrunk[i] = optimal_bandwidth(model_bits, plan.t_up_s, plan.p_w, beta)
                except InfeasibleBandwidthError:
                    pass
        kept = sum(share for i, share in enumerate(shares) if i not in shrunk)
        scale = (config.bandwidth_hz - sum(shrunk.values())) / kept if kept else 1.0
        shares = [shrunk.get(i, share * scale) for i, share in enumerate(shares)]
        plans = plan_all(shares)

    updates: list[tuple[ModelParameters, int]] = []
    stats: list[WorkerRoundStats] = []
    inst_energy = 0.0
    for profile, local_model, decision, plan, share in zip(
        selected, local_models, decisions, plans, shares
    ):
        if plan is None:
            charged = ResourcePlan(t_cmp_s=0.0, t_up_s=0.0, f_hz=0.0, p_w=0.0,
                                   bandwidth_hz=share, e_cmp_j=0.0, e_up_j=0.0)
            delivered = False
        elif plan.total_energy_j <= profile.remaining_energy_j:
            charged, delivered = plan, True
        else:
            # battery dies mid-round: the compute spend is real, the upload never runs
            charged = replace(plan, e_cmp_j=min(plan.e_cmp_j, profile.remaining_energy_j),
                              e_up_j=0.0, t_up_s=0.0, p_w=0.0)
            delivered = False
        profile.remaining_energy_j -= charged.total_energy_j
        inst_energy += charged.total_energy_j
        if delivered:
            updates.append((local_model, len(profile.rows)))
        stats.append(WorkerRoundStats(
            worker_id=profile.worker_id, kappa=decision.excluded_count, charged=charged,
            feasible=delivered, remaining_energy_j=profile.remaining_energy_j,
        ))

    if updates:
        state.model = aggregate(updates)
    loss, acc = evaluate(state.model, state.test_data)
    state.cumulative_energy_j += inst_energy
    return RoundRecord(
        round_index=round_index,
        test_loss=loss,
        test_accuracy=acc,
        inst_energy_j=inst_energy,
        cum_energy_j=state.cumulative_energy_j,
        excluded_fraction=(sum(d.excluded_count for d in decisions)
                           / sum(len(p.rows) for p in selected)),
        n_updates=len(updates),
        worker_stats=tuple(stats),
    )


def run_experiment(
    workers: list[WorkerProfile],
    train_data: LabeledDataset,
    test_data: LabeledDataset,
    architecture: list[int],
    config: ExperimentConfig,
    trial: int = 0,
) -> tuple[list[RoundRecord], ModelParameters]:
    """Run one trial of config.rounds sequential rounds from a fresh global model.

    A None deadline in the config is resolved once, up front, from the fleet.  A deadline
    too long for the shortest compute of a round (one epoch of the smallest shard at f_max)
    to change it in floating point is a ConfigError: an upload slot would fill the round.
    Returns the per-round records plus the final global model.
    """
    model = init_model(architecture, substream(config.seed, DOMAIN_INIT, trial))
    bits = param_bits(model.architecture)
    if config.deadline_s is None:
        config = replace(config, deadline_s=default_deadline(workers, config, bits, trial))
    t_cmp = min(effective_cycles(_workload(p, config, bits, len(p.rows))) / p.bounds.f_max_hz
                for p in workers)
    if config.deadline_s - t_cmp == config.deadline_s:
        raise ConfigError(f"deadline {float(config.deadline_s)!r} s leaves no compute slot: "
                          f"{t_cmp!r} s at f_max does not change it in floating point")
    state = ExperimentState(config, model, workers, train_data, test_data, trial)
    records = [run_round(state, r) for r in range(1, config.rounds + 1)]
    return records, state.model
