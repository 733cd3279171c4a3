"""A plain FEEL run, written from the paper's model, for the tests to pin the program with.

Each scheduled worker trains its own 2-D copy of the global model: one epoch of SGD, the
confidence filter, then epochs - 1 epochs on the rows it kept.  The round prices each worker
on the deadline with `plan`, splits the band (`least_band` in `adaptive` mode), charges the
energy ledger and averages the delivered models by dataset size (FedAvg, arXiv:1602.05629).
Every draw is from `substream`.  `plan` and `least_band` solve the problems stated in
feelsim.resource_optimizer's docstring by bisection.  Borrowed, and pinned by other tests: the
data, split and fleet, init_model, select_workers, the channel model and, from the planner's
module, types only (test_reference_borrows_no_planner_function keeps it so).
"""
import dataclasses
import math

import numpy as np

from feelsim.channel import beam_and_gain, sample_channel, uplink_rate
from feelsim.federation import RoundRecord, WorkerRoundStats, select_workers
from feelsim.io_cli import build_workers, load_dataset, split_train_test
from feelsim.learning import LOG_GUARD, init_model
from feelsim.resource_optimizer import InfeasibleBandwidthError, InfeasibleDeadlineError
from feelsim.resource_optimizer import InfeasibleError, InfeasiblePowerError, ResourcePlan
from feelsim.resource_optimizer import Workload
from feelsim.streams import DOMAIN_CHANNEL, DOMAIN_DEADLINE, DOMAIN_INIT, DOMAIN_SELECT
from feelsim.streams import DOMAIN_TRAIN, substream


def model_bits(layers):
    return 64 * sum(w.size + b.size for w, b in layers)  # one float64 per weight or bias


def probabilities(layers, x):
    """Softmax output of the (W, b) layers on the rows of x, and each layer's input."""
    inputs = [x]
    for w, b in layers[:-1]:
        inputs.append(np.maximum(inputs[-1] @ w.T + b, 0.0))
    w, b = layers[-1]
    z = inputs[-1] @ w.T + b
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), inputs


def gradient(layers, x, y):
    """(dW, db) per layer of the mean cross entropy against one-hot targets y."""
    p, inputs = probabilities(layers, x)
    delta = (p - y) / len(x)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (delta.T @ inputs[i], delta.sum(axis=0))
        if i:
            delta = (delta @ layers[i][0]) * (inputs[i] > 0)
    return grads


def sgd(layers, data, rows, epochs, batch_size, lr, rng):
    """`epochs` passes over data's rows `rows`, each in a fresh shuffle from rng."""
    onehot = np.eye(len(layers[-1][1]))
    for _ in range(epochs):
        order = rows[rng.permutation(len(rows))]
        x, y = data.features[order], onehot[data.labels[order]]
        for at in range(0, len(order), batch_size):
            grads = gradient(layers, x[at:at + batch_size], y[at:at + batch_size])
            layers = [(w - lr * gw, b - lr * gb) for (w, b), (gw, gb) in zip(layers, grads)]
    return layers


def local_round(layers, data, shard, epochs, batch_size, lr, threshold, rng):
    """One worker's round on data's rows `shard` (their positions): its model and the rows
    its filter kept, those whose top probability after the first epoch is <= threshold."""
    rows = np.asarray(shard)
    layers = sgd(layers, data, rows, 1, batch_size, lr, rng)
    if threshold < 1.0:  # no probability exceeds 1: threshold 1 keeps every row
        p, _ = probabilities(layers, data.features[rows])
        rows = rows[p.max(axis=1) <= threshold]
    return sgd(layers, data, rows, epochs - 1, batch_size, lr, rng), rows


def fedavg(updates):
    """The (layers, dataset size) updates averaged by size, in update order."""
    total = sum(n for _, n in updates)
    return [tuple(sum((n / total) * layers[i][j] for layers, n in updates) for j in (0, 1))
            for i in range(len(updates[0][0]))]


def evaluate(layers, data):
    """Mean cross entropy and top-1 accuracy (ties to the lowest class) on data."""
    p, _ = probabilities(layers, data.features)
    p_true = p[np.arange(len(data)), data.labels]
    loss = float(-np.log(np.maximum(p_true, LOG_GUARD)).sum())
    return loss / len(data), int((p.argmax(axis=1) == data.labels).sum()) / len(data)


def gain(config, worker, rng):
    """Matched-filter gain of a fresh channel draw from rng."""
    h = sample_channel(rng, worker.distance_m, config.pathloss_exp, config.rician_k_db,
                       config.antennas, worker.los_angle)
    return beam_and_gain(h, config.noise_power_w)


def deadline(config, fleet, trial, bits):
    """1.5 x (slowest unfiltered compute at f_max + the worst upload at full power on an
    equal share, its channel derated by 6 dB)."""
    k = len(fleet)
    share = config.bandwidth_hz / min(k, max(1, math.ceil(config.select_fraction * k)))
    beta = min(gain(config, p, substream(config.seed, DOMAIN_DEADLINE, trial, p.worker_id))
               for p in fleet) / 4.0
    t_up = bits / uplink_rate(share, beta, min(p.bounds.p_max_w for p in fleet))
    t_cmp = max(config.cycles_per_sample * (config.epochs * len(p.rows)) / p.bounds.f_max_hz
                for p in fleet)
    return 1.5 * (t_cmp + t_up)


def least_float(holds, a, b):
    """The least float in (a, b], 0 <= a < b, at which `holds` is true, for a predicate false up
    to some float and true from it on (b if it is true nowhere before): bisection on the bit
    patterns, which order non-negative floats as integers do."""
    lo, hi = (int(np.float64(t).view(np.int64)) for t in (a, b))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(float(np.int64(mid).view(np.float64))) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


def link_power(bits, t_up, band, beta):
    """The power that uploads `bits` in t_up seconds at rate band log2(1 + beta p / band)."""
    with np.errstate(over="ignore"):
        return band / beta * float(np.expm1(bits * math.log(2.0) / (t_up * band)))


def plan(job, deadline, band, beta, bounds):
    """The least-energy operating point of one worker-round on `band` Hz: computing at f in
    [f_min, f_max], then uploading at max(link_power, p_min) <= p_max, fills the deadline.  The
    energy C cycles f^2 / 2 + t_up p is convex in the upload slot t_up, so the optimum is the
    first slot, from the first that p_max can use, where it stops falling."""
    cycles = job.cycles_per_sample * (job.dataset_size
                                      + (job.epochs - 1) * (job.dataset_size - job.excluded_count))
    hi = deadline - cycles / bounds.f_max_hz
    if hi <= 0.0:
        raise InfeasibleDeadlineError(f"{cycles} cycles do not fit in {deadline} s at f_max")

    def usable(t_up):
        return link_power(job.model_bits, t_up, band, beta) <= bounds.p_max_w

    def rising(t_up):  # dE/dt_up >= 0: C f^3 plus p_min, or plus (band / beta)(expm1(x) - x e^x)
        x = job.model_bits * math.log(2.0) / (t_up * band)
        upload = (bounds.p_min_w if link_power(job.model_bits, t_up, band, beta) <= bounds.p_min_w
                  else band / beta * (math.expm1(x) - x * math.exp(x)))
        return bounds.capacitance * (cycles / (deadline - t_up)) ** 3 + upload >= 0.0

    if not usable(hi):
        raise InfeasiblePowerError(f"p_max cannot upload {job.model_bits} bits in {hi} s")
    lo = max(deadline - cycles / bounds.f_min_hz, 0.0)
    first = lo if lo > 0.0 and usable(lo) else least_float(usable, lo, hi)
    t_up = first if rising(first) else least_float(rising, first, hi)
    f = cycles / (deadline - t_up)
    p = max(link_power(job.model_bits, t_up, band, beta), bounds.p_min_w)
    return ResourcePlan(deadline - t_up, t_up, f, p, band,
                        0.5 * bounds.capacitance * f * f * cycles, t_up * p)


def least_band(bits, t_up, power, beta):
    """The least band on which `power` uploads `bits` in t_up seconds: the rate
    band log2(1 + power beta / band) rises with the band, towards power beta / ln2."""
    band = least_float(lambda b: b * math.log1p(power * beta / b) * t_up >= bits * math.log(2.0),
                       0.0, math.inf)
    if band == math.inf:
        raise InfeasibleBandwidthError(f"no band uploads {bits} bits in {t_up} s at {power} W")
    return band


def run_round(config, trial, r, layers, fleet, data, test, t, cum):
    """Round r from the global model `layers` and the energy `cum` spent before it: its
    record and the next global model."""
    seed, bits = config.seed, model_bits(layers)
    selected = select_workers(fleet, config.select_fraction,
                              substream(seed, DOMAIN_SELECT, trial, r))
    at = () if config.channel_mode == "static" else (r,)
    betas = [gain(config, p, substream(seed, DOMAIN_CHANNEL, trial, p.worker_id, *at))
             for p in selected]
    trained = [local_round(layers, data, p.rows, config.epochs, config.batch_size,
                           config.learning_rate, config.threshold,
                           substream(seed, DOMAIN_TRAIN, trial, p.worker_id, r))
               for p in selected]
    kappas = [len(p.rows) - len(kept) for p, (_, kept) in zip(selected, trained)]
    jobs = [Workload(len(p.rows), kappa, config.epochs, config.cycles_per_sample, bits)
            for p, kappa in zip(selected, kappas)]

    def plan_all(shares):
        plans = []
        for p, job, share, beta in zip(selected, jobs, shares, betas):
            try:
                plans.append(plan(job, t, share, beta, p.bounds))
            except InfeasibleError:  # no operating point meets the deadline
                plans.append(None)
        return plans

    shares = [config.bandwidth_hz / len(selected)] * len(selected)
    plans = plan_all(shares)
    if config.bandwidth_mode == "adaptive":
        # a link at p_min takes only the band it needs; the rest goes to the others pro rata
        shrunk = {}
        for i, (p, pl, beta) in enumerate(zip(selected, plans, betas)):
            if pl is not None and pl.p_w == p.bounds.p_min_w:
                try:
                    shrunk[i] = least_band(bits, pl.t_up_s, pl.p_w, beta)
                except InfeasibleError:  # no finite band uploads in the slot: it keeps its share
                    pass
        kept = sum(s for i, s in enumerate(shares) if i not in shrunk)
        scale = (config.bandwidth_hz - sum(shrunk.values())) / kept if kept else 1.0
        shares = [shrunk.get(i, s * scale) for i, s in enumerate(shares)]
        plans = plan_all(shares)
    updates, stats, spent = [], [], 0.0
    for p, (local, _), kappa, pl, share in zip(selected, trained, kappas, plans, shares):
        delivered = pl is not None and pl.total_energy_j <= p.remaining_energy_j
        if pl is None:  # nothing runs, nothing is spent
            pl = ResourcePlan(0.0, 0.0, 0.0, 0.0, share, 0.0, 0.0)
        elif not delivered:  # the battery dies computing: the upload never starts
            pl = dataclasses.replace(pl, e_cmp_j=min(pl.e_cmp_j, p.remaining_energy_j),
                                     e_up_j=0.0, t_up_s=0.0, p_w=0.0)
        p.remaining_energy_j -= pl.total_energy_j
        spent += pl.total_energy_j
        if delivered:
            updates.append((local, len(p.rows)))
        stats.append(WorkerRoundStats(p.worker_id, kappa, pl, delivered, p.remaining_energy_j))
    layers = fedavg(updates) if updates else layers
    record = RoundRecord(r, *evaluate(layers, test), spent, cum + spent,
                         sum(kappas) / sum(len(p.rows) for p in selected), len(updates),
                         tuple(stats))
    return record, layers


def run(config):
    """Per trial, the round records of config's run, as run_from_config returns them, and
    the fleet that ran them."""
    data = load_dataset(config)
    train, test = split_train_test(data, config.train_fraction, config.seed)
    hidden = config.hidden_width or (32 if config.data_source == "mnist" else 16)
    arch = [data.features.shape[1], hidden, int(data.labels.max()) + 1]
    trials = []
    for trial in range(config.trials):
        fleet = build_workers(config, train, trial)
        layers = init_model(arch, substream(config.seed, DOMAIN_INIT, trial)).layers
        t = config.deadline_s
        t = deadline(config, fleet, trial, model_bits(layers)) if t is None else t
        records = []
        for r in range(1, config.rounds + 1):
            record, layers = run_round(config, trial, r, layers, fleet, train, test, t,
                                       records[-1].cum_energy_j if records else 0.0)
            records.append(record)
        trials.append((records, fleet))
    return trials
