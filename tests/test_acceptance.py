"""End-to-end acceptance checks.

Each test prints exactly one verdict line of the form

    PASS criterion N (name): measured detail

to the real stdout (bypassing capture) so a log of the run always shows the
ten verdicts, then asserts.  Tolerances are part of the contract; do not
loosen them.
"""
import math

import numpy as np
import pytest

from feelsim.channel import beam_and_gain, uplink_rate
from feelsim.federation import default_deadline, run_experiment, select_workers
from feelsim.io_cli import (
    ExperimentConfig,
    build_workers,
    load_dataset,
    run_from_config,
    split_train_test,
)
from feelsim.learning import (
    LabeledDataset,
    ModelParameters,
    filter_samples,
    init_model,
    local_round,
    loss_and_gradient,
    param_bits,
)
from feelsim.resource_optimizer import (
    DeviceBounds,
    Workload,
    computation_energy,
    effective_cycles,
    minimize_round_energy,
    optimal_bandwidth,
    required_power,
    upload_time_bounds,
)
from feelsim.streams import DOMAIN_INIT, DOMAIN_SELECT, DOMAIN_TRAIN, substream
import reference

LN2 = math.log(2.0)

_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    # verdict() wants to print past pytest's capture; stash the handle
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number} ({name}): {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def reference_base(**over):
    """Shared experiment family: small synthetic fleet where compute dominates."""
    base = dict(
        rounds=100, workers=20, trials=1, seed=1, select_fraction=0.1,
        threshold=0.8, epochs=5, batch_size=20, learning_rate=0.05,
        bandwidth_hz=1e6, noise_power_w=1e-12, cycles_per_sample=5e5,
        distance_min_m=10.0, distance_max_m=60.0,
        synthetic_dim=8, synthetic_classes=4, synthetic_samples=4000,
        synthetic_spread=0.3, train_fraction=0.8,
    )
    base.update(over)
    return ExperimentConfig(**base)


BOUNDS = DeviceBounds(f_min_hz=1e9, f_max_hz=9e9, p_min_w=1e-4, p_max_w=0.1,
                      capacitance=2e-28)


def draw_plan_case(rng):
    size = int(rng.integers(200, 2001))
    kappa = int(rng.integers(0, size + 1))
    epochs = int(rng.integers(1, 6))
    w = Workload(size, kappa, epochs, 20.0, 13568)
    rho = effective_cycles(w)
    beta = 10.0 ** rng.uniform(4, 8)
    bw = 10.0 ** rng.uniform(5.5, 6.5)
    t_fast = rho / BOUNDS.f_max_hz
    t_need = w.model_bits / uplink_rate(bw, beta, BOUNDS.p_max_w)
    deadline = t_fast * rng.uniform(1.05, 3.0) + t_need * rng.uniform(1.05, 5.0)
    if required_power(w.model_bits, deadline - t_fast, bw, beta) > BOUNDS.p_max_w:
        return None
    return w, deadline, bw, beta


def test_criterion_01_gradient_check():
    """Backprop against central differences, full small net plus sampled big net."""
    def run_check(arch, batch, seed, coords=None, eps=1e-6):
        rng = np.random.default_rng(seed)
        model = init_model(arch, rng)
        x = rng.normal(size=(batch, arch[0]))
        y = np.eye(arch[-1])[rng.integers(0, arch[-1], size=batch).astype(np.int64)]
        _, grads = loss_and_gradient(model, x, y)
        flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
        if coords is None:
            picks = np.arange(flat.size)
        else:
            picks = np.random.default_rng(seed + 1).choice(flat.size, coords, replace=False)

        sizes = [(w.size, b.size) for w, b in model.layers]

        def loss_with_shift(j, shift):
            layers = []
            pos = 0
            for (w, b), (ws, bs) in zip(model.layers, sizes):
                wn, bn = w.copy(), b.copy()
                if pos <= j < pos + ws:
                    wn.ravel()[j - pos] += shift
                pos += ws
                if pos <= j < pos + bs:
                    bn[j - pos] += shift
                pos += bs
                layers.append((wn, bn))
            shifted = ModelParameters(layers=tuple(layers), architecture=model.architecture)
            loss, _ = loss_and_gradient(shifted, x, y)
            return loss

        worst = 0.0
        for j in picks:
            num = (loss_with_shift(j, eps) - loss_with_shift(j, -eps)) / (2 * eps)
            worst = max(worst, abs(num - flat[j]) / max(abs(num), abs(flat[j]), 1e-8))
        return flat.size, worst

    n_small, err_small = run_check([8, 16, 4], batch=12, seed=101)
    n_big, err_big = run_check([784, 32, 10], batch=16, seed=103, coords=400)
    worst = max(err_small, err_big)
    verdict(1, "gradient check", worst <= 1e-5,
            f"worst rel error {worst:.3e} over {n_small} + 400/{n_big} coords (tol 1e-5)")


def test_criterion_02_plans_match_brute_force():
    """Golden-section operating points against a million-point objective grid."""
    rng = np.random.default_rng(211)
    worst_t, worst_e = 0.0, 0.0
    done = 0
    while done < 100:
        case = draw_plan_case(rng)
        if case is None:
            continue
        w, deadline, bw, beta = case
        plan = minimize_round_energy(w, deadline, bw, beta, BOUNDS)
        win = upload_time_bounds(effective_cycles(w), deadline, BOUNDS)
        ts = np.linspace(win.lo, win.hi, 1_000_001)
        rho = w.cycles_per_sample * (w.epochs * w.dataset_size
                                     - w.excluded_count * (w.epochs - 1))
        f = rho / (deadline - ts)
        e_cmp = 0.5 * BOUNDS.capacitance * f * f * rho
        with np.errstate(over="ignore"):
            p_req = bw * np.expm1(w.model_bits * LN2 / (ts * bw)) / beta
        es = np.where(p_req > BOUNDS.p_max_w, np.inf,
                      e_cmp + ts * np.maximum(p_req, BOUNDS.p_min_w))
        k = int(np.argmin(es))
        worst_t = max(worst_t, abs(plan.t_up_s - ts[k]) / max(ts[k], 1e-12))
        worst_e = max(worst_e, (plan.total_energy_j - es[k]) / es[k])
        done += 1
    ok = worst_t <= 1e-4 and worst_e <= 1e-6
    verdict(2, "plan vs grid", ok,
            f"100 cases: max upload-slot offset {worst_t:.3e} (tol 1e-4), "
            f"max energy excess {worst_e:.3e} (tol 1e-6)")


def test_criterion_03_bandwidth_split_residuals():
    """The bandwidth split must solve its rate equation ln(1 + y) = pi y,
    with y = p beta / B from optimal_bandwidth and pi as it computes it,
    relative to pi y, for pi from 1e-305 up to 1 - 1e-9."""
    bits, t, p = 1, 1.0, 1.0  # keeps beta finite down to pi = 1e-305
    targets = np.concatenate([
        np.geomspace(1e-305, 0.01, 6000),
        np.linspace(0.01, 1.0 - 1e-9, 4000),
    ])
    worst = 0.0
    for target in targets:
        beta = bits * LN2 / (t * p * float(target))
        pi = bits * LN2 / (t * p * beta)
        y = p * beta / optimal_bandwidth(bits, t, p, beta)
        worst = max(worst, abs(math.log1p(y) - pi * y) / (pi * y))
    verdict(3, "bandwidth-split residuals", worst <= 1e-10,
            f"max relative residual {worst:.3e} over {targets.size} values of pi (tol 1e-10)")


def test_criterion_04_beamformer_optimality():
    """On an orthogonal sub-band no unit combiner beats ||h||^2 / N0."""
    rng = np.random.default_rng(401)
    margin = math.inf
    for _ in range(200):
        m = 4
        h = (rng.normal(size=m) + 1j * rng.normal(size=m)) * rng.uniform(0.1, 2.0)
        noise = 10.0 ** rng.uniform(-9, -3)
        beta_star = beam_and_gain(h, noise)

        probes = rng.normal(size=(10_000, m)) + 1j * rng.normal(size=(10_000, m))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        mrc = (h / np.linalg.norm(h))[None, :]
        probes = np.concatenate([probes, mrc])
        gains = np.abs(probes.conj() @ h) ** 2 / noise
        margin = min(margin, beta_star / float(np.max(gains)))
    verdict(4, "beamformer optimality", margin >= 1.0 - 1e-9,
            f"200 instances, 10001 probes each: min gain ratio {margin:.12f}")


def test_criterion_05_link_inversion_and_energy_form():
    """Power-for-deadline inverts the rate law; unfiltered energy is closed form."""
    rng = np.random.default_rng(501)
    worst = 0.0
    done = 0
    while done < 1000:
        bw = 10.0 ** rng.uniform(4, 7)
        beta = 10.0 ** rng.uniform(3, 9)
        bits = int(rng.integers(10_000, 2_000_000))
        t = 10.0 ** rng.uniform(-3, 1)
        p = required_power(bits, t, bw, beta)
        if not math.isfinite(p):
            continue
        worst = max(worst, abs(bits / uplink_rate(bw, beta, p) - t) / t)
        done += 1

    exact = True
    for _ in range(200):
        size = int(rng.integers(1, 5000))
        epochs = int(rng.integers(1, 8))
        phi = float(10.0 ** rng.uniform(0, 6))
        f = 10.0 ** rng.uniform(8, 10)
        alpha = 10.0 ** rng.uniform(-29, -27)
        got = computation_energy(Workload(size, 0, epochs, phi, 13568), f, alpha)
        want = 0.5 * alpha * f * f * (phi * (epochs * size))
        exact = exact and got == want
    ok = worst <= 1e-9 and exact
    verdict(5, "link inversion and energy form", ok,
            f"1000 round trips: max rel error {worst:.3e} (tol 1e-9); "
            f"200 unfiltered energies exactly closed-form: {exact}")


def test_criterion_06_budgeted_protocol_invariants(tmp_path):
    """Non-iid budgeted run: deadline filling, bounds, shares, ledger replay."""
    cfg0 = reference_base(rounds=50, seed=7, partition="noniid", classes_per_worker=2)
    data = load_dataset(cfg0)
    train, _ = split_train_test(data, cfg0.train_fraction, cfg0.seed)
    fleet = build_workers(cfg0, train, 0)
    shard_sizes = {p.worker_id: len(p.rows) for p in fleet}
    deadline = default_deadline(fleet, cfg0, param_bits([8, 16, 4]), 0)
    budget = 0.3
    cfg = reference_base(rounds=50, seed=7, partition="noniid", classes_per_worker=2,
                         deadline_s=deadline, energy_budget_j=budget)
    _, paths = run_from_config(cfg, out_dir=tmp_path / "budgeted", quiet=True)

    wlines = paths["workers"].read_text().splitlines()[1:]
    rows = []
    for line in wlines:
        c = line.split(",")
        rows.append(dict(
            trial=int(c[0]), rnd=int(c[1]), wid=int(c[2]), kappa=int(c[3]),
            e_cmp=float(c[4]), e_up=float(c[5]), t_cmp=float(c[6]), t_up=float(c[7]),
            f=float(c[8]), p=float(c[9]), lam=float(c[10]), feasible=c[11] == "1",
        ))
    assert rows, "no worker rows written"

    for r in rows:
        assert 0 <= r["kappa"] <= shard_sizes[r["wid"]]
        if r["feasible"]:
            assert abs(r["t_cmp"] + r["t_up"] - deadline) <= 1e-9 * deadline
            assert cfg.f_min_hz * (1 - 1e-9) <= r["f"] <= cfg.f_max_hz * (1 + 1e-9)
            assert cfg.p_min_w <= r["p"] <= cfg.p_max_w
    by_round: dict[int, float] = {}
    for r in rows:
        by_round[r["rnd"]] = by_round.get(r["rnd"], 0.0) + r["lam"]
    assert all(v <= 1.0 + 1e-12 for v in by_round.values())

    n_feas = n_partial = n_zero = 0
    remaining = {wid: budget for wid in shard_sizes}
    for r in rows:  # rows are written in round order
        before = remaining[r["wid"]]
        cost = r["e_cmp"] + r["e_up"]
        if r["feasible"]:
            assert cost <= before * (1 + 1e-9) + 1e-15
            n_feas += 1
        else:
            assert r["e_up"] == 0.0 and r["t_up"] == 0.0 and r["p"] == 0.0
            assert r["e_cmp"] <= before * (1 + 1e-9) + 1e-15
            if r["e_cmp"] > 0.0:
                n_partial += 1
            else:
                n_zero += 1
        remaining[r["wid"]] = before - cost
        assert remaining[r["wid"]] >= -1e-12

    glines = paths["global"].read_text().splitlines()[1:]
    cums = [float(l.split(",")[4]) for l in glines]
    monotone = all(b >= a - 1e-15 for a, b in zip(cums, cums[1:]))
    ok = monotone and n_feas > 0 and n_partial > 0 and n_zero > 0
    verdict(6, "budgeted protocol invariants", ok,
            f"{len(rows)} rows replayed: {n_feas} delivered, {n_partial} partial, "
            f"{n_zero} exhausted; deadline/bounds/share/ledger all hold")


def test_criterion_07_reduces_to_plain_fedavg():
    """Threshold 1.0 must reproduce plain FedAvg bit for bit: each selected worker's SGD
    epochs and the size-weighted average as tests/reference.py codes them apart."""
    cfg = reference_base(rounds=20, seed=3, threshold=1.0)
    data = load_dataset(cfg)
    train, test = split_train_test(data, cfg.train_fraction, cfg.seed)
    fleet = build_workers(cfg, train, 0)
    records, final_model = run_experiment(fleet, train, test, [8, 16, 4], cfg, trial=0)
    assert all(r.n_updates == len(r.worker_stats) for r in records), \
        "a worker missed the deadline; equivalence run must be drop-free"

    glob = init_model([8, 16, 4], substream(cfg.seed, DOMAIN_INIT, 0)).layers
    k = len(fleet)
    n_sel = min(k, max(1, math.ceil(cfg.select_fraction * k)))
    for rnd in range(1, cfg.rounds + 1):
        chosen = substream(cfg.seed, DOMAIN_SELECT, 0, rnd).choice(k, n_sel, replace=False)
        glob = reference.fedavg([
            (reference.sgd(glob, train, fleet[wid].rows, cfg.epochs,
                           cfg.batch_size, cfg.learning_rate,
                           substream(cfg.seed, DOMAIN_TRAIN, 0, wid, rnd)),
             len(fleet[wid].rows))
            for wid in sorted(chosen.tolist())])

    pairs = [(a, b) for got, want in zip(glob, final_model.layers) for a, b in zip(got, want)]
    diff = max(float(np.max(np.abs(a - b))) for a, b in pairs)
    verdict(7, "plain aggregation equivalence", all(np.array_equal(a, b) for a, b in pairs),
            f"20 rounds, max parameter difference {diff:.3e} (must be 0)")


def test_criterion_08_filtering_saves_energy(tmp_path):
    """Paired runs: confident-sample filtering must cut energy without hurting accuracy."""
    filt, _ = run_from_config(reference_base(threshold=0.8),
                              out_dir=tmp_path / "filtered", quiet=True)
    plain, _ = run_from_config(reference_base(threshold=1.0),
                               out_dir=tmp_path / "plain", quiet=True)
    f, p = filt[0], plain[0]
    savings = 1.0 - f[-1].cum_energy_j / p[-1].cum_energy_j
    acc_gap = abs(f[-1].test_accuracy - p[-1].test_accuracy)
    ramp = f[-1].excluded_fraction > f[4].excluded_fraction
    ok = savings >= 0.30 and acc_gap <= 0.02 and ramp
    verdict(8, "filtering energy savings", ok,
            f"energy saved {savings:.1%} (need >= 30%), accuracy gap {acc_gap:.4f} "
            f"(tol 0.02), exclusion ramp {f[4].excluded_fraction:.3f} -> "
            f"{f[-1].excluded_fraction:.3f}")


def test_criterion_09_threshold_nesting():
    """On a trained model, lowering the threshold only removes samples."""
    rng = np.random.default_rng(901)
    y = np.tile(np.arange(4), 200)[rng.permutation(800)].astype(np.int64)
    x = rng.normal(size=(800, 8)) * 0.3
    x[np.arange(800), y] += 1.0
    data = LabeledDataset(x, y)
    model = init_model([8, 16, 4], np.random.default_rng(902))
    train_rng = np.random.default_rng(903)
    for _ in range(15):
        (model,), _ = local_round(model, data, [range(len(data))], epochs=1, batch_size=32,
                                  lr=0.05, threshold=1.0, rng=[train_rng])

    prev: set | None = None
    counts = []
    nested = True
    for th in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        dec = filter_samples(model, data, th)
        counts.append(dec.excluded_count)
        cur = set(dec.included_indices.tolist())
        if prev is not None and not (prev <= cur):
            nested = False
        prev = cur
    ok = nested and counts[-1] == 0 and counts[0] > 0
    verdict(9, "threshold nesting", ok,
            f"excluded counts over thresholds 0.5..1.0: {counts} (monotone, 0 at 1.0)")


def test_criterion_10_stack_split_byte_identity():
    """A worker's bytes must not depend on which others share its stack.

    Round 10's scheduled workers, after 9 rounds in which the filter starts to
    drop samples, trained by local_round as 1, 2 and 4 contiguous groups (group
    c of g is workers [n c // g, n (c + 1) // g)): every model and filter
    decision must match the single call's byte for byte.
    """
    cfg = reference_base(rounds=9, seed=11, select_fraction=0.4, epochs=3,
                         synthetic_samples=2000)
    train, test = split_train_test(load_dataset(cfg), cfg.train_fraction, cfg.seed)
    fleet = build_workers(cfg, train, trial=0)
    _, model = run_experiment(fleet, train, test, [8, 16, 4], cfg)
    selected = select_workers(fleet, cfg.select_fraction,
                              substream(cfg.seed, DOMAIN_SELECT, 0, 10))
    n = len(selected)

    def train_in(groups: int) -> list[tuple[bytes, bytes, int]]:
        out = []
        for c in range(groups):
            group = selected[n * c // groups : n * (c + 1) // groups]
            models, decisions = local_round(
                model, train, [p.rows for p in group], cfg.epochs, cfg.batch_size,
                cfg.learning_rate, cfg.threshold,
                [substream(cfg.seed, DOMAIN_TRAIN, 0, p.worker_id, 10) for p in group])
            out += [(b"".join(a.tobytes() for layer in m.layers for a in layer),
                     d.included_indices.tobytes(), d.excluded_count)
                    for m, d in zip(models, decisions)]
        return out

    single = train_in(1)
    dropped = sum(kappa for *_, kappa in single)
    ok = n == 8 and dropped > 0 and train_in(2) == single and train_in(4) == single
    verdict(10, "stack-split byte identity", ok,
            f"models and filter decisions of {n} workers ({dropped} samples dropped) "
            f"identical as 1, 2 and 4 stacks: {ok}")
