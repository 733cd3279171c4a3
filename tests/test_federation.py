import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feelsim import federation
from feelsim.federation import (
    ExperimentState,
    WorkerProfile,
    default_deadline,
    partition_iid,
    partition_noniid,
    run_experiment,
    run_round,
    select_workers,
)
from feelsim.io_cli import (
    ExperimentConfig,
    build_workers,
    load_config,
    load_dataset,
    run_from_config,
    split_train_test,
)
from feelsim.learning import LabeledDataset, init_model, local_round, param_bits
from feelsim.resource_optimizer import DeviceBounds
from feelsim.streams import DOMAIN_INIT, DOMAIN_SELECT, substream
from helpers import joined

BOUNDS = DeviceBounds(f_min_hz=1e9, f_max_hz=9e9, p_min_w=1e-4, p_max_w=0.1,
                      capacitance=2e-28)
ARCH = [8, 16, 4]


def make_dataset(n=600, dim=8, classes=4, seed=900, tag_ids=False):
    rng = np.random.default_rng(seed)
    y = np.tile(np.arange(classes), n // classes + 1)[:n]
    y = y[rng.permutation(n)].astype(np.int64)
    x = rng.normal(size=(n, dim)) * 0.4
    x[np.arange(n), y % dim] += 1.5
    if tag_ids:
        x[:, -1] = np.arange(n)  # unique id per row, for shard bookkeeping
    return LabeledDataset(x, y)


def fast_config(**over):
    base = dict(select_fraction=1.0, threshold=0.7, epochs=2, batch_size=32,
                learning_rate=0.05, bandwidth_hz=1e6, noise_power_w=1e-12,
                cycles_per_sample=5e5, antennas=4)
    base.update(over)
    return ExperimentConfig(**base)


def make_fleet(k=6, n=600, seed=900, budgets=None, dist=(10.0, 60.0)):
    data = make_dataset(n=n, seed=seed)
    train, shards = joined([data.take(p) for p in
                            partition_iid(data, k, np.random.default_rng(seed + 1))])
    rng = np.random.default_rng(seed + 2)
    fleet = []
    for i, shard in enumerate(shards):
        fleet.append(WorkerProfile(
            worker_id=i, rows=shard, bounds=BOUNDS,
            distance_m=float(rng.uniform(*dist)),
            los_angle=float(rng.uniform(-math.pi / 2, math.pi / 2)),
            remaining_energy_j=math.inf if budgets is None else budgets[i],
        ))
    return fleet, train


TEST_DATA = make_dataset(n=200, seed=901)


def contiguous_groups(k):
    """Split n workers into k contiguous groups: group c is [n c // k, n (c + 1) // k)."""
    def groups(n):
        cuts = [n * c // k for c in range(k + 1)]
        return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return groups


def split_training(groups):
    """A local_round that trains each of groups(n) of the n workers in its own call, on a
    fresh stack of its own: the trial's stack run_round passes is not used."""
    def train(model, data, shards, epochs, batch_size, lr, threshold, rng, stack=None):
        models, decisions = [None] * len(shards), [None] * len(shards)
        for group in groups(len(shards)):
            trained = local_round(model, data, [shards[i] for i in group], epochs, batch_size,
                                  lr, threshold, [rng[i] for i in group])
            for i, m, d in zip(group, *trained):
                models[i], decisions[i] = m, d
        return models, decisions
    return train


def assert_models_equal(a, b):
    assert a.architecture == b.architecture
    for (w1, b1), (w2, b2) in zip(a.layers, b.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)


class TestPartitionIid:
    def test_sizes_cover_disjoint(self):
        data = make_dataset(n=803, tag_ids=True)
        shards = [data.take(p) for p in partition_iid(data, 7, np.random.default_rng(10))]
        sizes = [len(s) for s in shards]
        assert sum(sizes) == 803
        assert max(sizes) - min(sizes) <= 1
        ids = np.concatenate([s.features[:, -1] for s in shards])
        assert np.array_equal(np.sort(ids), np.arange(803))

    @pytest.mark.parametrize("n, k", [(803, 7), (50, 50), (9, 4), (12, 3), (5, 1)])
    def test_shards_are_slices_of_one_permutation(self, n, k):
        # shard i is the next slice of rng.permutation(n), in order, and exactly the
        # first n % k shards are one row longer
        data = make_dataset(n=n)
        shards = partition_iid(data, k, np.random.default_rng(20))
        perm = np.random.default_rng(20).permutation(n)
        assert np.array_equal(np.concatenate(shards), perm)
        assert [len(s) for s in shards] == [n // k + (i < n % k) for i in range(k)]

    def test_label_mix_near_hypergeometric(self):
        data = make_dataset(n=800, classes=4)
        shards = [data.take(p) for p in partition_iid(data, 4, np.random.default_rng(11))]
        for shard in shards:
            s = len(shard)
            for cls in range(4):
                m = int(np.sum(data.labels == cls))
                mean = s * m / 800
                var = s * (m / 800) * (1 - m / 800) * (800 - s) / 799
                got = int(np.sum(shard.labels == cls))
                assert abs(got - mean) <= 4 * math.sqrt(var) + 1

    def test_errors(self):
        data = make_dataset(n=50)
        with pytest.raises(ValueError):
            partition_iid(data, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            partition_iid(data, 51, np.random.default_rng(0))


class TestPartitionNoniid:
    def test_each_worker_sees_exact_class_count(self):
        data = make_dataset(n=1000, classes=10)
        shards = [data.take(p) for p in
                  partition_noniid(data, 20, np.random.default_rng(12), classes_per_worker=2)]
        assert len(shards) == 20
        for shard in shards:
            assert np.unique(shard.labels).size == 2
        # every class is used somewhere
        seen = set()
        for shard in shards:
            seen.update(np.unique(shard.labels).tolist())
        assert seen == set(range(10))

    def test_cover_disjoint(self):
        data = make_dataset(n=1000, classes=10, tag_ids=False, seed=902)
        # tag ids without clobbering the class hint column
        feats = data.features.copy()
        ids = np.arange(1000.0)
        feats = np.concatenate([feats, ids[:, None]], axis=1)
        data = LabeledDataset(feats, data.labels)
        shards = [data.take(p) for p in
                  partition_noniid(data, 20, np.random.default_rng(13), classes_per_worker=2)]
        got = np.concatenate([s.features[:, -1] for s in shards])
        assert np.array_equal(np.sort(got), ids)

    def test_single_ownership_when_slots_equal_classes(self):
        # 5 workers x 2 classes over 10 classes: each class lives on one worker
        data = make_dataset(n=1000, classes=10, seed=903)
        shards = [data.take(p) for p in
                  partition_noniid(data, 5, np.random.default_rng(14), classes_per_worker=2)]
        owners: dict[int, int] = {}
        for w, shard in enumerate(shards):
            for cls in np.unique(shard.labels).tolist():
                assert cls not in owners
                owners[cls] = w
        assert len(owners) == 10
        # single owner means the full class transfers
        for cls, w in owners.items():
            assert np.sum(shards[w].labels == cls) == np.sum(data.labels == cls)

    def test_errors(self):
        data = make_dataset(n=100, classes=4)
        with pytest.raises(ValueError):
            partition_noniid(data, 4, np.random.default_rng(0), classes_per_worker=0)
        with pytest.raises(ValueError):
            partition_noniid(data, 4, np.random.default_rng(0), classes_per_worker=5)
        # a class with fewer samples than shard slots cannot be dealt
        y = np.array([0] * 98 + [1] * 2, dtype=np.int64)
        scarce = LabeledDataset(np.zeros((100, 3)), y)
        with pytest.raises(ValueError):
            partition_noniid(scarce, 50, np.random.default_rng(0), classes_per_worker=1)

    @pytest.mark.parametrize("k", [0, 101])
    def test_shard_count_outside_one_to_n(self, k):
        with pytest.raises(ValueError, match=r"need 1 <= k <= 100 shards"):
            partition_noniid(make_dataset(n=100), k, np.random.default_rng(0))

    @pytest.mark.parametrize("n, classes, k, per_worker", [
        (1000, 10, 20, 2),  # every class on 4 workers
        (997, 10, 7, 3),  # 21 slots: one class on 3 workers, the rest on 2, uneven counts
        (600, 4, 3, 1),  # 3 slots for 4 classes: one class left out
        (600, 10, 2, 3),  # 6 slots for 10 classes: four left out
        (600, 4, 1, 4),  # one worker holds every class
    ])
    def test_matches_the_plain_deal(self, n, classes, k, per_worker):
        # the deal restated as a loop: slot i holds the (i mod c)-th class of one shuffle,
        # each class's shuffled rows split over its slots and handed out in slot order
        data = make_dataset(n=n, classes=classes, seed=n)
        rng, ref_rng = np.random.default_rng(n + k), np.random.default_rng(n + k)
        got = partition_noniid(data, k, rng, classes_per_worker=per_worker)
        cycle = np.unique(data.labels)[ref_rng.permutation(classes)].tolist()
        deal = [cycle[i % classes] for i in range(k * per_worker)]
        chunks = {cls: list(np.array_split(ref_rng.permutation(np.flatnonzero(data.labels == cls)),
                                           deal.count(cls)))
                  for cls in sorted(set(deal))}
        want = [np.concatenate([chunks[cls].pop(0) for cls in deal[w * per_worker:][:per_worker]])
                for w in range(k)]
        assert len(got) == k and all(np.array_equal(a, b) for a, b in zip(got, want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # classes past the end of the deal reach no worker
        held = np.unique(data.labels[np.concatenate(got)])
        assert held.size == min(classes, k * per_worker)


class TestSelectWorkers:
    def test_count_and_order(self):
        fleet, _ = make_fleet(k=10)
        got = select_workers(fleet, 0.25, np.random.default_rng(15))
        assert len(got) == 3  # ceil(2.5)
        ids = [p.worker_id for p in got]
        assert ids == sorted(set(ids))

    def test_full_fraction_selects_everyone(self):
        fleet, _ = make_fleet(k=6)
        got = select_workers(fleet, 1.0, np.random.default_rng(16))
        assert [p.worker_id for p in got] == list(range(6))

    def test_near_uniform_over_many_draws(self):
        fleet, _ = make_fleet(k=10)
        rng = np.random.default_rng(17)
        counts = np.zeros(10)
        for _ in range(2000):
            for p in select_workers(fleet, 0.2, rng):
                counts[p.worker_id] += 1
        # each slot: mean 400, sd ~17.9
        assert np.all(np.abs(counts - 400) <= 4 * math.sqrt(2000 * 0.2 * 0.8))

    def test_errors(self):
        fleet, _ = make_fleet(k=4)
        with pytest.raises(ValueError):
            select_workers(fleet, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            select_workers([], 0.5, np.random.default_rng(0))


class TestDefaultDeadline:
    def test_positive_finite_deterministic(self):
        fleet, _ = make_fleet()
        cfg = fast_config()
        bits = param_bits(ARCH)
        a = default_deadline(fleet, replace(cfg, seed=21), bits, trial=0)
        b = default_deadline(fleet, replace(cfg, seed=21), bits, trial=0)
        assert a == b
        assert 0.0 < a < math.inf

    def test_sensitive_to_seed(self):
        fleet, _ = make_fleet()
        cfg = fast_config()
        bits = param_bits(ARCH)
        a = default_deadline(fleet, replace(cfg, seed=21), bits, trial=0)
        b = default_deadline(fleet, replace(cfg, seed=22), bits, trial=0)
        assert a != b

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            default_deadline([], fast_config(), 1000, trial=0)

    def test_bounded_and_smooth_in_fleet_size(self):
        # each worker uploads on its own share of the band, so scheduling more
        # of them must not stretch the round by orders of magnitude
        preset = load_config(Path(__file__).resolve().parent.parent / "configs"
                             / "synthetic_filtered.json")
        preset = replace(preset, seed=1)
        train, _ = split_train_test(load_dataset(preset), preset.train_fraction, 1)
        bits = param_bits([preset.synthetic_dim, 16, preset.synthetic_classes])
        deadlines = []
        for k in (20, 30, 40, 50, 100, 200, 400):
            cfg = replace(preset, workers=k)
            deadlines.append(default_deadline(build_workers(cfg, train, 0), cfg, bits, 0))
        assert all(d < 1.0 for d in deadlines), deadlines
        assert all(max(a, b) < 2.0 * min(a, b) for a, b in zip(deadlines, deadlines[1:])), deadlines

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the planner's t_cmp_s = deadline - t_up_s keeps only a few digits at a derived "
        "deadline of 3.9e7 s, so a delivered f_cmp_hz falls about 1.1e-8 below f_min; "
        "ROADMAP item 18"))
    def test_long_derived_deadline_keeps_clocks_in_the_envelope(self, tmp_path):
        # workers 15-30 km out: the weakest link stretches the derived deadline to 3.9e7 s
        preset = load_config(Path(__file__).resolve().parent.parent / "configs"
                             / "synthetic_filtered.json")
        cfg = replace(preset, rounds=5, seed=1, distance_min_m=15_000.0, distance_max_m=30_000.0)
        _, paths = run_from_config(cfg, out_dir=tmp_path, quiet=True)
        with paths["workers"].open(newline="") as fh:
            clocks = [float(r["f_cmp_hz"]) for r in csv.DictReader(fh) if r["feasible"] == "1"]
        assert clocks
        # bench/checks.py's relative tolerance
        assert min(clocks) >= cfg.f_min_hz * (1.0 - 1e-9), min(clocks) / cfg.f_min_hz - 1.0


class TestRunRound:
    def test_needs_resolved_deadline(self):
        fleet, train = make_fleet()
        state = ExperimentState(model=None, workers=fleet, train_data=train, test_data=TEST_DATA)
        with pytest.raises(ValueError):
            run_round(state, fast_config(), 1)

    def test_protocol_invariants(self):
        fleet, train = make_fleet()
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, fast_config(rounds=3, seed=23))
        cfg = fast_config()
        prev_cum = 0.0
        for rec in records:
            assert rec.n_updates == sum(1 for s in rec.worker_stats if s.feasible)
            shares = [s.charged.bandwidth_hz / cfg.bandwidth_hz for s in rec.worker_stats]
            assert sum(shares) <= 1.0 + 1e-12
            total_kappa = sum(s.kappa for s in rec.worker_stats)
            total_data = sum(len(fleet[s.worker_id].rows) for s in rec.worker_stats)
            assert rec.excluded_fraction == pytest.approx(total_kappa / total_data, abs=1e-15)
            assert rec.inst_energy_j == pytest.approx(
                sum(s.charged.e_cmp_j + s.charged.e_up_j for s in rec.worker_stats), rel=1e-12)
            assert rec.cum_energy_j == pytest.approx(prev_cum + rec.inst_energy_j, rel=1e-12)
            prev_cum = rec.cum_energy_j
            for s in rec.worker_stats:
                assert 0 <= s.kappa <= len(fleet[s.worker_id].rows)
                if s.feasible:
                    assert s.charged.e_cmp_j > 0.0 and s.charged.e_up_j > 0.0
                    f_hz = s.charged.f_hz
                    assert BOUNDS.f_min_hz * (1 - 1e-9) <= f_hz <= BOUNDS.f_max_hz * (1 + 1e-9)
                    assert BOUNDS.p_min_w <= s.charged.p_w <= BOUNDS.p_max_w
        assert any(rec.n_updates > 0 for rec in records)

    def test_feasible_rows_fill_deadline_exactly(self):
        fleet, train = make_fleet()
        cfg = fast_config(seed=23)
        bits = param_bits(ARCH)
        deadline = default_deadline(fleet, cfg, bits, trial=0)
        cfg = fast_config(deadline_s=deadline, rounds=3, seed=23)
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, cfg)
        checked = 0
        for rec in records:
            for s in rec.worker_stats:
                if s.feasible:
                    assert abs(s.charged.t_cmp_s + s.charged.t_up_s - deadline) <= 1e-9 * deadline
                    checked += 1
        assert checked > 0

    def test_adaptive_bandwidth_caps_total_share(self):
        fleet, train = make_fleet()
        cfg = fast_config(bandwidth_mode="adaptive", rounds=2, seed=29)
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, cfg)
        for rec in records:
            shares = [s.charged.bandwidth_hz / cfg.bandwidth_hz for s in rec.worker_stats]
            assert sum(shares) <= 1.0 + 1e-12
            assert rec.n_updates > 0

    def test_adaptive_bandwidth_shrinks_only_padded_links(self):
        # a link padded up to p_min needs less than its equal share and gives
        # the rest to the other links, so the whole band stays in use and no
        # worker spends more than it would on an equal share; a 0.5 s deadline
        # pads some of this fleet's links
        records = {}
        for mode in ("equal", "adaptive"):
            cfg = fast_config(bandwidth_mode=mode, rounds=2, deadline_s=0.5, seed=29)
            records[mode], _ = run_experiment(*make_fleet(), TEST_DATA, ARCH, cfg)
        padded = 0
        for eq, ad in zip(records["equal"], records["adaptive"]):
            shares = [s.charged.bandwidth_hz / cfg.bandwidth_hz for s in ad.worker_stats]
            assert sum(shares) == pytest.approx(1.0, rel=1e-12)
            for s_eq, s_ad in zip(eq.worker_stats, ad.worker_stats):
                assert s_eq.feasible and s_ad.feasible
                e_eq, e_ad = s_eq.charged.total_energy_j, s_ad.charged.total_energy_j
                assert e_ad <= e_eq * (1 + 1e-12)
                if s_eq.charged.p_w == BOUNDS.p_min_w:
                    assert s_ad.charged.bandwidth_hz < (1 - 1e-6) * s_eq.charged.bandwidth_hz
                    padded += 1
                else:
                    assert s_ad.charged.bandwidth_hz > (1 + 1e-6) * s_eq.charged.bandwidth_hz
        assert padded > 0

    def test_learning_actually_progresses(self):
        fleet, train = make_fleet()
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, fast_config(rounds=6, seed=31))
        assert records[-1].test_accuracy > records[0].test_accuracy
        assert records[-1].test_loss < records[0].test_loss


class TestEnergyLedger:
    def probe_round_one(self, seed=37):
        fleet, train = make_fleet()
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH,
                                    fast_config(rounds=1, seed=seed))
        return records[0]

    def test_partial_compute_charge_then_dead(self):
        ref = self.probe_round_one()
        target = next(s for s in ref.worker_stats if s.feasible)
        budget = 0.5 * target.charged.e_cmp_j
        budgets = [math.inf] * 6
        budgets[target.worker_id] = budget
        fleet, train = make_fleet(budgets=budgets)
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, fast_config(rounds=1, seed=37))
        s = next(x for x in records[0].worker_stats if x.worker_id == target.worker_id)
        assert not s.feasible
        assert s.charged.e_cmp_j == pytest.approx(budget, rel=1e-12)
        assert s.charged.e_up_j == 0.0 and s.charged.t_up_s == 0.0 and s.charged.p_w == 0.0
        assert s.remaining_energy_j == pytest.approx(0.0, abs=1e-18)
        assert records[0].n_updates == ref.n_updates - 1

    def test_compute_affordable_upload_not(self):
        ref = self.probe_round_one()
        target = next(s for s in ref.worker_stats if s.feasible)
        budget = target.charged.e_cmp_j + 0.5 * target.charged.e_up_j
        budgets = [math.inf] * 6
        budgets[target.worker_id] = budget
        fleet, train = make_fleet(budgets=budgets)
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, fast_config(rounds=1, seed=37))
        s = next(x for x in records[0].worker_stats if x.worker_id == target.worker_id)
        assert not s.feasible
        assert s.charged.e_cmp_j == pytest.approx(target.charged.e_cmp_j, rel=1e-12)
        assert s.charged.e_up_j == 0.0
        assert s.remaining_energy_j == pytest.approx(0.5 * target.charged.e_up_j, rel=1e-9)

    def test_exact_budget_still_delivers(self):
        ref = self.probe_round_one()
        target = next(s for s in ref.worker_stats if s.feasible)
        budget = target.charged.e_cmp_j + target.charged.e_up_j
        budgets = [math.inf] * 6
        budgets[target.worker_id] = budget
        fleet, train = make_fleet(budgets=budgets)
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, fast_config(rounds=1, seed=37))
        s = next(x for x in records[0].worker_stats if x.worker_id == target.worker_id)
        assert s.feasible
        assert s.remaining_energy_j == pytest.approx(0.0, abs=1e-15)
        assert records[0].n_updates == ref.n_updates

    def test_remaining_never_negative_under_starvation(self):
        fleet, train = make_fleet(budgets=[1e-6] * 6)
        records, _ = run_experiment(fleet, train, TEST_DATA, ARCH, fast_config(rounds=4, seed=41))
        for rec in records:
            for s in rec.worker_stats:
                assert s.remaining_energy_j >= 0.0
        # once everyone is dead the charged energy stays flat
        assert records[-1].inst_energy_j == 0.0
        assert records[-1].n_updates == 0

    @pytest.mark.parametrize("bandwidth_mode", ["equal", "adaptive"])
    def test_unplannable_worker_is_charged_nothing(self, bandwidth_mode):
        # 1 ms is below every worker's compute floor at f_max (>= 5.5 ms), so
        # each plan raises InfeasibleDeadlineError
        budgets = [0.5 + 0.1 * i for i in range(6)]
        fleet, train = make_fleet(budgets=budgets)
        cfg = fast_config(deadline_s=1e-3, rounds=2, bandwidth_mode=bandwidth_mode, seed=67)
        records, model = run_experiment(fleet, train, TEST_DATA, ARCH, cfg)
        for rec in records:
            assert rec.n_updates == 0
            assert rec.inst_energy_j == 0.0
            assert len(rec.worker_stats) == 6
            for s in rec.worker_stats:
                assert not s.feasible
                c = s.charged
                assert (c.e_cmp_j, c.e_up_j, c.t_cmp_s, c.t_up_s, c.f_hz, c.p_w) == (0.0,) * 6
                assert c.bandwidth_hz / cfg.bandwidth_hz == pytest.approx(1.0 / 6, rel=1e-15)
                assert s.remaining_energy_j == budgets[s.worker_id]
        assert [p.remaining_energy_j for p in fleet] == budgets
        assert records[-1].cum_energy_j == 0.0
        assert_models_equal(model, init_model(ARCH, substream(67, DOMAIN_INIT, 0)))


class TestRoundSchedule:
    """run_round draws a trial's round streams a window of rounds at a time: which rounds
    ran before on the state, and where a window ends, must not change what a round draws."""

    MODEL = init_model(ARCH, substream(0, DOMAIN_INIT, 0))

    @staticmethod
    def config(**over):
        cfg = fast_config(rounds=3, select_fraction=0.35, seed=83, **over)
        return replace(cfg, deadline_s=default_deadline(make_fleet(k=7)[0], cfg,
                                                        param_bits(ARCH), 0))

    def each_from_one_model(self, state, cfg, order):
        """Each round in order run on state from MODEL; its record without the running
        energy total, which depends on the order."""
        out = {}
        for r in order:
            state.model = self.MODEL
            out[r] = replace(run_round(state, cfg, r), cum_energy_j=0.0)
        return out

    def state(self, **fleet):
        return ExperimentState(None, *make_fleet(**{"k": 7, **fleet}), TEST_DATA)

    def test_round_order_does_not_change_a_round(self):
        cfg = self.config()
        in_order = self.each_from_one_model(self.state(), cfg, (1, 2, 3))
        assert self.each_from_one_model(self.state(), cfg, (3, 1, 2)) == in_order
        fleet = make_fleet(k=7)[0]
        picked = [[s.worker_id for s in rec.worker_stats] for rec in in_order.values()]
        assert len(set(map(tuple, picked))) > 1
        for r, ids in zip(in_order, picked):  # the selection substream gives
            chosen = select_workers(fleet, cfg.select_fraction,
                                    substream(cfg.seed, DOMAIN_SELECT, 0, r))
            assert ids == [p.worker_id for p in chosen]

    def test_rounds_past_config_rounds_match_a_longer_run(self):
        cfg = self.config()
        longer, _ = run_experiment(*make_fleet(k=7), TEST_DATA, ARCH, replace(cfg, rounds=5))
        state = ExperimentState(init_model(ARCH, substream(cfg.seed, DOMAIN_INIT, 0)),
                                *make_fleet(k=7), TEST_DATA)
        assert [run_round(state, cfg, r) for r in range(1, 6)] == longer

    @pytest.mark.parametrize("channel_mode", ["block", "static"])
    @pytest.mark.parametrize("window, firsts", [(7, [1, 2, 3, 4, 5]), (15, [1, 3, 5]),
                                                (21, [1, 4])])
    def test_window_boundaries_do_not_change_results(self, monkeypatch, channel_mode,
                                                     window, firsts):
        # 3 of 7 scheduled: 7 streams a round, so windows of 1, 2 and 3 rounds
        cfg = self.config(channel_mode=channel_mode)
        cfg = replace(cfg, rounds=5)
        drawn = []
        draw = federation._Schedule.draw

        def recording(schedule, config, first):
            drawn.append(first)
            draw(schedule, config, first)

        monkeypatch.setattr(federation._Schedule, "draw", recording)
        ra, ma = run_experiment(*make_fleet(k=7), TEST_DATA, ARCH, cfg)
        assert drawn == [1]
        monkeypatch.setattr(federation, "_WINDOW_STREAMS", window)
        rb, mb = run_experiment(*make_fleet(k=7), TEST_DATA, ARCH, cfg)
        assert drawn == [1, *firsts]
        assert_models_equal(ma, mb)
        assert ra == rb

    # another fraction schedules 5 of 7 workers, not 3: the trial's stack is rebuilt too
    @pytest.mark.parametrize("change", [dict(seed=84), dict(channel_mode="static"),
                                        dict(select_fraction=0.6)])
    def test_reused_state_is_redrawn_for_another_config(self, change):
        cfg = self.config()
        state = self.state()
        self.each_from_one_model(state, cfg, (1,))
        reused = self.each_from_one_model(state, replace(cfg, **change), (2,))
        assert reused == self.each_from_one_model(self.state(), replace(cfg, **change), (2,))
        assert reused != self.each_from_one_model(self.state(), cfg, (2,))

    def test_reused_state_is_redrawn_for_another_fleet(self):
        cfg = self.config()
        # 5 workers schedule 2 a round, not 3: the trial's stack is rebuilt too
        for fleet in (dict(dist=(60.0, 90.0)), dict(k=5)):
            state = self.state()
            self.each_from_one_model(state, cfg, (1,))
            state.workers, state.train_data = make_fleet(**{"k": 7, **fleet})
            reused = self.each_from_one_model(state, cfg, (2,))
            assert reused == self.each_from_one_model(self.state(**fleet), cfg, (2,))
            assert reused != self.each_from_one_model(self.state(), cfg, (2,))

    def test_reused_state_replans_for_another_batch_size(self):
        # the trial's stack keeps the plans of its last passes: round 2 at batch 13, on a
        # state whose round 1 trained at batch 20 on the same shards, must train as a
        # fresh schedule does
        cfg = replace(load_config(Path(__file__).resolve().parent.parent / "configs"
                                  / "synthetic_filtered.json"), seed=1)
        train, test = split_train_test(load_dataset(cfg), cfg.train_fraction, cfg.seed)
        arch = [train.features.shape[1], 16, int(train.labels.max()) + 1]
        cfg = replace(cfg, deadline_s=default_deadline(build_workers(cfg, train, 0), cfg,
                                                       param_bits(arch), 0))
        states = [ExperimentState(init_model(arch, substream(1, DOMAIN_INIT, 0)),
                                  build_workers(cfg, train, 0), train, test) for _ in range(2)]
        for state in states:
            run_round(state, replace(cfg, batch_size=20), 1)
        reused, fresh = states
        fresh.schedule = None
        cfg = replace(cfg, batch_size=13)
        assert run_round(reused, cfg, 2) == run_round(fresh, cfg, 2)


class TestDeterminism:
    def test_identical_runs_match_bit_for_bit(self):
        ra, ma = run_experiment(*make_fleet(), TEST_DATA, ARCH, fast_config(rounds=3, seed=43))
        rb, mb = run_experiment(*make_fleet(), TEST_DATA, ARCH, fast_config(rounds=3, seed=43))
        assert_models_equal(ma, mb)
        for a, b in zip(ra, rb):
            assert a.test_loss == b.test_loss
            assert a.test_accuracy == b.test_accuracy
            assert a.inst_energy_j == b.inst_energy_j
            assert a.worker_stats == b.worker_stats

    def test_contiguous_stacks_do_not_change_results(self, monkeypatch):
        ra, ma = run_experiment(*make_fleet(), TEST_DATA, ARCH, fast_config(rounds=3, seed=47))
        monkeypatch.setattr(federation, "local_round", split_training(contiguous_groups(4)))
        rb, mb = run_experiment(*make_fleet(), TEST_DATA, ARCH, fast_config(rounds=3, seed=47))
        assert_models_equal(ma, mb)
        assert ra == rb

    def test_chunking_does_not_change_results(self, monkeypatch):
        # label-skewed shards of unequal size, all 7 scheduled, trained as
        # 1, 2 or 3 contiguous stacks or as even and odd workers
        data = make_dataset(n=602, seed=905)
        shards = [data.take(p) for p in partition_noniid(data, 7, np.random.default_rng(906))]
        assert len({len(shard) for shard in shards}) > 1
        runs = []
        for groups in (*map(contiguous_groups, (1, 2, 3)),
                       lambda n: [range(0, n, 2), range(1, n, 2)]):
            fleet, _ = make_fleet(k=7)
            train, rows = joined(shards)
            for profile, shard in zip(fleet, rows):
                profile.rows = shard
            monkeypatch.setattr(federation, "local_round", split_training(groups))
            runs.append(run_experiment(fleet, train, TEST_DATA, ARCH,
                                       fast_config(rounds=3, seed=49)))
        (ra, ma), *others = runs
        assert any(s.kappa for r in ra for s in r.worker_stats)  # ragged later epochs
        for rb, mb in others:
            assert_models_equal(ma, mb)
            assert ra == rb

    def test_trial_stack_does_not_change_results(self, monkeypatch):
        # label-skewed shards of unequal size, 3 of 7 scheduled a round, the filter
        # dropping samples: one stack for the trial against a fresh one per round
        data = make_dataset(n=602, seed=905)
        shards = [data.take(p) for p in partition_noniid(data, 7, np.random.default_rng(907))]

        def fleet():
            workers, _ = make_fleet(k=7)
            train, rows = joined(shards)
            for profile, shard in zip(workers, rows):
                profile.rows = shard
            return workers, train

        cfg = fast_config(rounds=8, select_fraction=0.35, epochs=3, seed=73)
        stacks = []

        def recording(*args, stack):
            stacks.append(stack)
            return local_round(*args, stack=stack)

        monkeypatch.setattr(federation, "local_round", recording)
        ra, ma = run_experiment(*fleet(), TEST_DATA, ARCH, cfg)
        monkeypatch.setattr(federation, "local_round", lambda *args, stack: local_round(*args))
        rb, mb = run_experiment(*fleet(), TEST_DATA, ARCH, cfg)
        assert len(stacks) == 8 and all(stack is stacks[0] for stack in stacks)
        assert len({len(shards[s.worker_id]) for r in ra for s in r.worker_stats}) > 1
        assert any(s.kappa for r in ra for s in r.worker_stats)
        assert_models_equal(ma, mb)
        assert ra == rb

    def test_explicit_deadline_equals_resolved_default(self):
        cfg = fast_config(rounds=2, seed=53)
        bits = param_bits(ARCH)
        deadline = default_deadline(make_fleet()[0], cfg, bits, trial=0)
        ra, ma = run_experiment(*make_fleet(), TEST_DATA, ARCH, cfg)
        rb, mb = run_experiment(*make_fleet(), TEST_DATA, ARCH,
                                fast_config(deadline_s=deadline, rounds=2, seed=53))
        assert_models_equal(ma, mb)
        for a, b in zip(ra, rb):
            assert a.worker_stats == b.worker_stats

    def test_seed_changes_results(self):
        ra, _ = run_experiment(*make_fleet(), TEST_DATA, ARCH, fast_config(rounds=2, seed=59))
        rb, _ = run_experiment(*make_fleet(), TEST_DATA, ARCH, fast_config(rounds=2, seed=60))
        assert ra[-1].test_loss != rb[-1].test_loss


class TestChannelModes:
    # the channel must be visible in the plans for these tests to bite:
    # eight antennas, the tight distance band and the higher noise floor
    # keep every worker's upload power between its clamps, where it tracks
    # the per-round link gain
    def mode_config(self, mode, rounds):
        return fast_config(epochs=1, threshold=1.0, channel_mode=mode,
                           antennas=8, noise_power_w=1e-10, rounds=rounds, seed=61)

    def mode_fleet(self):
        return make_fleet(dist=(28.0, 32.0))

    def test_static_repeats_the_same_link_each_round(self):
        cfg = self.mode_config("static", rounds=3)
        records, _ = run_experiment(*self.mode_fleet(), TEST_DATA, ARCH, cfg)
        first = records[0].worker_stats
        for rec in records[1:]:
            for a, b in zip(first, rec.worker_stats):
                assert a.worker_id == b.worker_id
                assert a.charged.t_up_s == b.charged.t_up_s
                assert a.charged.p_w == b.charged.p_w
                assert a.charged.f_hz == b.charged.f_hz

    def test_block_fading_redraws_each_round(self):
        cfg = self.mode_config("block", rounds=2)
        records, _ = run_experiment(*self.mode_fleet(), TEST_DATA, ARCH, cfg)
        a = [s.charged.p_w for s in records[0].worker_stats]
        b = [s.charged.p_w for s in records[1].worker_stats]
        bounds = self.mode_fleet()[0][0].bounds
        assert all(bounds.p_min_w < p < bounds.p_max_w for p in a + b)
        assert a != b


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            fast_config(select_fraction=0.0)
        with pytest.raises(ValueError):
            fast_config(threshold=1.2)
        with pytest.raises(ValueError):
            fast_config(epochs=0)
        with pytest.raises(ValueError):
            fast_config(learning_rate=0.0)
        with pytest.raises(ValueError):
            fast_config(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            fast_config(cycles_per_sample=0.0)
        with pytest.raises(ValueError):
            fast_config(deadline_s=0.0)
        with pytest.raises(ValueError):
            fast_config(bandwidth_mode="greedy")
        with pytest.raises(ValueError):
            fast_config(channel_mode="fancy")
        with pytest.raises(ValueError):
            fast_config(rounds=0)


class TestTrainingCallSites:
    """One round trains through learning's module functions, which per-layer
    tracing wraps: a path around them would make its figures read 0."""

    def test_round_rows_and_filter_calls(self, monkeypatch):
        from feelsim import learning

        rows, filtered = [], []
        grad, keep = learning.gradient, learning.filter_samples

        def counting_grad(model, x, y, out):
            rows.append(x.shape[0])
            grad(model, x, y, out)

        def counting_filter(model, data, threshold):
            decision = keep(model, data, threshold)
            filtered.append((len(data), decision.included_indices.size))
            return decision

        monkeypatch.setattr(learning, "gradient", counting_grad)
        monkeypatch.setattr(learning, "filter_samples", counting_filter)
        fleet, train = make_fleet()
        cfg = fast_config(epochs=3, threshold=0.4, seed=59)
        cfg = replace(cfg, deadline_s=default_deadline(fleet, cfg, param_bits(ARCH), 0))
        state = ExperimentState(model=init_model(ARCH, np.random.default_rng(59)),
                                workers=fleet, train_data=train, test_data=TEST_DATA)
        record = run_round(state, cfg, 1)

        # the six scheduled 100-row shards are one shard-length group: one filter call
        kappa = [s.kappa for s in record.worker_stats]
        assert len(kappa) == 6 and filtered == [(600, 600 - sum(kappa))]
        kept = [100 - k for k in kappa]
        assert sum(rows) == sum(100 + (cfg.epochs - 1) * n for n in kept)
        assert 0 < sum(kept) < 600
        # one call per step for all six 100-row shards, not one per worker
        batches = sum(math.ceil(100 / cfg.batch_size) + (cfg.epochs - 1)
                      * math.ceil(n / cfg.batch_size) for n in kept)
        assert 0 < len(rows) < batches

    @pytest.mark.parametrize("preset, calls, rows", [
        ("synthetic_unfiltered", 4000, 160000),
        ("synthetic_filtered", 1764, 48820),
    ])
    def test_preset_step_counts(self, preset, calls, rows, monkeypatch, tmp_path):
        # the SGD steps and rows a seed-1 preset run trains, pinned per preset
        from feelsim import learning

        seen = []
        grad = learning.gradient

        def counting_grad(model, x, y, out):
            seen.append(x.shape[0])
            grad(model, x, y, out)

        monkeypatch.setattr(learning, "gradient", counting_grad)
        config = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{preset}.json")
        run_from_config(config, seed=1, out_dir=tmp_path, quiet=True)
        assert (len(seen), sum(seen)) == (calls, rows)
