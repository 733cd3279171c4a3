import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import feelsim
from feelsim import federation
from feelsim.federation import RoundRecord, WorkerRoundStats, partition_iid, partition_noniid
from feelsim.io_cli import (
    GLOBAL_HEADER,
    WORKERS_HEADER,
    ConfigError,
    ExperimentConfig,
    IdxFormatError,
    build_workers,
    cli_main,
    generate_synthetic,
    load_config,
    load_dataset,
    load_mnist_idx,
    run_from_config,
    split_train_test,
    write_config,
    write_metrics,
)
from feelsim.learning import LabeledDataset
from feelsim.resource_optimizer import ResourcePlan
from feelsim.streams import DOMAIN_PARTITION, DOMAIN_PROFILE, substream


# every float field except energy_budget_j, whose null/infinity is an unbounded budget
FINITE_FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(ExperimentConfig)
    if "float" in str(f.type) and f.name != "energy_budget_j"
]
# every integer field except the seed, whose entropy may take any number of words
BOUNDED_INT_FIELDS = [
    f.name for f in dataclasses.fields(ExperimentConfig)
    if str(f.type).startswith("int") and f.name != "seed"
]
PRESETS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def small_config(**over):
    base = dict(
        rounds=2, workers=4, trials=1, seed=5, select_fraction=0.5,
        threshold=0.7, epochs=2, batch_size=32, learning_rate=0.05,
        bandwidth_hz=1e6, noise_power_w=1e-12, cycles_per_sample=5e5,
        distance_min_m=10.0, distance_max_m=60.0,
        synthetic_samples=400, synthetic_dim=8, synthetic_classes=4,
        synthetic_spread=0.3, train_fraction=0.8,
    )
    base.update(over)
    return ExperimentConfig(**base)


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img_path, lab_path


class TestConfig:
    def test_round_trip_exact(self, tmp_path):
        cfg = small_config(deadline_s=0.25, energy_budget_j=3.5, hidden_width=12)
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        assert load_config(path) == cfg

    def test_infinite_budget_serializes_as_null(self, tmp_path):
        cfg = small_config()  # budget defaults to infinity
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        raw = json.loads(path.read_text())
        assert raw["energy_budget_j"] is None
        back = load_config(path)
        assert math.isinf(back.energy_budget_j)

    def test_dbm_conversions(self):
        cfg = small_config(p_min_dbm=-10.0, p_max_dbm=20.0)
        assert cfg.p_min_w == pytest.approx(1e-4, rel=1e-15)
        assert cfg.p_max_w == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize("over", [dict(p_max_dbm=3113.0),
                                      dict(p_min_dbm=3113.0, p_max_dbm=3113.0)])
    def test_dbm_beyond_float_range_rejected(self, tmp_path, capsys, over):
        # 10 ** ((dBm - 30) / 10) overflows a float from about 3112.5 dBm
        with pytest.raises(ConfigError, match="p_max_dbm 3113.0 overflows"):
            small_config(**over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(over) + "\n")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: p_max_dbm 3113.0 overflows")

    @pytest.mark.parametrize("over, named", [
        # the pathloss overflows, underflows to 0 at both bounds, or underflows through
        # the exponent; the Rician linear factor overflows
        (dict(distance_min_m=1e-100, distance_max_m=1e-100), "pathloss"),
        (dict(distance_min_m=1e200, distance_max_m=1e200), "pathloss"),
        (dict(pathloss_exp=1e300), "pathloss"),
        (dict(rician_k_db=1e5), "rician_k_db"),
    ], ids=["distance-1e-100", "distance-1e200", "pathloss-exp-1e300", "rician-k-1e5"])
    def test_channel_beyond_float_range_rejected(self, tmp_path, capsys, over, named):
        preset = Path(__file__).resolve().parent.parent / "configs" / "synthetic_filtered.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads(preset.read_text()), **over}) + "\n")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
        assert not (tmp_path / "out").exists()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"rounds": 3, "rownds": 4}\n')
        with pytest.raises(ConfigError, match="rownds"):
            load_config(path)

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # json keeps the last of a repeated key: this config would run 2 rounds at 1.0
        path = tmp_path / "cfg.json"
        path.write_text('{"rounds": 1, "rounds": 2, "threshold": 0.5, "threshold": 1.0}\n')
        with pytest.raises(ConfigError, match="repeats key\\(s\\) rounds, threshold$"):
            load_config(path)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {path} repeats key(s) rounds")
        assert not (tmp_path / "out").exists()

    def test_parallel_workers_key_rejected(self, tmp_path, capsys):
        # a round trains all its scheduled workers in one stack: there is no such knob
        path = tmp_path / "cfg.json"
        path.write_text('{"rounds": 3, "parallel_workers": 1}\n')
        with pytest.raises(ConfigError, match="parallel_workers"):
            load_config(path)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "error: unknown config field(s)" in capsys.readouterr().err

    def test_written_config_has_no_parallel_workers(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(small_config(), path)
        assert "parallel_workers" not in json.loads(path.read_text())

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "rounds": 3,\n}\n')
        with pytest.raises(ConfigError, match=r"line 3"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_wrong_value_type_wrapped(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"rounds": "ten"}\n')
        with pytest.raises(ConfigError):
            load_config(path)
        for field, text in [("rounds", "2.5"), ("rounds", "true"), ("seed", "1.5"),
                            ("hidden_width", "4.5"), ("workers", "20.0"),
                            ("learning_rate", "true"), ("learning_rate", "Infinity"),
                            ("deadline_s", "NaN")]:
            path.write_text(f'{{"{field}": {text}}}\n')
            with pytest.raises(ConfigError, match=field):
                load_config(path)

    def test_constraints_enforced(self):
        with pytest.raises(ConfigError, match="rounds"):
            small_config(rounds=0)
        with pytest.raises(ConfigError, match="select_fraction"):
            small_config(select_fraction=1.5)
        with pytest.raises(ConfigError, match="bandwidth_mode"):
            small_config(bandwidth_mode="magic")
        with pytest.raises(ConfigError, match="train_fraction"):
            small_config(train_fraction=1.0)
        with pytest.raises(ConfigError, match="mnist"):
            small_config(data_source="mnist")
        with pytest.raises(ConfigError, match="p_min_dbm"):
            small_config(p_min_dbm=25.0, p_max_dbm=20.0)
        with pytest.raises(ConfigError, match="rounds"):
            small_config(rounds=2.5)
        with pytest.raises(ConfigError, match="rounds"):
            small_config(rounds=True)
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=1.5)
        with pytest.raises(ConfigError, match="hidden_width"):
            small_config(hidden_width=4.5)
        with pytest.raises(ConfigError, match="workers"):
            small_config(workers=20.0)
        with pytest.raises(ConfigError, match="learning_rate"):
            small_config(learning_rate=True)
        with pytest.raises(ConfigError, match="energy_budget_j"):
            small_config(energy_budget_j=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", FINITE_FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            small_config(**{name: value})

    @pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
    @pytest.mark.parametrize("name", FINITE_FLOAT_FIELDS + ["energy_budget_j"])
    def test_float_field_integer_beyond_float_range_rejected(self, name, sign):
        # JSON reads 1 followed by 400 zeros as an int that no float holds; the message
        # gives its size, not its 401 digits
        with pytest.raises(ConfigError, match=f"^{name} is an integer of 1329 bits, beyond"):
            small_config(**{name: sign * 10 ** 400})

    @pytest.mark.parametrize("value", [2**31, 10**30], ids=["2^31", "10^30"])
    @pytest.mark.parametrize("name", BOUNDED_INT_FIELDS)
    def test_integer_field_above_int32_rejected(self, name, value):
        # such a count once reached numpy as an array size or a stream tag
        with pytest.raises(ConfigError, match=f"^{name} must be <= 2147483647, got {value}$"):
            small_config(**{name: value})

    def test_integer_field_bound_is_inclusive_and_spares_the_seed(self):
        assert len(BOUNDED_INT_FIELDS) == 12
        cfg = small_config(**{name: 2**31 - 1 for name in BOUNDED_INT_FIELDS}, seed=10**400)
        assert cfg.rounds == 2**31 - 1 and cfg.seed == 10**400

    def test_int_for_float_and_null_for_optional_accepted(self):
        # JSON writes 1e6 as 1000000 just as well; optional fields take null
        cfg = small_config(bandwidth_hz=1000000, hidden_width=None, deadline_s=None)
        assert cfg.bandwidth_hz == 1e6

    @pytest.mark.parametrize("path", PRESETS, ids=[p.name for p in PRESETS])
    def test_shipped_presets_load(self, path):
        cfg = load_config(path)
        assert cfg.as_dict() == json.loads(path.read_text())


class TestSyntheticData:
    def test_deterministic(self):
        a = generate_synthetic(8, 4, 200, 0.3, np.random.default_rng(7))
        b = generate_synthetic(8, 4, 200, 0.3, np.random.default_rng(7))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_near_balanced_labels(self):
        data = generate_synthetic(8, 4, 403, 0.3, np.random.default_rng(8))
        counts = np.bincount(data.labels, minlength=4)
        assert counts.sum() == 403
        assert counts.max() - counts.min() <= 1

    def test_class_means_separated(self):
        data = generate_synthetic(6, 4, 4000, 0.05, np.random.default_rng(9))
        for c in range(4):
            mean = data.features[data.labels == c].mean(axis=0)
            want = np.zeros(6)
            want[c] = 1.0
            assert np.allclose(mean, want, atol=0.02)

    def test_means_stay_distinct_beyond_dim(self):
        # classes wrap around the axes with a growing offset
        data = generate_synthetic(2, 4, 8000, 0.05, np.random.default_rng(10))
        m0 = data.features[data.labels == 0].mean(axis=0)
        m2 = data.features[data.labels == 2].mean(axis=0)
        assert m0[0] == pytest.approx(1.0, abs=0.02)
        assert m2[0] == pytest.approx(2.0, abs=0.02)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dim, classes, samples",
                             [(8, 4, 403), (16, 2, 64), (784, 10, 300), (1, 3, 50),
                              (2, 5, 101), (3, 10, 257)])
    def test_features_are_class_means_plus_scaled_noise(self, dim, classes, samples, seed):
        # the features are built in place; bytes must equal means[labels] + spread * noise
        data = generate_synthetic(dim, classes, samples, 0.7, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        means = np.zeros((classes, dim))
        for c in range(classes):
            means[c, c % dim] = 1.0 + c // dim
        base, extra = divmod(samples, classes)
        labels = np.concatenate([np.repeat(np.arange(classes), base), np.arange(extra)])
        labels = labels[rng.permutation(samples)]
        want = means[labels] + 0.7 * rng.standard_normal((samples, dim))
        assert np.array_equal(data.labels, labels)
        assert data.features.tobytes() == want.tobytes()

    def test_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_synthetic(8, 1, 100, 0.3, rng)
        with pytest.raises(ValueError):
            generate_synthetic(8, 4, 3, 0.3, rng)
        with pytest.raises(ValueError):
            generate_synthetic(8, 4, 100, 0.0, rng)


class TestIdxLoading:
    def test_load_scale_and_shuffle(self, tmp_path):
        rng = np.random.default_rng(20)
        images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        data = load_mnist_idx(img, lab, None, np.random.default_rng(21))
        assert data.features.shape == (7, 12)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0
        # same shuffle stream recovers the pairing
        order = np.random.default_rng(21).permutation(7)
        assert np.array_equal(data.labels, labels[order].astype(np.int64))
        assert np.array_equal(data.features, images.reshape(7, 12)[order] / 255.0)

    def test_subset(self, tmp_path):
        images = np.zeros((10, 2, 2), dtype=np.uint8)
        labels = np.arange(10, dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        data = load_mnist_idx(img, lab, 4, np.random.default_rng(22))
        assert len(data) == 4
        with pytest.raises(IdxFormatError, match="mnist_subset 11 exceeds the 10 examples"):
            load_mnist_idx(img, lab, 11, np.random.default_rng(22))
        with pytest.raises(ValueError):
            load_mnist_idx(img, lab, 0, np.random.default_rng(22))

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_idx(lab, lab, None, np.random.default_rng(0))
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_idx(img, img, None, np.random.default_rng(0))

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="truncated"):
            load_mnist_idx(path, path, None, np.random.default_rng(0))

    def test_pixel_count_mismatch(self, tmp_path):
        img = tmp_path / "images.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(11))  # one short
        lab = tmp_path / "labels.idx"
        lab.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
        with pytest.raises(IdxFormatError, match="declares"):
            load_mnist_idx(img, lab, None, np.random.default_rng(0))

    def test_count_disagreement(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.zeros(4, dtype=np.uint8)
        img, _ = write_idx_pair(tmp_path, images, labels[:3])
        lab = tmp_path / "labels4.idx"
        lab.write_bytes(struct.pack(">II", 0x801, 4) + labels.tobytes())
        with pytest.raises(IdxFormatError, match="differ"):
            load_mnist_idx(img, lab, None, np.random.default_rng(0))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IdxFormatError, match="cannot read"):
            load_mnist_idx(tmp_path / "a.idx", tmp_path / "b.idx", None,
                           np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(5, 0, 4), (5, 4, 0)], ids=["rows", "cols"])
    def test_zero_rows_or_columns(self, tmp_path, shape):
        img, lab = write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8),
                                  np.zeros(shape[0], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match=f"declares {shape[1]}x{shape[2]} images"):
            load_mnist_idx(img, lab, None, np.random.default_rng(0))

    def test_zero_examples(self, tmp_path):
        images = np.zeros((0, 2, 2), dtype=np.uint8)
        labels = np.zeros(0, dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(IdxFormatError, match="zero"):
            load_mnist_idx(img, lab, None, np.random.default_rng(0))

    @pytest.mark.parametrize("images, labels, match", [
        pytest.param(struct.pack(">III", 0x803, 3, 2), struct.pack(">II", 0x801, 3) + bytes(3),
                     "images file .* is truncated before the dimensions", id="images-12-bytes"),
        pytest.param(struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(12),
                     struct.pack(">II", 0x801, 3) + bytes(2),
                     "labels file .* declares 3 labels but holds 2", id="labels-one-short"),
    ])
    def test_rarely_reached_checks(self, tmp_path, images, labels, match):
        (tmp_path / "images.idx").write_bytes(images)
        (tmp_path / "labels.idx").write_bytes(labels)
        with pytest.raises(IdxFormatError, match=match):
            load_mnist_idx(tmp_path / "images.idx", tmp_path / "labels.idx", None,
                           np.random.default_rng(0))


class TestSplitAndWorkers:
    def test_split_sizes_and_coverage(self):
        feats = np.arange(100, dtype=np.float64)[:, None]
        data = LabeledDataset(feats, np.zeros(100, dtype=np.int64))
        train, test = split_train_test(data, 0.8, seed=3)
        assert len(train) == 80 and len(test) == 20
        ids = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert np.array_equal(np.sort(ids), np.arange(100.0))

    def test_split_rejects_empty_side(self):
        feats = np.zeros((5, 1))
        data = LabeledDataset(feats, np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError):
            split_train_test(data, 0.05, seed=3)
        with pytest.raises(ValueError):
            split_train_test(data, 0.99, seed=3)

    def test_build_workers_profiles(self):
        cfg = small_config(energy_budget_j=7.5)
        data = load_dataset(cfg)
        train, _ = split_train_test(data, cfg.train_fraction, cfg.seed)
        fleet = build_workers(cfg, train, trial=0)
        assert [p.worker_id for p in fleet] == list(range(4))
        assert sum(len(p.rows) for p in fleet) == len(train)
        for p in fleet:
            assert cfg.distance_min_m <= p.distance_m <= cfg.distance_max_m
            assert p.remaining_energy_j == 7.5
            assert p.bounds.p_max_w == pytest.approx(cfg.p_max_w, rel=1e-15)

    def test_build_workers_placements_are_scalar_draws(self):
        # each worker's distance, then its angle, as 2k scalar draws of the profile stream
        cfg = small_config(workers=7)
        train, _ = split_train_test(load_dataset(cfg), cfg.train_fraction, cfg.seed)
        fleet = build_workers(cfg, train, trial=2)
        ref = substream(cfg.seed, DOMAIN_PROFILE, 2)
        for p in fleet:
            want = (float(ref.uniform(cfg.distance_min_m, cfg.distance_max_m)),
                    float(ref.uniform(0.0, 2.0 * np.pi)))
            assert (p.distance_m, p.los_angle) == want
            assert type(p.distance_m) is type(p.los_angle) is float

    def test_build_workers_trial_streams_differ(self):
        cfg = small_config()
        data = load_dataset(cfg)
        train, _ = split_train_test(data, cfg.train_fraction, cfg.seed)
        a = build_workers(cfg, train, trial=0)
        b = build_workers(cfg, train, trial=1)
        c = build_workers(cfg, train, trial=0)
        assert [p.distance_m for p in a] != [p.distance_m for p in b]
        assert [p.distance_m for p in a] == [p.distance_m for p in c]

    @pytest.mark.parametrize("partition", ["iid", "noniid"])
    def test_build_workers_orders_rows_by_worker(self, partition):
        # the profiles come in worker id order, and worker i's rows are the positions in
        # train that its trial's partition dealt it, in dealt order; the trials deal apart
        cfg = small_config(partition=partition, classes_per_worker=2)
        train, _ = split_train_test(load_dataset(cfg), cfg.train_fraction, cfg.seed)
        dealt = []
        for trial in (0, 1):
            fleet = build_workers(cfg, train, trial=trial)
            assert [p.worker_id for p in fleet] == list(range(cfg.workers))
            rng = substream(cfg.seed, DOMAIN_PARTITION, trial)
            parts = (partition_iid(train, cfg.workers, rng) if partition == "iid" else
                     partition_noniid(train, cfg.workers, rng, classes_per_worker=2))
            for p, part in zip(fleet, parts, strict=True):
                assert p.rows.dtype == np.intp and len(p.rows) > 0
                assert np.array_equal(p.rows, part)
            rows = np.concatenate([p.rows for p in fleet])
            assert np.array_equal(np.sort(rows), np.arange(len(train)))
            dealt.append(rows)
        assert not np.array_equal(*dealt)

    def test_noniid_partition_through_config(self):
        cfg = small_config(partition="noniid", classes_per_worker=2)
        data = load_dataset(cfg)
        train, _ = split_train_test(data, cfg.train_fraction, cfg.seed)
        for p in build_workers(cfg, train, trial=0):
            assert np.unique(train.labels[p.rows]).size == 2


class TestMemory:
    @staticmethod
    def peak_feature_copies(tmp_path, **over):
        """tracemalloc peak of a 784-wide run, every worker scheduled, in feature bytes."""
        cfg = dataclasses.replace(
            load_config(Path(__file__).resolve().parent.parent / "configs"
                        / "synthetic_filtered.json"),
            synthetic_dim=784, synthetic_classes=10, synthetic_samples=2000, workers=10,
            select_fraction=1.0, hidden_width=8, epochs=2, rounds=1, **over)
        tracemalloc.start()
        try:
            run_from_config(cfg, out_dir=tmp_path, quiet=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (2000 * 784 * 8)

    def test_run_peak_within_a_few_feature_copies(self, tmp_path):
        # the train/test split and the pass block are each about one copy of the features
        # at most; the full dataset kept beside them, per-worker shard copies or a
        # per-round join would each take the traced peak past 3.5 copies
        copies = self.peak_feature_copies(tmp_path, trials=2)
        assert copies < 3.5, copies

    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_every_trial_trains_on_train_itself(self, tmp_path, trials):
        # every trial trains from train, test and the pass block alone: a trial's own
        # worker-ordered copy of train kept beside them would take the traced peak past
        # 2.5 copies
        copies = self.peak_feature_copies(tmp_path, trials=trials)
        assert copies < 2.5, copies


class TestMetricsFiles:
    def run_small(self, tmp_path, **over):
        cfg = small_config(**over)
        return cfg, run_from_config(cfg, out_dir=tmp_path / "out", quiet=True)

    def test_headers_and_shape(self, tmp_path):
        cfg, (per_trial, paths) = self.run_small(tmp_path)
        glines = paths["global"].read_text().splitlines()
        wlines = paths["workers"].read_text().splitlines()
        assert glines[0] == GLOBAL_HEADER
        assert wlines[0] == WORKERS_HEADER
        assert len(glines) == 1 + cfg.rounds
        scheduled = sum(len(r.worker_stats) for r in per_trial[0])
        assert len(wlines) == 1 + scheduled
        assert [int(l.split(",")[0]) for l in glines[1:]] == [1, 2]

    def test_values_round_trip_through_repr(self, tmp_path):
        cfg, (per_trial, paths) = self.run_small(tmp_path)
        lines = paths["global"].read_text().splitlines()[1:]
        for rec, line in zip(per_trial[0], lines):
            cols = line.split(",")
            assert float(cols[1]) == rec.test_loss
            assert float(cols[2]) == rec.test_accuracy
            assert float(cols[3]) == rec.inst_energy_j
            assert float(cols[4]) == rec.cum_energy_j
            assert float(cols[5]) == rec.excluded_fraction

    def test_worker_rows_write_the_charged_plan(self, tmp_path):
        # a delivered plan, that plan cut to its compute (battery died), and a zero plan
        # on a share (round not plannable): each row writes the charged fields in column
        # order, and lambda is the share of config.bandwidth_hz
        cfg = small_config(bandwidth_hz=3e6)
        plan = ResourcePlan(t_cmp_s=0.031, t_up_s=0.019, f_hz=2.7e9, p_w=0.013,
                            bandwidth_hz=1.1e6, e_cmp_j=0.0041, e_up_j=2.3e-4)
        cut = dataclasses.replace(plan, e_cmp_j=0.002, e_up_j=0.0, t_up_s=0.0, p_w=0.0)
        idle = ResourcePlan(t_cmp_s=0.0, t_up_s=0.0, f_hz=0.0, p_w=0.0, bandwidth_hz=0.7e6,
                            e_cmp_j=0.0, e_up_j=0.0)
        stats = (WorkerRoundStats(3, 7, plan, True, 1.5),
                 WorkerRoundStats(0, 2, cut, False, 0.0),
                 WorkerRoundStats(5, 0, idle, False, 2.0))
        rec = RoundRecord(round_index=4, test_loss=0.5, test_accuracy=0.75,
                          inst_energy_j=0.00633, cum_energy_j=0.01, excluded_fraction=0.1,
                          n_updates=1, worker_stats=stats)
        lines = write_metrics([[rec]], tmp_path, cfg)["workers"].read_text().splitlines()
        assert lines[0] == WORKERS_HEADER
        for s, line in zip(stats, lines[1:], strict=True):
            c = s.charged
            assert line.split(",") == [
                "0", "4", str(s.worker_id), str(s.kappa),
                repr(c.e_cmp_j), repr(c.e_up_j), repr(c.t_cmp_s), repr(c.t_up_s),
                repr(c.f_hz), repr(c.p_w), repr(c.bandwidth_hz / cfg.bandwidth_hz),
                str(int(s.feasible)),
            ]

    def test_cumulative_energy_monotone(self, tmp_path):
        cfg, (_, paths) = self.run_small(tmp_path, rounds=4)
        cums = [float(l.split(",")[4]) for l in paths["global"].read_text().splitlines()[1:]]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_manifest_echoes_config(self, tmp_path):
        cfg, (_, paths) = self.run_small(tmp_path)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["version"] == feelsim.__version__
        assert manifest["seed"] == cfg.seed
        assert manifest["config"] == json.loads(json.dumps(cfg.as_dict()))

    def test_multi_trial_mean_and_by_trial_file(self, tmp_path):
        cfg, (per_trial, paths) = self.run_small(tmp_path, trials=2)
        fields = ("test_loss", "test_accuracy", "inst_energy_j", "cum_energy_j",
                  "excluded_fraction")
        assert len(per_trial) == 2
        assert "global_by_trial" in paths
        by_trial = paths["global_by_trial"].read_text().splitlines()
        assert by_trial[0] == "trial,round," + ",".join(fields)
        assert len(by_trial) == 1 + 2 * cfg.rounds
        # one row per (trial, round), in that order, with every value at repr precision
        lines = iter(by_trial[1:])
        for t, records in enumerate(per_trial):
            for rec in records:
                want = [str(t), str(rec.round_index)]
                want += [repr(float(getattr(rec, f))) for f in fields]
                assert next(lines).split(",") == want
        # the global file is the across-trial mean, row by row
        glines = paths["global"].read_text().splitlines()
        assert glines[0] == "round," + ",".join(fields)
        assert len(glines) == 1 + cfg.rounds
        for i, line in enumerate(glines[1:]):
            want = [str(per_trial[0][i].round_index)]
            want += [repr(float(np.mean([getattr(t[i], f) for t in per_trial])))
                     for f in fields]
            assert line.split(",") == want

    @pytest.mark.parametrize("trials", [1, 3, 9, 17])
    def test_global_mean_matches_per_cell_mean(self, tmp_path, trials):
        # random magnitudes make the summation order show in the last bits
        rng = np.random.default_rng(trials)
        fields = GLOBAL_HEADER.split(",")[1:]
        per_trial = [
            [RoundRecord(i, *(rng.standard_normal(len(fields)) * 10.0 ** rng.uniform(-6, 6)),
                         n_updates=0, worker_stats=()) for i in range(5)]
            for _ in range(trials)
        ]
        paths = write_metrics(per_trial, tmp_path, small_config(trials=trials))
        for i, line in enumerate(paths["global"].read_text().splitlines()[1:]):
            want = [str(i)] + [repr(float(np.mean([getattr(t[i], f) for t in per_trial])))
                               for f in fields]
            assert line.split(",") == want

    def test_trials_with_different_round_counts_rejected(self, tmp_path):
        cfg, (per_trial, _) = self.run_small(tmp_path, trials=2)
        with pytest.raises(ValueError):
            write_metrics([per_trial[0], per_trial[1][:1]], tmp_path / "uneven", cfg)

    def test_single_trial_omits_by_trial_file(self, tmp_path):
        cfg, (_, paths) = self.run_small(tmp_path)
        assert "global_by_trial" not in paths
        assert not (paths["global"].parent / "global_by_trial.csv").exists()

    def test_byte_determinism(self, tmp_path):
        cfg = small_config()
        _, pa = run_from_config(cfg, out_dir=tmp_path / "a", quiet=True)
        _, pb = run_from_config(cfg, out_dir=tmp_path / "b", quiet=True)
        for name in ("global", "workers", "manifest"):
            assert pa[name].read_bytes() == pb[name].read_bytes()

    def test_manifest_config_reproduces_a_seed_override(self, tmp_path):
        _, pa = run_from_config(small_config(seed=5), seed=7, out_dir=tmp_path / "a",
                                quiet=True)
        manifest = json.loads(pa["manifest"].read_text())
        assert manifest["config"]["seed"] == 7
        # the manifest's config is a config file of the run, with its effective seed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(manifest["config"]))
        config = load_config(cfg_path)
        write_config(config, cfg_path)
        assert json.loads(cfg_path.read_text()) == manifest["config"]
        _, pb = run_from_config(config, out_dir=tmp_path / "b", quiet=True)
        for name in ("global", "workers"):
            assert pa[name].read_bytes() == pb[name].read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = small_config()
        _, pa = run_from_config(cfg, out_dir=tmp_path / "a", quiet=True)
        _, pb = run_from_config(cfg, seed=99, out_dir=tmp_path / "b", quiet=True)
        assert pa["global"].read_bytes() != pb["global"].read_bytes()
        assert json.loads(pb["manifest"].read_text())["seed"] == 99


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = small_config()
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        out_dir = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "global.csv").exists()
        assert (out_dir / "workers.csv").exists()
        assert (out_dir / "manifest.json").exists()
        printed = capsys.readouterr().out
        assert "global.csv" in printed

    def test_python_m_feelsim_run(self, tmp_path):
        write_config(small_config(), tmp_path / "cfg.json")
        src = Path(feelsim.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "feelsim", "run", "--config", str(tmp_path / "cfg.json"),
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("global.csv", "workers.csv", "manifest.json"):
            assert (tmp_path / "out" / name).is_file()

    def test_python_m_io_cli_run(self, tmp_path):
        write_config(small_config(), tmp_path / "cfg.json")
        (tmp_path / "bad.json").write_text('{"rounds": 0}\n')
        src = Path(feelsim.__file__).resolve().parent.parent

        def run(config):
            return subprocess.run(
                [sys.executable, "-m", "feelsim.io_cli", "run", "--config", str(config),
                 "--out", str(tmp_path / "out")],
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True, text=True, timeout=120,
            )

        proc = run(tmp_path / "cfg.json")
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr  # the module body runs once
        for name in ("global.csv", "workers.csv", "manifest.json"):
            assert (tmp_path / "out" / name).is_file()
        proc = run(tmp_path / "bad.json")
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert "error: rounds must be >= 1" in proc.stderr.splitlines()[-1]

    @staticmethod
    def run_filtered_preset(tmp_path, **over):
        """`python3 -m feelsim run` on the filtered preset with over, in a child process with
        a 30 s timeout, so that a hang fails the calling test."""
        preset = Path(__file__).resolve().parent.parent / "configs" / "synthetic_filtered.json"
        (tmp_path / "cfg.json").write_text(
            json.dumps({**json.loads(preset.read_text()), **over}) + "\n")
        return subprocess.run(
            [sys.executable, "-m", "feelsim", "run", "--config", str(tmp_path / "cfg.json"),
             "--out", str(tmp_path / "out")],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(feelsim.__file__).resolve().parent.parent)},
            capture_output=True, text=True, timeout=30,
        )

    def test_overflowing_link_gain_exits_2_instead_of_hanging(self, tmp_path):
        # a mean gain of 4e316 / W: the planner once stepped round 1's upload slot one ulp
        # at a time on beta = inf
        proc = self.run_filtered_preset(tmp_path, distance_min_m=1e-95, distance_max_m=1e-95,
                                        rounds=1)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: the mean link gain"), proc.stderr
        with pytest.raises(ConfigError, match="mean link gain"):
            small_config(antennas=4, distance_min_m=1e-90, noise_power_w=1e-30)
        small_config(antennas=4, distance_min_m=1e-90)  # a mean gain of 4e300 / W

    def test_overflowing_snr_at_p_max_exits_2_instead_of_hanging(self, tmp_path):
        # a finite mean gain of 4e300 / W at 1e17 W: p_max beta / B overflowed in the
        # planner, whose ulp walk to t_p then started at the window's lower edge, 6.7e-11 s,
        # and never reached a slot in which p_max closes the link
        proc = self.run_filtered_preset(tmp_path, distance_min_m=1e-90, distance_max_m=1e-90,
                                        p_max_dbm=200, rounds=2)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: the SNR at p_max"), proc.stderr
        with pytest.raises(ConfigError, match="SNR at p_max"):
            small_config(distance_min_m=1e-90, p_max_dbm=200)
        small_config(distance_min_m=1e-90, p_max_dbm=100)  # an SNR of 1.6e302

    @pytest.mark.parametrize("over", [
        dict(distance_min_m=1e7, distance_max_m=1e7),
        dict(deadline_s=1e30),
    ], ids=["derived-at-1e7-m", "given-1e30-s"])
    def test_deadline_without_a_compute_slot_exits_2(self, tmp_path, capsys, monkeypatch,
                                                     over):
        # a derived deadline of 6e15 s once reached round 1, whose plan raised
        # "upload slot 5953054609313455.0 is outside (0, 5953054609313455.0)": exit 1
        def no_round(*args):
            raise AssertionError("a round ran")

        monkeypatch.setattr(federation, "run_round", no_round)
        preset = Path(__file__).resolve().parent.parent / "configs" / "synthetic_filtered.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads(preset.read_text()), **over}) + "\n")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deadline ") and "leaves no compute slot" in err, err

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"rounds": 0}\n')
        code = cli_main(["run", "--config", str(cfg_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_missing_mnist_files_exits_2(self, tmp_path, capsys):
        cfg = small_config(data_source="mnist", mnist_images_path=str(tmp_path / "none.idx"),
                           mnist_labels_path=str(tmp_path / "none-labels.idx"))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "none.idx" in err

    def test_run_mnist_subset_beyond_files_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(23)
        images = rng.integers(0, 256, size=(40, 4, 4), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.arange(40, dtype=np.uint8) % 4)
        cfg = small_config(data_source="mnist", mnist_images_path=str(img),
                           mnist_labels_path=str(lab), mnist_subset=1000)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mnist_subset 1000 exceeds the 40 examples" in err

    @pytest.mark.parametrize("over, message", [
        (dict(workers=5000),
         "workers 5000 with partition 'iid' and classes_per_worker 2 do not fit the 320 "
         "training samples: need 1 <= k <= 320 shards"),
        (dict(partition="noniid", classes_per_worker=5),
         "classes_per_worker must be in [1, 4], got 5"),
        (dict(synthetic_samples=4, train_fraction=0.9, workers=1),
         "train_fraction 0.9 leaves an empty split"),
        (dict(partition="noniid", workers=200),
         "workers 200 with partition 'noniid' and classes_per_worker 2 do not fit the 320 "
         "training samples: class"),
    ], ids=["workers", "classes_per_worker", "train_fraction", "noniid_shard_slots"])
    def test_run_config_beyond_data_exits_2(self, tmp_path, capsys, monkeypatch, over, message):
        def no_round(*args):
            raise AssertionError("a round ran")

        monkeypatch.setattr(federation, "run_round", no_round)
        cfg_path = tmp_path / "cfg.json"
        write_config(small_config(**over), cfg_path)
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("field", ["bandwidth_hz", "energy_budget_j"])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, field):
        # an unbounded budget once passed the check and overflowed in round 1's ledger
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"{field}": 1{"0" * 400}}}\n')
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {field} is an integer of 1329 bits, beyond a float's range\n")

    def test_integer_literal_beyond_int_parsing_limit_exits_2(self, tmp_path, capsys):
        # json.loads refuses to convert an integer literal of more than 4300 digits
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"bandwidth_hz": 1{"0" * 4400}}}\n')
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg_path} holds a number that cannot be read")
        assert "0" * 50 not in err

    def test_array_size_beyond_numpy_exits_2(self, tmp_path, capsys):
        # once died in channel.sample_channel with numpy's "Maximum allowed size exceeded",
        # a traceback and exit 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"antennas": 1{"0" * 30}, "rounds": 1}}\n')
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: antennas must be <= 2147483647, got {10**30}\n"

    @pytest.mark.parametrize("field, literal, message", [
        ("seed", "-1" + "0" * 400, "must be >= 0, got a negative integer of 1329 bits"),
        ("workers", "1" + "0" * 400, "must be <= 2147483647, got an integer of 1329 bits"),
        ("rounds", "-1" + "0" * 40, "must be >= 1, got a negative integer of 133 bits"),
        ("bandwidth_hz", "-1" + "0" * 300, "must be positive, got a negative integer of 997 bits"),
        ("data_source", "1" + "0" * 400, "must be str, got an integer of 1329 bits"),
    ], ids=["seed", "workers", "rounds", "bandwidth_hz", "data_source"])
    def test_huge_integer_message_gives_its_size(self, tmp_path, capsys, field, literal,
                                                 message):
        # such values were printed in full, and workers twice, through the partition
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"{field}": {literal}}}\n')
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {field} {message}\n"

    def test_run_idx_without_pixels_exits_2(self, tmp_path, capsys):
        images = np.zeros((40, 0, 4), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.arange(40, dtype=np.uint8) % 4)
        cfg = small_config(data_source="mnist", mnist_images_path=str(img),
                           mnist_labels_path=str(lab))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: images file {img} declares 0x4 images\n"

    def test_negative_seed_in_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": -1}\n')
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(small_config(), cfg_path)
        code = cli_main(["run", "--config", str(cfg_path), "--seed", "-1",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_uncreatable_out_dir_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        def no_dataset(*args):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(feelsim.io_cli, "load_dataset", no_dataset)
        cfg_path = tmp_path / "cfg.json"
        write_config(small_config(), cfg_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(blocker / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {blocker / 'out'}:")

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["run", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_2(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()


class TestPublicSurface:
    def test_readme_configuration_table_names_every_field(self):
        # first column of each table row; a row may name several fields,
        # as in `f_min_hz` / `f_max_hz`
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        named = [name for cell in rows for name in cell.split("`")[1::2]]
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(named) == sorted(fields)

    def test_readme_planner_snippet(self, capsys):
        # the first code block of README's "Library use" imports from the package
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert "from feelsim import" in snippet
        scope: dict = {}
        exec(snippet, scope)
        plan = scope["plan"]
        assert abs(plan.t_cmp_s + plan.t_up_s - 0.05) < 1e-9
        assert plan.total_energy_j == plan.e_cmp_j + plan.e_up_j > 0.0
        capsys.readouterr()
