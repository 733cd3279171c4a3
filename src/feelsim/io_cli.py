"""Config loading, dataset construction, metrics files, and the command line.

Config files are flat JSON with units spelled out in the key names.  Every
file this module writes is byte-deterministic for a given config.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import struct
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .federation import (
    BANDWIDTH_MODES,
    CHANNEL_MODES,
    ConfigError,
    RoundRecord,
    WorkerProfile,
    partition_iid,
    partition_noniid,
    run_experiment,
)
from .learning import LabeledDataset
from .resource_optimizer import DeviceBounds
from .streams import DOMAIN_DATA, DOMAIN_PARTITION, DOMAIN_PROFILE, substream

GLOBAL_COLUMNS = (
    "test_loss", "test_accuracy", "inst_energy_j", "cum_energy_j", "excluded_fraction"
)
GLOBAL_HEADER = "round," + ",".join(GLOBAL_COLUMNS)
WORKERS_HEADER = (
    "trial,round,worker_id,kappa,e_cmp_j,e_up_j,t_cmp_s,t_up_s,f_cmp_hz,p_up_w,lambda,feasible"
)

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX dataset file."""


_INT_MAX = 2**31 - 1  # the largest value of an integer field other than the seed


def _shown(value) -> str:
    """repr(value), but an integer of more than 100 bits (about 30 digits) as its sign and
    size, so that no message prints hundreds of digits."""
    if isinstance(value, int) and abs(value).bit_length() > 100:
        return f"{'a negative' if value < 0 else 'an'} integer of {abs(value).bit_length()} bits"
    return repr(value)


def _dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _positive_finite_power(base: float, exponent: float) -> bool:
    """Whether the float base ** exponent, as channel.sample_channel computes its pathloss
    and Rician factor, is positive and finite: it neither overflows nor underflows to 0."""
    try:
        return 0.0 < base ** exponent < math.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults follow the reference hardware profile."""

    rounds: int = 100
    workers: int = 20
    trials: int = 1
    seed: int = 0
    select_fraction: float = 0.1
    threshold: float = 0.8
    epochs: int = 5
    batch_size: int = 20
    learning_rate: float = 0.001
    deadline_s: float | None = None
    bandwidth_hz: float = 10e6
    noise_power_w: float = 1e-8
    bandwidth_mode: str = "equal"
    channel_mode: str = "block"
    antennas: int = 4
    pathloss_exp: float = 3.2
    rician_k_db: float = 8.0
    distance_min_m: float = 25.0
    distance_max_m: float = 100.0
    f_min_hz: float = 1e9
    f_max_hz: float = 9e9
    p_min_dbm: float = -10.0
    p_max_dbm: float = 20.0
    capacitance: float = 2e-28
    cycles_per_sample: float = 20.0
    energy_budget_j: float = math.inf
    hidden_width: int | None = None
    data_source: str = "synthetic"
    synthetic_dim: int = 8
    synthetic_classes: int = 4
    synthetic_samples: int = 4000
    synthetic_spread: float = 0.3
    mnist_images_path: str | None = None
    mnist_labels_path: str | None = None
    mnist_subset: int | None = None
    partition: str = "iid"
    classes_per_worker: int = 2
    train_fraction: float = 0.8
    output_dir: str = "runs"

    @property
    def p_min_w(self) -> float:
        return _dbm_to_w(self.p_min_dbm)

    @property
    def p_max_w(self) -> float:
        return _dbm_to_w(self.p_max_dbm)

    @property
    def parallel_workers(self) -> int:  # read only by bench/run.py:117; goes with that read
        return 1

    def __post_init__(self) -> None:
        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise ConfigError(msg)

        def check(name: str, cond: bool, requirement: str) -> None:
            if not cond:
                raise ConfigError(
                    f"{name} must be {requirement}, got {_shown(getattr(self, name))}")

        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            check(name, not isinstance(value, bool) and isinstance(value, kinds),
                  self.__annotations__[name])
            # integer fields size arrays and tag random streams in 32-bit words; the seed,
            # entropy of any size, is exempt
            check(name, not isinstance(value, int) or float in kinds or name == "seed"
                  or value <= _INT_MAX, f"<= {_INT_MAX}")
            if float in kinds and value is not None:
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int literal; too long to print in full
                    raise ConfigError(f"{name} is an integer of {value.bit_length()} bits, "
                                      "beyond a float's range") from None
                # JSON's Infinity and NaN parse to floats; only the budget may be unbounded
                check(name, finite or name == "energy_budget_j", "finite")

        check("rounds", self.rounds >= 1, ">= 1")
        check("workers", self.workers >= 1, ">= 1")
        check("trials", self.trials >= 1, ">= 1")
        # numpy's SeedSequence takes no negative entropy
        check("seed", self.seed >= 0, ">= 0")
        check("select_fraction", 0.0 < self.select_fraction <= 1.0, "in (0, 1]")
        check("threshold", 0.0 <= self.threshold <= 1.0, "in [0, 1]")
        check("epochs", self.epochs >= 1, ">= 1")
        check("batch_size", self.batch_size >= 1, ">= 1")
        check("learning_rate", self.learning_rate > 0.0, "positive")
        check("deadline_s", self.deadline_s is None or self.deadline_s > 0.0,
              "positive when given")
        check("bandwidth_hz", self.bandwidth_hz > 0.0, "positive")
        check("noise_power_w", self.noise_power_w > 0.0, "positive")
        check("bandwidth_mode", self.bandwidth_mode in BANDWIDTH_MODES, f"one of {BANDWIDTH_MODES}")
        check("channel_mode", self.channel_mode in CHANNEL_MODES, f"one of {CHANNEL_MODES}")
        check("antennas", self.antennas >= 1, ">= 1")
        check("pathloss_exp", self.pathloss_exp > 0.0, "positive")
        need(0.0 < self.distance_min_m <= self.distance_max_m,
             "need 0 < distance_min_m <= distance_max_m")
        # distances are drawn between the bounds, where the pathloss is monotone
        need(all(_positive_finite_power(d, -self.pathloss_exp)
                 for d in (self.distance_min_m, self.distance_max_m)),
             f"the pathloss distance ** -pathloss_exp must be a positive finite float at "
             f"distance_min_m {self.distance_min_m!r} and distance_max_m "
             f"{self.distance_max_m!r}, with pathloss_exp {self.pathloss_exp!r}")
        gain = self.antennas * self.distance_min_m ** -self.pathloss_exp / self.noise_power_w
        need(gain < math.inf, "the mean link gain antennas * distance_min_m ** -pathloss_exp / "
             f"noise_power_w overflows a float at distance_min_m {self.distance_min_m!r}")
        need(_positive_finite_power(10.0, self.rician_k_db / 10.0),
             f"rician_k_db {self.rician_k_db!r} must give a positive finite linear factor "
             "10 ** (rician_k_db / 10)")
        need(0.0 < self.f_min_hz <= self.f_max_hz, "need 0 < f_min_hz <= f_max_hz")
        need(self.p_min_dbm <= self.p_max_dbm, "need p_min_dbm <= p_max_dbm")
        try:  # p_min_dbm <= p_max_dbm, so p_min_w converts too
            self.p_max_w
        except OverflowError:
            raise ConfigError(f"p_max_dbm {self.p_max_dbm} overflows a power in watts") from None
        # grouped as the planner's p_max * beta / share, on the narrowest share
        need(self.p_max_w * gain / (self.bandwidth_hz / self.workers) < math.inf,
             "the SNR at p_max on the narrowest share, p_max_w * antennas * distance_min_m ** "
             "-pathloss_exp / noise_power_w / (bandwidth_hz / workers), overflows a float at "
             f"p_max_dbm {self.p_max_dbm!r}")
        check("capacitance", self.capacitance > 0.0, "positive")
        check("cycles_per_sample", self.cycles_per_sample > 0.0, "positive")
        check("energy_budget_j", self.energy_budget_j >= 0.0, "non-negative")
        check("hidden_width", self.hidden_width is None or self.hidden_width >= 1,
              ">= 1 when given")
        check("data_source", self.data_source in ("synthetic", "mnist"), "'synthetic' or 'mnist'")
        check("synthetic_dim", self.synthetic_dim >= 1, ">= 1")
        check("synthetic_classes", self.synthetic_classes >= 2, ">= 2")
        need(self.synthetic_samples >= self.synthetic_classes,
             "synthetic_samples must be >= synthetic_classes")
        check("synthetic_spread", self.synthetic_spread > 0.0, "positive")
        if self.data_source == "mnist":
            need(self.mnist_images_path is not None and self.mnist_labels_path is not None,
                 "mnist data_source needs mnist_images_path and mnist_labels_path")
        check("mnist_subset", self.mnist_subset is None or self.mnist_subset >= 1,
              ">= 1 when given")
        check("partition", self.partition in ("iid", "noniid"), "'iid' or 'noniid'")
        check("classes_per_worker", self.classes_per_worker >= 1, ">= 1")
        check("train_fraction", 0.0 < self.train_fraction < 1.0, "in (0, 1)")

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if math.isinf(self.energy_budget_j):
            d["energy_budget_j"] = None  # JSON has no infinity
        return d


def _accepted_types(hint) -> tuple[type, ...]:
    """What a field annotated `hint` (int, float, str, or X | None) may hold.

    JSON has one number type, so a float field takes an int too.  bool is an
    int subclass, so __post_init__ rejects it separately.
    """
    widen = {float: (int, float)}
    return tuple(t for h in typing.get_args(hint) or (hint,) for t in widen.get(h, (h,)))


_FIELD_TYPES = {
    name: _accepted_types(hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ConfigError, not the last."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"repeats key(s) {', '.join(repeated)}")
    return dict(pairs)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config; see ExperimentConfig for the fields."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"config {path} {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal longer than Python converts from text
        raise ConfigError(f"config {path} holds a number that cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config field(s) in {path}: {', '.join(unknown)}")
    if raw.get("energy_budget_j", 0) is None:
        raw = dict(raw)
        raw["energy_budget_j"] = math.inf
    return ExperimentConfig(**raw)


def write_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.as_dict(), indent=2, sort_keys=True) + "\n")


def generate_synthetic(
    dim: int, classes: int, samples: int, spread: float, rng: np.random.Generator
) -> LabeledDataset:
    """Gaussian blobs with near-balanced labels and unit-separated class means."""
    if classes < 2 or dim < 1 or samples < classes:
        raise ValueError("need classes >= 2, dim >= 1, samples >= classes")
    if spread <= 0.0:
        raise ValueError(f"spread must be positive, got {spread}")
    base, extra = divmod(samples, classes)
    labels = np.repeat(np.arange(classes), base)
    labels = np.concatenate([labels, np.arange(extra)])
    labels = labels[rng.permutation(samples)]
    # class c's mean is 1 + c // dim on axis c % dim, added in place to the noise
    features = rng.standard_normal((samples, dim))
    features *= spread
    features[np.arange(samples), labels % dim] += 1.0 + labels // dim
    return LabeledDataset(features=features, labels=labels.astype(np.int64))


def _read_idx(path: Path, expected_magic: int, kind: str) -> np.ndarray:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IdxFormatError(f"cannot read {kind} file {path}: {exc}") from exc
    if len(blob) < 8:
        raise IdxFormatError(f"{kind} file {path} is truncated before the header")
    magic, count = struct.unpack(">II", blob[:8])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{kind} file {path} has magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    if expected_magic == _IDX_IMAGES_MAGIC:
        if len(blob) < 16:
            raise IdxFormatError(f"{kind} file {path} is truncated before the dimensions")
        rows, cols = struct.unpack(">II", blob[8:16])
        if rows == 0 or cols == 0:
            raise IdxFormatError(f"{kind} file {path} declares {rows}x{cols} images")
        body = np.frombuffer(blob, dtype=np.uint8, offset=16)
        if body.size != count * rows * cols:
            raise IdxFormatError(
                f"{kind} file {path} declares {count}x{rows}x{cols} pixels "
                f"but holds {body.size}"
            )
        return body.reshape(count, rows * cols)
    body = np.frombuffer(blob, dtype=np.uint8, offset=8)
    if body.size != count:
        raise IdxFormatError(f"{kind} file {path} declares {count} labels but holds {body.size}")
    return body


def load_mnist_idx(
    images_path: str | Path,
    labels_path: str | Path,
    subset_size: int | None,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Load an IDX image/label pair, scale pixels to [0, 1], shuffle, subset."""
    images = _read_idx(Path(images_path), _IDX_IMAGES_MAGIC, "images")
    labels = _read_idx(Path(labels_path), _IDX_LABELS_MAGIC, "labels")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image/label counts differ: {images.shape[0]} vs {labels.shape[0]}"
        )
    n = images.shape[0]
    if n == 0:
        raise IdxFormatError("dataset files contain zero examples")
    order = rng.permutation(n)
    if subset_size is not None:
        if subset_size < 1:
            raise ValueError(f"subset_size must be >= 1, got {subset_size}")
        if subset_size > n:
            raise IdxFormatError(
                f"mnist_subset {subset_size} exceeds the {n} examples in {images_path}"
            )
        order = order[:subset_size]
    return LabeledDataset(
        features=images[order].astype(np.float64) / 255.0,
        labels=labels[order].astype(np.int64),
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def write_metrics(
    per_trial: list[list[RoundRecord]],
    out_dir: str | Path,
    config: ExperimentConfig,
) -> dict[str, Path]:
    """Write global.csv, workers.csv, and the run manifest; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "global": out / "global.csv",
        "workers": out / "workers.csv",
        "manifest": out / "manifest.json",
    }

    with paths["global"].open("w", newline="") as fh:
        fh.write(GLOBAL_HEADER + "\n")
        w = csv.writer(fh, lineterminator="\n")
        # round by round mean across trials; strict: every trial ran the same rounds.
        # Each column is a contiguous row, so its mean sums as a 1-D mean does.
        for rows in zip(*per_trial, strict=True):
            table = np.array([[getattr(r, col) for r in rows] for col in GLOBAL_COLUMNS])
            w.writerow([rows[0].round_index] + [_fmt(m) for m in np.mean(table, axis=1)])

    if len(per_trial) > 1:
        paths["global_by_trial"] = out / "global_by_trial.csv"
        with paths["global_by_trial"].open("w", newline="") as fh:
            fh.write("trial," + GLOBAL_HEADER + "\n")
            w = csv.writer(fh, lineterminator="\n")
            for t, records in enumerate(per_trial):
                for r in records:
                    w.writerow(
                        [t, r.round_index] + [_fmt(getattr(r, col)) for col in GLOBAL_COLUMNS]
                    )

    with paths["workers"].open("w", newline="") as fh:
        fh.write(WORKERS_HEADER + "\n")
        w = csv.writer(fh, lineterminator="\n")
        for t, records in enumerate(per_trial):
            for rec in records:
                for s in rec.worker_stats:
                    c = s.charged
                    w.writerow([
                        t, rec.round_index, s.worker_id, s.kappa,
                        _fmt(c.e_cmp_j), _fmt(c.e_up_j), _fmt(c.t_cmp_s), _fmt(c.t_up_s),
                        _fmt(c.f_hz), _fmt(c.p_w), _fmt(c.bandwidth_hz / config.bandwidth_hz),
                        int(s.feasible),
                    ])

    manifest = {"version": __version__, "seed": config.seed, "config": config.as_dict()}
    paths["manifest"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return paths


def build_workers(
    config: ExperimentConfig, train: LabeledDataset, trial: int
) -> list[WorkerProfile]:
    """Partition the training data and attach hardware/placement profiles, each with its
    rows: their positions in train, as the trial's partition dealt them.  A split the
    partition cannot make, the one check of the fleet against the data, is a ConfigError."""
    part_rng = substream(config.seed, DOMAIN_PARTITION, trial)
    try:
        if config.partition == "iid":
            shards = partition_iid(train, config.workers, part_rng)
        else:
            shards = partition_noniid(
                train, config.workers, part_rng, classes_per_worker=config.classes_per_worker
            )
    except ValueError as exc:
        raise ConfigError(f"workers {config.workers} with partition {config.partition!r} and "
                          f"classes_per_worker {config.classes_per_worker} do not fit the "
                          f"{len(train)} training samples: {exc}") from exc
    bounds = DeviceBounds(
        f_min_hz=config.f_min_hz,
        f_max_hz=config.f_max_hz,
        p_min_w=config.p_min_w,
        p_max_w=config.p_max_w,
        capacitance=config.capacitance,
    )
    prof_rng = substream(config.seed, DOMAIN_PROFILE, trial)
    # each worker's (distance, angle), drawn in the order of 2k scalar draws
    placements = prof_rng.uniform((config.distance_min_m, 0.0),
                                  (config.distance_max_m, 2.0 * np.pi), (len(shards), 2))
    return [WorkerProfile(worker_id=wid, rows=shard, bounds=bounds, distance_m=distance,
                          los_angle=los_angle, remaining_energy_j=config.energy_budget_j)
            for wid, (shard, (distance, los_angle))
            in enumerate(zip(shards, placements.tolist()))]


def load_dataset(config: ExperimentConfig) -> LabeledDataset:
    """Build the full dataset the config describes (shared by all trials)."""
    rng = substream(config.seed, DOMAIN_DATA)
    if config.data_source == "synthetic":
        return generate_synthetic(
            config.synthetic_dim, config.synthetic_classes,
            config.synthetic_samples, config.synthetic_spread, rng,
        )
    return load_mnist_idx(
        config.mnist_images_path, config.mnist_labels_path, config.mnist_subset, rng
    )


def split_train_test(
    data: LabeledDataset, train_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded train/test split; ConfigError when either side would be empty."""
    n = len(data)
    n_train = int(round(train_fraction * n))
    if not 0 < n_train < n:
        raise ConfigError(f"train_fraction {train_fraction} leaves an empty split of {n} samples")
    order = substream(seed, DOMAIN_DATA, 1).permutation(n)
    return data.take(order[:n_train]), data.take(order[n_train:])


def run_from_config(
    config: ExperimentConfig,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    quiet: bool = False,
) -> tuple[list[list[RoundRecord]], dict[str, Path]]:
    """Run all trials, write metrics, and return (per-trial records, paths).  A `seed`
    replaces config.seed, in the run and in its manifest."""
    if seed is not None:
        config = dataclasses.replace(config, seed=int(seed))
    out = Path(out_dir or config.output_dir)
    try:  # before any training: a run must not fail on its output after all its rounds
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    train, test = split_train_test(load_dataset(config), config.train_fraction, config.seed)
    n_classes = int(max(train.labels.max(), test.labels.max())) + 1
    hidden = config.hidden_width or (32 if config.data_source == "mnist" else 16)
    architecture = [train.features.shape[1], hidden, n_classes]
    per_trial = []
    for t in range(config.trials):
        fleet = build_workers(config, train, t)
        records, _ = run_experiment(fleet, train, test, architecture, config, trial=t)
        per_trial.append(records)
        if not quiet:
            last = records[-1]
            print(
                f"trial {t}: loss {last.test_loss:.4f} acc {last.test_accuracy:.4f} "
                f"energy {last.cum_energy_j:.6g} J"
            )
    paths = write_metrics(per_trial, out, config)
    return per_trial, paths


def cli_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="feelsim",
        description="Deadline-driven federated edge learning simulator with "
        "confidence-based sample filtering and per-round energy optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the config output directory")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code) if exc.code else 0

    try:
        config = load_config(args.config)
        _, paths = run_from_config(config, seed=args.seed, out_dir=args.out)
    except (ConfigError, IdxFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
