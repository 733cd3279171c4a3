#!/usr/bin/env python3
"""Print the sha256 of every run's metrics files over a fixed matrix of configs.

Run from the root of a feelsim checkout (the program is imported from its
src/, nothing is installed):

    python3 tools/digest_matrix.py > digests.txt

The first line is `# ` and the environment the bytes depend on (see header);
each line after it is `case seed sha256(global.csv) sha256(workers.csv)`. A
change meant to keep the output bytes is checked by running this in a checkout
of the parent commit and in the change, then diffing the two outputs. Every run
is in this one process, into a temporary directory that is removed at the
end; nothing is timed.

The tier-1 suite also runs every entry of CASES at seed 1, capped at 3 rounds,
against the plain reference run in tests/reference.py (tests/test_reference.py),
so a case added here is pinned there too.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FILTERED, UNFILTERED = "configs/synthetic_filtered.json", "configs/synthetic_unfiltered.json"
FLEET = {"synthetic_dim": 784, "synthetic_classes": 10, "workers": 200, "rounds": 10}

# name -> (shipped config, overrides), each run at SEEDS. The presets and the
# 784-wide fleet, then variants that move what training and planning see:
# shard shapes, batch and epoch counts, filter verdicts, budgets, forced
# deadlines, the adaptive bandwidth split and the cross-trial mean.
CASES = {
    "preset-filtered": (FILTERED, {}),
    "preset-unfiltered": (UNFILTERED, {}),
    "fleet-784": (FILTERED, FLEET),
    "adaptive": (FILTERED, {"bandwidth_mode": "adaptive"}),
    "noniid-select-0.35": (FILTERED, {"partition": "noniid", "select_fraction": 0.35}),
    "hidden-7-batch-13": (FILTERED, {"hidden_width": 7, "batch_size": 13}),
    "unfiltered-epochs-1": (UNFILTERED, {"epochs": 1}),
    "filtered-epochs-2": (FILTERED, {"epochs": 2}),
    "unfiltered-budget-select-adaptive": (
        UNFILTERED, {"energy_budget_j": 0.05, "select_fraction": 0.5,
                     "bandwidth_mode": "adaptive"}),
    "static-channel": (FILTERED, {"channel_mode": "static"}),
    "threshold-0": (FILTERED, {"threshold": 0.0}),
    "filtered-deadline-0.08": (FILTERED, {"deadline_s": 0.08, "rounds": 30}),
    "filtered-deadline-0.12": (FILTERED, {"deadline_s": 0.12, "rounds": 30}),
    "unfiltered-deadline-0.05": (UNFILTERED, {"deadline_s": 0.05, "rounds": 30}),
    "filtered-adaptive-deadline-0.5": (FILTERED, {"bandwidth_mode": "adaptive", "deadline_s": 0.5}),
    "unfiltered-adaptive-deadline-0.5": (
        UNFILTERED, {"bandwidth_mode": "adaptive", "deadline_s": 0.5}),
    "fleet-784-adaptive-deadline-0.5": (
        FILTERED, {**FLEET, "bandwidth_mode": "adaptive", "deadline_s": 0.5}),
    "fleet-784-adaptive": (FILTERED, {**FLEET, "bandwidth_mode": "adaptive"}),
    "noniid-spread-1.0-threshold-0.6": (
        FILTERED, {"partition": "noniid", "synthetic_spread": 1.0, "threshold": 0.6,
                   "rounds": 30}),
    "filtered-trials-2": (FILTERED, {"trials": 2}),
    # one 4800-row shard filtered per round: the largest filter input in the matrix
    "filtered-shards-4800": (FILTERED, {"workers": 2, "synthetic_samples": 12000, "rounds": 5}),
    # every worker each round on 152- and 153-row shards: the trial's stack, left in the
    # last round's kept order, is loaded longest first again at every round; its 43
    # streams a round fill a 4096-stream schedule window in 95 rounds, so round 96 starts
    # another
    "iid-uneven-all-scheduled": (FILTERED, {"workers": 21, "select_fraction": 1.0}),
    # a long trial: plans are reused and dropped, and step workspaces kept, over 300 rounds
    "filtered-rounds-300": (FILTERED, {"rounds": 300}),
    # the only hidden layer at 784 inputs, where BLAS runs other kernels than at 8
    "fleet-784-hidden-32": (FILTERED, {**FLEET, "hidden_width": 32, "rounds": 3}),
    # 13-wide rows, which start off 64-byte alignment in the training split that both
    # trials deal to their workers and train on
    "dim-13-noniid-trials-2": (
        FILTERED, {"synthetic_dim": 13, "synthetic_classes": 5, "partition": "noniid",
                   "trials": 2, "rounds": 30}),
    # three slots dealt over four classes: one class reaches no worker
    "noniid-classes-left-out": (
        FILTERED, {"partition": "noniid", "workers": 3, "classes_per_worker": 1,
                   "select_fraction": 1.0}),
    # cycles per sample whose products round: the derived deadline prices a shard's
    # cycles as effective_cycles groups them, cycles_per_sample * (epochs * rows)
    "fractional-cycles": (FILTERED, {"cycles_per_sample": 123456.789}),
    # more than 128 classes: numpy adds a row's class sum as two recursive halves, which
    # the filter's and the evaluation's class-axis sums must reproduce
    "classes-130": (FILTERED, {"synthetic_classes": 130, "threshold": 0.05}),
}
SEEDS = (1, 2, 3)
# run at one seed only: the benchmark's fleet seed, the 784-64-10 wide shape with 100
# workers all scheduled, whose set-up is most of its 3.5 s, and two seeds of more than one
# 32-bit word (two and three), which every stream hashes ahead of its tags
EXTRA_CASES = {
    "wide-784": (FILTERED, {**FLEET, "synthetic_samples": 20000, "workers": 100,
                            "select_fraction": 1.0, "hidden_width": 64, "rounds": 1}),
}
EXTRA = [("fleet-784", 5), ("wide-784", 1), ("preset-filtered", 2**32 + 5),
         ("static-channel", 2**70)]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def header() -> str:
    """The environment a run's bytes depend on besides its config and seed: numpy's
    version, the BLAS build numpy reports, the BLAS thread settings and the CPUs this
    process may run on. OpenBLAS splits a 784-deep product by thread, so the thread
    count sets the order its sums round in."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (f"numpy={np.__version__} blas={blas['name']} {blas['version']} {threads} "
            f"cpus={len(os.sched_getaffinity(0))}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_configs():
    """Yield each run's (case, seed, config), in the order main runs them."""
    from feelsim import io_cli

    cases = {**CASES, **EXTRA_CASES}
    for name, seed in [(name, seed) for name in CASES for seed in SEEDS] + EXTRA:
        path, overrides = cases[name]
        yield name, seed, dataclasses.replace(io_cli.load_config(ROOT / path), **overrides)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from feelsim import io_cli

    print("#", header(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed, config in run_configs():
            _, paths = io_cli.run_from_config(config, seed=seed, out_dir=Path(tmp) / name,
                                              quiet=True)
            print(name, seed, sha256(paths["global"]), sha256(paths["workers"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
