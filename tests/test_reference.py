"""The program against tests/reference.py, a plain FEEL run written from the paper's model:
every case of tools/digest_matrix.py at seed 1, capped at 3 rounds, must give equal round
records through run_from_config and the reference, each worker's charged plan included.
wide-784, the tool's one extra case, stays out: its set-up alone takes about 4 s.  Each
distinct dataset is built once for the file.
"""
import dataclasses
import functools
import tempfile

import pytest

from feelsim import io_cli
from feelsim.io_cli import run_from_config
import reference
from helpers import load_tool

TOOL = load_tool("digest_matrix")
CASES = {name: dataclasses.replace(config, seed=1, rounds=min(config.rounds, 3))
         for name, seed, config in TOOL.run_configs() if seed == 1 and name in TOOL.CASES}


@pytest.fixture(autouse=True, scope="module")
def shared_datasets():
    """load_dataset, in the program and the reference, builds each distinct dataset once,
    with its arrays read-only so that an in-place write by either raises."""
    built, load = {}, io_cli.load_dataset

    def shared(config):
        key = tuple(getattr(config, f.name) for f in dataclasses.fields(config)
                    if f.name == "seed" or f.name.startswith(("data_", "synthetic_", "mnist_")))
        if key not in built:
            data = built[key] = load(config)
            data.features.flags.writeable = data.labels.flags.writeable = False
        return built[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_cli, "load_dataset", shared)
        patch.setattr(reference, "load_dataset", shared)
        yield


@functools.cache
def runs(name):
    """A case's records from the program, and (records, fleet) from the reference, per trial."""
    with tempfile.TemporaryDirectory() as out_dir:
        got, _ = run_from_config(CASES[name], out_dir=out_dir, quiet=True)
    return got, reference.run(CASES[name])


@pytest.mark.parametrize("name", CASES)
def test_run_equals_the_reference(name):
    got, want = runs(name)
    assert len(got) == len(want) == CASES[name].trials
    for trial, (records, (expect, _)) in enumerate(zip(got, want)):
        for record, wanted in zip(records, expect, strict=True):
            assert record == wanted, f"{name}: trial {trial}, round {record.round_index}"


def test_cases_reach_every_ledger_branch_and_filter_outcome():
    # delivered; battery cut to its compute; no plan, charged a zero plan on its share.
    # A worker's filter keeps all its rows, none of them, or some.
    branches, outcomes = set(), set()
    for name in CASES:
        for records, fleet in runs(name)[1]:
            sizes = {p.worker_id: len(p.rows) for p in fleet}
            for stats in (s for record in records for s in record.worker_stats):
                branches.add("delivered" if stats.feasible else
                             "cut" if stats.charged.f_hz else "unplanned")
                outcomes.add("all" if stats.kappa == 0 else
                             "none" if stats.kappa == sizes[stats.worker_id] else "some")
    assert branches == {"delivered", "cut", "unplanned"}
    assert outcomes == {"all", "none", "some"}
