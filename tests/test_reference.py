"""The program against tests/reference.py, a plain FEEL run written from the paper's model:
every case of tools/digest_matrix.py at seed 1, capped at 3 rounds, must give the same round
records through run_from_config and the reference; what a plan sets, within the tolerances
below (the reference plans on its own, and an interior optimum is flat).  wide-784, the tool's
one extra case, stays out: its set-up alone takes about 4 s.  Each distinct dataset is built
once for the file.
"""
import ast
import dataclasses
import functools
import tempfile

import pytest

from feelsim import io_cli, resource_optimizer
from feelsim.io_cli import run_from_config
import reference
from helpers import ROOT, load_tool

TOOL = load_tool("digest_matrix")
CASES = {name: dataclasses.replace(config, seed=1, rounds=min(config.rounds, 3))
         for name, seed, config in TOOL.run_configs() if seed == 1 and name in TOOL.CASES}
# measured on CASES: plan numbers 2.0e-7 apart, energies 4.4e-16, the program 4.2e-16 below
PLAN_REL = 1e-6  # each charged plan's numbers
ENERGY_REL = 1e-12  # a plan's energy, a round's, and a battery's to the round's whole spend
BELOW_REL = 1e-14  # how far a delivered plan may spend less than the reference's optimum


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


def parts(record):
    """A round record as (what no plan sets, plans' numbers, energies, batteries left)."""
    stats = record.worker_stats
    return ((record.round_index, record.test_loss, record.test_accuracy,
             record.excluded_fraction, record.n_updates,
             [(s.worker_id, s.kappa, s.feasible) for s in stats]),
            [x for s in stats for x in dataclasses.astuple(s.charged)],
            [record.inst_energy_j, record.cum_energy_j, *(s.charged.total_energy_j for s in stats)],
            [s.remaining_energy_j for s in stats])


@pytest.mark.parametrize("name", CASES)
def test_run_equals_the_reference(name):
    got, want = runs(name)
    assert len(got) == len(want) == CASES[name].trials
    for trial, (records, (expect, _)) in enumerate(zip(got, want)):
        for record, wanted in zip(records, expect, strict=True):
            # delivered with ENERGY_REL of the plan left: the other planner might not have
            ties = [s.worker_id for s in record.worker_stats + wanted.worker_stats if s.feasible
                    and s.remaining_energy_j <= ENERGY_REL * s.charged.total_energy_j]
            at = f"{name}: trial {trial}, round {record.round_index}; near ties: {ties}"
            (exact, plans, energies, batteries), ref = parts(record), parts(wanted)
            assert exact == ref[0], at
            assert plans == pytest.approx(ref[1], rel=PLAN_REL, abs=0.0), at
            assert energies == pytest.approx(ref[2], rel=ENERGY_REL, abs=0.0), at
            assert batteries == pytest.approx(ref[3], rel=ENERGY_REL,
                                              abs=ENERGY_REL * wanted.cum_energy_j), at
            assert all(s.charged.total_energy_j >= w.charged.total_energy_j * (1.0 - BELOW_REL)
                       for s, w in zip(record.worker_stats, wanted.worker_stats) if s.feasible), at


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


def test_reference_borrows_no_planner_function():
    # the reference pins the planner only while it plans apart from it: from
    # feelsim.resource_optimizer it may take types (records, exceptions), no function
    tree = ast.parse(ROOT.joinpath("tests", "reference.py").read_text())
    found = [f"{getattr(node, 'module', '')}.{a.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names
             if "resource_optimizer" in f"{getattr(node, 'module', '')}.{a.name}"
             and not isinstance(getattr(resource_optimizer, a.name, None), type)]
    assert not found, found
