"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q bench
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from checks import check_outputs
from tracer import Probe

io_cli = run.load_program()
BENCHMARKED = {w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_shortened_run_emits_every_metric(workload, trace, tmp_path):
    config = run.workload_config(io_cli, workload, rounds=2)
    session, metrics, lines = run.measure(io_cli, config, 3, 0.0, trace, tmp_path)
    expected = run.metric_specs("per_layer" if trace else "end_to_end")
    assert set(metrics) == set(expected)
    assert all(math.isfinite(v) for v in metrics.values())
    assert lines
    if workload in BENCHMARKED:
        assert session.failed == 0


@pytest.mark.xfail(strict=True, reason="derived deadline ~5e10 s leaves t_cmp_s a few digits, "
                   "so f_cmp_hz falls 2.3e-5 below f_min; add fleet-784 to BENCHMARK.json "
                   "once this passes")
def test_fleet_passes_output_check(tmp_path):
    config = run.workload_config(io_cli, "fleet-784", rounds=2)
    session = run.Session(io_cli, config, 2, tmp_path)
    session.repetition(trace=False)
    assert session.failed == 0


def _run_outputs(tmp_path):
    config = run.workload_config(io_cli, "preset-filtered", rounds=3)
    with Probe() as probe:
        _, paths = io_cli.run_from_config(config, seed=2, out_dir=tmp_path, quiet=True)
    args = (config.rounds, probe.deadlines,
            (config.f_min_hz, config.f_max_hz), (config.p_min_w, config.p_max_w))
    return paths, args


def test_check_accepts_untouched_outputs(tmp_path):
    paths, args = _run_outputs(tmp_path)
    assert check_outputs(paths["global"], paths["workers"], *args) == []


def test_check_rejects_row_off_the_deadline(tmp_path):
    paths, args = _run_outputs(tmp_path)
    with open(paths["workers"], newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    feasible, t_up = header.index("feasible"), header.index("t_up_s")
    row = next(r for r in rows[1:] if r[feasible] == "1")
    row[t_up] = repr(float(row[t_up]) * (1.0 + 1e-6))
    with open(paths["workers"], "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    problems = check_outputs(paths["global"], paths["workers"], *args)
    assert len(problems) == 1 and "deadline" in problems[0]


def test_check_rejects_falling_cumulative_energy(tmp_path):
    paths, args = _run_outputs(tmp_path)
    lines = paths["global"].read_text().splitlines()
    last = lines[-1].split(",")
    last[4] = "0.0"  # cum_energy_j
    lines[-1] = ",".join(last)
    paths["global"].write_text("\n".join(lines) + "\n")
    problems = check_outputs(paths["global"], paths["workers"], *args)
    assert any("cum_energy_j fell" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = [sys.executable, *spec["command"][1:], "--workload", "preset-filtered",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
