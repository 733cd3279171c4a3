"""Output check for one feelsim run directory.

The check gates on invariants that hold for any correct run, never on pinned
digests, accuracies or energies, so a change that legitimately moves those
numbers (a different deadline model, say) still passes.
"""
from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

REL_TOL = 1e-9


def digest(path: str | Path) -> str:
    """sha256 of a file's bytes, as hex."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _within(x: float, lo: float, hi: float) -> bool:
    return lo - REL_TOL * abs(lo) <= x <= hi + REL_TOL * abs(hi)


def _energy_ok(x: float) -> bool:
    return math.isfinite(x) and x >= 0.0


def check_outputs(
    global_csv: str | Path,
    workers_csv: str | Path,
    rounds: int,
    deadlines: list[float],
    f_range: tuple[float, float],
    p_range: tuple[float, float],
) -> list[str]:
    """Return the invariant violations found in a run's metrics files.

    `deadlines[t]` is the deadline trial t resolved to. Every delivered worker
    row must fill that deadline exactly (t_cmp_s + t_up_s) and keep its clock
    and transmit power inside the device envelope; every energy is finite and
    non-negative; the cumulative energy never decreases; accuracy lies in
    [0, 1]; global.csv has one row per round.
    """
    problems: list[str] = []
    try:
        with open(workers_csv, newline="") as fh:
            for line, row in enumerate(csv.DictReader(fh), start=2):
                where = f"workers.csv line {line}"
                e_cmp, e_up = float(row["e_cmp_j"]), float(row["e_up_j"])
                if not (_energy_ok(e_cmp) and _energy_ok(e_up)):
                    problems.append(f"{where}: energies {e_cmp}, {e_up} not finite and >= 0")
                if row["feasible"] != "1":
                    continue
                deadline = deadlines[int(row["trial"])]
                filled = float(row["t_cmp_s"]) + float(row["t_up_s"])
                if not _close(filled, deadline):
                    problems.append(f"{where}: t_cmp_s + t_up_s = {filled!r}, deadline {deadline!r}")
                f_hz = float(row["f_cmp_hz"])
                if not _within(f_hz, *f_range):
                    problems.append(f"{where}: f_cmp_hz {f_hz!r} outside {f_range}")
                p_w = float(row["p_up_w"])
                if not _within(p_w, *p_range):
                    problems.append(f"{where}: p_up_w {p_w!r} outside {p_range}")

        n_rows = 0
        prev_cum = 0.0
        with open(global_csv, newline="") as fh:
            for line, row in enumerate(csv.DictReader(fh), start=2):
                where = f"global.csv line {line}"
                n_rows += 1
                inst, cum = float(row["inst_energy_j"]), float(row["cum_energy_j"])
                if not (_energy_ok(inst) and _energy_ok(cum)):
                    problems.append(f"{where}: energies {inst}, {cum} not finite and >= 0")
                if cum < prev_cum:
                    problems.append(f"{where}: cum_energy_j fell from {prev_cum!r} to {cum!r}")
                prev_cum = cum
                acc = float(row["test_accuracy"])
                if not 0.0 <= acc <= 1.0:
                    problems.append(f"{where}: test_accuracy {acc!r} outside [0, 1]")
        if n_rows != rounds:
            problems.append(f"global.csv has {n_rows} rows, expected {rounds}")
    except (KeyError, IndexError, ValueError) as exc:
        problems.append(f"malformed metrics file: {exc!r}")
    return problems
