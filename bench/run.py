#!/usr/bin/env python3
"""feelsim benchmark: end-to-end timings of `run_from_config` and a traced per-layer breakdown.

Run from the root of a feelsim checkout (the program is imported from src/,
nothing is installed):

    python3 bench/run.py --workload preset-filtered --seed 1 --seconds 40 --trace 0

The workload runs in process: one untimed warm-up, then repetitions until
--seconds have passed. Every repetition's metrics files are checked
(checks.py) and must be byte-identical to the warm-up's. With --trace 0 the
plain `feelsim run` command line then runs the same config and seed in fresh
processes, which gives peak memory and shows that the benchmark measures the
shipped program: its files must have the same bytes. With --trace 1 the
repetitions alternate between untraced and traced (tracer.py); the per-layer
figures come from the traced ones and the tracing overhead is the difference
of the two medians.

Timings are wall-clock times adjusted to a reference host speed (see
CALIBRATION_REF_S); the raw median run time and the host speed factor are
printed beside them.

Human-readable lines come first; the last line is one JSON object with keys
correct, attempted, failed and metrics, whose names and units are those of
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from checks import check_outputs, digest
from tracer import Probe, layer_values

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (shipped config, overrides). All run single-process
# (parallel_workers 1), one trial.
WORKLOADS = {
    # Training bound by Python overhead on tiny matrices; the filter drops
    # most samples after epoch 1.
    "preset-filtered": ("configs/synthetic_filtered.json", {}),
    # Threshold 1.0: the filter runs but keeps everything, so every epoch
    # trains on the full shard.
    "preset-unfiltered": ("configs/synthetic_unfiltered.json", {}),
    # The scaled fleet: 200 workers on 16-sample train shards, 20 scheduled a
    # round, 784-wide input. With 4 antennas and 19 interferers per beam the
    # derived deadline is ~1e10 s and every planner search runs out its
    # iteration budget; this fleet size is kept so that defect stays visible.
    # At such deadlines t_cmp_s = deadline - t_up_s keeps only a few digits,
    # and on most seeds (17 of seeds 1-20) every delivered f_cmp_hz lands
    # 2.3e-5 below f_min, which the output check rejects. The fleet is left out
    # of BENCHMARK.json's workloads until the deadline is fixed.
    "fleet-784": ("configs/synthetic_filtered.json",
                  {"synthetic_dim": 784, "synthetic_classes": 10, "workers": 200, "rounds": 10}),
}
MIN_REPS = 3  # per kind (untraced, traced) of timed repetition
RSS_PROCESSES = 3
CHILD_TIMEOUT_S = 150
# Host speed drifts: on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6) the same
# run took 0.22 to 0.45 s within one minute, and CPU time tracked wall time,
# so the host itself ran slower, not the scheduler. Timings are therefore
# reported at a reference speed: scaled by CALIBRATION_REF_S over what
# calibration_s() took around the same repetition. CALIBRATION_REF_S is that
# kernel's median time on the host above; raw medians are printed as well.
CALIBRATION_REF_S = 0.016
# The plain command line, wrapped only to report the process's own peak RSS.
CLI_CODE = (
    "import resource\n"
    "from feelsim.io_cli import main\n"
    "try:\n"
    "    main()\n"
    "finally:\n"
    "    print('peak_rss_kb', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def load_program():
    """Import feelsim from this checkout's src/ and return its io_cli module."""
    if not (SRC / "feelsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no feelsim sources under {SRC}; run from a feelsim checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from feelsim import io_cli

    if Path(io_cli.__file__).resolve().parent != SRC / "feelsim":
        raise SystemExit(f"error: imported feelsim from {io_cli.__file__}, not {SRC}")
    return io_cli


def metric_specs(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def workload_config(io_cli, name: str, rounds: int | None = None):
    path, overrides = WORKLOADS[name]
    config = dataclasses.replace(io_cli.load_config(ROOT / path), **overrides)
    if rounds is not None:
        config = dataclasses.replace(config, rounds=rounds)
    if config.parallel_workers != 1 or config.trials != 1:
        raise SystemExit(f"error: workload {name} must run one trial on one thread")
    return config


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in threads},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


class Session:
    """Repetitions of one workload at one seed, and their verdicts."""

    def __init__(self, io_cli, config, seed: int, work: Path):
        self.io_cli, self.config, self.seed, self.work = io_cli, config, seed, work
        self.attempted = 0
        self.failed = 0
        self.reference: tuple[str, str] | None = None  # (global.csv, workers.csv) sha256

    def _verdict(self, digests: tuple[str, str], problems: list[str], what: str) -> None:
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problems = problems + [f"output digests {digests} differ from {self.reference}"]
        if problems:
            if not self.failed:  # the first failure explains the rest
                print(f"check failed ({what}): {len(problems)} problems, first: "
                      + "; ".join(problems[:3]), file=sys.stderr)
            self.failed += 1

    def repetition(self, trace: bool) -> dict | None:
        """One run_from_config; its raw timings, or None if it raised.

        A run that completes but fails the output check still returns its
        timings; it counts as failed.
        """
        self.attempted += 1
        out = self.work / "inprocess"
        probe = Probe(trace=trace)
        try:
            with probe:
                t0 = time.perf_counter()
                records, paths = self.io_cli.run_from_config(
                    self.config, seed=self.seed, out_dir=out, quiet=True)
                t1 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        cfg = self.config
        problems = check_outputs(
            paths["global"], paths["workers"], cfg.rounds, probe.deadlines,
            (cfg.f_min_hz, cfg.f_max_hz), (cfg.p_min_w, cfg.p_max_w))
        self._verdict((digest(paths["global"]), digest(paths["workers"])), problems,
                      "traced run" if trace else "run")
        first, last = probe.rounds[0][0], probe.rounds[-1][1]
        return {
            "run_s": t1 - t0,
            "setup_s": first - t0,
            "worker_rounds_per_s": sum(len(r.worker_stats) for t in records for r in t) / (last - first),
            "round_s": [end - start for start, end in probe.rounds],
            "layers": layer_values(probe, records, paths) if trace else None,
        }

    def cli_process(self) -> float | None:
        """Run the plain command line in a fresh process; its peak RSS in MB, or None if it failed."""
        self.attempted += 1
        out = self.work / "cli"
        config_path = self.work / "config.json"
        self.io_cli.write_config(self.config, config_path)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c", CLI_CODE, "run", "--config", str(config_path),
               "--seed", str(self.seed), "--out", str(out)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"feelsim run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            self.failed += 1
            return None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("peak_rss_kb "):
            print(f"feelsim run failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
            self.failed += 1
            return None
        self._verdict((digest(out / "global.csv"), digest(out / "workers.csv")), [],
                      "feelsim run")
        return int(lines[-1].split()[1]) / 1024.0


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def calibration_s() -> float:
    """Seconds this host takes for a fixed kernel of the program's kind of work.

    Python float arithmetic, then products and reductions of small numpy
    matrices. The kernel is the benchmark's own code, so no change to the
    program can speed it up.
    """
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((20, 8)), rng.standard_normal((16, 8))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += math.exp(-1e-5 * i) * (i % 7)
    for _ in range(2_000):
        z = a @ w.T
        np.maximum(z, 0.0, out=z)
        z.sum(axis=0)
    return time.perf_counter() - t0


def adjust(rep: dict, speed: float) -> dict:
    """A repetition's timings at the reference host speed: times x speed, rates / speed."""
    layers = rep["layers"]
    return {
        "raw_run_s": rep["run_s"],
        "run_s": rep["run_s"] * speed,
        "setup_s": rep["setup_s"] * speed,
        "worker_rounds_per_s": rep["worker_rounds_per_s"] / speed,
        "round_s": [x * speed for x in rep["round_s"]],
        "layers": layers and {k: v * speed if k.endswith("_s") else v for k, v in layers.items()},
    }


def measure(io_cli, config, seed: int, seconds: float, trace: bool, work: Path):
    """Repeat the workload for `seconds`; return (session, metrics, report lines).

    Every timing is host-speed adjusted: a repetition's raw timings are scaled
    by CALIBRATION_REF_S over the mean calibration_s() just before and just
    after it (see CALIBRATION_REF_S).
    """
    session = Session(io_cli, config, seed, work)
    calibration_s()  # warm the kernel up
    before = calibration_s()
    session.repetition(trace=False)  # warm-up: untimed, but checked
    plain: list[dict] = []
    traced: list[dict] = []
    speeds: list[float] = []
    kinds = [(plain, False)] + ([(traced, True)] if trace else [])
    stop = time.perf_counter() + seconds
    while True:
        for reps, is_traced in kinds:
            rep = session.repetition(trace=is_traced)
            after = calibration_s()
            speed = CALIBRATION_REF_S / (0.5 * (before + after))
            before = after
            if rep is not None:
                speeds.append(speed)
                reps.append(adjust(rep, speed))
        # failed runs may never reach MIN_REPS
        if time.perf_counter() >= stop and (
                session.failed or all(len(r) >= MIN_REPS for r, _ in kinds)):
            break
    if not plain or (trace and not traced):
        raise SystemExit("error: no repetition of the workload succeeded")

    lines = []

    def stat(name: str, unit: str, values: list[float]) -> float:
        q1, q2, q3 = quartiles(values)
        lines.append(f"{name} {q2!r} {unit} (median; p25 {q1:.6g}, p75 {q3:.6g}, n={len(values)})")
        return q2

    stat("host_speed", "x", speeds)
    stat("raw_run_s", "s", [r["raw_run_s"] for r in plain])
    metrics: dict[str, float] = {}
    run_s = stat("run_s", "s", [r["run_s"] for r in plain])
    if not trace:
        metrics["run_s"] = run_s
        metrics["setup_s"] = stat("setup_s", "s", [r["setup_s"] for r in plain])
        metrics["worker_rounds_per_s"] = stat(
            "worker_rounds_per_s", "1/s", [r["worker_rounds_per_s"] for r in plain])
        pooled = [x * 1e3 for r in plain for x in r["round_s"]]
        deciles = statistics.quantiles(pooled, n=10, method="inclusive")
        metrics["round_ms_p50"], metrics["round_ms_p90"] = deciles[4], deciles[8]
        lines.append(f"round_ms_p50 {deciles[4]!r} ms, round_ms_p90 {deciles[8]!r} ms "
                     f"(pooled over {len(plain)} runs, n={len(pooled)} rounds)")
        rss = [mb for mb in (session.cli_process() for _ in range(RSS_PROCESSES)) if mb is not None]
        if rss:
            metrics["peak_rss_mb"] = stat("peak_rss_mb", "MB", rss)
        return session, metrics, lines

    traced_s = stat("trace.run_s", "s", [r["run_s"] for r in traced])
    metrics["trace.overhead_s"] = traced_s - run_s
    lines.append(f"trace.overhead_s {traced_s - run_s!r} s (traced minus untraced median run_s)")
    per_rep = [r["layers"] for r in traced]
    for name in per_rep[0]:
        values = [layers[name] for layers in per_rep]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
            lines.append(f"{name} {metrics[name]!r} s (median of {len(values)} traced runs)")
        else:
            if len(set(values)) != 1:
                print(f"check failed: count {name} differs between runs: {values}", file=sys.stderr)
                session.failed += 1
            metrics[name] = values[0]
            lines.append(f"{name} {values[0]!r} (same in all {len(values)} traced runs)")
    return session, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    io_cli = load_program()
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    config = workload_config(io_cli, args.workload)
    env = environment(args.seed)
    work = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=ROOT))
    try:
        session, values, lines = measure(io_cli, config, args.seed, args.seconds,
                                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(specs) - set(values))
    if missing and session.failed == 0:
        raise SystemExit(f"error: benchmark computed no value for {missing}")
    verdict = "ok" if session.failed == 0 else "FAILED"
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"output check {verdict}")
    print(f"digest global.csv {session.reference[0]} workers.csv {session.reference[1]}")
    for line in lines:
        print(line)
    print(f"failed_frac {session.failed / session.attempted!r} "
          f"({session.failed} of {session.attempted} runs failed)")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in specs.items() if n in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
