"""Built-in end-to-end checks, runnable offline via `feelsim selftest`.

Two short simulations confirm that an installed copy runs and behaves: the
thread pool leaves the metrics bytes unchanged, and confidence filtering
saves energy.  The numerical checks live in the test suite under tests/.
"""
from __future__ import annotations

import tempfile

from .io_cli import ExperimentConfig, run_from_config


def _small_config(**overrides) -> ExperimentConfig:
    base = dict(
        rounds=8, workers=6, trials=1, seed=5, select_fraction=0.4,
        threshold=0.7, epochs=3, batch_size=20, learning_rate=0.05,
        synthetic_samples=900, synthetic_dim=8, synthetic_classes=4,
        synthetic_spread=0.3, cycles_per_sample=5e5, noise_power_w=1e-12,
        distance_max_m=60.0, output_dir="unused",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _check_run_determinism() -> str:
    outputs = []
    for workers in (1, 3):
        with tempfile.TemporaryDirectory() as td:
            _, paths = run_from_config(
                _small_config(parallel_workers=workers), out_dir=td, quiet=True
            )
            outputs.append(paths["global"].read_bytes())
    assert outputs[0] == outputs[1], "parallel schedule changed the metrics bytes"
    return "serial and threaded runs byte-identical"


def _check_filter_saves_round_energy() -> str:
    results = {}
    for theta in (0.7, 1.0):
        with tempfile.TemporaryDirectory() as td:
            records, _ = run_from_config(
                _small_config(threshold=theta), out_dir=td, quiet=True
            )
            results[theta] = records[0][-1].cum_energy_j
    assert results[0.7] < results[1.0], (
        f"filtering did not reduce energy: {results[0.7]} >= {results[1.0]}"
    )
    saved = 1.0 - results[0.7] / results[1.0]
    return f"filtered run uses {saved:.1%} less energy"


CHECKS = [
    ("run_determinism", _check_run_determinism),
    ("filter_saves_round_energy", _check_filter_saves_round_energy),
]


def run_selftest() -> int:
    """Run every check; print one PASS/FAIL line each; return the fail count."""
    failed = 0
    for name, fn in CHECKS:
        try:
            detail = fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001  - a crash is a failure too
            failed += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}" + (f" ({detail})" if detail else ""))
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return failed


if __name__ == "__main__":
    raise SystemExit(run_selftest())
