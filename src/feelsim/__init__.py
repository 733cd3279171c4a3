"""Energy-aware federated edge learning simulator.

Workers train a shared classifier under a hard per-round deadline; a
confidence filter shrinks each worker's workload after the first local epoch,
and a per-worker optimizer splits the deadline between computation and upload
to minimize round energy.  Everything is deterministic given a seed.
"""
__version__ = "0.1.0"

from .channel import beam_and_gain, sample_channel, uplink_rate
from .federation import (
    ExperimentState,
    RoundRecord,
    WorkerProfile,
    WorkerRoundStats,
    partition_iid,
    partition_noniid,
    run_experiment,
    run_round,
    select_workers,
)
from .learning import (
    FilterDecision,
    LabeledDataset,
    ModelParameters,
    aggregate,
    evaluate,
    filter_samples,
    init_model,
    local_round,
)
from .resource_optimizer import (
    DeviceBounds,
    InfeasibleBandwidthError,
    InfeasibleDeadlineError,
    InfeasibleError,
    InfeasiblePowerError,
    ResourcePlan,
    Workload,
    computation_energy,
    effective_cycles,
    minimize_round_energy,
    optimal_bandwidth,
    required_power,
    upload_time_bounds,
)

# io_cli's names load on first use, so `python -m feelsim.io_cli` runs that
# module once, as __main__, rather than again after the package imported it
_IO_CLI = {"ConfigError", "ExperimentConfig", "cli_main", "generate_synthetic",
           "load_config", "load_mnist_idx", "run_from_config", "write_metrics"}


def __getattr__(name: str):
    if name in _IO_CLI:
        from . import io_cli
        return getattr(io_cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
