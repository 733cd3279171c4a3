"""Per-round compute/upload scheduling under a hard round deadline.

Each scheduled worker has a deadline T to finish local training and push its
model update.  Training time plus upload time must fill T exactly, so the
single free variable is the upload slot t_up: the CPU clock is then pinned at
f = cycles / (T - t_up), and the transmit power is whatever closes the link
in t_up on the allocated bandwidth.  Total energy is strictly convex in t_up
on the feasible window in practice, and a golden-section search finds the
minimizer without derivatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import Interval, golden_section_min, lambert_w0

_LN2 = math.log(2.0)


class InfeasibleError(RuntimeError):
    """A round plan cannot satisfy the stated constraints."""


class InfeasibleDeadlineError(InfeasibleError):
    """Deadline too short even at the maximum CPU frequency."""


class InfeasiblePowerError(InfeasibleError):
    """Upload cannot finish in time even at maximum transmit power."""


class InfeasibleBandwidthError(InfeasibleError):
    """No finite bandwidth meets the rate target at the given power."""


@dataclass(frozen=True)
class DeviceBounds:
    """Hardware envelope of one worker."""

    f_min_hz: float
    f_max_hz: float
    p_min_w: float
    p_max_w: float
    capacitance: float  # effective switched capacitance, J / (cycle Hz^2)

    def __post_init__(self) -> None:
        if not (0.0 < self.f_min_hz <= self.f_max_hz):
            raise ValueError(f"need 0 < f_min <= f_max, got [{self.f_min_hz}, {self.f_max_hz}]")
        if not (0.0 <= self.p_min_w <= self.p_max_w):
            raise ValueError(f"need 0 <= p_min <= p_max, got [{self.p_min_w}, {self.p_max_w}]")
        if self.capacitance <= 0.0:
            raise ValueError(f"capacitance must be positive, got {self.capacitance}")


@dataclass(frozen=True)
class Workload:
    """One worker's training job for one round."""

    dataset_size: int
    excluded_count: int  # samples filtered out after the first epoch
    epochs: int
    cycles_per_sample: float
    model_bits: int

    def __post_init__(self) -> None:
        if self.dataset_size < 1:
            raise ValueError(f"dataset_size must be >= 1, got {self.dataset_size}")
        if not (0 <= self.excluded_count <= self.dataset_size):
            raise ValueError(
                f"excluded_count must lie in [0, {self.dataset_size}], got {self.excluded_count}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.cycles_per_sample <= 0.0:
            raise ValueError(f"cycles_per_sample must be positive, got {self.cycles_per_sample}")
        if self.model_bits < 1:
            raise ValueError(f"model_bits must be >= 1, got {self.model_bits}")


@dataclass(frozen=True)
class ResourcePlan:
    """Chosen operating point for one worker-round."""

    t_cmp_s: float
    t_up_s: float
    f_hz: float
    p_w: float
    bandwidth_hz: float
    e_cmp_j: float
    e_up_j: float

    @property
    def total_energy_j(self) -> float:
        return self.e_cmp_j + self.e_up_j


def effective_cycles(workload: Workload) -> float:
    """CPU cycles for the round: a full first epoch, filtered data afterwards."""
    w = workload
    # epochs * size - excluded * (epochs - 1) == (epochs - 1) * (size - excluded) + size
    return w.cycles_per_sample * (w.epochs * w.dataset_size - w.excluded_count * (w.epochs - 1))


def computation_energy(workload: Workload, f_hz: float, capacitance: float) -> float:
    """Dynamic CPU energy at clock f_hz for the round's effective cycles."""
    if f_hz <= 0.0:
        raise ValueError(f"CPU frequency must be positive, got {f_hz}")
    if capacitance <= 0.0:
        raise ValueError(f"capacitance must be positive, got {capacitance}")
    return 0.5 * capacitance * f_hz * f_hz * effective_cycles(workload)


def required_power(model_bits: int, t_up_s: float, bandwidth_hz: float, beta: float) -> float:
    """Transmit power that delivers model_bits in exactly t_up_s seconds.

    Inverts rate = bandwidth * log2(1 + beta P / bandwidth); returns +inf when
    the exponent overflows (vanishing upload slots).
    """
    if t_up_s <= 0.0:
        raise ValueError(f"upload time must be positive, got {t_up_s}")
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    try:
        # expm1 preserves precision when the exponent is small
        return bandwidth_hz * math.expm1(model_bits * _LN2 / (t_up_s * bandwidth_hz)) / beta
    except OverflowError:
        return math.inf


def upload_time_bounds(cycles: float, deadline_s: float, bounds: DeviceBounds) -> Interval:
    """Feasible upload-slot window implied by the CPU frequency envelope.

    The slot runs from whatever time is left after computing at f_min (clipped
    at a small positive floor) up to the time left after computing at f_max.
    Raises InfeasibleDeadlineError when even f_max cannot meet the deadline.
    """
    if deadline_s <= 0.0:
        raise ValueError(f"deadline must be positive, got {deadline_s}")
    if cycles <= 0.0:
        raise ValueError(f"cycles must be positive, got {cycles}")
    hi = deadline_s - cycles / bounds.f_max_hz
    if hi <= 0.0:
        raise InfeasibleDeadlineError(
            f"deadline {deadline_s:.6g}s is below the compute floor "
            f"{cycles / bounds.f_max_hz:.6g}s at f_max"
        )
    floor = min(hi, deadline_s * 1e-9)
    lo = max(deadline_s - cycles / bounds.f_min_hz, floor)
    return Interval(lo, hi)


def optimal_bandwidth(model_bits: int, t_up_s: float, power_w: float, beta: float) -> float:
    """Smallest bandwidth that uploads model_bits in t_up_s at power_w.

    Solving the rate equation for bandwidth gives a Lambert-W form in
    pi = model_bits ln2 / (t_up power beta).  A finite positive solution on the
    principal branch exists only for pi > 1; below that the link is too weak
    for any finite allocation and InfeasibleBandwidthError is raised.
    """
    if t_up_s <= 0.0 or power_w <= 0.0 or beta <= 0.0:
        raise ValueError("t_up, power and beta must all be positive")
    if model_bits < 1:
        raise ValueError(f"model_bits must be >= 1, got {model_bits}")
    pi = model_bits * _LN2 / (t_up_s * power_w * beta)
    if pi <= 1.0:
        raise InfeasibleBandwidthError(
            f"rate target needs pi > 1 for a finite bandwidth optimum, got pi = {pi:.6g}"
        )
    w0 = lambert_w0(-pi * math.exp(-pi))
    return model_bits * _LN2 / (t_up_s * (w0 + pi))


def round_energy_objective(
    t_up_s: float,
    workload: Workload,
    deadline_s: float,
    bandwidth_hz: float,
    beta: float,
    bounds: DeviceBounds,
) -> float:
    """Total round energy as a function of the upload slot.

    The CPU clock is pinned by the remaining compute window; transmit power is
    clamped into [p_min, p_max].  Returns +inf where even p_max cannot close
    the link in the slot.
    """
    t_cmp = deadline_s - t_up_s
    if t_up_s <= 0.0 or t_cmp <= 0.0:
        return math.inf
    f = effective_cycles(workload) / t_cmp
    p_req = required_power(workload.model_bits, t_up_s, bandwidth_hz, beta)
    if p_req > bounds.p_max_w:
        return math.inf
    p = max(p_req, bounds.p_min_w)
    return computation_energy(workload, f, bounds.capacitance) + t_up_s * p


def minimize_round_energy(
    workload: Workload,
    deadline_s: float,
    bandwidth_hz: float,
    beta: float,
    bounds: DeviceBounds,
) -> ResourcePlan:
    """Pick the upload slot (hence CPU clock and transmit power) of least energy.

    Golden-section search over the feasible slot window, then an explicit
    endpoint check so boundary minima are exact.  Raises
    InfeasibleDeadlineError / InfeasiblePowerError when the window is empty or
    the link cannot be closed even at p_max in the widest slot.
    """
    cycles = effective_cycles(workload)
    window = upload_time_bounds(cycles, deadline_s, bounds)
    # the required power is decreasing in t_up, so feasibility at the right
    # edge is feasibility anywhere
    if required_power(workload.model_bits, window.hi, bandwidth_hz, beta) > bounds.p_max_w:
        raise InfeasiblePowerError(
            f"link needs more than p_max = {bounds.p_max_w:.6g} W even with the full "
            f"upload window {window.hi:.6g} s"
        )

    def objective(t: float) -> float:
        return round_energy_objective(t, workload, deadline_s, bandwidth_hz, beta, bounds)

    tol = max(window.width * 1e-9, 1e-15)
    t_up, e_best = golden_section_min(objective, window, tol=tol, max_iter=1000)
    for t_edge in (window.lo, window.hi):
        e_edge = objective(t_edge)
        if e_edge < e_best:
            t_up, e_best = t_edge, e_edge

    t_cmp = deadline_s - t_up
    f = cycles / t_cmp
    p_req = required_power(workload.model_bits, t_up, bandwidth_hz, beta)
    p = min(max(p_req, bounds.p_min_w), bounds.p_max_w)
    return ResourcePlan(
        t_cmp_s=t_cmp,
        t_up_s=t_up,
        f_hz=f,
        p_w=p,
        bandwidth_hz=bandwidth_hz,
        e_cmp_j=computation_energy(workload, f, bounds.capacitance),
        e_up_j=t_up * p,
    )
