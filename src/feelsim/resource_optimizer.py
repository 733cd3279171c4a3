"""Per-round compute/upload scheduling under a hard round deadline.

Each scheduled worker has a deadline T to finish local training and push its
model update.  Training time plus upload time must fill T exactly, so the
single free variable is the upload slot t_up: the CPU clock is then pinned at
f = cycles / (T - t_up), and the transmit power is whatever closes the link
in t_up on the allocated bandwidth.

The round energy E(t) = C cycles^3 / (2 (T - t)^2) + t max(p_req(t), p_min)
is convex in t_up on the window: the compute term is convex;
t p_req(t) = (B / beta) t expm1(x) with x = bits ln2 / (t B) is convex (its
second derivative is (B / beta) x^2 e^x / t); t p_min is linear; the max of
convex functions is convex; and p_max only cuts off the slots below some
t_up, where E is +inf.  So a window edge is the minimizer as soon as the
energy does not fall on moving from it into the window: right slope >= 0 at
the lower edge (clock at f_min), left slope <= 0 at the upper edge (clock at
f_max).  round_energy_slope gives these one-sided slopes, and the planner
returns such an edge on the slope's sign alone, without a search.

Where p_max cannot close the link at the lower edge, the feasible part of
the window starts at t_p = bits ln2 / (B log1p(p_max beta / B)), the slot in
which p_max delivers the bits exactly.  E is convex on [t_p, hi] as well, so
t_p takes the lower edge's place: the planner computes it in closed form,
clamps it into the window, steps it up by ulps until p_max suffices (at
most 64, then ValueError: where p_max beta / B overflows, t_p comes out 0
and the walk would start far below the slot it seeks), and returns it when
the right slope there is >= 0.  Any other optimum inside the window is
found by golden-section search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

_LN2 = math.log(2.0)

# Interior probe ratio for golden-section search: (3 - sqrt(5)) / 2.
GOLDEN_SHRINK = (3.0 - math.sqrt(5.0)) / 2.0


class InfeasibleError(RuntimeError):
    """A round plan cannot satisfy the stated constraints."""


class InfeasibleDeadlineError(InfeasibleError):
    """Deadline too short even at the maximum CPU frequency."""


class InfeasiblePowerError(InfeasibleError):
    """Upload cannot finish in time even at maximum transmit power."""


class InfeasibleBandwidthError(InfeasibleError):
    """No finite bandwidth meets the rate target at the given power."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


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

    The rate B log2(1 + power beta / B) rises with B towards power beta / ln2,
    so the bits fit in the slot with finite bandwidth only if
    pi = model_bits ln2 / (t_up power beta) < 1; otherwise
    InfeasibleBandwidthError is raised.  With y = power beta / B the rate
    equation reads ln(1 + y) = pi y, whose one root y > 0 Newton finds.

    f(y) = ln(1 + y) - pi y is concave with f(0) = 0 and f'(0) = 1 - pi > 0,
    so it is positive left of the root and negative right of it, and Newton
    steps started right of the root fall monotonically onto it.  The start
    y = -2 ln(pi) / pi lies right of the root, that is, where f <= 0: there
    f <= 0 reads g(pi) = pi^2 + 2 pi ln(1/pi) <= 1, which holds because
    g'(pi) = 2 (pi - 1 - ln pi) >= 0 and g(1) = 1.

    What is left is the problem's own conditioning: y moves by pi / (1 - pi)
    times a relative change of pi.  Below about pi = 8e-306 the start
    overflows, and the root itself lies within a factor of 2 of the
    largest float: then, or if 100 Newton steps do not settle, ValueError.
    """
    if t_up_s <= 0.0 or power_w <= 0.0 or beta <= 0.0:
        raise ValueError("t_up, power and beta must all be positive")
    if model_bits < 1:
        raise ValueError(f"model_bits must be >= 1, got {model_bits}")
    pi = model_bits * _LN2 / (t_up_s * power_w * beta)
    if pi >= 1.0:
        raise InfeasibleBandwidthError(
            f"rate target needs pi < 1 for a finite bandwidth, got pi = {pi:.6g}"
        )
    delta = 1.0 - pi
    y = -2.0 * math.log(pi) / pi
    if not y < math.inf:
        raise ValueError(f"pi = {pi:.6g} is too small: the Newton start overflows")
    for _ in range(100):
        # (ln(1 + y) - pi y) over its derivative 1 / (1 + y) - pi, both < 0;
        # the quotient comes first: the product overflows for pi below 5e-303
        step = (math.log1p(y) - pi * y) * ((1.0 + y) / (delta - pi * y))
        if not step > 0.0 or y - step == y:
            return power_w * beta / y
        y -= step
    raise ValueError(f"Newton did not settle on the bandwidth in 100 steps at pi = {pi:.6g}")


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


def _upload_slope_loss(x: float) -> float:
    """x e^x - expm1(x) = sum_{n>=2} (n-1) x^n / n!, without cancellation at small x."""
    if x >= 0.5:
        return (x - 1.0) * math.expm1(x) + x
    total, term, n = 0.0, x, 1
    while True:
        n += 1
        term *= x / n
        total += (n - 1) * term
        if (n - 1) * term <= 1e-17 * total:
            return total


def round_energy_slope(
    t_up_s: float,
    side: int,
    workload: Workload,
    deadline_s: float,
    bandwidth_hz: float,
    beta: float,
    bounds: DeviceBounds,
) -> float:
    """One-sided derivative dE/dt_up of round_energy_objective at t_up_s.

    side = +1 gives the right derivative, -1 the left one; they differ only
    where the required power crosses p_min.  The compute term contributes
    C f^3 with f = cycles / (T - t_up).  On a side where the required power
    stays at or below p_min the upload term is t_up p_min and contributes
    p_min; otherwise it is (B / beta) t_up expm1(x) with
    x = bits ln2 / (t_up B), whose slope is -(B / beta)(x e^x - expm1(x)).
    p_max is not applied: the slope is meaningful only where the objective is
    finite on that side.
    """
    if side not in (-1, 1):
        raise ValueError(f"side must be +1 or -1, got {side}")
    t_cmp = deadline_s - t_up_s
    if t_up_s <= 0.0 or t_cmp <= 0.0:
        raise ValueError(f"upload slot {t_up_s} is outside (0, {deadline_s})")
    f = effective_cycles(workload) / t_cmp
    slope_cmp = bounds.capacitance * f * f * f
    p_req = required_power(workload.model_bits, t_up_s, bandwidth_hz, beta)
    # the required power falls as t_up grows: right of t_up it is below
    # p_req, left of it above
    if p_req < bounds.p_min_w or (side > 0 and p_req == bounds.p_min_w):
        return slope_cmp + bounds.p_min_w
    if math.isinf(p_req):
        return -math.inf
    x = workload.model_bits * _LN2 / (t_up_s * bandwidth_hz)
    return slope_cmp - bandwidth_hz * _upload_slope_loss(x) / beta


def golden_section_min(
    f,
    bounds: Interval,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> tuple[float, float]:
    """Minimize a scalar function over a closed interval by golden-section search.

    Keeps one previous probe per iteration: with r = GOLDEN_SHRINK the probes
    are x1 = lo + r (hi - lo) and x2 = lo + (1 - r)(hi - lo); f(x1) < f(x2)
    shrinks the right side, otherwise the left.  Stops when the bracket is
    narrower than tol or after max_iter shrinks, and returns the better of the
    two final probes as (argmin, fmin).

    The objective may return +inf to mark infeasible points; the bracket then
    contracts away from the infeasible side as long as the feasible region is
    an interval.  On an objective that is not unimodal on the bracket the
    result may be only a local minimum.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = bounds.lo, bounds.hi
    if hi - lo <= 0.0:
        return lo, f(lo)

    r = GOLDEN_SHRINK
    x1 = lo + r * (hi - lo)
    x2 = lo + (1.0 - r) * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    it = 0
    while (hi - lo) > tol and it < max_iter:
        it += 1
        if f1 < f2:
            # minimum cannot sit right of x2
            hi = x2
            x2, f2 = x1, f1
            x1 = lo + r * (hi - lo)
            f1 = f(x1)
        else:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + (1.0 - r) * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def minimize_round_energy(
    workload: Workload,
    deadline_s: float,
    bandwidth_hz: float,
    beta: float,
    bounds: DeviceBounds,
) -> ResourcePlan:
    """Pick the upload slot (hence CPU clock and transmit power) of least energy.

    The round energy is convex in the slot (module docstring).  Let t_first
    be the first slot of the window in which p_max closes the link: the lower
    edge, or else t_p.  If the right slope at t_first is >= 0, t_first is the
    minimizer; otherwise, if the left slope at the upper edge is <= 0, that
    edge is.  Either is returned on the slope's sign alone.  In every other
    case a golden-section search over the window runs, followed by an
    explicit endpoint check, which can still win where the energy is flat to
    rounding near an edge.  Raises InfeasibleDeadlineError /
    InfeasiblePowerError when the window is empty or the link cannot be
    closed even at p_max in the widest slot, and ValueError when 64 ulps
    above t_p p_max still does not close it.
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

    def plan_at(t_up: float) -> ResourcePlan:
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

    def slope(t_up: float, side: int) -> float:
        return round_energy_slope(t_up, side, workload, deadline_s, bandwidth_hz, beta, bounds)

    # the first slot in which p_max closes the link (module docstring)
    t_first = window.lo
    if required_power(workload.model_bits, t_first, bandwidth_hz, beta) > bounds.p_max_w:
        t_p = workload.model_bits * _LN2 / (
            bandwidth_hz * math.log1p(bounds.p_max_w * beta / bandwidth_hz)
        )
        t_first = min(max(t_p, window.lo), window.hi)
        for _ in range(64):  # a few ulps of rounding at most
            if required_power(workload.model_bits, t_first, bandwidth_hz, beta) <= bounds.p_max_w:
                break
            t_first = math.nextafter(t_first, math.inf)
        else:
            raise ValueError(f"p_max = {bounds.p_max_w:.6g} W does not close the link of gain "
                             f"{beta:.6g} on {bandwidth_hz:.6g} Hz in 64 ulps of t_p = {t_p:.6g} s")
    if slope(t_first, +1) >= 0.0:
        return plan_at(t_first)
    if slope(window.hi, -1) <= 0.0:
        return plan_at(window.hi)

    def objective(t: float) -> float:
        return round_energy_objective(t, workload, deadline_s, bandwidth_hz, beta, bounds)

    tol = max(window.width * 1e-9, 1e-15)
    t_up, e_best = golden_section_min(objective, window, tol=tol, max_iter=1000)
    for t_edge in (window.lo, window.hi):
        e_edge = objective(t_edge)
        if e_edge < e_best:
            t_up, e_best = t_edge, e_edge
    return plan_at(t_up)
