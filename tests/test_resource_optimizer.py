import dataclasses
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from feelsim import federation, resource_optimizer
from feelsim.channel import uplink_rate
from feelsim.io_cli import load_config, run_from_config
from feelsim.numerics import golden_section_min
from feelsim.resource_optimizer import (
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
    round_energy_objective,
    round_energy_slope,
    upload_time_bounds,
)

LN2 = math.log(2.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BOUNDS = DeviceBounds(f_min_hz=1e9, f_max_hz=9e9, p_min_w=1e-4, p_max_w=0.1,
                      capacitance=2e-28)


def draw_case(rng):
    """Random but power-feasible planning instance in the reference ranges."""
    size = int(rng.integers(200, 2001))
    kappa = int(rng.integers(0, size + 1))
    epochs = int(rng.integers(1, 6))
    w = Workload(size, kappa, epochs, 20.0, 13568)
    rho = effective_cycles(w)
    beta = 10.0 ** rng.uniform(4, 8)
    bw = 10.0 ** rng.uniform(5.5, 6.5)
    t_fast = rho / BOUNDS.f_max_hz
    t_need = w.model_bits / uplink_rate(bw, beta, BOUNDS.p_max_w)
    deadline = t_fast * rng.uniform(1.05, 3.0) + t_need * rng.uniform(1.05, 5.0)
    if required_power(w.model_bits, deadline - t_fast, bw, beta) > BOUNDS.p_max_w:
        return None
    return w, deadline, bw, beta


def grid_objective(ts, w, deadline, bw, beta, bounds):
    """Independent formula-level recomputation of the round energy curve."""
    rho = w.cycles_per_sample * (w.epochs * w.dataset_size - w.excluded_count * (w.epochs - 1))
    f = rho / (deadline - ts)
    e_cmp = 0.5 * bounds.capacitance * f * f * rho
    with np.errstate(over="ignore"):
        p_req = bw * np.expm1(w.model_bits * LN2 / (ts * bw)) / beta
    e = e_cmp + ts * np.maximum(p_req, bounds.p_min_w)
    return np.where(p_req > bounds.p_max_w, np.inf, e)


def search_then_endpoint_check(w, deadline, bw, beta, bounds):
    """The planner without the edge certificate: golden section over the whole
    window, then the endpoint check, as minimize_round_energy did before it."""
    rho = effective_cycles(w)
    win = upload_time_bounds(rho, deadline, bounds)
    if required_power(w.model_bits, win.hi, bw, beta) > bounds.p_max_w:
        raise InfeasiblePowerError("p_max cannot close the link")

    def objective(t):
        return round_energy_objective(t, w, deadline, bw, beta, bounds)

    t_up, e_best = golden_section_min(objective, win, tol=max(win.width * 1e-9, 1e-15),
                                      max_iter=1000)
    for t_edge in (win.lo, win.hi):
        e_edge = objective(t_edge)
        if e_edge < e_best:
            t_up, e_best = t_edge, e_edge
    t_cmp = deadline - t_up
    f = rho / t_cmp
    p = min(max(required_power(w.model_bits, t_up, bw, beta), bounds.p_min_w), bounds.p_max_w)
    return ResourcePlan(t_cmp, t_up, f, p, bw, computation_energy(w, f, bounds.capacitance),
                        t_up * p)


def plan_bytes(plan):
    return tuple(float(v).hex() for v in dataclasses.astuple(plan))


def power_limit_slot(w, deadline, bw, beta, bounds):
    """The first slot in which p_max closes the link: the closed form
    bits ln2 / (B log1p(p_max beta / B)), stepped up to a float that p_max
    reaches; None unless it lies strictly inside the window."""
    win = upload_time_bounds(effective_cycles(w), deadline, bounds)
    t_p = w.model_bits * LN2 / (bw * math.log1p(bounds.p_max_w * beta / bw))
    if not win.lo < t_p < win.hi:
        return None
    while required_power(w.model_bits, t_p, bw, beta) > bounds.p_max_w:
        t_p = math.nextafter(t_p, math.inf)
    return t_p


def assert_power_limit_plan(plan, case, ref):
    """plan sits at the first slot p_max can use, and costs no more than ref."""
    assert plan.t_up_s == power_limit_slot(*case)
    assert plan.p_w <= case[4].p_max_w
    assert plan.p_w == pytest.approx(case[4].p_max_w, rel=1e-13, abs=0.0)
    assert plan.total_energy_j <= ref.total_energy_j


def draw_wide_case(rng):
    """Planning instance from wide ranges: most are infeasible, the rest end at
    either window edge, clamped at p_min or not, or inside the window."""
    size = int(rng.integers(1, 3001))
    w = Workload(size, int(rng.integers(0, size + 1)), int(rng.integers(1, 8)),
                 10.0 ** rng.uniform(0, 3), int(rng.integers(1000, 2_000_000)))
    f_min = 10.0 ** rng.uniform(7, 9.5)
    p_min = 10.0 ** rng.uniform(-6, -2)
    bounds = DeviceBounds(f_min, f_min * 10.0 ** rng.uniform(0, 1.5), p_min,
                          p_min * 10.0 ** rng.uniform(0, 4), 10.0 ** rng.uniform(-29, -26))
    return w, 10.0 ** rng.uniform(-3, 2), 10.0 ** rng.uniform(4, 7), 10.0 ** rng.uniform(2, 12), bounds


def draw_power_limited_case(rng):
    """Instance of the unfiltered preset's shape: the slot at f_min is too
    short for p_max, so the feasible part of the window starts inside it."""
    size = int(rng.integers(50, 400))
    w = Workload(size, int(rng.integers(0, size + 1)), int(rng.integers(1, 6)), 5e5, 13568)
    beta = 10.0 ** rng.uniform(6, 9)
    bw = 10.0 ** rng.uniform(4.5, 5.5)
    t_p = w.model_bits / uplink_rate(bw, beta, BOUNDS.p_max_w)
    t_slow = effective_cycles(w) / BOUNDS.f_min_hz
    return w, t_p + t_slow * rng.uniform(0.12, 0.99), bw, beta, BOUNDS


def draw_flat_edge_case(rng):
    """Instance whose lo or hi window edge lies within a relative 1e-15..1e-3 of
    the energy's unconstrained minimizer t*, where the slope at the edge is
    nearly zero; returns (case, which edge moved) or None."""
    size = int(rng.integers(200, 2001))
    w = Workload(size, int(rng.integers(0, size + 1)), int(rng.integers(1, 6)), 20.0, 13568)
    rho = effective_cycles(w)
    beta = 10.0 ** rng.uniform(4, 10)
    bw = 10.0 ** rng.uniform(5.5, 6.5)
    deadline = (rho / BOUNDS.f_max_hz * rng.uniform(1.05, 30.0)
                + w.model_bits / uplink_rate(bw, beta, BOUNDS.p_max_w) * rng.uniform(1.05, 20.0))
    args = (w, deadline, bw, beta, BOUNDS)
    hi = deadline - rho / BOUNDS.f_max_hz
    if round_energy_slope(hi, -1, *args) <= 0.0:
        return None  # t* lies beyond f_max
    lo, t_star = 0.0, hi
    while True:  # bisect the monotone slope for t*
        mid = 0.5 * (lo + t_star)
        if mid in (lo, t_star):
            break
        if round_energy_slope(mid, +1, *args) < 0.0:
            lo = mid
        else:
            t_star = mid
    if required_power(w.model_bits, t_star, bw, beta) > BOUNDS.p_max_w:
        return None
    edge = t_star * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -3))
    if not 0.0 < edge < hi:
        return None
    f_edge = rho / (deadline - edge)
    if rng.random() < 0.5:
        if f_edge > BOUNDS.f_max_hz:
            return None
        bounds, side = dataclasses.replace(BOUNDS, f_min_hz=f_edge), +1
    else:
        bounds, side = dataclasses.replace(BOUNDS, f_min_hz=f_edge / 9.0, f_max_hz=f_edge), -1
    return (w, deadline, bw, beta, bounds), side


class TestEffectiveCycles:
    def test_frozen_examples(self):
        assert effective_cycles(Workload(600, 0, 5, 20.0, 13568)) == 60000.0
        assert effective_cycles(Workload(600, 600, 5, 20.0, 13568)) == 12000.0
        assert effective_cycles(Workload(1000, 400, 3, 20.0, 13568)) == 44000.0

    def test_full_exclusion_equals_single_epoch(self):
        for epochs in (1, 2, 5, 9):
            full = effective_cycles(Workload(750, 750, epochs, 20.0, 13568))
            one = effective_cycles(Workload(750, 0, 1, 20.0, 13568))
            assert full == one

    def test_monotone_decreasing_in_kappa(self):
        vals = [effective_cycles(Workload(1000, k, 4, 20.0, 13568)) for k in range(0, 1001, 100)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(0, 0, 1, 20.0, 13568)
        with pytest.raises(ValueError):
            Workload(100, 101, 1, 20.0, 13568)
        with pytest.raises(ValueError):
            Workload(100, 0, 0, 20.0, 13568)
        with pytest.raises(ValueError):
            Workload(100, 0, 1, 0.0, 13568)
        with pytest.raises(ValueError):
            Workload(100, 0, 1, 20.0, 0)


class TestComputationEnergy:
    def test_frozen_example(self):
        e = computation_energy(Workload(1000, 400, 3, 20.0, 13568), 2e9, 2e-28)
        assert e == pytest.approx(1.76e-5, rel=1e-15)

    def test_single_epoch_no_filter(self):
        e = computation_energy(Workload(1000, 0, 1, 20.0, 13568), 1e9, 2e-28)
        assert e == pytest.approx(2e-6, rel=1e-15)

    def test_no_filter_closed_form_exact(self):
        # with kappa = 0 the energy is exactly (alpha/2) f^2 Phi eps |D|
        for epochs, size, f in ((1, 1000, 1e9), (5, 600, 2e9), (3, 321, 7.5e9)):
            w = Workload(size, 0, epochs, 20.0, 13568)
            expect = 0.5 * 2e-28 * f * f * (20.0 * (epochs * size))
            assert computation_energy(w, f, 2e-28) == expect

    def test_full_exclusion_equals_single_epoch_energy(self):
        for epochs in (2, 5, 9):
            a = computation_energy(Workload(640, 640, epochs, 20.0, 13568), 3e9, 2e-28)
            b = computation_energy(Workload(640, 0, 1, 20.0, 13568), 3e9, 2e-28)
            assert a == b

    def test_validation(self):
        w = Workload(1000, 0, 1, 20.0, 13568)
        for f in (0.0, -1e9):
            with pytest.raises(ValueError):
                computation_energy(w, f, 2e-28)
        with pytest.raises(ValueError):
            computation_energy(w, 1e9, 0.0)


class TestPowerAndUploadEnergy:
    def test_frozen_power_example(self):
        assert required_power(1_000_000, 0.5, 2e6, 1e8) == pytest.approx(0.02, rel=1e-12)

    def test_frozen_energy_example(self):
        assert 0.5 * required_power(1_000_000, 0.5, 2e6, 1e8) == pytest.approx(0.01, rel=1e-12)

    def test_rate_power_round_trip(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 200:
            bw = 10.0 ** rng.uniform(4, 7)
            beta = 10.0 ** rng.uniform(3, 9)
            bits = int(rng.integers(10_000, 2_000_000))
            t = 10.0 ** rng.uniform(-3, 1)
            p = required_power(bits, t, bw, beta)
            if not math.isfinite(p):
                continue
            assert bits / uplink_rate(bw, beta, p) == pytest.approx(t, rel=1e-9)
            checked += 1

    def test_upload_energy_strictly_decreasing(self):
        ts = np.linspace(0.01, 2.0, 300)
        es = [t * required_power(500_000, float(t), 1e6, 1e6) for t in ts]
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_overflow_is_infinite(self):
        assert required_power(1_000_000, 1e-9, 1e6, 1e6) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            required_power(1000, 0.0, 1e6, 1e6)
        with pytest.raises(ValueError):
            required_power(1000, 1.0, 1e6, 0.0)


class TestUploadWindow:
    def test_frozen_example(self):
        win = upload_time_bounds(6e4, 0.1, BOUNDS)
        assert win.lo == pytest.approx(0.09994, abs=1e-12)
        assert win.hi == pytest.approx(0.1 - 6e4 / 9e9, abs=1e-15)

    def test_deadline_too_short_raises(self):
        with pytest.raises(InfeasibleDeadlineError):
            upload_time_bounds(1e9, 0.1, BOUNDS)  # needs 0.111 s at f_max

    def test_floor_clip_when_slow_clock_cannot_finish(self):
        # rho / f_min >= T: the lower edge clips at the positive floor
        win = upload_time_bounds(5e8, 0.6, BOUNDS)  # 0.5 s at f_min, 0.0556 s at f_max
        assert win.lo == pytest.approx(0.1, rel=1e-12)
        win2 = upload_time_bounds(7e8, 0.6, BOUNDS)  # 0.7 s at f_min: would be negative
        assert 0.0 < win2.lo <= 0.6 * 1e-9 + 1e-18
        # implied clock at the clipped edge stays inside the envelope
        f_at_lo = 7e8 / (0.6 - win2.lo)
        assert BOUNDS.f_min_hz <= f_at_lo <= BOUNDS.f_max_hz * (1 + 1e-12)

    def test_degenerate_envelope(self):
        b = DeviceBounds(2e9, 2e9, 1e-4, 0.1, 2e-28)
        win = upload_time_bounds(6e4, 0.1, b)
        assert win.lo == win.hi


class TestOptimalBandwidth:
    @staticmethod
    def beta_for(pi, bits, t, p):
        # pi = bits ln2 / (t p beta)
        return bits * LN2 / (t * p * pi)

    def test_frozen_example(self):
        bits, t, p = 1_000_000, 1.0, 0.1
        beta = self.beta_for(0.5, bits, t, p)
        bw = optimal_bandwidth(bits, t, p, beta)
        assert bw == pytest.approx(5.5168e5, rel=1e-4)
        assert uplink_rate(bw, beta, p) * t == pytest.approx(bits, rel=1e-9)

    def test_round_trip(self):
        # the bandwidth carries exactly the bits in the slot
        rng = np.random.default_rng(43)
        pis = np.concatenate([np.geomspace(1e-3, 0.999, 200), 10.0 ** rng.uniform(-3, 0, 200)])
        for pi in np.minimum(pis, 0.999):
            bits = int(rng.integers(10_000, 3_000_000))
            t = 10.0 ** rng.uniform(-2, 1)
            p = 10.0 ** rng.uniform(-4, -1)
            beta = self.beta_for(pi, bits, t, p)
            bw = optimal_bandwidth(bits, t, p, beta)
            assert uplink_rate(bw, beta, p) * t == pytest.approx(bits, rel=1e-9), f"pi={pi}"
            # and it is the smallest such bandwidth: the rate grows with it
            assert uplink_rate(bw * (1 - 1e-6), beta, p) * t < bits

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_near_pi_one_matches_exact_root(self, gap):
        # pi = 1 - gap puts the Lambert argument within gap^2 / 2 of the branch
        # point; the bandwidth must still match the root y of ln(1 + y) = pi y
        # taken to 60 digits, up to the conditioning pi / (1 - pi) of y in pi
        bits, t, p = 1_000_000, 1.0, 0.1
        beta = self.beta_for(1.0 - gap, bits, t, p)
        pi_float = bits * LN2 / (t * p * beta)  # the pi the planner computes
        bw = optimal_bandwidth(bits, t, p, beta)
        with localcontext() as ctx:
            ctx.prec = 60
            pi = Decimal(pi_float)
            y = 1 / (pi * pi) - 1  # right of the root: Newton falls onto it
            for _ in range(200):
                step = ((1 + y).ln() - pi * y) / (1 / (1 + y) - pi)
                y -= step
                if abs(step) < y * Decimal("1e-50"):
                    break
            exact = float(Decimal(p) * Decimal(beta) / y)
        assert bw == pytest.approx(exact, rel=16 * 2.0 ** -52 / (1.0 - pi_float), abs=0.0)

    def test_against_scipy_lambertw(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            bits = int(rng.integers(10_000, 3_000_000))
            t = 10.0 ** rng.uniform(-2, 1)
            p = 10.0 ** rng.uniform(-4, -1)
            pi = 10.0 ** rng.uniform(-3, -0.01)
            beta = self.beta_for(pi, bits, t, p)
            ours = optimal_bandwidth(bits, t, p, beta)
            wm1 = float(scipy_lambertw(-pi * math.exp(-pi), -1).real)
            ref = bits * LN2 / (t * (-wm1 - pi))
            assert ours == pytest.approx(ref, rel=1e-10)

    def test_infeasible_branch_raises(self):
        # pi >= 1: even unlimited bandwidth tops out at p beta / ln2 bits/s
        bits = 1_000_000
        for pi in (1.0, 1.0001, 2.0):
            beta = self.beta_for(pi, bits, 1.0, 0.1)
            assert uplink_rate(1e15, beta, 0.1) < bits
            with pytest.raises(InfeasibleBandwidthError):
                optimal_bandwidth(bits, 1.0, 0.1, beta)

    def test_huge_pi_limit(self):
        # exp(-pi) would underflow; the link is far too weak for any bandwidth
        bits = 1_000_000
        with pytest.raises(InfeasibleBandwidthError):
            optimal_bandwidth(bits, 1.0, 0.1, self.beta_for(800.0, bits, 1.0, 0.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_bandwidth(1000, 0.0, 0.1, 1e6)
        with pytest.raises(ValueError):
            optimal_bandwidth(0, 1.0, 0.1, 1e6)


class TestMinimizeRoundEnergy:
    def test_matches_grid_on_random_cases(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 30:
            case = draw_case(rng)
            if case is None:
                continue
            w, deadline, bw, beta = case
            plan = minimize_round_energy(w, deadline, bw, beta, BOUNDS)
            win = upload_time_bounds(effective_cycles(w), deadline, BOUNDS)
            ts = np.linspace(win.lo, win.hi, 200_001)
            es = grid_objective(ts, w, deadline, bw, beta, BOUNDS)
            k = int(np.argmin(es))
            spacing = win.width / 200_000
            assert abs(plan.t_up_s - ts[k]) <= max(1e-4 * max(ts[k], 1e-12), 2 * spacing)
            assert plan.total_energy_j <= es[k] * (1 + 1e-9)
            done += 1

    def test_deadline_filled_exactly(self):
        rng = np.random.default_rng(59)
        done = 0
        while done < 20:
            case = draw_case(rng)
            if case is None:
                continue
            w, deadline, bw, beta = case
            plan = minimize_round_energy(w, deadline, bw, beta, BOUNDS)
            assert abs(plan.t_cmp_s + plan.t_up_s - deadline) <= 1e-9 * deadline
            done += 1

    def test_operating_point_inside_envelope(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 20:
            case = draw_case(rng)
            if case is None:
                continue
            w, deadline, bw, beta = case
            plan = minimize_round_energy(w, deadline, bw, beta, BOUNDS)
            assert BOUNDS.f_min_hz * (1 - 1e-9) <= plan.f_hz <= BOUNDS.f_max_hz * (1 + 1e-9)
            assert BOUNDS.p_min_w <= plan.p_w <= BOUNDS.p_max_w
            assert plan.e_cmp_j > 0.0 and plan.e_up_j > 0.0
            done += 1

    def test_filtered_plan_never_costs_more(self):
        # the planned total with kappa > 0 is at most the kappa = 0 total
        rng = np.random.default_rng(67)
        done = 0
        while done < 1000:
            case = draw_case(rng)
            if case is None or case[0].excluded_count == 0 or case[0].epochs == 1:
                continue
            w, deadline, bw, beta = case
            base = Workload(w.dataset_size, 0, w.epochs, w.cycles_per_sample, w.model_bits)
            e_f = minimize_round_energy(w, deadline, bw, beta, BOUNDS).total_energy_j
            e_0 = minimize_round_energy(base, deadline, bw, beta, BOUNDS).total_energy_j
            assert e_f <= e_0 * (1 + 1e-9)
            done += 1

    def test_power_clamped_to_floor(self):
        # an easy link: required power falls below p_min and the plan pads at p_min
        w = Workload(500, 0, 1, 20.0, 13568)
        plan = minimize_round_energy(w, 5.0, 1e7, 1e12, BOUNDS)
        assert plan.p_w == BOUNDS.p_min_w

    def test_infeasible_power_raises(self):
        w = Workload(500, 0, 1, 20.0, 13568)
        # beta so small that p_max cannot close the link in the widest slot
        with pytest.raises(InfeasiblePowerError):
            minimize_round_energy(w, 0.001, 1e5, 1e-3, BOUNDS)

    def test_infeasible_deadline_raises(self):
        w = Workload(2000, 0, 5, 20.0, 13568)
        with pytest.raises(InfeasibleDeadlineError):
            minimize_round_energy(w, 1e-6, 1e6, 1e6, BOUNDS)

    def test_objective_exposed_matches_plan(self):
        rng = np.random.default_rng(71)
        case = None
        while case is None:
            case = draw_case(rng)
        w, deadline, bw, beta = case
        plan = minimize_round_energy(w, deadline, bw, beta, BOUNDS)
        e = round_energy_objective(plan.t_up_s, w, deadline, bw, beta, BOUNDS)
        assert e == pytest.approx(plan.total_energy_j, rel=1e-12)

    def test_degenerate_envelope_is_analytic(self):
        b = DeviceBounds(2e9, 2e9, 1e-4, 0.1, 2e-28)
        w = Workload(1000, 0, 2, 20.0, 13568)
        rho = effective_cycles(w)
        deadline = 0.01
        plan = minimize_round_energy(w, deadline, 1e6, 1e8, b)
        assert plan.f_hz == pytest.approx(2e9, rel=1e-12)
        assert plan.t_cmp_s == pytest.approx(rho / 2e9, rel=1e-12)
        assert plan.t_up_s == pytest.approx(deadline - rho / 2e9, rel=1e-12)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            DeviceBounds(0.0, 1e9, 1e-4, 0.1, 2e-28)
        with pytest.raises(ValueError):
            DeviceBounds(2e9, 1e9, 1e-4, 0.1, 2e-28)
        with pytest.raises(ValueError):
            DeviceBounds(1e9, 9e9, 0.2, 0.1, 2e-28)
        with pytest.raises(ValueError):
            DeviceBounds(1e9, 9e9, 1e-4, 0.1, 0.0)


class TestRoundEnergySlope:
    W = Workload(600, 300, 5, 2e4, 13568)
    DEADLINE = 0.2

    def args(self, beta, bounds=BOUNDS):
        return (self.W, self.DEADLINE, 1e6, beta, bounds)

    @staticmethod
    def one_sided_difference(t, side, args):
        h = 1e-7 * t
        e = round_energy_objective(t, *args)
        return side * (round_energy_objective(t + side * h, *args) - e) / h

    def scale(self, t, args):
        # |compute slope| + |upload slope|, the size the slope's error is relative to
        w, deadline, bw, beta, bounds = args
        f = effective_cycles(w) / (deadline - t)
        return bounds.capacitance * f ** 3 + bw / beta * math.exp(w.model_bits * LN2 / (t * bw))

    @pytest.mark.parametrize("beta, clamped", [(2e6, False), (1e10, True)])
    def test_matches_finite_differences(self, beta, clamped):
        args = self.args(beta)
        for t in (0.1, 0.12, 0.15):
            assert round_energy_objective(t, *args) < math.inf
            assert (required_power(self.W.model_bits, t, 1e6, beta) < BOUNDS.p_min_w) == clamped
            for side in (-1, 1):
                slope = round_energy_slope(t, side, *args)
                fd = self.one_sided_difference(t, side, args)
                assert slope == pytest.approx(fd, abs=1e-5 * self.scale(t, args))
            assert round_energy_slope(t, -1, *args) == round_energy_slope(t, 1, *args)

    def test_clamp_boundary_kink(self):
        # p_min equal to the required power at t0: right of t0 the power is
        # clamped at p_min, left of it the link needs more
        t0, beta = 0.1, 2e6
        bounds = dataclasses.replace(
            BOUNDS, p_min_w=required_power(self.W.model_bits, t0, 1e6, beta))
        args = self.args(beta, bounds)
        right = round_energy_slope(t0, 1, *args)
        left = round_energy_slope(t0, -1, *args)
        f = effective_cycles(self.W) / (self.DEADLINE - t0)
        assert right == pytest.approx(BOUNDS.capacitance * f ** 3 + bounds.p_min_w,
                                      rel=1e-12, abs=0.0)
        x = self.W.model_bits * LN2 / (t0 * 1e6)
        assert right - left == pytest.approx(1e6 / beta * x * math.exp(x), rel=1e-9, abs=0.0)
        for side, slope in ((1, right), (-1, left)):
            fd = self.one_sided_difference(t0, side, args)
            assert slope == pytest.approx(fd, abs=1e-5 * self.scale(t0, args))

    @pytest.mark.parametrize("x", [1e-12, 1e-6, 1e-3, 0.1, 0.4999, 0.5, 2.0, 30.0])
    def test_upload_slope_without_cancellation(self, x):
        # p_min = 0 keeps the upload unclamped and a tiny capacitance makes the
        # compute slope negligible, so the slope is -(B / beta)(x e^x - expm1(x))
        bits, bw, beta = 13568, 1e6, 1e8
        t = bits * LN2 / (x * bw)
        bounds = DeviceBounds(1e9, 9e9, 0.0, 1e300, 1e-300)
        slope = round_energy_slope(t, 1, Workload(1, 0, 1, 1.0, bits), 2.0 * t, bw, beta, bounds)
        with localcontext() as ctx:
            ctx.prec = 60
            xd = Decimal(bits * LN2 / (t * bw))  # the x the planner computes
            exact = xd * xd.exp() - (xd.exp() - 1)
        assert -slope == pytest.approx(bw / beta * float(exact), rel=1e-13, abs=0.0)

    def test_validation(self):
        args = self.args(2e6)
        with pytest.raises(ValueError):
            round_energy_slope(0.1, 0, *args)
        for t in (0.0, self.DEADLINE, 0.3):
            with pytest.raises(ValueError):
                round_energy_slope(t, 1, *args)


class TestEdgeCertificate:
    @staticmethod
    def forbid_search(monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("golden_section_min called for a certified optimum")

        monkeypatch.setattr(resource_optimizer, "golden_section_min", no_search)

    def test_matches_search_then_endpoint_check(self):
        # every plan equals the search's byte for byte, except where the
        # right slope at the first slot p_max can use proves that slot optimal
        rng = np.random.default_rng(79)
        classes = {}
        sign_only_wrong = 0
        cases = [(draw_wide_case(rng), None) for _ in range(1500)]
        cases += [c for c in (draw_flat_edge_case(rng) for _ in range(600)) if c is not None]
        cases += [(draw_power_limited_case(rng), None) for _ in range(200)]
        for case, moved in cases:
            try:
                ref = search_then_endpoint_check(*case)
            except InfeasibleError as exc:
                with pytest.raises(type(exc)):
                    minimize_round_energy(*case)
                kind = type(exc).__name__
            else:
                plan = minimize_round_energy(*case)
                w, deadline, _, _, bounds = case
                win = upload_time_bounds(effective_cycles(w), deadline, bounds)
                t_p = power_limit_slot(*case)
                if t_p is not None and round_energy_slope(t_p, +1, *case) >= 0.0:
                    assert_power_limit_plan(plan, case, ref)
                    kind = "p_max"
                else:
                    assert plan_bytes(plan) == plan_bytes(ref)
                    if ref.t_up_s == win.lo:
                        kind = "lo clamped" if ref.p_w == bounds.p_min_w else "lo"
                    else:
                        kind = "hi" if ref.t_up_s == win.hi else "interior"
                if moved is not None:
                    kind = f"flat {kind}"
                    # the slope's sign alone would return the moved edge, but the
                    # search picks a point of equal energy to rounding
                    t_edge = win.lo if moved > 0 else win.hi
                    if (moved * round_energy_slope(t_edge, moved, *case) >= 0.0
                            and ref.t_up_s != t_edge):
                        sign_only_wrong += 1
            classes[kind] = classes.get(kind, 0) + 1
        for kind in ("lo", "lo clamped", "hi", "interior", "p_max", "InfeasibleDeadlineError",
                     "InfeasiblePowerError", "flat lo", "flat hi", "flat interior"):
            assert classes.get(kind, 0) >= 10, classes
        assert sign_only_wrong >= 10

    @pytest.mark.parametrize("case, edge", [
        ((Workload(600, 520, 5, 20.0, 13568), 0.05, 1e6, 1e8, BOUNDS), "lo"),
        ((Workload(600, 520, 5, 20.0, 13568), 0.05, 1e6, 1e10, BOUNDS), "lo clamped"),
        ((Workload(600, 0, 1, 20.0, 13568), 13568 * LN2 / 3e6 + 12000 / 2e9, 1e6, 2.5e8,
          DeviceBounds(1e9, 2e9, 1e-4, 0.1, 1e-30)), "hi"),
    ], ids=["f_min", "f_min-p_min", "f_max"])
    def test_edge_optimum_skips_the_search(self, monkeypatch, case, edge):
        ref = search_then_endpoint_check(*case)
        self.forbid_search(monkeypatch)
        plan = minimize_round_energy(*case)
        assert plan_bytes(plan) == plan_bytes(ref)
        w, deadline, _, _, bounds = case
        if edge == "hi":
            assert plan.f_hz == pytest.approx(bounds.f_max_hz, rel=1e-12)
        else:
            assert plan.f_hz == pytest.approx(bounds.f_min_hz, rel=1e-12)
            assert (plan.p_w == bounds.p_min_w) == (edge == "lo clamped")

    def test_edge_the_link_cannot_use_is_not_certified(self, monkeypatch):
        # at f_min the slot is too short for p_max, yet the energy's slope
        # there is positive: the optimum is where p_max first closes the link,
        # and that slot is returned, not the edge
        w = Workload(600, 0, 1, 2000.0, 13568)
        t_lo = w.model_bits * LN2 / 3e6
        bounds = dataclasses.replace(BOUNDS, capacitance=1e-25)
        case = (w, t_lo + effective_cycles(w) / bounds.f_min_hz, 1e6, 1e8, bounds)
        assert required_power(w.model_bits, t_lo, 1e6, 1e8) > bounds.p_max_w
        assert round_energy_slope(t_lo, 1, *case) > 0.0
        ref = search_then_endpoint_check(*case)
        self.forbid_search(monkeypatch)
        plan = minimize_round_energy(*case)
        assert plan.t_up_s > t_lo
        assert_power_limit_plan(plan, case, ref)

    def test_power_limit_optimum_skips_the_search(self, monkeypatch):
        # the unfiltered preset's shape: too slow at f_min, and the energy
        # still rises where p_max first closes the link
        case = (Workload(160, 0, 5, 5e5, 13568), 0.35, 5e5, 4e7, BOUNDS)
        t_p = power_limit_slot(*case)
        assert t_p is not None and round_energy_slope(t_p, +1, *case) > 0.0
        ref = search_then_endpoint_check(*case)
        self.forbid_search(monkeypatch)
        plan = minimize_round_energy(*case)
        assert_power_limit_plan(plan, case, ref)
        assert plan.total_energy_j < ref.total_energy_j
        assert plan.t_cmp_s + plan.t_up_s == pytest.approx(0.35, rel=1e-15)

    def test_interior_optimum_still_searches(self, monkeypatch):
        # a stronger link than the preset's: the energy falls past the first
        # slot p_max can use and bottoms out at a power below p_max
        calls = []
        monkeypatch.setattr(resource_optimizer, "golden_section_min",
                            lambda *a, **k: calls.append(1) or golden_section_min(*a, **k))
        case = (Workload(160, 0, 5, 5e5, 13568), 0.35, 5e5, 1e9, BOUNDS)
        plan = minimize_round_energy(*case)
        win = upload_time_bounds(effective_cycles(case[0]), 0.35, BOUNDS)
        assert win.lo < plan.t_up_s < win.hi and calls == [1]
        assert BOUNDS.p_min_w < plan.p_w < 0.9 * BOUNDS.p_max_w
        assert plan_bytes(plan) == plan_bytes(search_then_endpoint_check(*case))

    def test_preset_unfiltered_plans_rarely_search(self, monkeypatch, tmp_path):
        # on the unfiltered preset nearly every optimum is the first slot
        # p_max can use, so few plans reach golden section
        plans, searches = [], []
        plan = federation.minimize_round_energy
        monkeypatch.setattr(federation, "minimize_round_energy",
                            lambda *a, **k: plans.append(1) or plan(*a, **k))
        monkeypatch.setattr(resource_optimizer, "golden_section_min",
                            lambda *a, **k: searches.append(1) or golden_section_min(*a, **k))
        cfg = dataclasses.replace(load_config(CONFIGS / "synthetic_unfiltered.json"), rounds=10)
        run_from_config(cfg, seed=1, out_dir=tmp_path, quiet=True)
        assert len(plans) == 20
        assert len(searches) < len(plans) / 4, (len(searches), len(plans))
