import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from feelsim.channel import uplink_rate
from feelsim.numerics import Interval
from feelsim.resource_optimizer import (
    DeviceBounds,
    InfeasibleBandwidthError,
    InfeasibleDeadlineError,
    InfeasiblePowerError,
    Workload,
    computation_energy,
    effective_cycles,
    minimize_round_energy,
    optimal_bandwidth,
    required_power,
    round_energy_objective,
    upload_time_bounds,
)

LN2 = math.log(2.0)
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
    def test_frozen_example(self):
        # pi = 2 with unit slot: bits ln2 / (p beta) = 2
        bits = 1_000_000
        beta = bits * LN2 / 2.0 / 0.1
        bw = optimal_bandwidth(bits, 1.0, 0.1, beta)
        assert bw == pytest.approx(4.3495e5, rel=1e-4)

    def test_against_scipy_lambertw(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            bits = int(rng.integers(10_000, 3_000_000))
            t = 10.0 ** rng.uniform(-2, 1)
            p = 10.0 ** rng.uniform(-4, -1)
            pi = 10.0 ** rng.uniform(0.01, 2.5)
            beta = bits * LN2 / (t * p * pi)
            if pi <= 1.0:
                continue
            ours = optimal_bandwidth(bits, t, p, beta)
            w0 = float(scipy_lambertw(-pi * math.exp(-pi), 0).real)
            ref = bits * LN2 / (t * (w0 + pi))
            assert ours == pytest.approx(ref, rel=1e-10)

    def test_infeasible_branch_raises(self):
        bits = 1_000_000
        for pi in (0.2, 0.9999, 1.0):
            beta = bits * LN2 / (1.0 * 0.1 * pi)
            with pytest.raises(InfeasibleBandwidthError):
                optimal_bandwidth(bits, 1.0, 0.1, beta)

    def test_huge_pi_limit(self):
        # exp(-pi) underflows; W0 term vanishes and bw -> bits ln2 / (t pi)
        bits = 1_000_000
        pi = 800.0
        beta = bits * LN2 / (1.0 * 0.1 * pi)
        bw = optimal_bandwidth(bits, 1.0, 0.1, beta)
        assert bw == pytest.approx(bits * LN2 / pi, rel=1e-9)

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
