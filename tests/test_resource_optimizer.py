import dataclasses
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from feelsim import federation, resource_optimizer
from feelsim.channel import uplink_rate
from feelsim.io_cli import load_config, run_from_config
from feelsim.resource_optimizer import (
    GOLDEN_SHRINK,
    DeviceBounds,
    InfeasibleBandwidthError,
    InfeasibleDeadlineError,
    InfeasibleError,
    InfeasiblePowerError,
    Interval,
    Workload,
    computation_energy,
    effective_cycles,
    golden_section_min,
    minimize_round_energy,
    optimal_bandwidth,
    required_power,
    round_energy_objective,
    round_energy_slope,
    upload_time_bounds,
)
import reference

LN2 = math.log(2.0)
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BOUNDS = DeviceBounds(f_min_hz=1e9, f_max_hz=9e9, p_min_w=1e-4, p_max_w=0.1,
                      capacitance=2e-28)


def draw_case(rng):
    """Random planning instance on BOUNDS in the reference ranges: the first of rng's
    draws that p_max can serve."""
    while True:
        size = int(rng.integers(200, 2001))
        kappa = int(rng.integers(0, size + 1))
        epochs = int(rng.integers(1, 6))
        w = Workload(size, kappa, epochs, 20.0, 13568)
        t_fast = effective_cycles(w) / BOUNDS.f_max_hz
        beta = 10.0 ** rng.uniform(4, 8)
        bw = 10.0 ** rng.uniform(5.5, 6.5)
        t_need = w.model_bits / uplink_rate(bw, beta, BOUNDS.p_max_w)
        deadline = t_fast * rng.uniform(1.05, 3.0) + t_need * rng.uniform(1.05, 5.0)
        if required_power(w.model_bits, deadline - t_fast, bw, beta) <= BOUNDS.p_max_w:
            return w, deadline, bw, beta, BOUNDS


# reference.plan's energy is the optimum to rounding; golden section stops on a bracket 1e-9
# of the window wide, so a plan may spend more by ABOVE_REL (3.2e-11 at most on the random
# cases), less by BELOW_REL; where the energy is not flat, its numbers agree to PLAN_REL
ABOVE_REL = 1e-9
BELOW_REL = 1e-14
PLAN_REL = 1e-6


def assert_matches_reference(plan, case, numbers=True):
    """plan costs what reference.plan's does, and with `numbers` has its numbers."""
    want = reference.plan(*case)
    assert (want.total_energy_j * (1.0 - BELOW_REL) <= plan.total_energy_j
            <= want.total_energy_j * (1.0 + ABOVE_REL)), (plan, want)
    assert not numbers or dataclasses.astuple(plan) == pytest.approx(
        dataclasses.astuple(want), rel=PLAN_REL, abs=0.0), (plan, want)
    return want


def assert_first_usable_slot(plan, case, past=0):
    """plan's slot is at most `past` floats beyond the first in which p_max closes the link."""
    w, _, bw, beta, bounds = case
    t_before = plan.t_up_s
    for _ in range(past + 1):
        t_before = math.nextafter(t_before, 0.0)
    assert (required_power(w.model_bits, plan.t_up_s, bw, beta) <= bounds.p_max_w
            < required_power(w.model_bits, t_before, bw, beta)), plan


def plan_class(plan, case):
    """Where in case's window plan's slot lies."""
    w, deadline, bw, beta, bounds = case
    t, cycles = plan.t_up_s, effective_cycles(w)
    if t == deadline - cycles / bounds.f_min_hz:
        return "lo clamped" if plan.p_w == bounds.p_min_w else "lo"
    first = reference.link_power(w.model_bits, math.nextafter(t, 0.0), bw, beta) > bounds.p_max_w
    return "hi" if t == deadline - cycles / bounds.f_max_hz else "p_max" if first else "interior"


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
    t_star = reference.least_float(lambda t: round_energy_slope(t, +1, *args) >= 0.0, 0.0, hi)
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
        for args in ((0, 0, 1, 20.0, 13568), (100, 101, 1, 20.0, 13568), (100, 0, 0, 20.0, 13568),
                     (100, 0, 1, 0.0, 13568), (100, 0, 1, 20.0, 0)):
            with pytest.raises(ValueError):
                Workload(*args)


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

    @pytest.mark.parametrize("target", [
        *(pytest.param(1.0 - gap, id=str(gap))
          for gap in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)),
        # far from pi = 1, where a start from 1/pi^2 - 1 alone rounds to 0
        # (1e-30) or overflows (1e-200)
        pytest.param(1e-30, id="pi=1e-30"),
        pytest.param(1e-200, id="pi=1e-200"),
    ])
    def test_near_pi_one_matches_exact_root(self, target):
        # pi = 1 - gap puts the root y of ln(1 + y) = pi y within about 2 gap
        # of 0; the bandwidth must still match that root taken to 60 digits,
        # up to the conditioning pi / (1 - pi) of y in pi
        bits, t, p = 1_000_000, 1.0, 0.1
        beta = self.beta_for(target, bits, t, p)
        pi_float = bits * LN2 / (t * p * beta)  # the pi the planner computes
        bw = optimal_bandwidth(bits, t, p, beta)
        with localcontext() as ctx:
            ctx.prec = 60
            pi = Decimal(pi_float)
            # right of the root, so Newton falls onto it; 1/pi^2 - 1 would need
            # some 200 more digits for its first step at pi = 1e-200
            y = -2 * pi.ln() / pi
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

    @pytest.mark.parametrize("beta", [float(b) for b in np.geomspace(1e305, 1e308, 7)])
    def test_tiny_pi_raises_instead_of_zero_bandwidth(self, beta):
        # pi = ln2 / beta below about 7.9e-306: the Newton start overflows
        with pytest.raises(ValueError, match="pi = "):
            optimal_bandwidth(1, 1.0, 1.0, beta)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_bandwidth(1000, 0.0, 0.1, 1e6)
        with pytest.raises(ValueError):
            optimal_bandwidth(0, 1.0, 0.1, 1e6)


class TestMinimizeRoundEnergy:
    def test_walk_to_t_p_is_bounded_where_the_snr_overflows(self):
        # p_max beta / B is inf, so t_p is 0 and the ulp walk starts at the window's lower
        # edge, 6.7e-11 s, where required_power is inf up to 2.65e-5 s: the walk once never
        # ended.  In a child process, so that a hang fails the test
        code = ("from feelsim.resource_optimizer import *\n"
                "bounds = DeviceBounds(1e9, 9e9, 1e-4, 1e17, 2e-28)\n"
                "minimize_round_energy(Workload(160, 0, 5, 5e5, 13568), 0.0667, 5e5, 3.744e300,"
                " bounds)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(resource_optimizer.__file__).parent.parent)},
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith(
            "ValueError: p_max = 1e+17 W does not close the link of gain 3.744e+300"), proc.stderr

    def test_deadline_filled_exactly(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            case = draw_case(rng)
            plan = minimize_round_energy(*case)
            assert abs(plan.t_cmp_s + plan.t_up_s - case[1]) <= 1e-9 * case[1]

    def test_operating_point_inside_envelope(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            plan = minimize_round_energy(*draw_case(rng))
            assert BOUNDS.f_min_hz * (1 - 1e-9) <= plan.f_hz <= BOUNDS.f_max_hz * (1 + 1e-9)
            assert BOUNDS.p_min_w <= plan.p_w <= BOUNDS.p_max_w
            assert plan.e_cmp_j > 0.0 and plan.e_up_j > 0.0

    def test_filtered_plan_never_costs_more(self):
        # the planned total with kappa > 0 is at most the kappa = 0 total
        rng = np.random.default_rng(67)
        done = 0
        while done < 1000:
            w, *rest = draw_case(rng)
            if w.excluded_count == 0 or w.epochs == 1:
                continue
            base = Workload(w.dataset_size, 0, w.epochs, w.cycles_per_sample, w.model_bits)
            e_0 = minimize_round_energy(base, *rest).total_energy_j
            assert minimize_round_energy(w, *rest).total_energy_j <= e_0 * (1 + 1e-9)
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
        case = draw_case(np.random.default_rng(71))
        plan = minimize_round_energy(*case)
        e = round_energy_objective(plan.t_up_s, *case)
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
        for args in ((0.0, 1e9, 1e-4, 0.1, 2e-28), (2e9, 1e9, 1e-4, 0.1, 2e-28),
                     (1e9, 9e9, 0.2, 0.1, 2e-28), (1e9, 9e9, 1e-4, 0.1, 0.0)):
            with pytest.raises(ValueError):
                DeviceBounds(*args)


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

    def test_matches_the_reference_planner(self):
        # every plan costs what the reference's does, and is infeasible for the same cause;
        # at the first slot p_max can use, t_p's closed form may land one float past it
        rng = np.random.default_rng(79)
        classes = {}
        cases = [(draw_wide_case(rng), None) for _ in range(1500)]
        cases += [c for c in (draw_flat_edge_case(rng) for _ in range(600)) if c is not None]
        cases += [(draw_power_limited_case(rng), None) for _ in range(200)]
        for case, moved in cases:
            try:
                plan = minimize_round_energy(*case)
            except InfeasibleError as exc:
                with pytest.raises(type(exc)):
                    reference.plan(*case)
                kind = type(exc).__name__
            else:
                kind = plan_class(assert_matches_reference(plan, case, numbers=False), case)
                if kind == "p_max":
                    assert_first_usable_slot(plan, case, past=1)
                if moved is not None:
                    kind = f"flat {kind}"
            classes[kind] = classes.get(kind, 0) + 1
        for kind in ("lo", "lo clamped", "hi", "interior", "p_max", "InfeasibleDeadlineError",
                     "InfeasiblePowerError", "flat lo", "flat hi", "flat interior"):
            assert classes.get(kind, 0) >= 10, classes

    @pytest.mark.parametrize("case, edge", [
        ((Workload(600, 520, 5, 20.0, 13568), 0.05, 1e6, 1e8, BOUNDS), "lo"),
        ((Workload(600, 520, 5, 20.0, 13568), 0.05, 1e6, 1e10, BOUNDS), "lo clamped"),
        ((Workload(600, 0, 1, 20.0, 13568), 13568 * LN2 / 3e6 + 12000 / 2e9, 1e6, 2.5e8,
          DeviceBounds(1e9, 2e9, 1e-4, 0.1, 1e-30)), "hi"),
    ], ids=["f_min", "f_min-p_min", "f_max"])
    def test_edge_optimum_skips_the_search(self, monkeypatch, case, edge):
        self.forbid_search(monkeypatch)
        plan = minimize_round_energy(*case)
        assert_matches_reference(plan, case)
        assert plan_class(plan, case) == edge

    def test_flat_edge_returned_on_the_slope_sign(self, monkeypatch):
        # an edge within rounding of the unconstrained minimizer is returned
        # whenever its slope into the window does not descend, however small
        # that slope is
        self.forbid_search(monkeypatch)
        rng = np.random.default_rng(83)
        returned = {+1: 0, -1: 0}
        for _ in range(600):
            drawn = draw_flat_edge_case(rng)
            if drawn is None:
                continue
            case, side = drawn
            w, deadline, bw, beta, bounds = case
            win = upload_time_bounds(effective_cycles(w), deadline, bounds)
            t_edge = win.lo if side > 0 else win.hi
            if (required_power(w.model_bits, t_edge, bw, beta) > bounds.p_max_w
                    or side * round_energy_slope(t_edge, side, *case) < 0.0):
                continue
            assert minimize_round_energy(*case).t_up_s == t_edge
            returned[side] += 1
        assert min(returned.values()) >= 10, returned

    @pytest.mark.parametrize("bw, past", [(1e6, False), (5e5, True)],
                             ids=["closed-form-at-edge", "closed-form-past-edge"])
    def test_link_closed_only_at_f_max(self, monkeypatch, bw, past):
        # p_max closes the link in the widest slot and in no shorter one: the
        # first usable slot is the upper edge itself, also where t_p's closed
        # form rounds past it
        w, beta = Workload(600, 0, 1, 2000.0, 13568), 1e8
        hi = upload_time_bounds(effective_cycles(w), 0.05, BOUNDS).hi
        p_max = required_power(w.model_bits, hi, bw, beta)
        assert required_power(w.model_bits, math.nextafter(hi, 0.0), bw, beta) > p_max
        assert (w.model_bits * LN2 / (bw * math.log1p(p_max * beta / bw)) > hi) == past
        case = (w, 0.05, bw, beta, dataclasses.replace(BOUNDS, p_max_w=p_max))
        self.forbid_search(monkeypatch)
        plan = minimize_round_energy(*case)
        assert plan.t_up_s == hi and plan.p_w <= p_max
        assert_matches_reference(plan, case)

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
        self.forbid_search(monkeypatch)
        plan = minimize_round_energy(*case)
        assert plan.t_up_s > t_lo
        assert_first_usable_slot(plan, case)
        assert_matches_reference(plan, case)

    def test_power_limit_optimum_skips_the_search(self, monkeypatch):
        # the unfiltered preset's shape: too slow at f_min, and the energy
        # still rises where p_max first closes the link
        case = (Workload(160, 0, 5, 5e5, 13568), 0.35, 5e5, 4e7, BOUNDS)
        self.forbid_search(monkeypatch)
        plan = minimize_round_energy(*case)
        assert round_energy_slope(plan.t_up_s, +1, *case) > 0.0
        assert_first_usable_slot(plan, case)
        assert_matches_reference(plan, case)
        assert plan.t_cmp_s + plan.t_up_s == pytest.approx(0.35, rel=1e-15)

    def test_interior_optimum_still_searches(self, monkeypatch):
        # a stronger link than the preset's: the energy falls past the first
        # slot p_max can use and bottoms out at a power below p_max
        calls = []
        monkeypatch.setattr(resource_optimizer, "golden_section_min",
                            lambda *a, **k: calls.append(1) or golden_section_min(*a, **k))
        case = (Workload(160, 0, 5, 5e5, 13568), 0.35, 5e5, 1e9, BOUNDS)
        plan = minimize_round_energy(*case)
        assert plan_class(plan, case) == "interior" and calls == [1]
        assert BOUNDS.p_min_w < plan.p_w < 0.9 * BOUNDS.p_max_w
        assert_matches_reference(plan, case)

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


def convex_quartic_argmin(a: float, b: float, c: float, d: float) -> float:
    """Exact argmin on [0, 1] of (t - b)^2 (a (t - b)^2 + c) + d t, a > 0, c >= 0.

    The derivative 4a s^3 + 2c s + d in s = t - b is strictly increasing, so
    its one real root (Cardano, in the form free of cancellation) clipped to
    [0, 1] is the minimizer.
    """
    p, q = c / (2.0 * a), d / (4.0 * a)  # s^3 + p s + q = 0
    v = float(np.cbrt(-(q / 2.0 + math.copysign(math.sqrt(q * q / 4.0 + p**3 / 27.0), q))))
    s = v - p / (3.0 * v) if v != 0.0 else 0.0
    return min(1.0, max(0.0, b + s))


def test_golden_shrink_constant():
    assert GOLDEN_SHRINK == (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(GOLDEN_SHRINK - 0.3819660112501051) < 1e-15


class TestGoldenSection:
    def test_shifted_quadratic(self):
        x, fx = golden_section_min(lambda t: (t - 2.0) ** 2, Interval(0.0, 5.0))
        assert abs(x - 2.0) <= 1e-6
        assert fx <= 1e-11

    def test_random_convex_quartics_match_grid(self):
        # 1,000 convex quartics against their exact argmin, which the first
        # few check against a dense grid
        rng = np.random.default_rng(123)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        for case in range(1000):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-0.5, 1.5)
            c = rng.uniform(0.0, 3.0)
            d = rng.uniform(-2.0, 2.0)
            exact = convex_quartic_argmin(a, b, c, d)
            if case < 5:
                s = grid - b
                s2 = s * s
                vals = s2 * (a * s2 + c) + d * grid
                assert abs(grid[int(np.argmin(vals))] - exact) <= 1e-6

            def f(t, a=a, b=b, c=c, d=d):
                u = (t - b) ** 2
                return u * (a * u + c) + d * t

            x, _ = golden_section_min(f, Interval(0.0, 1.0), tol=1e-9)
            assert abs(x - exact) <= 1e-6, f"argmin off by {abs(x - exact):.2e}"

    def test_boundary_minimum(self):
        x, _ = golden_section_min(lambda t: t, Interval(0.0, 1.0), tol=1e-10)
        assert x <= 1e-9

    def test_infeasible_left_wall(self):
        # +inf plateau on the left must not trap the bracket
        def f(t):
            return math.inf if t < 0.3 else (t - 0.5) ** 2

        x, fx = golden_section_min(f, Interval(0.0, 1.0), tol=1e-9)
        assert abs(x - 0.5) <= 1e-6
        assert fx <= 1e-12

    def test_degenerate_interval(self):
        x, fx = golden_section_min(lambda t: t * t, Interval(2.0, 2.0))
        assert x == 2.0 and fx == 4.0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda t: t, Interval(0.0, 1.0), tol=0.0)


class TestTracerContract:
    def test_probe_wraps_golden_section_and_restores_every_name(self, monkeypatch):
        # bench/tracer.py rebinds module globals by name, golden_section_min
        # among them, and reads its max_iter argument by name; moving or
        # renaming any of them breaks the benchmark's trace
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import tracer
        from feelsim import io_cli, learning

        modules = (federation, io_cli, learning, resource_optimizer)
        before = [dict(vars(m)) for m in modules]
        with tracer.Probe(trace=True) as probe:
            rebound = {name for m, names in zip(modules, before)
                       for name, value in names.items() if vars(m)[name] is not value}
            x, _ = resource_optimizer.golden_section_min(
                lambda t: (t - 2.0) ** 2, Interval(0.0, 5.0))
        assert {"golden_section_min", "round_energy_objective"} <= rebound
        assert probe.spans["numerics.golden"][0] == 1
        assert abs(x - 2.0) <= 1e-6
        for m, names in zip(modules, before):
            assert all(vars(m)[name] is value for name, value in names.items()), m.__name__


class TestRarelyReachedChecks:
    """Checks and edge values that the rest of this file never reaches, one case each."""

    W = Workload(600, 300, 5, 2e4, 13568)

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: required_power(1000, 1.0, 0.0, 1e6), "bandwidth must be positive",
                     id="bandwidth-0"),
        pytest.param(lambda: required_power(1000, 1.0, -1e6, 1e6), "bandwidth must be positive",
                     id="bandwidth-negative"),
        pytest.param(lambda: upload_time_bounds(6e4, 0.0, BOUNDS), "deadline must be positive",
                     id="deadline-0"),
        pytest.param(lambda: upload_time_bounds(6e4, -0.1, BOUNDS), "deadline must be positive",
                     id="deadline-negative"),
        pytest.param(lambda: upload_time_bounds(0.0, 0.1, BOUNDS), "cycles must be positive",
                     id="cycles-0"),
    ])
    def test_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("t_up", [0.0, -0.05, 0.2, 0.3])  # the window is (0, 0.2)
    def test_objective_is_infinite_outside_the_window(self, t_up):
        assert round_energy_objective(t_up, self.W, 0.2, 1e6, 2e6, BOUNDS) == math.inf

    @pytest.mark.parametrize("side", [-1, 1])
    def test_slope_is_minus_infinity_where_the_required_power_overflows(self, side):
        # bits ln2 / (t_up B) is about 9.4e6 at t_up 1 ns: expm1 overflows
        assert required_power(self.W.model_bits, 1e-9, 1e6, 2e6) == math.inf
        assert round_energy_slope(1e-9, side, self.W, 0.2, 1e6, 2e6, BOUNDS) == -math.inf
