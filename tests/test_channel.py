import math

import numpy as np
import pytest

from feelsim.channel import beam_and_gain, sample_channel, uplink_rate


class TestSampleChannel:
    def test_deterministic_given_stream(self):
        a = sample_channel(np.random.default_rng(3), 40.0, 3.2, 8.0, 4, los_angle=2.3)
        b = sample_channel(np.random.default_rng(3), 40.0, 3.2, 8.0, 4, los_angle=2.3)
        assert np.array_equal(a, b)

    def test_mean_power_matches_pathloss(self):
        # Monte Carlo over 100,000 draws, each at a uniform line-of-sight angle:
        # mean per-antenna power = d^-pl within 2%
        rng = np.random.default_rng(17)
        d, m, n = 40.0, 4, 100_000
        total = 0.0
        for _ in range(n):
            h = sample_channel(rng, d, 3.2, 8.0, m, float(rng.uniform(0.0, 2.0 * np.pi)))
            total += float(np.vdot(h, h).real)
        mean_power = total / (n * m)
        expect = d ** (-3.2)
        assert abs(mean_power - expect) <= 0.02 * expect

    def test_distance_scaling_exact_per_draw(self):
        h25 = sample_channel(np.random.default_rng(7), 25.0, 3.2, 8.0, 4, los_angle=1.1)
        h100 = sample_channel(np.random.default_rng(7), 100.0, 3.2, 8.0, 4, los_angle=1.1)
        ratio = float(np.vdot(h25, h25).real / np.vdot(h100, h100).real)
        assert ratio == pytest.approx((25.0 / 100.0) ** (-3.2), rel=1e-12)

    def test_los_limit(self):
        # a 90 dB factor is effectively pure line of sight: unit-modulus entries
        h = sample_channel(np.random.default_rng(1), 30.0, 3.2, 90.0, 8, los_angle=0.4)
        moduli = np.abs(h) / math.sqrt(30.0 ** (-3.2))
        assert np.all(np.abs(moduli - 1.0) <= 1e-4)

    def test_scatter_power_fraction(self):
        # with the line-of-sight angle pinned, the variance around the mean
        # is the scattered fraction 1/(K+1) of the pathloss
        rng = np.random.default_rng(29)
        k_db, d, m, n = 8.0, 50.0, 4, 60_000
        draws = np.stack([
            sample_channel(rng, d, 3.2, k_db, m, los_angle=0.9) for _ in range(n)
        ])
        scatter = draws - draws.mean(axis=0)
        scatter_power = float(np.mean(np.abs(scatter) ** 2))
        k_lin = 10.0 ** (k_db / 10.0)
        expect = d ** (-3.2) / (k_lin + 1.0)
        assert abs(scatter_power - expect) <= 0.03 * expect
        assert k_lin == pytest.approx(6.309573444801933, rel=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_channel(rng, 0.0, 3.2, 8.0, 4, los_angle=0.5)
        with pytest.raises(ValueError):
            sample_channel(rng, 10.0, 3.2, 8.0, 0, los_angle=0.5)


class TestBeamAndGain:
    def test_scalar_no_interference(self):
        # |h|^2 = 4e-6 over noise 1e-8 -> gain 400
        assert beam_and_gain(np.array([2e-3 + 0j]), 1e-8) == pytest.approx(400.0, rel=1e-12)

    def test_matched_combining_without_interferers(self):
        rng = np.random.default_rng(3)
        h = sample_channel(rng, 40.0, 3.2, 8.0, 4, los_angle=1.7)
        beta = beam_and_gain(h, 1e-8)
        expect = float(np.vdot(h, h).real) / 1e-8
        assert beta == pytest.approx(expect, rel=1e-10)
        w = h / np.linalg.norm(h)  # the matched combiner attains beta
        assert abs(np.vdot(h, w)) ** 2 / 1e-8 == pytest.approx(beta, rel=1e-12)

    def test_unit_norm_combiner(self):
        # beta is the gain of a unit-norm combiner: scaling w changes nothing
        rng = np.random.default_rng(5)
        h = sample_channel(rng, 40.0, 3.2, 8.0, 4, los_angle=1.7)
        w = h / np.linalg.norm(h)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        for scale in (1e-3, 1.0, 7.5):
            gain = abs(np.vdot(h, scale * w)) ** 2 / (1e-8 * np.linalg.norm(scale * w) ** 2)
            assert gain == pytest.approx(beam_and_gain(h, 1e-8), rel=1e-12)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            beam_and_gain(np.ones(2, dtype=complex), 0.0)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, 1e200])
    def test_rejects_zero_or_non_finite_channel(self, bad):
        # 1e200 is finite but its power overflows to inf
        with pytest.raises(ValueError):
            beam_and_gain(np.array([bad, 1e-200], dtype=complex), 1e-8)

    def test_rejects_gain_beyond_float_range(self):
        # a finite power over a small noise overflowed to beta = inf, on which the planner
        # stepped an upload slot one ulp at a time without end
        assert beam_and_gain(np.array([1e150]), 1e-7) == pytest.approx(1e307)
        with pytest.raises(ValueError, match="must be positive and finite, got inf"):
            beam_and_gain(np.array([1e150, 1e150]), 1e-12)


class TestUplinkRate:
    def test_log_law(self):
        assert uplink_rate(2e6, 1e8, 0.02) == pytest.approx(
            2e6 * math.log2(1.0 + 1e8 * 0.02 / 2e6), rel=1e-12
        )

    def test_strictly_increasing_in_power_and_gain(self):
        powers = np.linspace(1e-4, 0.1, 50)
        rates = [uplink_rate(1e6, 1e6, p) for p in powers]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        gains = np.logspace(3, 8, 50)
        rates = [uplink_rate(1e6, g, 0.01) for g in gains]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_zero_power_zero_rate(self):
        assert uplink_rate(1e6, 1e6, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            uplink_rate(0.0, 1e6, 0.01)
        with pytest.raises(ValueError):
            uplink_rate(1e6, -1.0, 0.01)
        with pytest.raises(ValueError):
            uplink_rate(1e6, 1e6, -0.01)
