import itertools
import math

import numpy as np
import pytest

from feelsim.channel import beam_and_gain, sample_channel, sample_gains, uplink_rate
from feelsim.streams import DOMAIN_CHANNEL, reseed, stream_seeds, substream


class TestSampleChannel:
    def test_deterministic_given_stream(self):
        a = sample_channel(np.random.default_rng(3), 40.0, 3.2, 8.0, 4, los_angle=2.3)
        b = sample_channel(np.random.default_rng(3), 40.0, 3.2, 8.0, 4, los_angle=2.3)
        assert np.array_equal(a, b)

    def test_mean_power_matches_pathloss(self):
        # Monte Carlo over 100,000 draws, each at a uniform line-of-sight angle, drawn as
        # one block (TestSampleGains pins a block row to sample_channel): at unit noise
        # power beta is ||h||^2, so mean per-antenna power = d^-pl within 2%
        rng = np.random.default_rng(17)
        d, m, n = 40.0, 4, 100_000
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n).tolist()
        betas = sample_gains(itertools.repeat(rng, n), [d] * n, angles, 3.2, 8.0, m, 1.0)
        mean_power = sum(betas) / (n * m)
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


class TestSampleGains:
    """sample_gains draws its rows as one block; each row's beta has the bytes of one
    sample_channel draw through beam_and_gain, whatever the block's size."""

    @staticmethod
    def rows(n, seed):
        """n (distance, angle) placements: the config's distance bounds (the defaults and
        the shipped presets'), the steering angle's edges, then random ones."""
        rng = np.random.default_rng(seed)
        distances = [25.0, 100.0, 10.0, 60.0] + rng.uniform(10.0, 100.0, n).tolist()
        angles = [0.0, math.pi / 2, math.pi, math.nextafter(2 * math.pi, 0.0)]
        return distances[:n], (angles + rng.uniform(0.0, 2 * math.pi, n).tolist())[:n]

    @pytest.mark.parametrize("k_db", [8.0, -20.0])
    @pytest.mark.parametrize("n", [1, 3, 17, 64])
    @pytest.mark.parametrize("antennas", [1, 4, 64])
    def test_block_equals_one_row_draws(self, antennas, n, k_db):
        distances, angles = self.rows(n, 10 * antennas + n)
        # the block reads one generator reseeded per row, as a round schedule does
        seeds = stream_seeds(5, [(DOMAIN_CHANNEL, 0, i) for i in range(n)])
        got = sample_gains((reseed(np.random.default_rng(), s) for s in seeds), distances,
                           angles, 3.2, k_db, antennas, 1e-12)
        want = [beam_and_gain(sample_channel(substream(5, DOMAIN_CHANNEL, 0, i), d, 3.2, k_db,
                                             antennas, a), 1e-12)
                for i, (d, a) in enumerate(zip(distances, angles))]
        assert got == want
        assert all(type(beta) is float for beta in got)

    # an underflowing pathloss gives gain 0, a NaN distance NaN, a finite power over the
    # noise inf
    @pytest.mark.parametrize("bad, expect", [(1e200, "got 0.0"), (math.nan, "got nan"),
                                             (1e-95, "got inf")])
    def test_bad_row_raises_as_one_row(self, bad, expect):
        with pytest.raises(ValueError, match="must be positive and finite") as one_row:
            beam_and_gain(sample_channel(np.random.default_rng(1), bad, 3.2, 8.0, 4, 0.3),
                          1e-12)
        assert str(one_row.value).endswith(expect)
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(ValueError) as block:
            sample_gains(rngs, [40.0, bad, 40.0], [0.1, 0.3, 0.5], 3.2, 8.0, 4, 1e-12)
        assert str(block.value) == str(one_row.value)

    def test_validation_as_one_row(self):
        rngs = [np.random.default_rng(0)] * 2
        with pytest.raises(ValueError, match="distance must be positive, got 0.0"):
            sample_gains(rngs, [10.0, 0.0], [0.5, 0.5], 3.2, 8.0, 4, 1e-12)
        # each row is checked: a NaN row ahead does not hide a bad one
        with pytest.raises(ValueError, match="distance must be positive, got -1.0"):
            sample_gains(rngs, [math.nan, -1.0], [0.5, 0.5], 3.2, 8.0, 4, 1e-12)
        # one stream per row: a row left without one is not left undrawn
        with pytest.raises(ValueError, match="zip"):
            sample_gains(rngs[:1], [10.0, 10.0], [0.5, 0.5], 3.2, 8.0, 4, 1e-12)
        with pytest.raises(ValueError, match="need at least one antenna, got 0"):
            sample_gains(rngs, [10.0, 10.0], [0.5, 0.5], 3.2, 8.0, 0, 1e-12)
        with pytest.raises(ValueError, match="noise power must be positive"):
            sample_gains(rngs, [10.0, 10.0], [0.5, 0.5], 3.2, 8.0, 4, 0.0)
        assert sample_gains([], [], [], 3.2, 8.0, 4, 1e-12) == []


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
