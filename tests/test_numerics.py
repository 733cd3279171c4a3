import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from feelsim.numerics import (
    GOLDEN_SHRINK,
    Interval,
    golden_section_min,
    lambert_wm1,
)


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


class TestLambertW:
    def test_known_value(self):
        # W-1(-0.1) = -3.577152063957297..., from a 60-digit reference
        assert abs(lambert_wm1(-0.1) - -3.577152063957297) <= 1e-14

    def test_branch_point(self):
        assert lambert_wm1(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_zero(self):
        # W-1 falls to -inf as x rises to 0: the branch stops short of 0
        assert lambert_wm1(-1e-300) == pytest.approx(-697.3227762954601, rel=1e-13)
        for x in (0.0, -0.0, 1e-300):
            with pytest.raises(ValueError):
                lambert_wm1(x)

    def test_against_scipy(self):
        # independent route: scipy's complex implementation, kept 1e-6 off the
        # branch point, where scipy's k=-1 branch returns about -1
        xs = np.concatenate([
            np.linspace(-1.0 / math.e + 1e-6, -1e-6, 500),
            -np.logspace(-6.0, -300.0, 500),
        ])
        for x in xs:
            ours = lambert_wm1(float(x))
            ref = float(scipy_lambertw(float(x), -1).real)
            assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref)), f"x={x}"

    def test_identity_residual(self):
        xs = np.concatenate([
            np.linspace(-1.0 / math.e + 1e-12, -1e-3, 5000),
            -np.logspace(-3.0, -300.0, 5000),
        ])
        for x in xs:
            w = lambert_wm1(float(x))
            assert w <= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-10 * abs(x)

    def test_below_branch_raises(self):
        with pytest.raises(ValueError):
            lambert_wm1(-0.4)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            lambert_wm1(float("nan"))


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

