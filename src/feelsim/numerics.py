"""Scalar primitives used by the radio and scheduling layers.

Provides the lower-branch Lambert W function, a golden-section scalar
minimizer, and the complex-vector type of channels.  All routines are
deterministic and allocation-light.  They serve the per-round resource
planner but seldom run: golden section only for a plan whose optimum lies
strictly inside its window, Lambert W only in the adaptive bandwidth split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Complex vectors are plain 1-D numpy arrays of dtype complex128.
ComplexVector = np.ndarray

# Interior probe ratio for golden-section search: (3 - sqrt(5)) / 2.
GOLDEN_SHRINK = (3.0 - math.sqrt(5.0)) / 2.0

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, left edge of the W-1 domain


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


def lambert_wm1(x: float) -> float:
    """Lower branch W-1 of w * exp(w) = x, for -1/e <= x < 0; W-1(x) <= -1.

    Uses a branch-point series / log-asymptotic initial guess followed by
    Halley iteration.  Converges to residual |w e^w - x| <= 1e-12 |x| in a
    handful of steps for -1/e <= x <= -1e-300 (closer to 0, e^w is subnormal).
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_wm1 is undefined for NaN")
    if x >= 0.0:
        raise ValueError(f"lambert_wm1 requires -1/e <= x < 0, got {x}")
    if x < _BRANCH_POINT:
        # allow only representation-level slop below the branch point
        if x < _BRANCH_POINT * (1.0 + 1e-12) - 1e-300:
            raise ValueError(f"lambert_wm1 requires x >= -1/e, got {x}")
        x = _BRANCH_POINT

    if x < -0.25:
        # series around the branch point in p = -sqrt(2 (e x + 1))
        p = -math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - 11.0 / 72.0 * p))
    else:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1

    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-13 * abs(x):
            break
        wp1 = w + 1.0
        # Halley step; second-order correction keeps the branch-point case stable
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * abs(w):
            break
    return w


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
