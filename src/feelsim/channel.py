"""Uplink channel model: Rician fading draws, receive beamforming gain, and rate.

The base station has a small antenna array; each worker uploads through a
distance-attenuated Rician channel on its own orthogonal share of the band,
so no other worker interferes and matched filtering is the best receive
combiner; the achievable rate then follows the usual bandwidth-scaled log law.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

_LN2 = float(np.log(2.0))


def sample_channel(
    rng: np.random.Generator,
    distance_m: float,
    pathloss_exp: float,
    rician_k_db: float,
    antennas: int,
    los_angle: float,
) -> np.ndarray:
    """Draw one Rician-faded channel vector.

    The line-of-sight component is a unit-modulus steering vector at angle
    los_angle; the scattered component is i.i.d. complex Gaussian with unit
    power per antenna.  The whole vector is scaled by sqrt(distance^-pathloss_exp),
    so the expected per-antenna power equals the large-scale pathloss exactly.
    This is sample_gains' draw of one row.
    """
    return _channels([rng], [distance_m], [los_angle], pathloss_exp, rician_k_db, antennas)[0]


def sample_gains(
    rngs: Iterable[np.random.Generator],
    distances_m: Sequence[float],
    los_angles: Sequence[float],
    pathloss_exp: float,
    rician_k_db: float,
    antennas: int,
    noise_power_w: float,
) -> list[float]:
    """Matched-filter gain beta of one channel draw per row, as beam_and_gain(sample_channel(
    rng, distance, pathloss_exp, rician_k_db, antennas, angle), noise_power_w) gives it, bit
    for bit, for the rows of (rngs, distances_m, los_angles).

    The rows' channels are drawn as one block.  Row i's draws are all taken from its stream
    before the next stream is read, so rngs may yield one generator reseeded per row.
    """
    block = _channels(rngs, distances_m, los_angles, pathloss_exp, rician_k_db, antennas)
    return [beam_and_gain(h, noise_power_w) for h in block]


def _channels(
    rngs: Iterable[np.random.Generator],
    distances_m: Sequence[float],
    los_angles: Sequence[float],
    pathloss_exp: float,
    rician_k_db: float,
    antennas: int,
) -> np.ndarray:
    """(rows, antennas) block of sample_channel's draws: row i from the next stream of rngs
    at distances_m[i] and los_angles[i].  Each row takes its real then its imaginary
    scatter from its stream; the law is applied elementwise, so a row's bytes do not depend
    on the block it is drawn in.  The pathloss power and the steering angle's sine are
    taken per row, on scalars: numpy's array ** and sin may round otherwise."""
    n = len(distances_m)
    for d in distances_m:
        if d <= 0.0:
            raise ValueError(f"distance must be positive, got {d}")
    if antennas < 1:
        raise ValueError(f"need at least one antenna, got {antennas}")
    draws = np.empty((n, 2, antennas))
    for rng, row in zip(rngs, draws, strict=True):
        rng.standard_normal(out=row[0])
        rng.standard_normal(out=row[1])
    k_lin = 10.0 ** (rician_k_db / 10.0)
    sines = np.array([np.sin(a) for a in los_angles]).reshape(n, 1)
    v_los = np.exp(1j * np.pi * np.arange(antennas) * sines)
    g = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
    small = np.sqrt(k_lin / (k_lin + 1.0)) * v_los + np.sqrt(1.0 / (k_lin + 1.0)) * g
    scale = np.sqrt(np.array([d ** (-pathloss_exp) for d in distances_m])).reshape(n, 1)
    return scale * small


def beam_and_gain(target: np.ndarray, noise_power_w: float) -> float:
    """Per-watt SNR gain beta of matched filtering `target` on an interference-free sub-band.

    The matched combiner w = h / ||h|| maximizes |h^H w|^2 / (noise_power_w ||w||^2),
    giving beta = ||h||^2 / noise_power_w; only beta is returned, in 1/W terms.
    """
    if noise_power_w <= 0.0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    h = np.asarray(target, dtype=np.complex128)
    beta = float(np.vdot(h, h).real) / noise_power_w
    if not 0.0 < beta < math.inf:  # NaN fails too; no upload slot is planned on an inf
        raise ValueError(f"gain ||h||^2 / noise_power_w must be positive and finite, got {beta}")
    return beta


def uplink_rate(bandwidth_hz: float, beta: float, power_w: float) -> float:
    """Achievable uplink rate in bits/s on a bandwidth_hz-wide allocation."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if power_w < 0.0:
        raise ValueError(f"transmit power must be non-negative, got {power_w}")
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    # log1p keeps the low-SINR regime accurate to full precision
    return bandwidth_hz * np.log1p(beta * power_w / bandwidth_hz) / _LN2
