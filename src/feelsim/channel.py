"""Uplink channel model: Rician fading draws, receive beamforming gain, and rate.

The base station has a small antenna array; each worker uploads through a
distance-attenuated Rician channel on its own orthogonal share of the band,
so no other worker interferes and matched filtering is the best receive
combiner; the achievable rate then follows the usual bandwidth-scaled log law.
"""
from __future__ import annotations

import math

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
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if antennas < 1:
        raise ValueError(f"need at least one antenna, got {antennas}")
    k_lin = 10.0 ** (rician_k_db / 10.0)
    m = np.arange(antennas)
    v_los = np.exp(1j * np.pi * m * np.sin(los_angle))
    g = (rng.standard_normal(antennas) + 1j * rng.standard_normal(antennas)) / np.sqrt(2.0)
    small = np.sqrt(k_lin / (k_lin + 1.0)) * v_los + np.sqrt(1.0 / (k_lin + 1.0)) * g
    return np.sqrt(distance_m ** (-pathloss_exp)) * small


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
