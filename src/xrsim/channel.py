"""Line-of-sight link budget: free-space path loss, thermal noise and SNR
composition.

No fading or blockage model is applied; link quality varies only through
distance and the beamforming gains at both ends, which is the effect under
study.  There is one modulation-coding point and no rate adaptation: the
config's ``phy_rate_bps`` sets every airtime, and an attempt at SNR below
``snr_threshold_db`` fails outright, one at or above it succeeds.
"""

from __future__ import annotations

import math

import numpy as np

from .antenna import SPEED_OF_LIGHT


def free_space_path_loss_db(distance_m, carrier_hz: float):
    """Friis loss in dB; ``distance_m`` is a scalar or an array of distances."""
    if np.min(distance_m, initial=math.inf) <= 0.0:
        raise ValueError("distance must be positive")
    if carrier_hz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    return 20.0 * np.log10(4.0 * math.pi * distance_m * carrier_hz / SPEED_OF_LIGHT)


def noise_floor_dbm(config) -> float:
    return -174.0 + 10.0 * math.log10(config.bandwidth_hz) + config.noise_figure_db


def link_snr_db(config, tx_gain_db, rx_gain_db, distance_m):
    """SNR from the budget: tx power plus both array gains, minus path loss,
    implementation and extra losses, referenced to the thermal noise floor.
    ``config`` is the scenario config, read for its six budget fields.
    Gains and distance may be scalars or equal-length arrays."""
    snr = config.tx_power_dbm + tx_gain_db
    snr += rx_gain_db
    snr -= free_space_path_loss_db(distance_m, config.carrier_hz)
    snr -= config.implementation_loss_db
    snr -= config.extra_loss_db
    snr -= noise_floor_dbm(config)
    return snr

