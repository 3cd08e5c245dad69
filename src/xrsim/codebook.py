"""Sector codebooks and the quasi-omni pattern.

A codebook is the tuple of weight vectors a sweep probes, indexed by sector
id.  The directional sectors are steered beams on a fixed aim grid
(:func:`steered_sectors`); they are all an access point's transmit sweep
probes.  A headset's codebook adds one quasi-omni AWV, a receive pattern,
as its last candidate (:func:`generate_sector_codebook`).  The quasi-omni
weights are a closed form: a centered quadratic phase ramp (a chirp) with
fixed amplitudes, which defocuses the beam instead of steering it.  No
search is made: a phase-only pattern spread over the sphere has no array
gain, so the link it serves stays below the SNR threshold whatever its
weights, and a flatter pattern would change no outcome.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .antenna import ArrayGeometry, Awv, factored_awv, steering_phases
from .geometry import unit_vector

# default aim grid, degrees, used on both azimuth and elevation
DEFAULT_AIMS = (-50.0, -30.0, -10.0, 10.0, 30.0, 50.0)


@lru_cache(maxsize=16)
def steered_sectors(geometry: ArrayGeometry) -> tuple[Awv, ...]:
    """Steered sector per (azimuth, elevation) point of the ``DEFAULT_AIMS``
    grid, elevation-outer, so that a sector's index is its id.  Memoized,
    as :func:`cached_quasi_omni` is, so that an access point and a headset
    of equal geometry share one tuple of weight vectors."""
    return tuple(steering_phases(geometry, unit_vector(az, el)) for el in DEFAULT_AIMS for az in DEFAULT_AIMS)


def generate_sector_codebook(geometry: ArrayGeometry, quasi_omni: Awv) -> tuple[Awv, ...]:
    """A headset's sweep codebook: the :func:`steered_sectors` plus a
    quasi-omni receive pattern as the last candidate.  An access point's
    transmit sweep probes the steered sectors alone."""
    return steered_sectors(geometry) + (quasi_omni,)


def synthesize_quasi_omni(geometry: ArrayGeometry) -> Awv:
    """Phase-only quasi-omni weights of ``geometry``: the centered chirp
    pi (r^2 / rows + c^2 / cols) at each element's row and column offsets r
    and c from the array centre, row-major like the element positions.  Over
    1,000 sphere directions its median gain is within about 0.3 dB of 0 dBi
    at 8x8 and 64x64 (``tests/test_codebook.py``).  The chirp is a row
    factor times a column factor, and the weight vector records both
    (:func:`factored_awv`)."""
    r = np.arange(geometry.rows) - (geometry.rows - 1) / 2.0
    c = np.arange(geometry.cols) - (geometry.cols - 1) / 2.0
    return factored_awv(geometry, r * r / geometry.rows, c * c / geometry.cols)


@lru_cache(maxsize=16)
def cached_quasi_omni(geometry: ArrayGeometry) -> Awv:
    """The quasi-omni pattern of ``geometry``, memoized so that simulators
    of one geometry share one weight vector.  It calls
    :func:`synthesize_quasi_omni` through the module global, so a wrapper
    installed there sees each miss."""
    return synthesize_quasi_omni(geometry)
