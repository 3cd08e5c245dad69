"""Angle measures the tests compare rotations and directions with."""

import math

import numpy as np


def rotation_angle(a, b) -> float:
    """Angle in radians of the relative rotation between two orientation
    quaternions."""
    return 2.0 * math.acos(min(1.0, abs(a.dot(b))))


def direction_angle(a, b) -> float:
    """Great-circle angle between two unit vectors, degrees."""
    d = float(np.dot(a, b))
    return math.degrees(math.acos(max(-1.0, min(1.0, d))))
