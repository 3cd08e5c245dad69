"""Scalar rotation helpers only the tests call: the package turns whole
batches (``geometry._rotate``, ``geometry.slerps``,
``covrage.Trajectory.directions``), and these are the one-at-a-time forms
the tests state their checks with.  The package never composes or
renormalizes a :class:`xrsim.geometry.Quaternion`, so the algebra the
tests build orientations with lives here too: :data:`IDENTITY`,
:func:`compose` (the Hamilton product) and :func:`normalized`."""

import math
from typing import Sequence

import numpy as np

from xrsim.geometry import Quaternion, _rotate, slerps

IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)


def compose(a: Quaternion, b: Quaternion) -> Quaternion:
    """The Hamilton product a b: the rotation b, then a."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def normalized(q: Quaternion) -> Quaternion:
    """``q`` scaled to unit norm."""
    n = math.sqrt(q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z)
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def rotate(q: Quaternion, v: Sequence[float]) -> np.ndarray:
    """Rotate a 3-vector from the local frame of ``q`` into the world frame."""
    return np.array(_rotate(q.w, q.x, q.y, q.z, *map(float, v)))


def slerp(q0: Quaternion, q1: Quaternion, s: float) -> Quaternion:
    """Spherical interpolation from q0 (s=0) to q1 (s=1), shortest path.

    Falls back to normalized linear interpolation when the quaternions are
    nearly parallel, where the sine denominator loses precision.
    """
    return Quaternion(*slerps(q0, q1, (s,))[0])


def direction_at(traj, s: float) -> np.ndarray:
    """Unit vector toward the AP in the headset frame at s along the
    :class:`xrsim.covrage.Trajectory` ``traj``: the world direction turned
    into the slerped frame, a reference for ``traj.directions``."""
    return slerp(traj.q_now, traj.q_pred, s).rotate_inverse(traj.d_world)
