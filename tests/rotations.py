"""Scalar rotation helpers only the tests call: the package turns whole
batches (``geometry._rotate``, ``geometry.slerps``,
``covrage.Trajectory.directions``), and these are the one-at-a-time forms
the tests state their checks with."""

from typing import Sequence

import numpy as np

from xrsim.geometry import Quaternion, _rotate, slerps


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
