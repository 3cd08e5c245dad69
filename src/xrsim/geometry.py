"""Rigid-body math for head tracking: quaternions, poses, look directions,
and short-horizon orientation prediction.

Conventions used throughout the package:

* quaternions are Hamilton, scalar-first ``(w, x, y, z)``, right handed;
* an orientation quaternion maps local-frame vectors into the world frame;
* the local frame has boresight along +x and up along +z at identity;
* a direction is a unit 3-vector in a named frame (world, or a device's
  local frame); :func:`unit_vector` holds the one (azimuth, elevation)
  convention: degrees, azimuth measured from +x toward +y, elevation
  positive toward +z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# below this quaternion angle slerp degenerates to nlerp
_SLERP_MIN_ANGLE = 1e-7

# past-motion window, seconds, for the velocity estimate behind extrapolated
# prediction
VELOCITY_EST_DT = 0.01


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    @staticmethod
    def from_axis_angle(axis: Sequence[float], angle_rad: float) -> "Quaternion":
        ax, ay, az = float(axis[0]), float(axis[1]), float(axis[2])
        n = math.sqrt(ax * ax + ay * ay + az * az)
        if n == 0.0:
            raise ValueError("rotation axis must be nonzero")
        half = 0.5 * angle_rad
        s = math.sin(half) / n
        return Quaternion(math.cos(half), ax * s, ay * s, az * s)

    def rotate_inverse(self, v: Sequence[float]) -> np.ndarray:
        """Rotate a world-frame 3-vector into the local frame."""
        return np.array(_rotate(self.w, -self.x, -self.y, -self.z, *map(float, v)))


def _rotate(w, x, y, z, vx, vy, vz, with_x=True) -> tuple:
    """The vector (vx, vy, vz) turned by the unit quaternion (w, x, y, z):
    floats, or arrays that broadcast, component by component; x is NaN
    without ``with_x``."""
    # t = 2 q_v x v; v' = v + w t + q_v x t
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    turned_x = vx + w * tx + (y * tz - z * ty) if with_x else math.nan
    return (turned_x, vy + w * ty + (z * tx - x * tz), vz + w * tz + (x * ty - y * tx))


def slerps(q0: Quaternion, q1: Quaternion, ss: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Spherical interpolation from q0 (s=0) to q1 (s=1), shortest path, at
    each s of ``ss``, as (w, x, y, z) tuples, from one set-up of the pair.

    Falls back to normalized linear interpolation when the quaternions are
    nearly parallel, where the sine denominator loses precision.
    """
    d = q0.w * q1.w + q0.x * q1.x + q0.y * q1.y + q0.z * q1.z
    p0, p1 = (q0.w, q0.x, q0.y, q0.z), (q1.w, q1.x, q1.y, q1.z)
    if d < 0.0:
        d = -d
        p1 = tuple(-a for a in p1)
    angle = math.acos(min(1.0, d))
    sa = math.sin(angle)
    return [slerp_step(p0, p1, angle, sa, s) for s in ss]


def slerp_step(p0: Sequence[float], p1: Sequence[float], angle: float, sine: float,
               s: float) -> tuple[float, float, float, float]:
    """The slerp at s of a set-up pair, in floats: ``p0`` and ``p1`` as
    (w, x, y, z), ``p1`` in ``p0``'s hemisphere, their angle and its sine.
    Below :data:`_SLERP_MIN_ANGLE` it is the normalized lerp."""
    w0, x0, y0, z0 = p0
    w1, x1, y1, z1 = p1
    if angle < _SLERP_MIN_ANGLE:
        w, x, y, z = w0 + s * (w1 - w0), x0 + s * (x1 - x0), y0 + s * (y1 - y0), z0 + s * (z1 - z0)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        return (w / n, x / n, y / n, z / n)
    c0, c1 = math.sin((1.0 - s) * angle) / sine, math.sin(s * angle) / sine
    return (c0 * w0 + c1 * w1, c0 * x0 + c1 * x1, c0 * y0 + c1 * y1, c0 * z0 + c1 * z1)


def rotate_into_frames(quats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """World-frame vectors into the local frames of orientations: the y and
    z components of the row-wise :meth:`Quaternion.rotate_inverse` bit for
    bit, all a gain reads, and x NaN.  ``quats`` is (..., 4) scalar-first and
    ``v`` is (..., 3); leading dimensions broadcast.  The result is the
    (..., 3) view of a component-major (3, ...) array."""
    w, x, y, z = quats[..., 0], -quats[..., 1], -quats[..., 2], -quats[..., 3]
    _, turned_y, turned_z = _rotate(w, x, y, z, v[..., 0], v[..., 1], v[..., 2], with_x=False)
    out = np.array((np.full_like(turned_y, math.nan), turned_y, turned_z))
    return out.transpose(*range(1, out.ndim), 0)


def unit_vector(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Unit vector toward (azimuth, elevation) in degrees."""
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    ce = math.cos(el)
    return np.array([ce * math.cos(az), ce * math.sin(az), math.sin(el)])


@dataclass(frozen=True)
class Pose:
    """Timestamped position (meters, world frame) and orientation."""

    t: float
    position: np.ndarray
    orientation: Quaternion

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.position.shape != (3,):
            raise ValueError("position must be a 3-vector")


def unit_toward(origin: np.ndarray, target: Sequence[float]) -> np.ndarray:
    """World-frame unit vector from the point ``origin`` toward ``target``."""
    diff = np.asarray(target, dtype=float) - origin
    # diff @ diff is OpenBLAS's fused ddot, fma(z, z, fma(y, y, x*x)), which
    # no vectorized norm keeps (tests/test_host_facts.py)
    n = math.sqrt(diff @ diff)
    if n < 1e-12:
        raise ValueError("headset and access point positions coincide")
    return diff / n


def ap_direction_in_hmd_frame(pose: Pose, ap_position: Sequence[float]) -> np.ndarray:
    """Unit vector from ``pose`` toward the point ``ap_position``, in the
    pose's own frame.  The simulator calls it for both ends of the link:
    the access point seen from the headset, and the headset seen from the
    access point."""
    return pose.orientation.rotate_inverse(unit_toward(pose.position, ap_position))


def predict_pose(now: Pose, horizon: float, mode: str, trace, end: float) -> Quaternion:
    """Predict the headset orientation ``horizon`` seconds after ``now``, the
    current pose, in one of the config's prediction modes.  ``trace`` is the
    head-motion trace (:class:`xrsim.mobility.TraceSet`) that ``now`` was
    read from, and ``end`` the run's end.  Only the orientation is
    predicted: the composite beam is built from the current position
    (:func:`xrsim.covrage.covrage_beam`).

    Modes:

    * ``none``: the current orientation, held.
    * ``extrapolation``: the slerp from the trace orientation q_prev at
      ``t_prev = max(0, now.t - VELOCITY_EST_DT)`` to the current q_now,
      continued to s = 1 + horizon / (now.t - t_prev): q_now * (q_prev^-1 *
      q_now)^(horizon / (now.t - t_prev)), the gap's constant body-frame
      angular velocity on its shortest path.  At t = 0 there is no past, so
      the orientation is held.
    * ``device``: the device prediction recorded in the trace at the sample
      nearest the current time (requires device columns).  That is the
      orientation at the trace's own ``ph_h`` horizon, whatever ``horizon``
      is asked: xrsim has no device model to re-extrapolate it.
    * ``oracle``: the trace orientation at ``min(t + horizon, end)``
      (interpolated): the lookup time is clamped, as ``t + (end - t)`` can
      round past ``end``.  A recorded trace shorter than the run wraps, and
      the oracle then reads what the link sees at that instant.
    """
    if mode == "none":
        return now.orientation
    if mode == "extrapolation":
        t_prev = max(0.0, now.t - VELOCITY_EST_DT)
        if t_prev >= now.t:
            return now.orientation
        s = 1.0 + horizon / (now.t - t_prev)
        return Quaternion(*slerps(trace.orientation_at(t_prev), now.orientation, (s,))[0])
    if mode == "device":
        return trace.device_prediction_nearest(now.t)
    if mode == "oracle":
        return trace.orientation_at(min(now.t + horizon, end))
    raise ValueError(f"unknown prediction mode {mode!r}")
