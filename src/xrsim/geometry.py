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
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis: Sequence[float], angle_rad: float) -> "Quaternion":
        ax, ay, az = float(axis[0]), float(axis[1]), float(axis[2])
        n = math.sqrt(ax * ax + ay * ay + az * az)
        if n == 0.0:
            raise ValueError("rotation axis must be nonzero")
        half = 0.5 * angle_rad
        s = math.sin(half) / n
        return Quaternion(math.cos(half), ax * s, ay * s, az * s)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def canonicalized(self) -> "Quaternion":
        """Fix the double-cover sign so that w >= 0."""
        if self.w < 0.0:
            return Quaternion(-self.w, -self.x, -self.y, -self.z)
        return self

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def rotate(self, v: Sequence[float]) -> np.ndarray:
        """Rotate a 3-vector from the local frame into the world frame."""
        vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
        w, x, y, z = self.w, self.x, self.y, self.z
        # t = 2 q_v x v; v' = v + w t + q_v x t
        tx = 2.0 * (y * vz - z * vy)
        ty = 2.0 * (z * vx - x * vz)
        tz = 2.0 * (x * vy - y * vx)
        return np.array(
            [
                vx + w * tx + (y * tz - z * ty),
                vy + w * ty + (z * tx - x * tz),
                vz + w * tz + (x * ty - y * tx),
            ]
        )

    def rotate_inverse(self, v: Sequence[float]) -> np.ndarray:
        """Rotate a world-frame 3-vector into the local frame."""
        return self.conjugate().rotate(v)

    def to_axis_angle(self) -> tuple[np.ndarray, float]:
        """Canonical axis-angle with angle in [0, pi]."""
        q = self.canonicalized()
        s = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
        if s < 1e-12:
            return np.array([1.0, 0.0, 0.0]), 0.0
        angle = 2.0 * math.atan2(s, q.w)
        return np.array([q.x / s, q.y / s, q.z / s]), angle


def slerp(q0: Quaternion, q1: Quaternion, s: float) -> Quaternion:
    """Spherical interpolation from q0 (s=0) to q1 (s=1), shortest path.

    Falls back to normalized linear interpolation when the quaternions are
    nearly parallel, where the sine denominator loses precision.
    """
    d = q0.dot(q1)
    w1, x1, y1, z1 = q1.w, q1.x, q1.y, q1.z
    if d < 0.0:
        d = -d
        w1, x1, y1, z1 = -w1, -x1, -y1, -z1
    d = min(1.0, d)
    angle = math.acos(d)
    if angle < _SLERP_MIN_ANGLE:
        w = q0.w + s * (w1 - q0.w)
        x = q0.x + s * (x1 - q0.x)
        y = q0.y + s * (y1 - q0.y)
        z = q0.z + s * (z1 - q0.z)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        return Quaternion(w / n, x / n, y / n, z / n)
    sa = math.sin(angle)
    c0 = math.sin((1.0 - s) * angle) / sa
    c1 = math.sin(s * angle) / sa
    return Quaternion(
        c0 * q0.w + c1 * w1,
        c0 * q0.x + c1 * x1,
        c0 * q0.y + c1 * y1,
        c0 * q0.z + c1 * z1,
    )


def slerp_arrays(q0: np.ndarray, q1: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-wise :func:`slerp` over (M, 4) scalar-first quaternion arrays and
    (M,) fractions; the same arithmetic, so equal to it up to rounding."""
    d = q0[:, 0] * q1[:, 0] + q0[:, 1] * q1[:, 1] + q0[:, 2] * q1[:, 2] + q0[:, 3] * q1[:, 3]
    q1 = np.where((d < 0.0)[:, None], -q1, q1)
    angle = np.arccos(np.minimum(1.0, np.abs(d)))
    s = s[:, None]
    lin = q0 + s * (q1 - q0)
    lin /= np.sqrt(lin[:, 0] * lin[:, 0] + lin[:, 1] * lin[:, 1] + lin[:, 2] * lin[:, 2] + lin[:, 3] * lin[:, 3])[:, None]
    near = (angle < _SLERP_MIN_ANGLE)[:, None]
    angle = angle[:, None]
    sa = np.sin(np.where(near, 1.0, angle))
    arc = np.sin((1.0 - s) * angle) / sa * q0 + np.sin(s * angle) / sa * q1
    return np.where(near, lin, arc)


def rotate_into_frames(quats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """World-frame vectors into the local frames of orientations: the
    row-wise :meth:`Quaternion.rotate_inverse`.  ``quats`` is (..., 4)
    scalar-first and ``v`` is (..., 3); leading dimensions broadcast."""
    w = quats[..., 0]
    x, y, z = -quats[..., 1], -quats[..., 2], -quats[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.stack(
        [
            vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx),
        ],
        axis=-1,
    )


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


def ap_direction_in_hmd_frame(pose: Pose, ap_position: Sequence[float]) -> np.ndarray:
    """Unit vector from ``pose`` toward the point ``ap_position``, in the
    pose's own frame.  The simulator calls it for both ends of the link:
    the access point seen from the headset, and the headset seen from the
    access point."""
    diff = np.asarray(ap_position, dtype=float) - pose.position
    n = float(np.linalg.norm(diff))
    if n < 1e-12:
        raise ValueError("headset and access point positions coincide")
    return pose.orientation.rotate_inverse(diff / n)


def predict_pose(now: Pose, horizon: float, mode: str, trace, end: float) -> Quaternion:
    """Predict the headset orientation ``horizon`` seconds after ``now``, the
    current pose, in one of the config's prediction modes.  ``trace`` is the
    head-motion trace (:class:`xrsim.mobility.TraceSet`) that ``now`` was
    read from, and ``end`` the run's end.  Only the orientation is
    predicted: the composite beam is built from the current position
    (:func:`xrsim.covrage.covrage_beam`).

    Modes:

    * ``none``: the current orientation, held.
    * ``extrapolation``: the angular velocity from the trace orientation at
      ``max(0, now.t - VELOCITY_EST_DT)`` to the current one, as the
      axis-angle of q_prev^-1 * q_now over their time gap, applied forward.
      At t = 0 there is no past, so the orientation is held.
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
        rel = (trace.orientation_at(t_prev).conjugate() * now.orientation).normalized()
        axis, angle = rel.to_axis_angle()
        rate = horizon / (now.t - t_prev)
        step = Quaternion.from_axis_angle(axis, angle * rate) if angle > 0.0 else Quaternion.identity()
        return (now.orientation * step).normalized()
    if mode == "device":
        return trace.device_prediction_nearest(now.t)
    if mode == "oracle":
        return trace.orientation_at(min(now.t + horizon, end))
    raise ValueError(f"unknown prediction mode {mode!r}")
