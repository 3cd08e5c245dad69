"""Head motion and user mobility: orientation traces, synthetic rotation
generation, a random-cardinal walk, and pose lookup.

Trace CSV schema (header required, extra column groups optional):

    t,qw,qx,qy,qz[,pw,px,py,pz][,ph_qw,ph_qx,ph_qy,ph_qz,ph_h]

``qw..qz`` is the head orientation, ``px,py,pz`` an optional recorded
position (``pw`` is padding, written as 0 and ignored on read), and the
``ph_*`` group an optional device-side orientation prediction with its
horizon in seconds.  Timestamps must be strictly increasing; quaternions
off unit norm by more than 1% are rejected, smaller drift is renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Pose, Quaternion, slerp, slerp_arrays

HMD_HEIGHT = 1.7
_NORM_REJECT = 0.01

_HDR_BASE = ["t", "qw", "qx", "qy", "qz"]
_HDR_POS = ["pw", "px", "py", "pz"]
_HDR_DEV = ["ph_qw", "ph_qx", "ph_qy", "ph_qz", "ph_h"]


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed."""


@dataclass(frozen=True)
class TraceSample:
    t: float
    orientation: Quaternion
    position: Optional[np.ndarray] = None
    device_predicted: Optional[Quaternion] = None
    device_horizon: Optional[float] = None


class TraceSet:
    """Ordered orientation samples with looping lookup.

    Lookups past the last sample wrap around to the start, so a short
    recorded trace can drive an arbitrarily long simulation.
    """

    def __init__(self, samples: Sequence[TraceSample], label: str):
        if len(samples) < 2:
            raise ValueError("a trace needs at least two samples")
        self.label = label
        self.samples = tuple(samples)
        n = len(samples)
        self._times = np.fromiter((s.t for s in samples), dtype=float, count=n)
        bad = np.flatnonzero(np.diff(self._times) <= 0.0)
        if bad.size:
            raise ValueError(f"sample {bad[0] + 1}: timestamps not increasing")
        self._quats = np.fromiter(
            (c for s in samples for c in (s.orientation.w, s.orientation.x, s.orientation.y, s.orientation.z)),
            dtype=float,
            count=4 * n,
        ).reshape(n, 4)
        self.has_device = all(s.device_predicted is not None for s in samples)
        self.has_position = all(s.position is not None for s in samples)
        self._positions = np.stack([s.position for s in samples]) if self.has_position else None

    @property
    def t_start(self) -> float:
        return float(self._times[0])

    @property
    def duration(self) -> float:
        return float(self._times[-1] - self._times[0])

    def wrap(self, t: float) -> float:
        """Map an absolute time into the recorded window, looping."""
        t0 = self.t_start
        if t0 <= t <= self._times[-1]:
            return t
        w = math.fmod(t - t0, self.duration)
        if w < 0.0:
            w += self.duration
        return t0 + w

    def _bracket(self, t: float) -> tuple[int, float]:
        tw = self.wrap(t)
        i = min(int(np.searchsorted(self._times, tw, side="right")) - 1, len(self._times) - 2)
        u = float((tw - self._times[i]) / (self._times[i + 1] - self._times[i]))
        return i, u

    def orientation_at(self, t: float) -> Quaternion:
        i, u = self._bracket(t)
        q0 = Quaternion(*self._quats[i].tolist())
        if u == 0.0:
            return q0
        return slerp(q0, Quaternion(*self._quats[i + 1].tolist()), u)

    def orientations_at(self, ts: np.ndarray) -> np.ndarray:
        """(M, 4) orientation quaternions at an array of times: the
        row-wise :meth:`orientation_at`, wrap included, equal to it up to
        rounding."""
        t0 = self.t_start
        w = np.fmod(ts - t0, self.duration)
        w = np.where(w < 0.0, w + self.duration, w)
        tw = np.where((t0 <= ts) & (ts <= self._times[-1]), ts, t0 + w)
        i = np.minimum(np.searchsorted(self._times, tw, side="right") - 1, len(self._times) - 2)
        u = (tw - self._times[i]) / (self._times[i + 1] - self._times[i])
        q0 = self._quats[i]
        return np.where((u == 0.0)[:, None], q0, slerp_arrays(q0, self._quats[i + 1], u))

    def position_at(self, t: float) -> np.ndarray:
        if not self.has_position:
            raise ValueError("trace has no position columns")
        i, u = self._bracket(t)
        return self._positions[i] * (1.0 - u) + self._positions[i + 1] * u

    def sample_nearest(self, t: float) -> TraceSample:
        i, u = self._bracket(t)
        return self.samples[i + 1] if u > 0.5 else self.samples[i]

    def device_prediction_nearest(self, t: float) -> Quaternion:
        if not self.has_device:
            raise ValueError("trace has no device-prediction columns")
        s = self.sample_nearest(t)
        return s.device_predicted


def _parse_quat(fields, row, offset, what) -> Quaternion:
    w, x, y, z = (float(fields[offset + j]) for j in range(4))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(n - 1.0) > _NORM_REJECT:
        raise TraceFormatError(f"row {row}: {what} norm {n:.6f} off unit by more than 1%")
    return Quaternion(w / n, x / n, y / n, z / n)


def load_trace(path, label: str = "recorded") -> TraceSet:
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [ln.strip() for ln in raw]
    if not lines or not lines[0]:
        raise TraceFormatError("line 1: missing header")
    header = [h.strip() for h in lines[0].split(",")]
    layouts = {
        tuple(_HDR_BASE): (False, False),
        tuple(_HDR_BASE + _HDR_POS): (True, False),
        tuple(_HDR_BASE + _HDR_DEV): (False, True),
        tuple(_HDR_BASE + _HDR_POS + _HDR_DEV): (True, True),
    }
    if tuple(header) not in layouts:
        raise TraceFormatError(f"line 1: unrecognized header {','.join(header)!r}")
    with_pos, with_dev = layouts[tuple(header)]
    n_cols = len(header)

    samples = []
    for row, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise TraceFormatError(f"row {row}: expected {n_cols} fields, got {len(fields)}")
        try:
            t = float(fields[0])
            q = _parse_quat(fields, row, 1, "orientation")
            pos = None
            dev = None
            dev_h = None
            off = 5
            if with_pos:
                pos = np.array([float(fields[off + 1]), float(fields[off + 2]), float(fields[off + 3])])
                off += 4
            if with_dev:
                dev = _parse_quat(fields, row, off, "device prediction")
                dev_h = float(fields[off + 4])
        except TraceFormatError:
            raise
        except ValueError as exc:
            raise TraceFormatError(f"row {row}: bad value ({exc})")
        samples.append(TraceSample(t, q, pos, dev, dev_h))
    if len(samples) < 2:
        raise TraceFormatError("trace needs at least two samples")
    try:
        return TraceSet(samples, label)
    except ValueError as exc:
        raise TraceFormatError(str(exc))


def save_trace(path, trace: TraceSet) -> None:
    header = list(_HDR_BASE)
    if trace.has_position:
        header += _HDR_POS
    if trace.has_device:
        header += _HDR_DEV
    lines = [",".join(header)]
    for s in trace.samples:
        q = s.orientation
        fields = [f"{s.t:.17g}", f"{q.w:.17g}", f"{q.x:.17g}", f"{q.y:.17g}", f"{q.z:.17g}"]
        if trace.has_position:
            fields += ["0", f"{s.position[0]:.17g}", f"{s.position[1]:.17g}", f"{s.position[2]:.17g}"]
        if trace.has_device:
            d = s.device_predicted
            fields += [f"{d.w:.17g}", f"{d.x:.17g}", f"{d.y:.17g}", f"{d.z:.17g}", f"{s.device_horizon:.17g}"]
        lines.append(",".join(fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _compose_yaw_pitch(yaw_rad: np.ndarray, pitch_rad: np.ndarray) -> np.ndarray:
    """Quaternion array for yaw about +z then pitch about the local y axis,
    with positive pitch looking up."""
    hy = 0.5 * yaw_rad
    hp = 0.5 * pitch_rad
    cy, sy = np.cos(hy), np.sin(hy)
    cp, sp = np.cos(hp), np.sin(hp)
    return np.stack([cy * cp, sy * sp, -cy * sp, sy * cp], axis=1)


def _max_step_speed_dps(quats: np.ndarray, dt: float) -> float:
    dots = np.abs(np.sum(quats[1:] * quats[:-1], axis=1))
    ang = 2.0 * np.arccos(np.minimum(1.0, dots))
    return math.degrees(float(ang.max())) / dt


def generate_rotation_trace(
    peak_dps: float,
    duration: float,
    sample_rate: float = 1000.0,
    seed: int = 0,
    device_horizon: float = 0.1,
    label: str = "synthetic",
) -> TraceSet:
    """Synthetic head-rotation trace: yaw and pitch are each a sum of three
    random-phase sinusoids, jointly rescaled so the maximum instantaneous
    angular speed matches ``peak_dps`` within 1%.  Pitch amplitude is capped
    at 60 degrees.  A device-prediction column holds the exact model value
    ``device_horizon`` seconds ahead.
    """
    if peak_dps <= 0.0 or duration <= 0.0 or sample_rate <= 0.0:
        raise ValueError("peak speed, duration and sample rate must be positive")
    rng = np.random.default_rng(seed)
    yaw_f = rng.uniform(0.15, 0.9, 3)
    yaw_p = rng.uniform(0.0, 2.0 * math.pi, 3)
    yaw_a = np.array([50.0, 25.0, 12.0]) * rng.uniform(0.7, 1.3, 3)
    pit_f = rng.uniform(0.1, 0.7, 3)
    pit_p = rng.uniform(0.0, 2.0 * math.pi, 3)
    pit_a = np.array([14.0, 7.0, 4.0]) * rng.uniform(0.7, 1.3, 3)

    dt = 1.0 / sample_rate
    n = int(round(duration * sample_rate)) + 1
    t = np.arange(n) * dt

    def series(times, amps, freqs, phases):
        return sum(a * np.sin(2.0 * math.pi * f * times + p) for a, f, p in zip(amps, freqs, phases))

    yaw0 = np.radians(series(t, yaw_a, yaw_f, yaw_p))
    pit0 = np.radians(series(t, pit_a, pit_f, pit_p))

    def max_speed(cy, cp):
        return _max_step_speed_dps(_compose_yaw_pitch(cy * yaw0, cp * pit0), dt)

    # joint rescale by fixed point; the composed speed is near-linear in the
    # common factor so a few iterations reach machine precision
    c = peak_dps / max_speed(1.0, 1.0)
    for _ in range(6):
        c *= peak_dps / max_speed(c, c)
    cy = cp = c
    pitch_peak = math.degrees(float(np.abs(cp * pit0).max()))
    if pitch_peak > 60.0:
        cp *= 60.0 / pitch_peak
        for _ in range(8):
            cy *= peak_dps / max_speed(cy, cp)

    yaw = cy * yaw0
    pit = cp * pit0
    quats = _compose_yaw_pitch(yaw, pit)
    t_ahead = t + device_horizon
    yaw_ahead = cy * np.radians(series(t_ahead, yaw_a, yaw_f, yaw_p))
    pit_ahead = cp * np.radians(series(t_ahead, pit_a, pit_f, pit_p))
    dev = _compose_yaw_pitch(yaw_ahead, pit_ahead)

    samples = [
        TraceSample(
            float(t[i]),
            Quaternion(*quats[i]),
            None,
            Quaternion(*dev[i]),
            device_horizon,
        )
        for i in range(n)
    ]
    return TraceSet(samples, label)


def static_trace(duration: float, label: str = "static") -> TraceSet:
    """Identity-orientation trace for a motionless head."""
    q = Quaternion.identity()
    samples = [
        TraceSample(0.0, q, None, q, 0.1),
        TraceSample(duration, q, None, q, 0.1),
    ]
    return TraceSet(samples, label)


@dataclass(frozen=True)
class Walk:
    """Piecewise-linear 2-D walk sampled at fixed step boundaries."""

    positions: np.ndarray
    step_interval: float

    def position_at(self, t: float) -> np.ndarray:
        return self.positions_at(np.array([t]))[0]

    def positions_at(self, ts: np.ndarray) -> np.ndarray:
        """(M, 2) positions at an array of times.  Times before the start or
        past the last step interpolate at u = 0 or u = 1 of the end segment,
        which lands exactly on the end position."""
        s = np.maximum(ts, 0.0) / self.step_interval
        i = np.minimum(s.astype(np.intp), len(self.positions) - 2)
        u = np.minimum(s - i, 1.0)[:, None]
        return self.positions[i] * (1.0 - u) + self.positions[i + 1] * u


def generate_walk(
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    speed: float,
    step_interval: float,
    duration: float,
    seed: int = 0,
    wall_margin: float = 1.0,
    max_turn_deg: float = 30.0,
) -> Walk:
    """Random-cardinal walk from the room center with wall steering.

    Every step a cardinal heading is drawn; within ``wall_margin`` of a wall
    the heading is rotated toward the interior by at most ``max_turn_deg``.
    Positions are finally clipped to stay strictly inside the bounds.
    """
    if speed < 0.0 or step_interval <= 0.0:
        raise ValueError("speed must be nonnegative and step interval positive")
    rng = np.random.default_rng(seed)
    xmin, xmax = x_bounds
    ymin, ymax = y_bounds
    eps = 0.05
    n_steps = int(math.ceil(duration / step_interval))
    pos = np.array([(xmin + xmax) / 2.0, (ymin + ymax) / 2.0])
    out = [pos.copy()]
    for _ in range(n_steps):
        ang = math.radians(90.0 * int(rng.integers(0, 4)))
        away = np.zeros(2)
        if pos[0] - xmin < wall_margin:
            away[0] += 1.0
        if xmax - pos[0] < wall_margin:
            away[0] -= 1.0
        if pos[1] - ymin < wall_margin:
            away[1] += 1.0
        if ymax - pos[1] < wall_margin:
            away[1] -= 1.0
        if away[0] != 0.0 or away[1] != 0.0:
            target = math.atan2(away[1], away[0])
            diff = math.remainder(target - ang, 2.0 * math.pi)
            limit = math.radians(max_turn_deg)
            ang += max(-limit, min(limit, diff))
        pos = pos + speed * step_interval * np.array([math.cos(ang), math.sin(ang)])
        pos[0] = min(max(pos[0], xmin + eps), xmax - eps)
        pos[1] = min(max(pos[1], ymin + eps), ymax - eps)
        out.append(pos.copy())
    return Walk(np.stack(out), step_interval)


def pose_at(trace: TraceSet, walk: Walk, t: float, height: float = HMD_HEIGHT) -> Pose:
    """Headset pose at time t: walk position at fixed height, trace
    orientation (looped)."""
    xy = walk.position_at(t)
    return Pose(t, np.array([xy[0], xy[1], height]), trace.orientation_at(t))
