"""Head motion and user mobility: orientation traces, synthetic rotation
generation, a random-cardinal walk, and pose lookup.

A trace is held as arrays only (:class:`TraceSet`), one row per sample, and
every lookup goes through one row-wise wrap-and-bracket step.

Trace CSV schema (header required, extra column groups optional):

    t,qw,qx,qy,qz[,pw,px,py,pz][,ph_qw,ph_qx,ph_qy,ph_qz,ph_h]

``qw..qz`` is the head orientation, ``px,py,pz`` an optional recorded
position (``pw`` is padding, written as 0 and ignored on read), and the
``ph_*`` group an optional device-side orientation prediction with its
horizon in seconds.  Timestamps must be strictly increasing and every
value read must be finite (``nan`` and ``inf`` are rejected naming the
row); quaternions off unit norm by more than 1% are rejected, smaller drift
is renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Pose, Quaternion, slerp_arrays

HMD_HEIGHT = 1.7
_NORM_REJECT = 0.01

_HDR_BASE = ["t", "qw", "qx", "qy", "qz"]
_HDR_POS = ["pw", "px", "py", "pz"]
_HDR_DEV = ["ph_qw", "ph_qx", "ph_qy", "ph_qz", "ph_h"]


class TraceFormatError(ValueError):
    """Raised when trace data is malformed.  ``sample`` is the index of the
    first offending sample when one is to blame, so that a file reader can
    name its row."""

    def __init__(self, problem: str, sample: Optional[int] = None):
        super().__init__(problem if sample is None else f"sample {sample}: {problem}")
        self.problem, self.sample = problem, sample


class TraceSet:
    """Head orientations sampled at increasing times, with looping lookup.

    ``times`` is (n,), ``orientations`` (n, 4) scalar-first quaternions,
    ``positions`` an optional (n, 3), and ``device_orientations`` (n, 4) with
    ``device_horizons`` (n,) an optional device-side prediction.  Every value
    must be finite.  Lookups past the last sample wrap around to the start,
    so a short recorded trace can drive an arbitrarily long simulation.
    """

    def __init__(
        self,
        times: np.ndarray,
        orientations: np.ndarray,
        positions: Optional[np.ndarray] = None,
        device_orientations: Optional[np.ndarray] = None,
        device_horizons: Optional[np.ndarray] = None,
    ):
        self.times = np.asarray(times, dtype=float)
        n = self.times.size
        if self.times.shape != (n,) or n < 2:
            raise TraceFormatError("a trace needs at least two samples")
        if (device_orientations is None) != (device_horizons is None):
            raise TraceFormatError("device orientations and horizons come together")
        self.orientations = np.asarray(orientations, dtype=float)
        self.positions, self.device_orientations, self.device_horizons = (
            a if a is None else np.asarray(a, dtype=float)
            for a in (positions, device_orientations, device_horizons)
        )
        self.has_position = positions is not None
        self.has_device = device_orientations is not None
        finite = np.isfinite(self.times)
        names = ("orientations", "positions", "device_orientations", "device_horizons")
        for name, shape in zip(names, ((n, 4), (n, 3), (n, 4), (n,))):
            a = getattr(self, name)
            if a is not None:
                if a.shape != shape:
                    raise TraceFormatError(f"{name} has shape {a.shape}, expected {shape}")
                finite &= np.isfinite(a.reshape(n, -1)).all(axis=1)
        bad = np.flatnonzero(~finite)
        if bad.size:
            raise TraceFormatError("value not finite", int(bad[0]))
        bad = np.flatnonzero(np.diff(self.times) <= 0.0)
        if bad.size:
            raise TraceFormatError("timestamps not increasing", int(bad[0]) + 1)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def _locate(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segment index i and fraction u in [0, 1] of each time, wrapped
        into the recorded window: t lies at u of the way from sample i to
        sample i + 1."""
        t0 = self.times[0]
        w = np.fmod(ts - t0, self.duration)
        w = np.where(w < 0.0, w + self.duration, w)
        tw = np.where((t0 <= ts) & (ts <= self.times[-1]), ts, t0 + w)
        i = np.minimum(np.searchsorted(self.times, tw, side="right") - 1, len(self.times) - 2)
        u = (tw - self.times[i]) / (self.times[i + 1] - self.times[i])
        return i, u

    def orientations_at(self, ts: np.ndarray) -> np.ndarray:
        """(M, 4) orientation quaternions at an array of times."""
        i, u = self._locate(ts)
        q0 = self.orientations[i]
        return np.where((u == 0.0)[:, None], q0, slerp_arrays(q0, self.orientations[i + 1], u))

    def orientation_at(self, t: float) -> Quaternion:
        return Quaternion(*self.orientations_at(np.array([t]))[0].tolist())

    def position_at(self, t: float) -> np.ndarray:
        if not self.has_position:
            raise ValueError("trace has no position columns")
        (i,), (u,) = self._locate(np.array([t]))
        return self.positions[i] * (1.0 - u) + self.positions[i + 1] * u

    def device_prediction_nearest(self, t: float) -> Quaternion:
        """Device-side prediction recorded at the sample nearest to t."""
        if not self.has_device:
            raise ValueError("trace has no device-prediction columns")
        (i,), (u,) = self._locate(np.array([t]))
        return Quaternion(*self.device_orientations[i + 1 if u > 0.5 else i].tolist())


def _unit_rows(q: np.ndarray, rows: list[int], what: str) -> np.ndarray:
    """Quaternion rows renormalized, rejecting a norm off unit by over 1%."""
    n = np.sqrt(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2] + q[:, 3] * q[:, 3])
    bad = np.flatnonzero(np.abs(n - 1.0) > _NORM_REJECT)
    if bad.size:
        j = bad[0]
        raise TraceFormatError(f"row {rows[j]}: {what} norm {n[j]:.6f} off unit by more than 1%")
    return q / n[:, None]


def load_trace(path) -> TraceSet:
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [ln.strip() for ln in raw]
    if not lines or not lines[0]:
        raise TraceFormatError("line 1: missing header")
    header = [h.strip() for h in lines[0].split(",")]
    with_pos = header[5:9] == _HDR_POS
    with_dev = header[-5:] == _HDR_DEV
    if header != _HDR_BASE + _HDR_POS * with_pos + _HDR_DEV * with_dev:
        raise TraceFormatError(f"line 1: unrecognized header {','.join(header)!r}")
    n_cols = len(header)
    read = [j for j, h in enumerate(header) if h != "pw"]

    rows = []
    values = []
    for row, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise TraceFormatError(f"row {row}: expected {n_cols} fields, got {len(fields)}")
        try:
            values.append([float(fields[j]) for j in read])
        except ValueError as exc:
            raise TraceFormatError(f"row {row}: bad value ({exc})")
        rows.append(row)
    data = np.array(values, dtype=float).reshape(-1, len(read))
    positions = data[:, 5:8] if with_pos else None
    device = horizons = None
    if with_dev:
        device = _unit_rows(data[:, -5:-1], rows, "device prediction")
        horizons = data[:, -1]
    try:
        return TraceSet(data[:, 0], _unit_rows(data[:, 1:5], rows, "orientation"), positions, device, horizons)
    except TraceFormatError as exc:
        if exc.sample is None:
            raise
        raise TraceFormatError(f"row {rows[exc.sample]}: {exc.problem}") from None


def save_trace(path, trace: TraceSet) -> None:
    header = list(_HDR_BASE)
    columns = [trace.times[:, None], trace.orientations]
    if trace.has_position:
        header += _HDR_POS
        columns += [np.zeros((len(trace.times), 1)), trace.positions]
    if trace.has_device:
        header += _HDR_DEV
        columns += [trace.device_orientations, trace.device_horizons[:, None]]
    lines = [",".join(header)]
    lines += [",".join(map("{:.17g}".format, row)) for row in np.hstack(columns).tolist()]
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
    n = max(int(round(duration * sample_rate)), 1) + 1
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

    return TraceSet(t, quats, None, dev, np.full(n, device_horizon))


def static_trace(duration: float) -> TraceSet:
    """Identity-orientation trace for a motionless head."""
    identity = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)
    return TraceSet(np.array([0.0, duration]), identity, None, identity, np.full(2, 0.1))


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
