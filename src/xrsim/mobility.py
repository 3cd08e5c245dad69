"""Head motion and user mobility: orientation traces, synthetic rotation
generation, a random-cardinal walk, and pose lookup.

A trace is held as arrays only (:class:`TraceSet`), one row per sample; a
lookup brackets each time and reads a per-segment slerp table.

Trace CSV schema (header required, the device group optional):

    t,qw,qx,qy,qz[,ph_qw,ph_qx,ph_qy,ph_qz,ph_h]

``qw..qz`` is the head orientation and the ``ph_*`` group a device-side
orientation prediction with its horizon in seconds.  A trace holds no
position: the headset position follows the random walk, so any other header
is rejected.  Timestamps must be strictly increasing and every value read
must be finite (``nan`` and ``inf`` are rejected naming the row);
quaternions off unit norm by more than 1% are rejected, smaller drift is
renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import _SLERP_MIN_ANGLE, Pose, Quaternion, slerp_step

_NORM_REJECT = 0.01

# the walk steers away from walls closer than this, meters, turning its
# drawn heading by at most MAX_TURN_DEG per step
WALL_MARGIN = 1.0
MAX_TURN_DEG = 30.0

# seconds ahead of each sample that a generated trace's device column looks
DEVICE_HORIZON = 0.1

_HDR_BASE = ["t", "qw", "qx", "qy", "qz"]
_HDR_DEV = ["ph_qw", "ph_qx", "ph_qy", "ph_qz", "ph_h"]


class TraceFormatError(ValueError):
    """Raised when trace data is malformed.  ``sample`` is the index of the
    first offending sample when one is to blame, so that a file reader can
    name its row."""

    def __init__(self, problem: str, sample: Optional[int] = None):
        super().__init__(problem if sample is None else f"sample {sample}: {problem}")
        self.problem, self.sample = problem, sample


class TraceSet:
    """Head orientations sampled at increasing times, with wrapping lookup.

    ``times`` is (n,), ``orientations`` (n, 4) scalar-first quaternions, and
    ``device_orientations`` (n, 4) with ``device_horizons`` (n,) an optional
    device-side prediction.  Every value must be finite.  The device column
    may come as a zero-argument function that builds it: it is then built,
    and checked, on its first read, so a run that predicts otherwise never
    builds it.  Lookups past the last sample wrap around to the start, so a
    short recorded trace can drive an arbitrarily long simulation.  A
    generated trace ends at or after ``sim_time``, and the oracle reads no
    later, so only a recorded trace shorter than the run is read across the
    wrap.  A batch lookup is component-major: each pass over a link batch
    reads contiguous rows.
    """

    def __init__(
        self,
        times: np.ndarray,
        orientations: np.ndarray,
        device_orientations: Optional[np.ndarray | Callable[[], np.ndarray]] = None,
        device_horizons: Optional[np.ndarray] = None,
    ):
        self.times = np.asarray(times, dtype=float)
        n = self.times.size
        if self.times.shape != (n,) or n < 2:
            raise TraceFormatError("a trace needs at least two samples")
        if (device_orientations is None) != (device_horizons is None):
            raise TraceFormatError("device orientations and horizons come together")
        self.orientations = np.asarray(orientations, dtype=float)
        self.has_device = device_orientations is not None
        self._device = device_orientations  # a function is called on the first read
        if self.has_device and not callable(self._device):
            self._device = np.asarray(self._device, dtype=float)
        self.device_horizons = None if device_horizons is None else np.asarray(device_horizons, dtype=float)
        _check_columns(n, (("times", self.times, (n,)), ("orientations", self.orientations, (n, 4)),
                           ("device_orientations", None if callable(self._device) else self._device, (n, 4)),
                           ("device_horizons", self.device_horizons, (n,))))
        bad = np.flatnonzero(np.diff(self.times) <= 0.0)
        if bad.size:
            raise TraceFormatError("timestamps not increasing", int(bad[0]) + 1)
        self._segments = None

    @property
    def device_orientations(self) -> Optional[np.ndarray]:
        """The (n, 4) device column, or None; one given as a function is
        built and checked here, on the first read, and kept."""
        if callable(self._device):
            device = np.asarray(self._device(), dtype=float)
            n = len(self.times)
            _check_columns(n, (("device_orientations", device, (n, 4)),))
            self._device = device
        return self._device

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def _segment_table(self) -> np.ndarray:
        """Per segment, made on the first lookup, the (12, n - 1) rows a batch
        takes at once: the earlier sample (rows 0-3), :func:`geometry.slerps`'s
        set-up (the later sample in the earlier one's hemisphere 4-7, the
        angle 8 and its sine 9, 1.0 below ``_SLERP_MIN_ANGLE``: lerp), and the
        segment's start time and length (10, 11)."""
        if self._segments is None:
            rows = np.empty((12, len(self.times) - 1))  # written row by row, with no stacked copy
            q0, q1, angle = rows[:4], rows[4:8], rows[8]
            q0[...], q1[...] = self.orientations[:-1].T, self.orientations[1:].T
            d = q0[0] * q1[0] + q0[1] * q1[1] + q0[2] * q1[2] + q0[3] * q1[3]
            np.negative(q1, out=q1, where=d < 0.0)
            np.arccos(np.minimum(1.0, np.abs(d, out=d), out=d), out=angle)
            np.sin(np.where(angle < _SLERP_MIN_ANGLE, 1.0, angle), out=rows[9])
            rows[10], rows[11] = self.times[:-1], np.diff(self.times)
            self._segments = rows
        return self._segments

    def orientations_at(self, ts: np.ndarray) -> np.ndarray:
        """(M, 4) orientation quaternions at an array of times, the
        transposed view of a component-major (4, M) array.  Each time is
        wrapped into the recorded window and lies in segment i, between
        samples i and i + 1; a batch inside the window is searched over the
        samples between its first and last time only."""
        times, n = self.times, len(self.times)
        lo, hi = (ts.min(), ts.max()) if len(ts) else (times[0], times[0])
        if lo < times[0] or hi > times[-1]:
            w = np.fmod(ts - times[0], self.duration)
            ts = np.where((ts < times[0]) | (ts > times[-1]), times[0] + np.where(w < 0.0, w + self.duration, w), ts)
            a, b = 0, n
        else:
            a, b = times.searchsorted(lo, side="right") - 1, times.searchsorted(hi, side="right")
        i = np.minimum(times[a:b].searchsorted(ts, side="right") + (a - 1), n - 2)
        rows = self._segment_table().take(i, axis=1)
        q0, q1, (angle, sine, t0, dt) = rows[:4], rows[4:8], rows[8:]
        u = (ts - t0) / dt
        out = np.sin((1.0 - u) * angle) / sine * q0 + np.sin(u * angle) / sine * q1
        lin = angle < _SLERP_MIN_ANGLE
        if lin.any():
            q = q0[:, lin] + u[lin] * (q1[:, lin] - q0[:, lin])
            out[:, lin] = q / np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
        np.copyto(out, q0, where=u == 0.0)
        return out.T

    def _locate_one(self, t: float) -> tuple[int, float]:
        """The segment i of one time, as :meth:`orientations_at` finds it, and
        the fraction u of the way to sample i + 1, in Python floats."""
        times, duration = self.times, self.duration
        if t < times.item(0) or t > times.item(-1):
            w = math.fmod(t - times.item(0), duration)
            t = times.item(0) + (w + duration if w < 0.0 else w)
        i = min(int(times.searchsorted(t, side="right")) - 1, len(times) - 2)
        t0, t1 = times[i : i + 2].tolist()
        return i, (t - t0) / (t1 - t0)

    def orientation_at(self, t: float) -> Quaternion:
        """One row of :meth:`orientations_at`, with its arithmetic in floats."""
        i, u = self._locate_one(t)
        q = self.orientations[i].tolist()
        if u != 0.0:
            *q1, angle, sine = self._segment_table()[4:10, i].tolist()
            q = slerp_step(q, q1, angle, sine, u)
        return Quaternion(*q)

    def device_prediction_nearest(self, t: float) -> Quaternion:
        """Device-side prediction recorded at the sample nearest to t."""
        if not self.has_device:
            raise ValueError("trace has no device-prediction columns")
        i, u = self._locate_one(t)
        return Quaternion(*self.device_orientations[i + 1 if u > 0.5 else i].tolist())


def _check_columns(n: int, columns: tuple) -> None:
    """Raise :class:`TraceFormatError` at the first of the (name, array,
    shape) ``columns`` whose array has another shape, then at the first of
    the n samples that holds a value not finite in any column; a column
    whose array is None is absent."""
    finite = np.ones(n, dtype=bool)
    for name, a, shape in columns:
        if a is not None:
            if a.shape != shape:
                raise TraceFormatError(f"{name} has shape {a.shape}, expected {shape}")
            for column in np.isfinite(a.reshape(n, -1)).T:  # all(axis=1) over 4 columns is 3x slower
                finite &= column
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise TraceFormatError("value not finite", int(bad[0]))


def _unit_rows(q: np.ndarray, rows: list[int], what: str) -> np.ndarray:
    """Quaternion rows renormalized, rejecting a norm off unit by over 1%."""
    n = np.sqrt(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2] + q[:, 3] * q[:, 3])
    bad = np.flatnonzero(np.abs(n - 1.0) > _NORM_REJECT)
    if bad.size:
        j = bad[0]
        raise TraceFormatError(f"row {rows[j]}: {what} norm {n[j]:.6f} off unit by more than 1%")
    return q / n[:, None]


def load_trace(path) -> TraceSet:
    """The trace in a CSV file; a :class:`TraceFormatError` names the file."""
    with open(path) as fh:
        try:
            return _parse_trace([ln.strip() for ln in fh.read().splitlines()])
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{path}: not a text trace file ({exc.reason})") from None
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None


def _parse_trace(lines: list[str]) -> TraceSet:
    if not lines or not lines[0]:
        raise TraceFormatError("line 1: missing header")
    header = [h.strip() for h in lines[0].split(",")]
    with_dev = header[-5:] == _HDR_DEV
    if header != _HDR_BASE + _HDR_DEV * with_dev:
        raise TraceFormatError(f"line 1: unrecognized header {','.join(header)!r}")
    n_cols = len(header)

    rows = []
    values = []
    for row, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise TraceFormatError(f"row {row}: expected {n_cols} fields, got {len(fields)}")
        try:
            values.append([float(f) for f in fields])
        except ValueError as exc:
            raise TraceFormatError(f"row {row}: bad value ({exc})")
        rows.append(row)
    data = np.array(values, dtype=float).reshape(-1, n_cols)
    device = horizons = None
    if with_dev:
        device = _unit_rows(data[:, -5:-1], rows, "device prediction")
        horizons = data[:, -1]
    try:
        return TraceSet(data[:, 0], _unit_rows(data[:, 1:5], rows, "orientation"), device, horizons)
    except TraceFormatError as exc:
        if exc.sample is None:
            raise
        raise TraceFormatError(f"row {rows[exc.sample]}: {exc.problem}") from None


def save_trace(path, trace: TraceSet) -> None:
    header = list(_HDR_BASE)
    columns = [trace.times[:, None], trace.orientations]
    if trace.has_device:
        header += _HDR_DEV
        columns += [trace.device_orientations, trace.device_horizons[:, None]]
    lines = [",".join(header)]
    lines += [",".join(map("{:.17g}".format, row)) for row in np.hstack(columns).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _half_turn(rad: np.ndarray) -> tuple:
    """The cosines and sines of half the angles ``rad``, as
    :func:`_compose_yaw_pitch` takes them."""
    half = 0.5 * rad
    return np.cos(half), np.sin(half)


def _compose_yaw_pitch(yaw: tuple, pitch: tuple) -> tuple:
    """(w, x, y, z) rows of the quaternions for yaw about +z then pitch about
    the local y axis, with positive pitch looking up; each angle comes as
    its :func:`_half_turn`."""
    (cy, sy), (cp, sp) = yaw, pitch
    return cy * cp, sy * sp, -cy * sp, sy * cp


def _max_step_speed_dps(rows: tuple, dt: float) -> float:
    """Peak speed over sample steps given as (w, x, y, z) rows of shape
    (2, m): row 0 holds each step's first sample, row 1 its second."""
    # ((w + x) + y) + z is np.sum(axis=1)'s order on (n, 4) rows (numpy 2.4.6: 0 of 100,000
    # random rows differ; w + ((x + y) + z) differs on 40,099 and (w + x) + (y + z) on 29,383)
    dots = rows[0][0] * rows[0][1]
    for c in rows[1:]:
        dots += c[0] * c[1]
    ang = np.arccos(np.minimum(np.abs(dots, out=dots), 1.0, out=dots), out=dots)
    return math.degrees(2.0 * float(ang.max())) / dt


def peak_dps_limit(sample_rate: float) -> float:
    """The speed no generated trace reaches: one sample step turns the head
    by at most 180 degrees, so a peak must lie below 180 x sample_rate."""
    return 180.0 * sample_rate


def peak_dps_floor(sample_rate: float) -> float:
    """The slowest peak the fit resolves to 1%: it reads a step as 2 arccos
    |dot|, whose rounding grows as the step shrinks.  A chord measure over
    seeds 1-6 at 250-2,000 Hz finds the fit at most 0.32% off at 3e-5 deg a
    step, 0.68% at 2e-5 and 1.27% at 1.5e-5."""
    return 0.03 * sample_rate / 1000.0  # 3e-5 deg a step, and exactly 0.03 deg/s at 1000 Hz


def _fit_scales(yaw0: np.ndarray, pit0: np.ndarray, peak_dps: float, dt: float) -> tuple:
    """The yaw and pitch scales of :func:`generate_rotation_trace`'s fit.  A
    pass scores the step of largest bound, then every step whose widened
    bound reaches that step's angle.  Later passes keep that set, the yaw
    and pitch pairs in ``held``, while the largest bound left out, times the
    most a scale grew since, widened, stays below the scored peak."""
    d_yaw, d_pit = np.abs(np.diff(yaw0)), np.abs(np.diff(pit0))
    held = None

    def score(yaw, pit, cy, cp):
        return _max_step_speed_dps(_compose_yaw_pitch(_half_turn(cy * yaw), _half_turn(cp * pit)), dt)

    def max_speed(cy, cp):
        nonlocal held
        if held is not None:
            yaw, pit, cy0, cp0, rest = held
            speed = score(yaw, pit, cy, cp)
            if math.degrees(max(cy / cy0, cp / cp0) * rest * (1.0 + 1e-6) + 1e-7) / dt < speed:
                return speed
        bound = cy * d_yaw + cp * d_pit
        top = int(bound.argmax())
        reach = math.radians(score(yaw0[top : top + 2, None], pit0[top : top + 2, None], cy, cp)) * dt
        keep = bound * (1.0 + 1e-6) + 1e-7 >= reach
        pairs = np.flatnonzero(keep) + np.array([[0], [1]])
        held = yaw0[pairs], pit0[pairs], cy, cp, float(bound.max(where=~keep, initial=-math.inf))
        return score(*held[:4])

    # joint rescale by fixed point; the composed speed is near-linear in the
    # common factor so a few iterations reach machine precision
    c = peak_dps / max_speed(1.0, 1.0)
    for _ in range(6):
        speed = max_speed(c, c)
        if speed == 0.0:
            break  # steps too small for arccos to resolve: keep the linear estimate
        c *= peak_dps / speed
    cy = cp = c
    pitch_peak = math.degrees(float(np.abs(cp * pit0).max()))
    if pitch_peak > 60.0:  # the yaw scale alone refits the speed
        cp *= 60.0 / pitch_peak
        for _ in range(8):
            cy *= peak_dps / max_speed(cy, cp)
    return cy, cp


def generate_rotation_trace(peak_dps: float, duration: float, sample_rate: float = 1000.0, seed: int = 0) -> TraceSet:
    """Synthetic head-rotation trace: yaw and pitch are each a sum of three
    random-phase sinusoids, jointly rescaled so the maximum instantaneous
    angular speed matches ``peak_dps`` within 1%.  Pitch amplitude is capped
    at 60 degrees.  A device-prediction column holds the exact model value
    :data:`DEVICE_HORIZON` (0.1 s) ahead; it is built on its first read
    (:class:`TraceSet`), which only ``prediction = device`` and a written
    trace file make.  ``peak_dps`` must lie below
    :func:`peak_dps_limit`; below :func:`peak_dps_floor` the fit misses it
    by more than 1%.

    The fit scores only the steps that can hold the peak.  A step turns by
    at most cy |dyaw| + cp |dpitch| (the triangle inequality for rotation
    angles; conjugation keeps the yaw turn's angle), and its computed angle
    stays within that bound x (1 + 1e-6) + 1e-7 rad, which covers the
    rounding of arccos.  A step is left out only while its widened bound
    stays below the peak scored, so every pass reads the maximum over all
    steps, and the trace has the bytes of a fit that reads every step.
    """
    if peak_dps <= 0.0 or duration <= 0.0 or sample_rate <= 0.0:
        raise ValueError("peak speed, duration and sample rate must be positive")
    if peak_dps >= peak_dps_limit(sample_rate):
        raise ValueError(
            f"peak speed {peak_dps:g} deg/s must be below 180 x sample rate = "
            f"{peak_dps_limit(sample_rate):g} deg/s: a sample step turns by at most 180 deg"
        )
    rng = np.random.default_rng(seed)
    yaw_f = rng.uniform(0.15, 0.9, 3)
    yaw_p = rng.uniform(0.0, 2.0 * math.pi, 3)
    yaw_a = np.array([50.0, 25.0, 12.0]) * rng.uniform(0.7, 1.3, 3)
    pit_f = rng.uniform(0.1, 0.7, 3)
    pit_p = rng.uniform(0.0, 2.0 * math.pi, 3)
    pit_a = np.array([14.0, 7.0, 4.0]) * rng.uniform(0.7, 1.3, 3)

    dt = 1.0 / sample_rate
    # enough steps that the last sample is at or after the duration
    n = max(int(math.ceil(duration * sample_rate - 1e-9)), 1) + 1
    t = np.arange(n) * dt

    def series(times, amps, freqs, phases):
        return sum(a * np.sin(2.0 * math.pi * f * times + p) for a, f, p in zip(amps, freqs, phases))

    yaw0 = np.radians(series(t, yaw_a, yaw_f, yaw_p))
    pit0 = np.radians(series(t, pit_a, pit_f, pit_p))

    cy, cp = _fit_scales(yaw0, pit0, peak_dps, dt)
    quats = np.stack(_compose_yaw_pitch(_half_turn(cy * yaw0), _half_turn(cp * pit0)), axis=1)

    def device_column():
        t_ahead = t + DEVICE_HORIZON
        yaw_ahead = cy * np.radians(series(t_ahead, yaw_a, yaw_f, yaw_p))
        pit_ahead = cp * np.radians(series(t_ahead, pit_a, pit_f, pit_p))
        return np.stack(_compose_yaw_pitch(_half_turn(yaw_ahead), _half_turn(pit_ahead)), axis=1)

    return TraceSet(t, quats, device_column, np.full(n, DEVICE_HORIZON))


def static_trace(duration: float) -> TraceSet:
    """Identity-orientation trace for a motionless head."""
    identity = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)
    return TraceSet(np.array([0.0, duration]), identity, identity, np.full(2, DEVICE_HORIZON))


@dataclass(frozen=True)
class Walk:
    """Piecewise-linear 2-D walk sampled at fixed step boundaries."""

    positions: np.ndarray
    step_interval: float

    def position_at(self, t: float) -> tuple[float, float]:
        """One row of :meth:`positions_at`, with its arithmetic in floats."""
        s = max(t, 0.0) / self.step_interval
        i = min(int(s), len(self.positions) - 2)
        u = min(s - i, 1.0)
        (x0, y0), (x1, y1) = self.positions[i : i + 2].tolist()
        return x0 * (1.0 - u) + x1 * u, y0 * (1.0 - u) + y1 * u

    def positions_at(self, ts: np.ndarray) -> np.ndarray:
        """(M, 2) positions at an array of times, the transposed view of a
        component-major (2, M) array.  Times before the start or past the
        last step interpolate at u = 0 or u = 1 of the end segment, which
        lands exactly on the end position."""
        s = np.maximum(ts, 0.0) / self.step_interval
        i = np.minimum(s.astype(np.intp), len(self.positions) - 2)
        u = np.minimum(s - i, 1.0)
        j = i[:1] if len(i) and i.min() == i.max() else i  # a batch inside one step reads its ends once
        return (self.positions.T.take(j, axis=1) * (1.0 - u) + self.positions.T.take(j + 1, axis=1) * u).T


def generate_walk(
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    speed: float,
    step_interval: float,
    duration: float,
    seed: int = 0,
) -> Walk:
    """Random-cardinal walk from the room center with wall steering.

    Every step a cardinal heading is drawn; within ``WALL_MARGIN`` of a
    wall the heading is rotated toward the interior by at most
    ``MAX_TURN_DEG``.  Positions are finally clipped to stay strictly
    inside the bounds.
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
        # toward the interior: +1, -1 or 0 per axis, 0 between two near walls
        away_x = int(pos[0] - xmin < WALL_MARGIN) - int(xmax - pos[0] < WALL_MARGIN)
        away_y = int(pos[1] - ymin < WALL_MARGIN) - int(ymax - pos[1] < WALL_MARGIN)
        if away_x or away_y:
            target = math.atan2(away_y, away_x)
            diff = math.remainder(target - ang, 2.0 * math.pi)
            limit = math.radians(MAX_TURN_DEG)
            ang += max(-limit, min(limit, diff))
        pos = pos + speed * step_interval * np.array([math.cos(ang), math.sin(ang)])
        pos[0] = min(max(pos[0], xmin + eps), xmax - eps)
        pos[1] = min(max(pos[1], ymin + eps), ymax - eps)
        out.append(pos.copy())
    return Walk(np.stack(out), step_interval)


def pose_at(trace: TraceSet, walk: Walk, t: float, height: float) -> Pose:
    """Headset pose at time t: walk position at fixed height, trace
    orientation (wrapped past the trace's end, see :class:`TraceSet`)."""
    x, y = walk.position_at(t)
    return Pose(t, np.array([x, y, height]), trace.orientation_at(t))
