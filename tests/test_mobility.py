"""Head-rotation traces, trace file format and the random walk."""

import hashlib
import math

import numpy as np
import pytest

from xrsim import cli, macsim, mobility
from xrsim.config import load_config
from xrsim.geometry import _SLERP_MIN_ANGLE, Quaternion
from xrsim.mobility import (
    TraceFormatError,
    TraceSet,
    _compose_yaw_pitch,
    _half_turn,
    generate_rotation_trace,
    generate_walk,
    load_trace,
    pose_at,
    save_trace,
    static_trace,
)

from angles import rotation_angle
from lookups import lookup_rows
from rotations import IDENTITY, rotate, slerp


def step_peak_dps(trace):
    """Largest sample-to-sample angular speed, the quantity the generator
    promises to hit."""
    qs = [Quaternion(*q) for q in trace.orientations.tolist()]
    dt = trace.times[1] - trace.times[0]
    worst = max(rotation_angle(a, b) for a, b in zip(qs[:-1], qs[1:]))
    return math.degrees(worst) / dt


def pitch_deg(q):
    fwd = rotate(q, np.array([1.0, 0.0, 0.0]))
    return math.degrees(math.asin(max(-1.0, min(1.0, fwd[2]))))


def step_angles(yaw0, pit0, cy, cp):
    """Every step's turn at yaw scale cy and pitch scale cp, computed as the
    fit computes it: 2 arccos |q0 . q1|, the products summed w, x, y, z."""
    w, x, y, z = _compose_yaw_pitch(_half_turn(cy * yaw0), _half_turn(cp * pit0))
    dots = w[1:] * w[:-1] + x[1:] * x[:-1] + y[1:] * y[:-1] + z[1:] * z[:-1]
    return 2.0 * np.arccos(np.minimum(np.abs(dots), 1.0))


def full_read_fit(yaw0, pit0, peak_dps, dt, passes):
    """Reference speed fit: ``mobility._fit_scales`` reading every step on
    every pass.  The trace must keep its bytes under either.  ``passes``
    receives each pass's yaw and pitch scales."""

    def max_speed(cy, cp):
        passes.append((cy, cp))
        return math.degrees(float(step_angles(yaw0, pit0, cy, cp).max())) / dt

    c = peak_dps / max_speed(1.0, 1.0)
    for _ in range(6):
        speed = max_speed(c, c)
        if speed == 0.0:
            break
        c *= peak_dps / speed
    cy = cp = c
    pitch_peak = math.degrees(float(np.abs(cp * pit0).max()))
    if pitch_peak > 60.0:
        cp *= 60.0 / pitch_peak
        for _ in range(8):
            cy *= peak_dps / max_speed(cy, cp)
    return cy, cp


# integer and SeedSequence seeds, peaks from below the fit's resolution to
# just under a step's reach (800 deg/s caps pitch at some seeds), each below
# its rate's limit, and durations from one step to a paper-length run
FIT_GRID = [
    (seed, peak, duration, rate)
    for seed in [*range(6), *(np.random.SeedSequence(s).spawn(2)[0] for s in range(1, 7))]
    for rate in (250.0, 1000.0)
    for peak in (1e-4, 1.0, 60.0, 300.0, 800.0, 179_990.0)
    if peak < mobility.peak_dps_limit(rate)
    for duration in (0.0004, 0.3, 2.0, 20.0)
]


@pytest.fixture(scope="module")
def fit_cases():
    """Per case of FIT_GRID: whether the trace has the reference fit's bytes,
    the least slack of any step's angle under its widened bound over the
    reference's passes, whether pitch was capped, and the share of steps the
    fit scored per pass."""
    cases = []
    kernel, fit = mobility._max_step_speed_dps, mobility._fit_scales
    with pytest.MonkeyPatch.context() as mp:
        for seed, peak, duration, rate in FIT_GRID:
            scored, passes, slack = [], [], []

            def counting(rows, dt):
                scored.append(rows[0].shape[1])
                return kernel(rows, dt)

            def reference(yaw0, pit0, peak_dps, dt):
                cy, cp = full_read_fit(yaw0, pit0, peak_dps, dt, passes)
                bound = np.abs(np.diff(yaw0)), np.abs(np.diff(pit0))
                for a, b in passes:
                    widened = (a * bound[0] + b * bound[1]) * (1.0 + 1e-6) + 1e-7
                    slack.append(float((widened - step_angles(yaw0, pit0, a, b)).min()))
                return cy, cp

            mp.setattr(mobility, "_max_step_speed_dps", counting)
            mp.setattr(mobility, "_fit_scales", fit)
            got = generate_rotation_trace(peak, duration, rate, seed)
            mp.setattr(mobility, "_fit_scales", reference)
            want = generate_rotation_trace(peak, duration, rate, seed)
            same = all(
                a.tobytes() == b.tobytes()
                for a, b in ((got.orientations, want.orientations), (got.device_orientations, want.device_orientations))
            )
            capped = passes[-1][0] != passes[-1][1]
            cases.append((same, min(slack), capped, sum(scored) / (len(passes) * (len(got.times) - 1))))
    return cases


class TestRotationTrace:
    def test_fit_matches_the_full_read_fit(self, fit_cases):
        assert len(fit_cases) == 12 * 11 * 4
        different = [case for case, (same, *_) in zip(FIT_GRID, fit_cases) if not same]
        assert not different
        # the grid reaches the pitch-cap loop, and the long traces score few steps
        assert any(capped for _, _, capped, _ in fit_cases)
        for (_, peak, duration, _), (_, _, _, share) in zip(FIT_GRID, fit_cases):
            if duration == 20.0 and 1.0 <= peak <= 800.0:
                assert share < 0.25, (peak, share)

    def test_a_grown_scale_chooses_the_steps_again(self):
        # a step turning about two axes grows slower with the scale than a
        # one-axis step: at scale 1 the yaw step (0.42 rad) is left out under
        # the two-axis step (0.4235 rad), but at the second pass's scale 3.5
        # it turns further (1.47 against 1.449 rad), so the fit must score
        # it; the most a scale grew, times its bound, shows that in time
        yaw0, pit0 = np.array([0.0, 0.3, 0.72]), np.array([-0.15, 0.15, 0.15])
        first = step_angles(yaw0, pit0, 1.0, 1.0)
        assert first[1] < first[0] and np.argmax(step_angles(yaw0, pit0, 3.5, 3.5)) == 1
        peak = 3.5 * math.degrees(float(first.max())) / 1e-3
        assert mobility._fit_scales(yaw0, pit0, peak, 1e-3) == full_read_fit(yaw0, pit0, peak, 1e-3, [])

    def test_every_step_lies_within_its_bound(self, fit_cases):
        # a step turns by at most cy |dyaw| + cp |dpitch|; the fit leaves out
        # a step only when this bound, widened by 1e-6 and 1e-7 rad, cannot
        # reach the peak, so the computed angle must stay under the widened
        # bound at every pass's scales
        tight = [(case, slack) for case, (_, slack, *_) in zip(FIT_GRID, fit_cases) if slack < 0.0]
        assert not tight

    # 179,990 deg/s lies just under a step's reach at 1000 Hz
    @pytest.mark.parametrize("peak", [100.0, 200.0, 600.0, 179_990.0])
    def test_peak_speed_is_hit(self, peak):
        tr = generate_rotation_trace(peak, 2.0, seed=1)
        assert step_peak_dps(tr) == pytest.approx(peak, rel=0.01)

    def test_pitch_cap(self):
        # this peak/seed pair drives pitch into the cap; speed still holds
        tr = generate_rotation_trace(800.0, 2.0, seed=2)
        pmax = max(abs(pitch_deg(Quaternion(*q))) for q in tr.orientations.tolist())
        assert pmax <= 60.0 + 1e-6
        assert pmax >= 59.9
        assert step_peak_dps(tr) == pytest.approx(800.0, rel=0.01)

    def test_a_peak_too_slow_for_arccos_stops_the_fit(self, monkeypatch):
        # every step's |dot| rounds to 1, so the fit reads a speed of 0 and
        # keeps the scale it has rather than divide by it.  The spy sees every
        # speed the fit scores, over one step or a step set; a pass's speed is
        # the last it scores, and the pass that stops the fit scores every
        # step, since each bound reaches an angle of 0
        speeds, steps, fit = [], [], mobility._max_step_speed_dps

        def recording(rows, dt):
            speeds.append(fit(rows, dt))
            steps.append(rows[0].shape[1])
            return speeds[-1]

        monkeypatch.setattr(mobility, "_max_step_speed_dps", recording)
        tr = generate_rotation_trace(1e-4, 2.0, seed=1)
        assert steps[-1] == 2000
        assert speeds[-1] == 0.0 and step_peak_dps(tr) == 0.0
        chord = np.linalg.norm(np.diff(tr.orientations, axis=0), axis=1).max()
        assert 0.0 < math.degrees(2.0 * chord) * 1000.0 <= 1e-4

    @pytest.mark.parametrize("rate", [250.0, 1000.0, 2000.0])
    def test_the_slowest_accepted_peak_is_hit(self, rate):
        # a chord measure keeps its precision on steps too small for the
        # fit's arccos to read well; at the floor it finds the peak within
        # 1% (0.01 deg/s at 1000 Hz came out 1.7% slow)
        peak = mobility.peak_dps_floor(rate)
        for seed in range(1, 7):
            chord = np.linalg.norm(np.diff(generate_rotation_trace(peak, 2.0, rate, seed).orientations, axis=0), axis=1)
            assert math.degrees(4.0 * np.arcsin(chord / 2.0).max()) * rate == pytest.approx(peak, rel=0.01), seed

    def test_device_column_holds_the_future_orientation(self):
        tr = generate_rotation_trace(400.0, 2.0, seed=5)
        assert tr.has_device
        for i in range(1, 1901, 137):
            assert tr.device_horizons[i] == 0.1
            ahead = tr.orientation_at(tr.times[i] + tr.device_horizons[i])
            recorded = Quaternion(*tr.device_orientations[i].tolist())
            assert rotation_angle(recorded, ahead) < 1e-6
            # the nearest sample's column, on both sides of the midpoint
            assert tr.device_prediction_nearest(tr.times[i] + 0.0004) == recorded
            assert tr.device_prediction_nearest(tr.times[i] - 0.0004) == recorded

    def test_sample_grid(self):
        tr = generate_rotation_trace(200.0, 0.5, sample_rate=500.0, seed=0)
        assert tr.times.shape == (251,)
        assert tr.orientations.shape == (251, 4)
        assert tr.times[1] - tr.times[0] == pytest.approx(0.002)
        assert tr.duration == pytest.approx(0.5)
        # shorter than half a sample interval: still the two samples a
        # trace needs (this used to fail on an empty speed array)
        short = generate_rotation_trace(200.0, 0.0004, seed=0)
        assert short.times.tolist() == [0.0, 0.001]
        assert step_peak_dps(short) == pytest.approx(200.0, rel=0.01)
        # a duration between samples ends on the sample after it, so no
        # lookup inside the run wraps (round() ended 0.1234 at 0.123)
        for duration in (0.0025, 0.0105, 0.1234):
            tr = generate_rotation_trace(200.0, duration, seed=0)
            assert tr.times[-1] >= duration > tr.times[-2]

    def test_deterministic(self):
        a = generate_rotation_trace(300.0, 1.0, seed=4)
        b = generate_rotation_trace(300.0, 1.0, seed=4)
        assert np.array_equal(a.orientations, b.orientations)
        assert np.array_equal(a.device_orientations, b.device_orientations)
        c = generate_rotation_trace(300.0, 1.0, seed=5)
        assert not np.any(a.orientations[1:, 0] == c.orientations[1:, 0])

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_rotation_trace(0.0, 1.0)
        with pytest.raises(ValueError):
            generate_rotation_trace(100.0, -1.0)

    # a sample step turns by at most 180 deg, so 180 x sample_rate is out of
    # reach: 2e5 deg/s came out 10% slow, 1e30 as non-finite quaternions
    @pytest.mark.parametrize("peak", [180_000.0, 2e5, 1e30])
    def test_peak_out_of_a_steps_reach(self, peak):
        with pytest.raises(ValueError, match="below 180 x sample rate = 180000 deg/s"):
            generate_rotation_trace(peak, 1.0, sample_rate=1000.0)


IDENTITY2 = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)


class TestTraceSet:
    def test_wrap_and_seams(self):
        # yaw runs linearly over the 2 s window, so every lookup reads back
        # the wrapped time
        yaw = np.radians([0.0, 90.0, 180.0])
        tr = TraceSet(
            [0.0, 1.0, 2.0],
            np.stack([np.cos(yaw / 2), 0 * yaw, 0 * yaw, np.sin(yaw / 2)], axis=1),
            device_orientations=np.eye(4)[:3],
            device_horizons=[0.1, 0.2, 0.3],
        )
        for t, wrapped in ((0.5, 0.5), (2.0, 2.0), (2.5, 0.5), (6.0, 0.0), (-0.5, 1.5), (3.4, 1.4)):
            q = tr.orientation_at(t)
            assert math.degrees(2 * math.atan2(q.z, q.w)) == pytest.approx(90.0 * wrapped, abs=1e-9)
            assert np.allclose(tr.orientations_at(np.array([t]))[0], [q.w, q.x, q.y, q.z], atol=1e-15)
        assert tr.device_prediction_nearest(2.4) == Quaternion(1.0, 0.0, 0.0, 0.0)
        assert tr.device_prediction_nearest(2.6) == Quaternion(0.0, 1.0, 0.0, 0.0)
        assert tr.device_prediction_nearest(-0.4) == Quaternion(0.0, 0.0, 1.0, 0.0)

    def test_lookup_loops_continuously(self):
        tr = generate_rotation_trace(200.0, 1.0, seed=8)
        a = tr.orientation_at(0.3)
        b = tr.orientation_at(tr.duration + 0.3)
        assert rotation_angle(a, b) < 1e-9

    def test_rowwise_lookup_matches_the_scalar_one(self):
        # interior points, exact sample instants, the seam and past it, and
        # times before the start, against the scalar slerp of the two
        # samples around the wrapped time
        tr = generate_rotation_trace(300.0, 1.0, seed=4)
        ts = np.array([0.0, 0.0005, 0.25, 0.5, 0.9999, 1.0, 1.0003, 2.7, 13.0, -0.2])
        wrapped = [0.0, 0.0005, 0.25, 0.5, 0.9999, 1.0, 0.0003, 0.7, 0.0, 0.8]
        got = tr.orientations_at(ts)
        for row, t, tw in zip(got, ts, wrapped):
            i = min(int(np.flatnonzero(tr.times <= tw + 1e-12)[-1]), len(tr.times) - 2)
            u = (tw - tr.times[i]) / (tr.times[i + 1] - tr.times[i])
            want = slerp(Quaternion(*tr.orientations[i]), Quaternion(*tr.orientations[i + 1]), u)
            assert np.allclose(row, [want.w, want.x, want.y, want.z], rtol=0.0, atol=1e-14)
            q = tr.orientation_at(t)
            assert np.allclose(row, [q.w, q.x, q.y, q.z], rtol=0.0, atol=1e-15)

    def test_static_trace_is_identity_everywhere(self):
        tr = static_trace(3.0)
        for t in (0.0, 0.7, 2.999, 5.2):
            assert rotation_angle(tr.orientation_at(t), IDENTITY) < 1e-12
        assert tr.has_device
        assert rotation_angle(tr.device_prediction_nearest(1.0), IDENTITY) < 1e-12

    def test_device_missing_raises(self):
        tr = TraceSet([0.0, 1.0], IDENTITY2)
        with pytest.raises(ValueError, match="device"):
            tr.device_prediction_nearest(0.5)

    def test_rejects_bad_sample_lists(self):
        with pytest.raises(ValueError, match="two samples"):
            TraceSet([0.0], IDENTITY2[:1])
        with pytest.raises(ValueError, match="sample 1: timestamps not increasing"):
            TraceSet([0.0, 0.0], IDENTITY2)
        with pytest.raises(ValueError, match="orientations has shape"):
            TraceSet([0.0, 1.0], IDENTITY2[:, :3])
        with pytest.raises(ValueError, match="come together"):
            TraceSet([0.0, 1.0], IDENTITY2, device_orientations=IDENTITY2)

    @pytest.mark.parametrize(
        "column, value",
        [("times", np.nan), ("times", np.inf), ("orientations", np.nan),
         ("device_orientations", np.nan), ("device_horizons", np.nan),
         # one component only, the last: each column is checked
         ("orientations", [1.0, 0.0, 0.0, -np.inf]), ("device_orientations", [1.0, 0.0, 0.0, np.nan])],
    )
    def test_rejects_non_finite_values(self, column, value):
        arrays = {
            "times": np.array([0.0, 0.5, 1.0]),
            "orientations": np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
            "device_orientations": np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
            "device_horizons": np.full(3, 0.1),
        }
        arrays[column][1] = value
        with pytest.raises(TraceFormatError, match="sample 1: value not finite"):
            TraceSet(**arrays)


def eager_device_column(peak_dps, duration, sample_rate, seed):
    """The device column as ``generate_rotation_trace`` once built it with
    the trace: its draws, fit and device expressions, in its order."""
    rng = np.random.default_rng(seed)
    yaw_f, yaw_p = rng.uniform(0.15, 0.9, 3), rng.uniform(0.0, 2.0 * math.pi, 3)
    yaw_a = np.array([50.0, 25.0, 12.0]) * rng.uniform(0.7, 1.3, 3)
    pit_f, pit_p = rng.uniform(0.1, 0.7, 3), rng.uniform(0.0, 2.0 * math.pi, 3)
    pit_a = np.array([14.0, 7.0, 4.0]) * rng.uniform(0.7, 1.3, 3)
    dt = 1.0 / sample_rate
    t = np.arange(max(int(math.ceil(duration * sample_rate - 1e-9)), 1) + 1) * dt

    def series(times, amps, freqs, phases):
        return sum(a * np.sin(2.0 * math.pi * f * times + p) for a, f, p in zip(amps, freqs, phases))

    yaw0, pit0 = np.radians(series(t, yaw_a, yaw_f, yaw_p)), np.radians(series(t, pit_a, pit_f, pit_p))
    cy, cp = mobility._fit_scales(yaw0, pit0, peak_dps, dt)
    t_ahead = t + mobility.DEVICE_HORIZON
    yaw_ahead = cy * np.radians(series(t_ahead, yaw_a, yaw_f, yaw_p))
    pit_ahead = cp * np.radians(series(t_ahead, pit_a, pit_f, pit_p))
    return np.stack(_compose_yaw_pitch(_half_turn(yaw_ahead), _half_turn(pit_ahead)), axis=1)


class TestLazyDeviceColumn:
    """A generated trace builds its device column on the first read."""

    @pytest.mark.parametrize("rotation", ["low", "high"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_built_column_is_the_eager_one(self, rotation, seed):
        cfg = load_config(overrides=["sim_time = 2.0", f"rotation = {rotation}", f"seed = {seed}"])
        tr = macsim.scenario_trace(cfg)
        assert tr.has_device and callable(tr._device)
        peak = cfg.peak_dps_low if rotation == "low" else cfg.peak_dps_high
        want = eager_device_column(peak, cfg.sim_time, cfg.trace_sample_rate, macsim._motion_seed(cfg, 0))
        got = tr.device_orientations
        assert got.tobytes() == want.tobytes()
        # built once and kept
        assert tr.device_orientations is got and not callable(tr._device)

    @pytest.mark.parametrize(
        "column, match",
        [(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, np.nan, 0.0], [1.0, 0.0, 0.0, 0.0]]),
          "sample 1: value not finite"),
         (np.tile([1.0, 0.0, 0.0], (3, 1)), r"device_orientations has shape \(3, 3\), expected \(3, 4\)")],
    )
    def test_the_checks_run_when_the_column_is_built(self, column, match):
        tr = TraceSet([0.0, 0.5, 1.0], np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), lambda: column, np.full(3, 0.1))
        assert tr.has_device
        for _ in range(2):  # a column that fails its check is not kept
            with pytest.raises(TraceFormatError, match=match):
                tr.device_orientations
        with pytest.raises(TraceFormatError, match=match):
            tr.device_prediction_nearest(0.5)


class TestSegmentTable:
    """The lookup on the per-segment slerp table against the row-wise
    reference that sets up each row's slerp itself (``tests/lookups.py``),
    bit for bit, and each single-instant lookup against its row."""

    @staticmethod
    def check(tr, ts):
        got = tr.orientations_at(ts)
        assert np.array_equal(got, lookup_rows(tr, ts))
        for row, t in zip(got, ts.tolist()):
            q = tr.orientation_at(t)
            assert np.array_equal([q.w, q.x, q.y, q.z], row), t

    def test_high_motion(self):
        tr = generate_rotation_trace(600.0, 2.0, seed=11)
        self.check(tr, np.sort(np.random.default_rng(3).uniform(0.0, 2.0, 3000)))
        # a sorted batch that starts before the first sample
        self.check(tr, np.sort(np.random.default_rng(5).uniform(-0.01, 0.05, 200)))

    def test_static_trace_has_only_near_segments(self):
        tr = static_trace(3.0)
        assert (tr._segment_table()[8] < _SLERP_MIN_ANGLE).all()
        self.check(tr, np.array([0.0, 0.7, 1.5, 2.999, 3.0, 5.2, -0.4]))

    def test_near_and_far_segments_mixed(self):
        # repeated samples make near segments between turning ones
        tr = generate_rotation_trace(300.0, 0.05, seed=2)
        q = tr.orientations.copy()
        q[10:20] = q[10]
        q[31] = q[30]
        tr = TraceSet(tr.times, q)
        near = tr._segment_table()[8] < _SLERP_MIN_ANGLE
        assert near[10:19].all() and near[30] and not near[:10].any()
        self.check(tr, np.random.default_rng(4).uniform(0.0, 0.05, 500))
        # a sorted batch holding sample instants (u = 0) among lerp segments
        ts = np.concatenate([tr.times[8:22], tr.times[29:33], np.random.default_rng(7).uniform(0.007, 0.034, 60)])
        self.check(tr, np.sort(ts))

    def test_across_a_recorded_traces_wrap(self, tmp_path):
        path = tmp_path / "short.csv"
        save_trace(path, generate_rotation_trace(300.0, 0.2, seed=6))
        tr = load_trace(path)
        ts = np.concatenate([np.linspace(-0.5, 1.3, 701), [0.2, 0.2 + 1e-12, 0.4, 0.4003, -1e-9]])
        self.check(tr, ts)
        # a sorted batch that straddles the wrap
        self.check(tr, np.sort(np.random.default_rng(8).uniform(0.15, 0.25, 300)))

    def test_single_instant_lookups_are_rows_in_python_floats(self, tmp_path):
        # one instant is looked up in Python floats, not as a one-row array,
        # and must give that row bit for bit: before the start, past the
        # end, on a sample (u = 0), on near segments, across a recorded
        # trace's wrap; and so must the walk and the device prediction
        tr = generate_rotation_trace(300.0, 0.05, seed=2)
        q = tr.orientations.copy()
        q[10:20] = q[10]
        near = TraceSet(tr.times, q, tr.device_orientations, tr.device_horizons)
        path = tmp_path / "short.csv"
        save_trace(path, generate_rotation_trace(300.0, 0.2, seed=6))
        recorded = load_trace(path)
        for trace, ts in (
            (near, [-0.02, -1e-9, 0.0, tr.times[12], 0.0125, 0.01501, 0.05, 0.0731, 1.3]),
            (recorded, [-0.5, 0.0, 0.2, 0.2 + 1e-12, 0.2003, 0.4, 0.4003, 1.3]),
        ):
            rows = trace.orientations_at(np.array(ts))
            for t, row in zip(ts, rows.tolist()):
                got = trace.orientation_at(t)
                assert [got.w, got.x, got.y, got.z] == row and type(got.w) is float, t
                i = min(int(np.searchsorted(trace.times, t, side="right")) - 1, len(trace.times) - 2)
                if trace.times[0] <= t <= trace.times[-1]:
                    u = (t - trace.times[i]) / (trace.times[i + 1] - trace.times[i])
                    want = trace.device_orientations[i + 1 if u > 0.5 else i].tolist()
                    got = trace.device_prediction_nearest(t)
                    assert [got.w, got.x, got.y, got.z] == want, t
        w = generate_walk((-5.0, 5.0), (-5.0, 5.0), 1.0, 0.5, 2.0, seed=1)
        # a mixed batch, a sorted one across a step boundary (0.5 s), and one
        # inside a step, whose ends the lookup reads as scalars
        mixed = [-1.0, -0.0, 0.0, 0.2, 0.5, 1.37, 1.999, 2.0, 2.3, 100.0]
        for ts in (mixed, [0.43, 0.4999, 0.5, 0.5001, 0.61], [0.6, 0.7, 0.9]):
            for t, row in zip(ts, w.positions_at(np.array(ts)).tolist()):
                x, y = w.position_at(t)
                assert [x, y] == row and type(x) is float, t

    def test_on_samples_and_at_the_last_sample(self):
        tr = generate_rotation_trace(300.0, 0.3, seed=5)
        got = tr.orientations_at(tr.times)
        # u = 0 at every sample but the last, which is u = 1 of the last segment
        assert np.array_equal(got[:-1], tr.orientations[:-1])
        self.check(tr, tr.times)
        self.check(tr, tr.times[-1:])

    def test_set_up_builds_no_table_and_the_first_link_batch_builds_it_once(self, monkeypatch):
        link = macsim.Link(load_config(overrides=["sim_time = 0.3"]))
        assert link.trace._segments is None
        link.beamform(0.0, link.cfg.bf_interval, ())  # at a sample the lookup needs no table
        assert link.trace._segments is None
        link.snr_at(np.array([0.0101, 0.0203]))
        table = link.trace._segments
        assert table is not None
        link.snr_at(np.array([0.0305, 0.2]))
        link.beamform(0.1234, link.cfg.bf_interval, ())
        assert link.trace._segments is table

        # and through a whole run: every batch reads the one table
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.3"]))
        assert sim.link.trace._segments is None
        tables = []
        snr_at = macsim.Link.snr_at

        def recording(self, ts):
            snr = snr_at(self, ts)
            tables.append(self.trace._segments)
            return snr

        monkeypatch.setattr(macsim.Link, "snr_at", recording)
        sim.run()
        assert len(tables) >= 2 and tables[0] is not None
        assert all(t is tables[0] for t in tables)


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        tr = generate_rotation_trace(300.0, 0.2, seed=6)
        path = tmp_path / "trace.csv"
        save_trace(path, tr)
        back = load_trace(path)
        assert back.has_device
        assert np.array_equal(back.times, tr.times)
        # loading renormalizes, so components can move by an ulp; compare
        # them directly rather than through the angle metric
        assert np.allclose(back.orientations, tr.orientations, rtol=0.0, atol=1e-15)
        assert np.allclose(back.device_orientations, tr.device_orientations, rtol=0.0, atol=1e-15)
        assert np.array_equal(back.device_horizons, tr.device_horizons)

    def test_position_header_is_rejected(self, tmp_path, capsys):
        # the headset position comes from the walk, so a trace holds none
        path = tmp_path / "pos.csv"
        path.write_text("t,qw,qx,qy,qz,pw,px,py,pz\n0,1,0,0,0,0,0.25,-1.5,1.7\n0.5,1,0,0,0,0,0.5,-1,1.7\n")
        with pytest.raises(TraceFormatError, match="line 1: unrecognized header"):
            load_trace(path)
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "rotation = %s" % path,
                "--set", "sim_time = 0.3", "--set", "prediction = none"]
        assert cli.main(argv) == 1
        assert "line 1: unrecognized header" in capsys.readouterr().err

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,w,x,y,z\n0,1,0,0,0\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(path)

    def test_field_count_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,qw,qx,qy,qz\n0,1,0,0,0\n0.1,1,0,0\n")
        with pytest.raises(TraceFormatError, match="row 3"):
            load_trace(path)

    def test_off_unit_quaternion_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,qw,qx,qy,qz\n0,1,0,0,0\n0.1,1.1,0,0,0\n")
        with pytest.raises(TraceFormatError, match="row 3.*norm"):
            load_trace(path)

    def test_unparseable_value_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,qw,qx,qy,qz\n0,1,0,0,0\nlater,1,0,0,0\n")
        with pytest.raises(TraceFormatError, match="row 3"):
            load_trace(path)

    # each file loaded without complaint before the finite-value rule, and a
    # run on it reported a quiet reliability of 0; the blank line makes the
    # file row differ from the sample index
    @pytest.mark.parametrize(
        "header, bad_row",
        [
            ("t,qw,qx,qy,qz", "nan,1,0,0,0"),
            ("t,qw,qx,qy,qz", "inf,1,0,0,0"),
            ("t,qw,qx,qy,qz", "0.1,nan,0,0,0"),
            ("t,qw,qx,qy,qz,ph_qw,ph_qx,ph_qy,ph_qz,ph_h", "0.1,1,0,0,0,1,0,0,0,nan"),
        ],
        ids=["nan_time", "inf_time", "nan_quaternion", "nan_horizon"],
    )
    def test_non_finite_value_names_the_row(self, tmp_path, capsys, header, bad_row):
        cols = header.split(",")

        def row(t):
            return ",".join([t] + ["1" if h in ("qw", "ph_qw") else "0" for h in cols[1:]])

        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, row("0"), "", bad_row, row("0.2")]) + "\n")
        with pytest.raises(TraceFormatError, match="row 4: value not finite"):
            load_trace(path)
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "rotation = %s" % path,
                "--set", "sim_time = 0.3", "--set", "prediction = none"]
        assert cli.main(argv) == 1
        assert "%s: row 4: value not finite" % path in capsys.readouterr().err

    # a first line left empty, and a trace without the device columns that
    # prediction = device reads
    @pytest.mark.parametrize(
        "first, prediction, message",
        [
            ("\nt,qw,qx,qy,qz", "none", "{path}: line 1: missing header"),
            ("t,qw,qx,qy,qz", "device", "prediction = device needs a trace with device-prediction columns"),
        ],
        ids=["empty_first_line", "device_without_columns"],
    )
    def test_a_trace_the_run_cannot_use_exits_one(self, tmp_path, capsys, first, prediction, message):
        path = tmp_path / "trace.csv"
        path.write_text(first + "\n0,1,0,0,0\n1,1,0,0,0\n")
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "rotation = %s" % path,
                "--set", "sim_time = 0.3", "--set", "prediction = %s" % prediction]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "config error: %s\n" % message.format(path=path)

    # the sectors mode reads no prediction, so a trace without device columns
    # serves it at the default prediction = device; it used to exit 1 on both
    # beamforming paths
    @pytest.mark.parametrize("bf_location", ["dti", "abft"])
    def test_sectors_run_on_a_trace_without_device_columns(self, tmp_path, capsys, bf_location):
        path = tmp_path / "trace.csv"
        path.write_text("t,qw,qx,qy,qz\n0,1,0,0,0\n1,1,0,0,0\n")
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "rotation = %s" % path, "--set", "sim_time = 0.3",
                "--set", "rx_beamforming = sectors", "--set", "bf_location = %s" % bf_location]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "run_frames.csv").exists()

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,qw,qx,qy,qz\n0,1,0,0,0\n")
        with pytest.raises(TraceFormatError, match="two samples"):
            load_trace(path)


# A hand-written file: one quaternion 0.4% off unit norm (renormalized on
# load) and a blank line (skipped).
HAND_WRITTEN = (
    "t,qw,qx,qy,qz\n"
    "0,1,0,0,0\n"
    "0.125,0.999,0.0999,0,0\n"
    "\n"
    "0.5,0.7071067811865476,0,0,0.7071067811865476\n"
)

# SHA-256 of the bytes save_trace writes: pins the file format, number
# formatting included, across changes to how a trace is held in memory
TRACE_FILE_DIGESTS = {
    "generated_2s": "ff23a8d78d43e5f850531eb9f1e52edfe7f5be30eaf227a877cce00c891a855c",
    "static": "cef7be385a438adf9c234a5b5401877a7566a49676de19a3286ee9ca85b8634e",
    "hand_written": "0f0b1e702b575cad0622c64d6b311da89bad61c8d705d22fa598cc1ba2e54a89",
    "pitch_capped_2s": "9f3969e8aecbfb344855c74005520d556b85af125dbae6e60ed6a399d460e1f9",
    "generated_8s": "743bdaa9f49a38df7a224f7dc70b4dcf7e0ffde0e12ea2bd634ba03f0926c301",
}


def _digest_trace(name, tmp_path):
    if name == "generated_2s":
        tr = generate_rotation_trace(300.0, 2.0, seed=3)
    elif name == "pitch_capped_2s":  # the speed fit's pitch-cap loop, as in test_pitch_cap
        tr = generate_rotation_trace(800.0, 2.0, seed=2)
    elif name == "generated_8s":  # the trace of an 8 s high-motion run at seed 1
        tr = generate_rotation_trace(300.0, 8.0, seed=np.random.SeedSequence(1).spawn(2)[0])
    elif name == "static":
        tr = static_trace(1.5)
    else:
        src = tmp_path / "hand.csv"
        src.write_text(HAND_WRITTEN)
        tr = load_trace(src)
    path = tmp_path / "out.csv"
    save_trace(path, tr)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_FILE_DIGESTS))
def test_trace_file_digest(name, tmp_path):
    assert _digest_trace(name, tmp_path) == TRACE_FILE_DIGESTS[name]


class TestWalk:
    def test_bounds_steps_and_headings(self):
        w = generate_walk((-5.0, 5.0), (-3.0, 3.0), 1.0, 0.5, 30.0, seed=9)
        assert np.all(w.positions[:, 0] > -5.0)
        assert np.all(w.positions[:, 0] < 5.0)
        assert np.all(w.positions[:, 1] > -3.0)
        assert np.all(w.positions[:, 1] < 3.0)
        steps = np.diff(w.positions, axis=0)
        lengths = np.linalg.norm(steps, axis=1)
        assert lengths.max() <= 0.5 + 1e-9
        # away from walls there is no steering, so steps are pure cardinal
        for i, st in enumerate(steps):
            p = w.positions[i]
            if abs(p[0]) < 4.0 and abs(p[1]) < 2.0:
                assert min(abs(st[0]), abs(st[1])) < 1e-12

    def test_starts_at_the_center(self):
        w = generate_walk((0.0, 4.0), (0.0, 6.0), 1.0, 0.5, 5.0, seed=0)
        assert np.allclose(w.positions[0], [2.0, 3.0])

    def test_position_clamps_past_the_end(self):
        w = generate_walk((-5.0, 5.0), (-5.0, 5.0), 1.0, 0.5, 2.0, seed=1)
        assert np.allclose(w.position_at(100.0), w.positions[-1])
        assert np.allclose(w.position_at(-1.0), w.positions[0])

    def test_lookup_is_the_piecewise_linear_walk_bit_for_bit(self):
        def reference(w, t):
            if t <= 0.0:
                return w.positions[0]
            s = t / w.step_interval
            i = int(s)
            if i >= len(w.positions) - 1:
                return w.positions[-1]
            return w.positions[i] * (1.0 - (s - i)) + w.positions[i + 1] * (s - i)

        w = generate_walk((-5.0, 5.0), (-5.0, 5.0), 1.0, 0.5, 2.0, seed=1)
        ts = np.array([-1.0, 0.0, 0.2, 0.5, 1.37, 1.999, 2.0, 2.3, 100.0])
        got = w.positions_at(ts)
        for row, t in zip(got, ts):
            assert np.array_equal(row, reference(w, t))
            assert np.array_equal(w.position_at(t), row)

    def test_deterministic(self):
        a = generate_walk((-5.0, 5.0), (-3.0, 3.0), 1.2, 0.5, 20.0, seed=3)
        b = generate_walk((-5.0, 5.0), (-3.0, 3.0), 1.2, 0.5, 20.0, seed=3)
        assert np.array_equal(a.positions, b.positions)

    def test_zero_speed_stays_put(self):
        w = generate_walk((-2.0, 2.0), (-2.0, 2.0), 0.0, 0.5, 5.0, seed=0)
        assert np.allclose(w.positions, w.positions[0])

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_walk((0, 1), (0, 1), -1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            generate_walk((0, 1), (0, 1), 1.0, 0.0, 1.0)


class TestPoseAt:
    def test_combines_walk_and_trace_at_height(self):
        tr = generate_rotation_trace(200.0, 2.0, seed=2)
        w = generate_walk((-5.0, 5.0), (-3.0, 3.0), 1.0, 0.5, 2.0, seed=2)
        p = pose_at(tr, w, 0.73, 1.7)
        assert p.t == 0.73
        assert p.position[2] == 1.7
        assert np.allclose(p.position[:2], w.position_at(0.73))
        assert rotation_angle(p.orientation, tr.orientation_at(0.73)) < 1e-12
