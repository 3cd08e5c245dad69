"""Head-rotation traces, trace file format and the random walk."""

import math

import numpy as np
import pytest

from xrsim.geometry import Quaternion
from xrsim.mobility import (
    HMD_HEIGHT,
    TraceFormatError,
    TraceSample,
    TraceSet,
    generate_rotation_trace,
    generate_walk,
    load_trace,
    pose_at,
    save_trace,
    static_trace,
)


def step_peak_dps(trace):
    """Largest sample-to-sample angular speed, the quantity the generator
    promises to hit."""
    qs = trace.samples
    dt = qs[1].t - qs[0].t
    worst = 0.0
    for a, b in zip(qs[:-1], qs[1:]):
        worst = max(worst, a.orientation.rotation_angle_to(b.orientation))
    return math.degrees(worst) / dt


def pitch_deg(q):
    fwd = q.rotate(np.array([1.0, 0.0, 0.0]))
    return math.degrees(math.asin(max(-1.0, min(1.0, fwd[2]))))


class TestRotationTrace:
    @pytest.mark.parametrize("peak", [100.0, 200.0, 600.0])
    def test_peak_speed_is_hit(self, peak):
        tr = generate_rotation_trace(peak, 2.0, seed=1)
        assert step_peak_dps(tr) == pytest.approx(peak, rel=0.01)

    def test_pitch_cap(self):
        # this peak/seed pair drives pitch into the cap; speed still holds
        tr = generate_rotation_trace(800.0, 2.0, seed=2)
        pmax = max(abs(pitch_deg(s.orientation)) for s in tr.samples)
        assert pmax <= 60.0 + 1e-6
        assert pmax >= 59.9
        assert step_peak_dps(tr) == pytest.approx(800.0, rel=0.01)

    def test_device_column_holds_the_future_orientation(self):
        tr = generate_rotation_trace(400.0, 2.0, seed=5)
        assert tr.has_device
        for i in range(0, 1901, 137):
            s = tr.samples[i]
            assert s.device_horizon == 0.1
            ahead = tr.orientation_at(s.t + s.device_horizon)
            assert s.device_predicted.rotation_angle_to(ahead) < 1e-6

    def test_sample_grid(self):
        tr = generate_rotation_trace(200.0, 0.5, sample_rate=500.0, seed=0)
        assert len(tr.samples) == 251
        assert tr.samples[1].t - tr.samples[0].t == pytest.approx(0.002)
        assert tr.duration == pytest.approx(0.5)

    def test_deterministic(self):
        a = generate_rotation_trace(300.0, 1.0, seed=4)
        b = generate_rotation_trace(300.0, 1.0, seed=4)
        assert all(
            sa.orientation.w == sb.orientation.w and sa.orientation.z == sb.orientation.z
            for sa, sb in zip(a.samples, b.samples)
        )
        c = generate_rotation_trace(300.0, 1.0, seed=5)
        assert any(
            sa.orientation.w != sc.orientation.w for sa, sc in zip(a.samples, c.samples)
        )

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_rotation_trace(0.0, 1.0)
        with pytest.raises(ValueError):
            generate_rotation_trace(100.0, -1.0)


class TestTraceSet:
    def test_wrap_and_seams(self):
        tr = static_trace(2.0)
        assert tr.wrap(0.5) == 0.5
        assert tr.wrap(2.5) == pytest.approx(0.5)
        assert tr.wrap(6.0) == pytest.approx(0.0)

    def test_lookup_loops_continuously(self):
        tr = generate_rotation_trace(200.0, 1.0, seed=8)
        a = tr.orientation_at(0.3)
        b = tr.orientation_at(tr.duration + 0.3)
        assert a.rotation_angle_to(b) < 1e-9

    def test_rowwise_lookup_matches_the_scalar_one(self):
        # interior points, exact sample instants, the seam and past it, and
        # times before the start
        tr = generate_rotation_trace(300.0, 1.0, seed=4)
        ts = np.array([0.0, 0.0005, 0.25, 0.5, 0.9999, 1.0, 1.0003, 2.7, 13.0, -0.2])
        got = tr.orientations_at(ts)
        for row, t in zip(got, ts):
            q = tr.orientation_at(t)
            assert np.allclose(row, [q.w, q.x, q.y, q.z], rtol=0.0, atol=1e-14)

    def test_static_trace_is_identity_everywhere(self):
        tr = static_trace(3.0)
        for t in (0.0, 0.7, 2.999, 5.2):
            assert tr.orientation_at(t).rotation_angle_to(Quaternion.identity()) < 1e-12
        assert tr.has_device
        assert tr.device_prediction_nearest(1.0).rotation_angle_to(Quaternion.identity()) < 1e-12

    def test_position_interpolation(self):
        q = Quaternion.identity()
        samples = [
            TraceSample(0.0, q, np.array([0.0, 0.0, 1.7]), None, None),
            TraceSample(1.0, q, np.array([2.0, -1.0, 1.7]), None, None),
        ]
        tr = TraceSet(samples, "manual")
        assert np.allclose(tr.position_at(0.5), [1.0, -0.5, 1.7])

    def test_position_missing_raises(self):
        with pytest.raises(ValueError, match="position"):
            static_trace(1.0).position_at(0.5)

    def test_device_missing_raises(self):
        q = Quaternion.identity()
        tr = TraceSet([TraceSample(0.0, q), TraceSample(1.0, q)], "bare")
        with pytest.raises(ValueError, match="device"):
            tr.device_prediction_nearest(0.5)

    def test_rejects_bad_sample_lists(self):
        q = Quaternion.identity()
        with pytest.raises(ValueError):
            TraceSet([TraceSample(0.0, q)], "short")
        with pytest.raises(ValueError, match="increasing"):
            TraceSet([TraceSample(0.0, q), TraceSample(0.0, q)], "dup")


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        tr = generate_rotation_trace(300.0, 0.2, seed=6)
        path = tmp_path / "trace.csv"
        save_trace(path, tr)
        back = load_trace(path)
        assert len(back.samples) == len(tr.samples)
        assert back.has_device
        # loading renormalizes, so components can move by an ulp; compare
        # them directly rather than through the angle metric
        for sa, sb in zip(tr.samples, back.samples):
            assert sb.t == sa.t
            for name in "wxyz":
                assert getattr(sb.orientation, name) == pytest.approx(
                    getattr(sa.orientation, name), abs=1e-15
                )
                assert getattr(sb.device_predicted, name) == pytest.approx(
                    getattr(sa.device_predicted, name), abs=1e-15
                )
            assert sb.device_horizon == sa.device_horizon

    def test_position_round_trip(self, tmp_path):
        q = Quaternion.identity()
        samples = [
            TraceSample(0.0, q, np.array([0.25, -1.5, 1.7]), None, None),
            TraceSample(0.5, q, np.array([0.5, -1.0, 1.7]), None, None),
        ]
        path = tmp_path / "pos.csv"
        save_trace(path, TraceSet(samples, "manual"))
        back = load_trace(path)
        assert back.has_position
        assert np.allclose(back.position_at(0.25), [0.375, -1.25, 1.7])

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

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,qw,qx,qy,qz\n0,1,0,0,0\n")
        with pytest.raises(TraceFormatError, match="two samples"):
            load_trace(path)


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
        p = pose_at(tr, w, 0.73)
        assert p.t == 0.73
        assert p.position[2] == HMD_HEIGHT
        assert np.allclose(p.position[:2], w.position_at(0.73))
        assert p.orientation.rotation_angle_to(tr.orientation_at(0.73)) < 1e-12
