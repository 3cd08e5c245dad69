"""Head-rotation traces, trace file format and the random walk."""

import hashlib
import math

import numpy as np
import pytest

from xrsim import cli
from xrsim.geometry import Quaternion, slerp
from xrsim.mobility import (
    HMD_HEIGHT,
    TraceFormatError,
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
    qs = [Quaternion(*q) for q in trace.orientations.tolist()]
    dt = trace.times[1] - trace.times[0]
    worst = max(a.rotation_angle_to(b) for a, b in zip(qs[:-1], qs[1:]))
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
        pmax = max(abs(pitch_deg(Quaternion(*q))) for q in tr.orientations.tolist())
        assert pmax <= 60.0 + 1e-6
        assert pmax >= 59.9
        assert step_peak_dps(tr) == pytest.approx(800.0, rel=0.01)

    def test_device_column_holds_the_future_orientation(self):
        tr = generate_rotation_trace(400.0, 2.0, seed=5)
        assert tr.has_device
        for i in range(1, 1901, 137):
            assert tr.device_horizons[i] == 0.1
            ahead = tr.orientation_at(tr.times[i] + tr.device_horizons[i])
            recorded = Quaternion(*tr.device_orientations[i].tolist())
            assert recorded.rotation_angle_to(ahead) < 1e-6
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


IDENTITY2 = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)


class TestTraceSet:
    def test_wrap_and_seams(self):
        # x position and yaw both run linearly over the 2 s window, so every
        # lookup reads back the wrapped time
        yaw = np.radians([0.0, 90.0, 180.0])
        tr = TraceSet(
            [0.0, 1.0, 2.0],
            np.stack([np.cos(yaw / 2), 0 * yaw, 0 * yaw, np.sin(yaw / 2)], axis=1),
            positions=[[0.0, 0.0, 1.7], [1.0, 0.0, 1.7], [2.0, 0.0, 1.7]],
            device_orientations=np.eye(4)[:3],
            device_horizons=[0.1, 0.2, 0.3],
        )
        for t, wrapped in ((0.5, 0.5), (2.0, 2.0), (2.5, 0.5), (6.0, 0.0), (-0.5, 1.5), (3.4, 1.4)):
            assert tr.position_at(t)[0] == pytest.approx(wrapped, abs=1e-12)
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
        assert a.rotation_angle_to(b) < 1e-9

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
            assert tr.orientation_at(t).rotation_angle_to(Quaternion.identity()) < 1e-12
        assert tr.has_device
        assert tr.device_prediction_nearest(1.0).rotation_angle_to(Quaternion.identity()) < 1e-12

    def test_position_interpolation(self):
        tr = TraceSet([0.0, 1.0], IDENTITY2, positions=[[0.0, 0.0, 1.7], [2.0, -1.0, 1.7]])
        assert np.allclose(tr.position_at(0.5), [1.0, -0.5, 1.7])

    def test_position_missing_raises(self):
        with pytest.raises(ValueError, match="position"):
            static_trace(1.0).position_at(0.5)

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
        with pytest.raises(ValueError, match="positions has shape"):
            TraceSet([0.0, 1.0], IDENTITY2, positions=[[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="come together"):
            TraceSet([0.0, 1.0], IDENTITY2, device_orientations=IDENTITY2)

    @pytest.mark.parametrize(
        "column, value",
        [("times", np.nan), ("times", np.inf), ("orientations", np.nan), ("positions", -np.inf),
         ("device_orientations", np.nan), ("device_horizons", np.nan)],
    )
    def test_rejects_non_finite_values(self, column, value):
        arrays = {
            "times": np.array([0.0, 0.5, 1.0]),
            "orientations": np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
            "positions": np.zeros((3, 3)),
            "device_orientations": np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
            "device_horizons": np.full(3, 0.1),
        }
        arrays[column][1] = value
        with pytest.raises(TraceFormatError, match="sample 1: value not finite"):
            TraceSet(**arrays)


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        tr = generate_rotation_trace(300.0, 0.2, seed=6)
        path = tmp_path / "trace.csv"
        save_trace(path, tr)
        back = load_trace(path)
        assert back.has_device and not back.has_position
        assert np.array_equal(back.times, tr.times)
        # loading renormalizes, so components can move by an ulp; compare
        # them directly rather than through the angle metric
        assert np.allclose(back.orientations, tr.orientations, rtol=0.0, atol=1e-15)
        assert np.allclose(back.device_orientations, tr.device_orientations, rtol=0.0, atol=1e-15)
        assert np.array_equal(back.device_horizons, tr.device_horizons)

    def test_position_round_trip(self, tmp_path):
        tr = TraceSet([0.0, 0.5], IDENTITY2, positions=[[0.25, -1.5, 1.7], [0.5, -1.0, 1.7]])
        path = tmp_path / "pos.csv"
        save_trace(path, tr)
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

    # each file loaded without complaint before the finite-value rule, and a
    # run on it reported a quiet reliability of 0; the blank line makes the
    # file row differ from the sample index
    @pytest.mark.parametrize(
        "header, bad_row",
        [
            ("t,qw,qx,qy,qz", "nan,1,0,0,0"),
            ("t,qw,qx,qy,qz", "inf,1,0,0,0"),
            ("t,qw,qx,qy,qz", "0.1,nan,0,0,0"),
            ("t,qw,qx,qy,qz,pw,px,py,pz", "0.1,1,0,0,0,0,0,nan,1.7"),
            ("t,qw,qx,qy,qz,ph_qw,ph_qx,ph_qy,ph_qz,ph_h", "0.1,1,0,0,0,1,0,0,0,nan"),
        ],
        ids=["nan_time", "inf_time", "nan_quaternion", "nan_position", "nan_horizon"],
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
        assert "row 4: value not finite" in capsys.readouterr().err

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,qw,qx,qy,qz\n0,1,0,0,0\n")
        with pytest.raises(TraceFormatError, match="two samples"):
            load_trace(path)


# A hand-written file with position columns: one quaternion 0.4% off unit
# norm (renormalized on load), a padding column that is not 0 (ignored) and
# a blank line (skipped).
HAND_WRITTEN = (
    "t,qw,qx,qy,qz,pw,px,py,pz\n"
    "0,1,0,0,0,0,0.25,-1.5,1.7\n"
    "0.125,0.999,0.0999,0,0,7,0.375,-1.25,1.65\n"
    "\n"
    "0.5,0.7071067811865476,0,0,0.7071067811865476,0,0.5,-1,1.7\n"
)

# SHA-256 of the bytes save_trace writes: pins the file format, number
# formatting included, across changes to how a trace is held in memory
TRACE_FILE_DIGESTS = {
    "generated_2s": "ff23a8d78d43e5f850531eb9f1e52edfe7f5be30eaf227a877cce00c891a855c",
    "static": "cef7be385a438adf9c234a5b5401877a7566a49676de19a3286ee9ca85b8634e",
    "hand_written_positions": "c2bc8bf44d068562c59f428a25c0414275b31f3120e7d98c29a0cc60a1d78e15",
}


def _digest_trace(name, tmp_path):
    if name == "generated_2s":
        tr = generate_rotation_trace(300.0, 2.0, seed=3)
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
        p = pose_at(tr, w, 0.73)
        assert p.t == 0.73
        assert p.position[2] == HMD_HEIGHT
        assert np.allclose(p.position[:2], w.position_at(0.73))
        assert p.orientation.rotation_angle_to(tr.orientation_at(0.73)) < 1e-12
