"""Quaternion, direction and pose-prediction behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xrsim.geometry import (
    Pose,
    Quaternion,
    ap_direction_in_hmd_frame,
    predict_pose,
    rotate_into_frames,
    unit_vector,
)
from xrsim.config import PREDICTION_MODES
from xrsim.mobility import TraceSet, load_trace, save_trace, static_trace

from angles import direction_angle, rotation_angle
from rotations import IDENTITY, compose, rotate, slerp


def rand_quat(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def rotation_matrix(axis, angle):
    # Rodrigues formula, the independent reference for rotate()
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    k = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


class TestQuaternion:
    def test_identity_rotates_nothing(self):
        v = np.array([0.3, -1.2, 2.5])
        assert np.allclose(rotate(IDENTITY, v), v)

    def test_axis_angle_matches_matrix(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            angle = rng.uniform(-math.pi, math.pi)
            q = Quaternion.from_axis_angle(axis, angle)
            m = rotation_matrix(axis, angle)
            v = rng.normal(size=3)
            assert np.allclose(rotate(q, v), m @ v, atol=1e-12)

    def test_composition_matches_matrix_product(self, rng):
        for _ in range(20):
            a1, a2 = rng.normal(size=3), rng.normal(size=3)
            t1, t2 = rng.uniform(-3, 3, 2)
            q = compose(Quaternion.from_axis_angle(a1, t1), Quaternion.from_axis_angle(a2, t2))
            m = rotation_matrix(a1, t1) @ rotation_matrix(a2, t2)
            v = rng.normal(size=3)
            assert np.allclose(rotate(q, v), m @ v, atol=1e-12)

    def test_rotate_inverse_undoes_rotate(self, rng):
        q = rand_quat(rng)
        v = rng.normal(size=3)
        assert np.allclose(q.rotate_inverse(rotate(q, v)), v, atol=1e-12)

    def test_rotation_angle_to(self):
        q0 = IDENTITY
        q1 = Quaternion.from_axis_angle((0, 0, 1), 0.7)
        assert rotation_angle(q0, q1) == pytest.approx(0.7, abs=1e-12)


class TestSlerp:
    def test_endpoints(self, rng):
        # acos near 1.0 costs ~sqrt(eps) of angular resolution, hence 1e-6
        q0, q1 = rand_quat(rng), rand_quat(rng)
        assert rotation_angle(slerp(q0, q1, 0.0), q0) == pytest.approx(0.0, abs=1e-6)
        assert rotation_angle(slerp(q0, q1, 1.0), q1) == pytest.approx(0.0, abs=1e-6)

    def test_midpoint_halves_the_angle(self):
        q0 = IDENTITY
        q1 = Quaternion.from_axis_angle((1, 0, 0), 1.0)
        mid = slerp(q0, q1, 0.5)
        assert rotation_angle(q0, mid) == pytest.approx(0.5, abs=1e-12)

    def test_shortest_path(self):
        # antipodal representation of the same small rotation must not take
        # the long way around
        q0 = IDENTITY
        q1 = Quaternion.from_axis_angle((0, 0, 1), 0.2)
        q1n = Quaternion(-q1.w, -q1.x, -q1.y, -q1.z)
        mid = slerp(q0, q1n, 0.5)
        assert rotation_angle(q0, mid) == pytest.approx(0.1, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    def test_angle_proportionality(self, s, seed):
        rng = np.random.default_rng(seed)
        q0, q1 = rand_quat(rng), rand_quat(rng)
        total = rotation_angle(q0, q1)
        part = rotation_angle(q0, slerp(q0, q1, s))
        assert part == pytest.approx(s * total, abs=1e-6)

    def test_rowwise_form_matches_the_scalar_one(self, rng):
        # random pairs, an antipodal pair, and an identical pair (nlerp path)
        q0 = [rand_quat(rng) for _ in range(30)]
        q1 = [rand_quat(rng) for _ in range(30)]
        q1[0] = Quaternion(-q0[0].w, -q0[0].x, -q0[0].y, -q0[0].z)
        q1[1] = q0[1]
        s = rng.uniform(0.0, 1.0, 30)
        s[2] = 0.0
        # each pair is a two-sample trace over [0, 1], so the lookup's
        # fraction at time s is s itself
        pairs = [np.array([[a.w, a.x, a.y, a.z], [b.w, b.x, b.y, b.z]]) for a, b in zip(q0, q1)]
        got = [TraceSet([0.0, 1.0], q).orientations_at(np.array([si]))[0] for q, si in zip(pairs, s)]
        for row, a, b, si in zip(got, q0, q1, s):
            want = slerp(a, b, si)
            assert np.allclose(row, [want.w, want.x, want.y, want.z], rtol=0.0, atol=1e-14)


class TestRotateIntoFrames:
    # the y and z components are rotate_inverse's bit for bit; x is not
    # formed, and is NaN, so that a read of it shows
    def test_rowwise_form_matches_rotate_inverse(self, rng):
        quats = [rand_quat(rng) for _ in range(20)]
        v = rng.normal(size=(20, 3))
        got = rotate_into_frames(np.array([[q.w, q.x, q.y, q.z] for q in quats]), v)
        assert np.isnan(got[:, 0]).all()
        for row, q, vi in zip(got, quats, v):
            assert np.array_equal(row[1:], q.rotate_inverse(vi)[1:])

    def test_one_frame_broadcasts_over_many_vectors(self, rng):
        q = rand_quat(rng)
        v = rng.normal(size=(5, 3))
        got = rotate_into_frames(np.array([q.w, q.x, q.y, q.z]), v)
        assert np.isnan(got[:, 0]).all()
        assert np.array_equal(got[:, 1:], [q.rotate_inverse(vi)[1:] for vi in v])


class TestDirection:
    def test_unit_vector_conventions(self):
        assert np.allclose(unit_vector(0.0, 0.0), [1, 0, 0])
        assert np.allclose(unit_vector(90.0, 0.0), [0, 1, 0], atol=1e-15)
        assert np.allclose(unit_vector(180.0, 0.0), [-1, 0, 0], atol=1e-15)
        assert np.allclose(unit_vector(0.0, 90.0), [0, 0, 1], atol=1e-15)
        assert np.allclose(unit_vector(0.0, -90.0), [0, 0, -1], atol=1e-15)

    def test_angle_to(self):
        a = unit_vector(0.0, 0.0)
        assert direction_angle(a, unit_vector(90.0, 0.0)) == pytest.approx(90.0)
        assert direction_angle(a, a) == pytest.approx(0.0, abs=1e-9)
        b = unit_vector(10.0, 20.0)
        assert direction_angle(b, a) == pytest.approx(direction_angle(a, b))


class TestPoseFrame:
    def test_overhead_source_is_at_the_zenith(self):
        pose = Pose(0.0, np.array([0.0, 0.0, 1.7]), IDENTITY)
        d = ap_direction_in_hmd_frame(pose, (0.0, 0.0, 10.0))
        assert math.degrees(math.asin(d[2])) == pytest.approx(90.0)

    def test_yaw_rotates_apparent_azimuth_backwards(self):
        # head yaws +90 deg about z; a source on the world +x axis appears
        # at local azimuth -90
        q = Quaternion.from_axis_angle((0, 0, 1), math.pi / 2)
        pose = Pose(0.0, np.zeros(3), q)
        d = ap_direction_in_hmd_frame(pose, (5.0, 0.0, 0.0))
        assert math.degrees(math.atan2(d[1], d[0])) == pytest.approx(-90.0, abs=1e-9)
        assert math.degrees(math.asin(d[2])) == pytest.approx(0.0, abs=1e-9)

    def test_coincident_positions_rejected(self):
        pose = Pose(0.0, np.array([1.0, 2.0, 3.0]), IDENTITY)
        with pytest.raises(ValueError):
            ap_direction_in_hmd_frame(pose, (1.0, 2.0, 3.0))


class TestPredictPose:
    HERE = np.array([1.0, 2.0, 1.7])
    END = 1.0  # the run's end, where the test trace ends

    @staticmethod
    def _trace(omega, horizon=0.1):
        """Yaw at a steady omega rad/s for 1 s, sampled every 10 ms, with a
        device column holding the orientation ``horizon`` seconds ahead."""
        t = np.linspace(0.0, 1.0, 101)

        def yaw(angle):
            return np.stack([np.cos(angle / 2), 0 * angle, 0 * angle, np.sin(angle / 2)], axis=1)

        return TraceSet(t, yaw(omega * t), yaw(omega * (t + horizon)), np.full(t.size, horizon))

    def _now(self, trace, t):
        return Pose(t, self.HERE, trace.orientation_at(t))

    # 0.05 s ahead, and a whole 1 s bf_interval epoch ahead, where the
    # 4 rad turn passes pi
    @pytest.mark.parametrize("horizon", [0.05, 1.0])
    def test_constant_velocity_extends_the_rotation(self, horizon):
        omega = 4.0  # rad/s
        trace = self._trace(omega)
        q_pred = predict_pose(self._now(trace, 0.5), horizon, "extrapolation", trace, self.END)
        # a yaw, read modulo the double cover's 2 pi
        yaw = 2.0 * math.atan2(q_pred.z, q_pred.w)
        assert q_pred.x == q_pred.y == 0.0
        assert math.remainder(yaw - omega * (0.5 + horizon), 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_extrapolation_turns_about_the_body_frame_axis(self, rng):
        # a tilted start turning at a steady rate about a body-frame axis,
        # q(t) = q0 * turn(omega t): a world-frame turn of the same gap would
        # leave this path, which the yaw from the identity cannot show
        q0 = Quaternion.from_axis_angle(rng.normal(size=3), 1.1)
        axis, omega = rng.normal(size=3), 3.0
        t = np.linspace(0.0, 1.0, 101)
        turns = [compose(q0, Quaternion.from_axis_angle(axis, omega * ti)) for ti in t]
        trace = TraceSet(t, np.array([(q.w, q.x, q.y, q.z) for q in turns]))
        for horizon in (0.05, 0.4):
            q_pred = predict_pose(self._now(trace, 0.5), horizon, "extrapolation", trace, self.END)
            expect = compose(q0, Quaternion.from_axis_angle(axis, omega * (0.5 + horizon)))
            # componentwise, up to the double cover's sign: rotation_angle
            # reads ~3e-8 rad between a quaternion and itself
            got = np.array([q_pred.w, q_pred.x, q_pred.y, q_pred.z])
            want = np.array([expect.w, expect.x, expect.y, expect.z])
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-11

    def test_single_sample_history_holds_still(self):
        # at t = 0 there is no past orientation to estimate a velocity from
        trace = self._trace(2.0)
        now = self._now(trace, 0.0)
        assert predict_pose(now, 0.1, "extrapolation", trace, self.END) == now.orientation

    def test_extrapolation_holds_a_static_head_exactly(self):
        # the identity at both samples, whose normalized lerp is the
        # identity exactly
        trace = static_trace(self.END)
        for t in (0.05, 0.5, self.END):
            q_pred = predict_pose(self._now(trace, t), 0.1, "extrapolation", trace, self.END)
            assert (q_pred.w, q_pred.x, q_pred.y, q_pred.z) == (1.0, 0.0, 0.0, 0.0)

    def test_zero_horizon_is_identity(self):
        # the slerp at s = 1 is the current orientation bit for bit
        trace = self._trace(1.0)
        now = self._now(trace, 0.3)
        assert predict_pose(now, 0.0, "extrapolation", trace, self.END) == now.orientation

    def test_each_mode_reads_its_orientation(self):
        omega = 2.0
        trace = self._trace(omega)
        now = self._now(trace, 0.5)

        def yaw_of(mode):
            q = predict_pose(now, 0.05, mode, trace, self.END)
            return 2.0 * math.atan2(q.z, q.w)

        assert predict_pose(now, 0.05, "none", trace, self.END) == now.orientation
        # the recorded column whatever the horizon asked for
        assert yaw_of("device") == pytest.approx(omega * (0.5 + 0.1), abs=1e-12)
        assert yaw_of("oracle") == pytest.approx(omega * (0.5 + 0.05), abs=1e-12)
        assert all(isinstance(predict_pose(now, 0.05, mode, trace, self.END), Quaternion) for mode in PREDICTION_MODES)

    def test_oracle_reads_no_later_than_the_run_end(self):
        # in the last epoch t + horizon passes the run's end, where the
        # trace ends; read there, the lookup wrapped to t = 0.05
        omega = 2.0
        trace = self._trace(omega)
        for t in (0.95, 1.0 - 2**-40, 1.0):
            q = predict_pose(self._now(trace, t), 0.1, "oracle", trace, self.END)
            assert 2.0 * math.atan2(q.z, q.w) == pytest.approx(omega * self.END, abs=1e-12)

    def test_oracle_past_a_short_recorded_trace_reads_what_the_link_sees(self, tmp_path):
        # a recorded 1 s trace drives a 3 s run and wraps; the oracle reads
        # the orientation that the link (Link.snr_at) takes at the
        # predicted instant, clamped to the run's end
        path = tmp_path / "short.csv"
        save_trace(path, self._trace(2.0))
        trace = load_trace(path)
        for t, horizon, read_at, yaw in ((0.95, 0.1, 1.05, 0.1), (2.95, 0.1, 3.0, 0.0)):
            q = predict_pose(self._now(trace, t), horizon, "oracle", trace, 3.0)
            assert q == Quaternion(*trace.orientations_at(np.array([read_at]))[0].tolist())
            assert 2.0 * math.atan2(q.z, q.w) == pytest.approx(yaw, abs=1e-12)

    @pytest.mark.parametrize("mode", ["constant_velocity", "kalman"])
    def test_unknown_mode_is_rejected(self, mode):
        trace = self._trace(2.0)
        with pytest.raises(ValueError, match="unknown prediction mode"):
            predict_pose(self._now(trace, 0.5), 0.05, mode, trace, self.END)
