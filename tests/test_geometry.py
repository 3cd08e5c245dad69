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
    slerp,
    slerp_arrays,
    unit_vector,
)
from xrsim.config import PREDICTION_MODES
from xrsim.mobility import TraceSet, load_trace, save_trace

from angles import direction_angle, rotation_angle


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
        assert np.allclose(Quaternion.identity().rotate(v), v)

    def test_axis_angle_matches_matrix(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            angle = rng.uniform(-math.pi, math.pi)
            q = Quaternion.from_axis_angle(axis, angle)
            m = rotation_matrix(axis, angle)
            v = rng.normal(size=3)
            assert np.allclose(q.rotate(v), m @ v, atol=1e-12)

    def test_composition_matches_matrix_product(self, rng):
        for _ in range(20):
            a1, a2 = rng.normal(size=3), rng.normal(size=3)
            t1, t2 = rng.uniform(-3, 3, 2)
            q = Quaternion.from_axis_angle(a1, t1) * Quaternion.from_axis_angle(a2, t2)
            m = rotation_matrix(a1, t1) @ rotation_matrix(a2, t2)
            v = rng.normal(size=3)
            assert np.allclose(q.rotate(v), m @ v, atol=1e-12)

    def test_axis_angle_round_trip(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            angle = rng.uniform(0.01, math.pi - 0.01)
            q = Quaternion.from_axis_angle(axis, angle)
            got_axis, got_angle = q.to_axis_angle()
            assert got_angle == pytest.approx(angle, abs=1e-12)
            assert np.allclose(got_axis, axis / np.linalg.norm(axis), atol=1e-9)

    def test_rotate_inverse_undoes_rotate(self, rng):
        q = rand_quat(rng)
        v = rng.normal(size=3)
        assert np.allclose(q.rotate_inverse(q.rotate(v)), v, atol=1e-12)

    def test_conjugate_is_inverse_for_unit(self, rng):
        q = rand_quat(rng)
        qq = q * q.conjugate()
        assert rotation_angle(qq, Quaternion.identity()) == pytest.approx(0.0, abs=1e-9)

    def test_canonicalized_keeps_rotation(self, rng):
        q = rand_quat(rng)
        neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert neg.canonicalized().w >= 0.0
        assert rotation_angle(neg, q) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_angle_to(self):
        q0 = Quaternion.identity()
        q1 = Quaternion.from_axis_angle((0, 0, 1), 0.7)
        assert rotation_angle(q0, q1) == pytest.approx(0.7, abs=1e-12)


class TestSlerp:
    def test_endpoints(self, rng):
        # acos near 1.0 costs ~sqrt(eps) of angular resolution, hence 1e-6
        q0, q1 = rand_quat(rng), rand_quat(rng)
        assert rotation_angle(slerp(q0, q1, 0.0), q0) == pytest.approx(0.0, abs=1e-6)
        assert rotation_angle(slerp(q0, q1, 1.0), q1) == pytest.approx(0.0, abs=1e-6)

    def test_midpoint_halves_the_angle(self):
        q0 = Quaternion.identity()
        q1 = Quaternion.from_axis_angle((1, 0, 0), 1.0)
        mid = slerp(q0, q1, 0.5)
        assert rotation_angle(q0, mid) == pytest.approx(0.5, abs=1e-12)

    def test_shortest_path(self):
        # antipodal representation of the same small rotation must not take
        # the long way around
        q0 = Quaternion.identity()
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
        got = slerp_arrays(
            np.array([[q.w, q.x, q.y, q.z] for q in q0]),
            np.array([[q.w, q.x, q.y, q.z] for q in q1]),
            s,
        )
        for row, a, b, si in zip(got, q0, q1, s):
            want = slerp(a, b, si)
            assert np.allclose(row, [want.w, want.x, want.y, want.z], rtol=0.0, atol=1e-14)


class TestRotateIntoFrames:
    def test_rowwise_form_matches_rotate_inverse(self, rng):
        quats = [rand_quat(rng) for _ in range(20)]
        v = rng.normal(size=(20, 3))
        got = rotate_into_frames(np.array([[q.w, q.x, q.y, q.z] for q in quats]), v)
        for row, q, vi in zip(got, quats, v):
            assert np.array_equal(row, q.rotate_inverse(vi))

    def test_one_frame_broadcasts_over_many_vectors(self, rng):
        q = rand_quat(rng)
        v = rng.normal(size=(5, 3))
        got = rotate_into_frames(np.array([q.w, q.x, q.y, q.z]), v)
        assert np.array_equal(got, [q.rotate_inverse(vi) for vi in v])


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
        pose = Pose(0.0, np.array([0.0, 0.0, 1.7]), Quaternion.identity())
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
        pose = Pose(0.0, np.array([1.0, 2.0, 3.0]), Quaternion.identity())
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

    def test_constant_velocity_extends_the_rotation(self):
        omega = 2.0  # rad/s
        trace = self._trace(omega)
        q_pred = predict_pose(self._now(trace, 0.5), 0.05, "extrapolation", trace, self.END)
        expect = Quaternion.from_axis_angle((0, 0, 1), omega * (0.5 + 0.05))
        assert rotation_angle(q_pred, expect) == pytest.approx(0.0, abs=1e-9)

    def test_single_sample_history_holds_still(self):
        # at t = 0 there is no past orientation to estimate a velocity from
        trace = self._trace(2.0)
        now = self._now(trace, 0.0)
        assert predict_pose(now, 0.1, "extrapolation", trace, self.END) == now.orientation

    def test_zero_horizon_is_identity(self):
        trace = self._trace(1.0)
        now = self._now(trace, 0.3)
        q_pred = predict_pose(now, 0.0, "extrapolation", trace, self.END)
        assert rotation_angle(q_pred, now.orientation) == pytest.approx(0.0, abs=1e-9)

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
        # the orientation that the link (Simulator.snr_at) takes at the
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
