"""Sub-array planning, phase-offset alignment and composite beam coverage."""

import cmath
import math

import numpy as np
import pytest

from xrsim.antenna import ArrayGeometry, AwvEvaluator, gain_db, steering_phases
from xrsim.codebook import cached_quasi_omni
from xrsim.covrage import (
    K_MAX,
    SubArrayPlan,
    choose_block_count,
    covrage_beam,
    plan_subarrays,
    plan_with_k,
    subarray_beamwidth_deg,
    synthesize_awv,
    trajectory_from_poses,
)
from xrsim.geometry import Pose, Quaternion

from angles import direction_angle
from fields import block_field

AP = (0.0, 0.0, 10.0)
HERE = np.array([1.0, 0.5, 1.7])


def make_trajectory(seed, span_lo, span_hi):
    rng = np.random.default_rng(seed)
    ax = rng.normal(size=3)
    ax /= np.linalg.norm(ax)
    q0 = Quaternion.from_axis_angle(ax, rng.uniform(0.0, 0.3))
    ax2 = rng.normal(size=3)
    ax2 /= np.linalg.norm(ax2)
    ang = math.radians(rng.uniform(span_lo, span_hi))
    q1 = (Quaternion.from_axis_angle(ax2, ang) * q0).normalized()
    return trajectory_from_poses(Pose(0.0, HERE, q0), Pose(0.1, HERE, q1), AP)


class TestTrajectory:
    def test_endpoints_contained(self):
        traj = make_trajectory(3, 10.0, 30.0)
        p0 = Pose(0.0, HERE, Quaternion.identity())
        start = traj.direction_at(0.0)
        end = traj.direction_at(1.0)
        assert direction_angle(start, traj.direction_at(1e-9)) < 1e-6
        assert direction_angle(end, traj.direction_at(1.0 - 1e-9)) < 1e-6

    def test_span_matches_the_rotation(self):
        q0 = Quaternion.identity()
        q1 = Quaternion.from_axis_angle((0, 0, 1), math.radians(20.0))
        traj = trajectory_from_poses(Pose(0.0, HERE, q0), Pose(0.1, HERE, q1), AP)
        d0, d1 = traj.direction_at(0.0), traj.direction_at(1.0)
        assert traj.span_deg == pytest.approx(direction_angle(d0, d1), abs=1e-9)
        assert traj.span_deg <= 20.0 + 1e-6

    def test_static_pose_spans_nothing(self):
        q = Quaternion.from_axis_angle((0, 1, 0), 0.2)
        traj = trajectory_from_poses(Pose(0.0, HERE, q), Pose(0.1, HERE, q), AP)
        # acos between near-identical unit vectors keeps ~1e-6 deg of noise
        assert traj.span_deg == pytest.approx(0.0, abs=1e-5)


class TestBlockCount:
    def test_frozen_examples(self):
        # 64 half-wavelength columns, 40 deg span: the width rule ratchets
        # 1 -> 8 and saturates at the cap
        assert choose_block_count(64, 0.5, 40.0) == 8
        assert choose_block_count(64, 0.5, 0.0) == 1
        assert choose_block_count(64, 0.5, 1e-6) == 1
        assert choose_block_count(64, 0.5, 180.0) == K_MAX
        assert choose_block_count(8, 0.5, 5.0) == 1
        # two columns: 120 deg is three 50.8 deg widths of the whole array,
        # but two blocks are all two columns can hold
        assert choose_block_count(2, 0.5, 120.0) == 2

    def test_monotone_in_span(self):
        prev = 0
        for span in np.linspace(0.0, 60.0, 61):
            k = choose_block_count(64, 0.5, float(span))
            assert k >= prev
            prev = k

    @pytest.mark.parametrize("cols", range(1, 9))
    def test_never_more_blocks_than_columns(self, cols):
        g = ArrayGeometry(2, cols)
        traj = make_trajectory(2, 5.0, 20.0)
        for span in np.linspace(0.0, 180.0, 361):
            k = choose_block_count(cols, 0.5, float(span))
            assert 1 <= k <= min(K_MAX, cols)
            assert plan_with_k(g, traj, k).k == k

    def test_beamwidth_shrinks_with_aperture(self):
        assert subarray_beamwidth_deg(8, 0.5) > subarray_beamwidth_deg(64, 0.5)


class TestPlan:
    def test_equal_blocks_and_s_grid(self):
        g = ArrayGeometry(64, 64)
        traj = make_trajectory(11, 20.0, 40.0)
        plan = plan_with_k(g, traj, 4)
        assert plan.blocks == ((0, 16), (16, 32), (32, 48), (48, 64))
        for i, target in enumerate(plan.targets):
            assert direction_angle(target, traj.direction_at((i + 0.5) / 4)) < 1e-9
        for i, cross in enumerate(plan.crossovers, start=1):
            assert direction_angle(cross, traj.direction_at(i / 4)) < 1e-9

    def test_remainder_columns_go_to_the_last_block(self):
        g = ArrayGeometry(4, 10)
        plan = plan_with_k(g, make_trajectory(2, 5.0, 20.0), 3)
        assert plan.blocks == ((0, 3), (3, 6), (6, 10))

    def test_block_count_bounds(self):
        g = ArrayGeometry(4, 4)
        with pytest.raises(ValueError):
            plan_with_k(g, make_trajectory(2, 5.0, 20.0), 5)

    def test_inconsistent_plan_rejected(self):
        with pytest.raises(ValueError):
            SubArrayPlan(((0, 2), (2, 4)), (), (), (0.0, 0.0))


def oracle_offsets(g, plan):
    """The plan's alignment offsets, from block fields summed element by
    element over the blocks' steering phases."""
    pos = g.element_positions()
    steers = [steering_phases(g, t).phases for t in plan.targets]
    offsets = [0.0]
    for i in range(1, plan.k):
        cross = plan.crossovers[i - 1]
        acc = sum(
            block_field(g, pos, plan.blocks[j], steers[j], cross) * cmath.exp(1j * offsets[j]) for j in range(i)
        )
        own = block_field(g, pos, plan.blocks[i], steers[i], cross)
        offsets.append(0.0 if min(abs(acc), abs(own)) < 1e-15 else cmath.phase(acc) - cmath.phase(own))
    return offsets


class TestSynthesis:
    @pytest.mark.parametrize("shape", [(64, 64), (8, 8), (5, 7), (16, 16), (1, 9)])
    @pytest.mark.parametrize("spacing", [0.5, 1.0])
    def test_offsets_match_the_per_element_oracle(self, shape, spacing):
        g = ArrayGeometry(*shape, spacing_wavelengths=spacing)
        for seed in range(4):
            traj = make_trajectory(200 + seed, 10.0, 80.0)
            for k in range(1, min(K_MAX, g.cols) + 1):
                plan = plan_with_k(g, traj, k)
                diff = np.angle(np.exp(1j * (np.array(plan.offsets) - oracle_offsets(g, plan))))
                assert np.max(np.abs(diff)) <= 1e-9, (seed, k)

    def test_k1_is_plain_steering(self):
        g = ArrayGeometry(64, 64)
        for seed in range(5):
            traj = make_trajectory(seed, 3.0, 30.0)
            plan = plan_with_k(g, traj, 1)
            awv = synthesize_awv(g, plan)
            expect = steering_phases(g, traj.direction_at(0.5))
            assert plan.offsets == (0.0,)
            assert np.allclose(awv.phases, expect.phases, atol=1e-12)

    def test_aligned_blocks_add_up_at_their_crossover(self):
        # each block's offset phase-aligns it with the accumulated field of
        # the earlier blocks, so joining can only grow the magnitude there
        g = ArrayGeometry(64, 64)
        zero_offset_drops = 0
        for seed in range(20):
            traj = make_trajectory(100 + seed, 5.0, 40.0)
            plan = plan_subarrays(g, traj)
            if plan.k < 2:
                continue
            steers = [steering_phases(g, t).phases for t in plan.targets]
            pos = g.element_positions()
            for idx in range(1, plan.k):
                cross = plan.crossovers[idx - 1]
                acc = sum(
                    block_field(g, pos, plan.blocks[j], steers[j], cross)
                    * cmath.exp(1j * plan.offsets[j])
                    for j in range(idx)
                )
                own = block_field(g, pos, plan.blocks[idx], steers[idx], cross) * cmath.exp(
                    1j * plan.offsets[idx]
                )
                assert abs(acc + own) >= abs(acc) - 1e-9
                acc0 = sum(block_field(g, pos, plan.blocks[j], steers[j], cross) for j in range(idx))
                own0 = block_field(g, pos, plan.blocks[idx], steers[idx], cross)
                if abs(acc0 + own0) < abs(acc0) - 1e-9:
                    zero_offset_drops += 1
        # without the offsets some joins interfere destructively
        assert zero_offset_drops > 0

    def test_peak_gain_degrades_with_block_count(self):
        g = ArrayGeometry(64, 64)
        traj = make_trajectory(7, 35.0, 40.0)
        floors = []
        for k in (1, 2, 4, 8):
            awv = synthesize_awv(g, plan_with_k(g, traj, k))
            plan = plan_with_k(g, traj, k)
            floors.append(min(gain_db(g, awv, t) for t in plan.targets))
        assert floors[0] == pytest.approx(36.1236, abs=0.01)
        assert floors[0] > floors[1] > floors[2] > floors[3]

    def test_trajectory_floor_beats_quasi_omni(self):
        # moderate spans: every direction along the path stays well above the
        # best quasi-omni gain on the same path
        g = ArrayGeometry(64, 64)
        qo = AwvEvaluator(g, cached_quasi_omni(g))
        for seed in range(3):
            traj = make_trajectory(200 + seed, 3.0, 15.0)
            awv = synthesize_awv(g, plan_subarrays(g, traj))
            ev = AwvEvaluator(g, awv)
            dirs = [traj.direction_at(s) for s in np.linspace(0.0, 1.0, 101)]
            floor = min(ev.gain_db(d) for d in dirs)
            qo_best = max(qo.gain_db(d) for d in dirs)
            assert floor >= qo_best + 10.0

    def test_symmetric_trajectory_balances_endpoint_gains(self):
        g = ArrayGeometry(64, 64)
        q0 = Quaternion.from_axis_angle((0, 0, 1), math.radians(-8.0))
        q1 = Quaternion.from_axis_angle((0, 0, 1), math.radians(8.0))
        pos = np.array([0.0, 0.0, 1.7])
        traj = trajectory_from_poses(Pose(0.0, pos, q0), Pose(0.1, pos, q1), AP)
        awv = synthesize_awv(g, plan_subarrays(g, traj))
        g0 = gain_db(g, awv, traj.direction_at(0.0))
        g1 = gain_db(g, awv, traj.direction_at(1.0))
        assert g0 == pytest.approx(g1, abs=0.1)


class TestCovrageBeam:
    def test_static_prediction_degenerates_to_steering(self):
        g = ArrayGeometry(64, 64)
        pose = Pose(0.0, HERE, Quaternion.from_axis_angle((0, 1, 0), 0.1))
        awv = covrage_beam(g, pose, pose, AP)
        from xrsim.geometry import ap_direction_in_hmd_frame

        aim = ap_direction_in_hmd_frame(pose, AP)
        assert np.allclose(awv.phases, steering_phases(g, aim).phases, atol=1e-12)
        assert gain_db(g, awv, aim) == pytest.approx(36.1236, abs=0.01)

    def test_matches_the_planning_pipeline(self):
        g = ArrayGeometry(64, 64)
        q0 = Quaternion.identity()
        q1 = Quaternion.from_axis_angle((0, 0, 1), math.radians(12.0))
        now, pred = Pose(0.0, HERE, q0), Pose(0.1, HERE, q1)
        direct = covrage_beam(g, now, pred, AP)
        plan = plan_subarrays(g, trajectory_from_poses(now, pred, AP))
        assert np.allclose(direct.phases, synthesize_awv(g, plan).phases, atol=1e-12)

    def test_predicted_position_is_not_read(self):
        # the beam follows the predicted orientation from the current
        # position, which is why predict_pose holds the position
        g = ArrayGeometry(64, 64)
        now = Pose(0.0, HERE, Quaternion.identity())
        q_pred = Quaternion.from_axis_angle((0, 0, 1), math.radians(25.0))
        a = covrage_beam(g, now, Pose(0.1, HERE, q_pred), AP)
        b = covrage_beam(g, now, Pose(0.1, HERE + np.array([2.0, -1.5, 0.3]), q_pred), AP)
        assert np.array_equal(a.phases, b.phases)

    def test_arc_wider_than_two_columns_can_split(self):
        # a 150 deg yaw with the AP level with the headset sweeps a 150 deg arc
        g = ArrayGeometry(8, 2)
        ap_ahead = HERE + np.array([5.0, 0.0, 0.0])
        now = Pose(0.0, HERE, Quaternion.identity())
        pred = Pose(1.0, HERE, Quaternion.from_axis_angle((0, 0, 1), math.radians(150.0)))
        plan = plan_subarrays(g, trajectory_from_poses(now, pred, ap_ahead))
        assert plan.blocks == ((0, 1), (1, 2))
        assert covrage_beam(g, now, pred, ap_ahead).n_elements == 16

    def test_deterministic(self):
        g = ArrayGeometry(64, 64)
        now = Pose(0.0, HERE, Quaternion.identity())
        pred = Pose(0.1, HERE, Quaternion.from_axis_angle((1, 0, 0), 0.2))
        a = covrage_beam(g, now, pred, AP)
        b = covrage_beam(g, now, pred, AP)
        assert np.array_equal(a.phases, b.phases)
