"""Sub-array planning, phase-offset alignment and composite beam coverage."""

import cmath
import hashlib
import math

import numpy as np
import pytest

from xrsim import antenna, covrage
from xrsim.antenna import ArrayGeometry, AwvEvaluator, SteeredBlock, gain_db, steered_awv, steering_phases
from xrsim.codebook import cached_quasi_omni
from xrsim.covrage import (
    K_MAX,
    choose_block_count,
    covrage_beam,
    plan_with_k,
    subarray_beamwidth_deg,
    trajectory_from_poses,
)
from xrsim.geometry import Pose, Quaternion

from angles import direction_angle
from fields import block_field
from rotations import IDENTITY, compose, direction_at, normalized

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
    q1 = normalized(compose(Quaternion.from_axis_angle(ax2, ang), q0))
    return trajectory_from_poses(Pose(0.0, HERE, q0), q1, AP)


def chosen_k(g, traj):
    return choose_block_count(g.cols, g.spacing_wavelengths, traj.span_deg)


def column_blocks(blocks):
    return [(b.c0, b.c1) for b in blocks]


class TestTrajectory:
    def test_endpoints_contained(self):
        traj = make_trajectory(3, 10.0, 30.0)
        p0 = Pose(0.0, HERE, IDENTITY)
        start = direction_at(traj, 0.0)
        end = direction_at(traj, 1.0)
        assert direction_angle(start, direction_at(traj, 1e-9)) < 1e-6
        assert direction_angle(end, direction_at(traj, 1.0 - 1e-9)) < 1e-6

    def test_span_matches_the_rotation(self):
        q0 = IDENTITY
        q1 = Quaternion.from_axis_angle((0, 0, 1), math.radians(20.0))
        traj = trajectory_from_poses(Pose(0.0, HERE, q0), q1, AP)
        d0, d1 = direction_at(traj, 0.0), direction_at(traj, 1.0)
        assert traj.span_deg == pytest.approx(direction_angle(d0, d1), abs=1e-9)
        assert traj.span_deg <= 20.0 + 1e-6

    def test_static_pose_spans_nothing(self):
        q = Quaternion.from_axis_angle((0, 1, 0), 0.2)
        traj = trajectory_from_poses(Pose(0.0, HERE, q), q, AP)
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
            assert len(plan_with_k(g, traj, k)) == k

    def test_beamwidth_shrinks_with_aperture(self):
        assert subarray_beamwidth_deg(8, 0.5) > subarray_beamwidth_deg(64, 0.5)


class TestPlan:
    def test_equal_blocks_and_s_grid(self):
        g = ArrayGeometry(64, 64)
        traj = make_trajectory(11, 20.0, 40.0)
        blocks = plan_with_k(g, traj, 4)
        assert column_blocks(blocks) == [(0, 16), (16, 32), (32, 48), (48, 64)]
        for i, b in enumerate(blocks):
            target = direction_at(traj, (i + 0.5) / 4)
            assert (b.ty, b.tz) == (float(target[1]), float(target[2]))
        # the offsets align the blocks at the crossovers s = i / 4
        diff = np.angle(np.exp(1j * (np.array([b.offset for b in blocks]) - oracle_offsets(g, traj, blocks))))
        assert np.max(np.abs(diff)) <= 1e-9

    def test_remainder_columns_go_to_the_last_block(self):
        g = ArrayGeometry(4, 10)
        blocks = plan_with_k(g, make_trajectory(2, 5.0, 20.0), 3)
        assert column_blocks(blocks) == [(0, 3), (3, 6), (6, 10)]

    def test_a_perfect_null_at_the_crossover_keeps_offset_zero(self):
        # two rows at half-wavelength spacing, blocks steered at t_z = 0 and a
        # crossover straight up: the row factor is D_2(pi) = sin pi, about
        # 1.2e-16, so neither field has a phase to align
        g = ArrayGeometry(2, 4)
        layout = antenna.block_layout(g, [SteeredBlock(0, 2, 0.0, 0.0, 0.0), SteeredBlock(2, 4, 0.3, 0.0, 0.0)])
        up = np.array([[0.0, 0.0, 1.0]])
        assert 0.0 < np.abs(antenna.block_fields(g, layout, up)).max() < antenna._NULL_FIELD
        assert covrage._alignment_offsets(g, layout, up) == [0.0, 0.0]
        # off the null the second block is turned
        assert covrage._alignment_offsets(g, layout, np.array([[0.0, 0.6, 0.8]]))[1] != 0.0

    def test_block_count_bounds(self):
        g = ArrayGeometry(4, 4)
        with pytest.raises(ValueError):
            plan_with_k(g, make_trajectory(2, 5.0, 20.0), 5)


def block_steers(g, traj, k):
    """Each block's steering phases over the whole array, toward its target
    s = (i + 0.5) / k on the trajectory."""
    return [steering_phases(g, direction_at(traj, (i + 0.5) / k)).phases for i in range(k)]


def oracle_offsets(g, traj, blocks):
    """The blocks' alignment offsets at the crossovers s = i / k, from block
    fields summed element by element over the blocks' steering phases."""
    k = len(blocks)
    pos = g.element_positions()
    steers = block_steers(g, traj, k)
    offsets = [0.0]
    for i in range(1, k):
        cross = direction_at(traj, i / k)
        acc = sum(block_field(g, pos, blocks[j], steers[j], cross) * cmath.exp(1j * offsets[j]) for j in range(i))
        own = block_field(g, pos, blocks[i], steers[i], cross)
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
                blocks = plan_with_k(g, traj, k)
                diff = np.angle(np.exp(1j * (np.array([b.offset for b in blocks]) - oracle_offsets(g, traj, blocks))))
                assert np.max(np.abs(diff)) <= 1e-9, (seed, k)

    def test_k1_is_plain_steering(self):
        g = ArrayGeometry(64, 64)
        for seed in range(5):
            traj = make_trajectory(seed, 3.0, 30.0)
            blocks = plan_with_k(g, traj, 1)
            awv = steered_awv(g, blocks)
            expect = steering_phases(g, direction_at(traj, 0.5))
            assert tuple(b.offset for b in blocks) == (0.0,)
            assert np.allclose(awv.phases, expect.phases, atol=1e-12)

    def test_aligned_blocks_add_up_at_their_crossover(self):
        # each block's offset phase-aligns it with the accumulated field of
        # the earlier blocks, so joining can only grow the magnitude there
        g = ArrayGeometry(64, 64)
        zero_offset_drops = 0
        for seed in range(20):
            traj = make_trajectory(100 + seed, 5.0, 40.0)
            k = chosen_k(g, traj)
            if k < 2:
                continue
            blocks = plan_with_k(g, traj, k)
            steers = block_steers(g, traj, k)
            pos = g.element_positions()
            for idx in range(1, k):
                cross = direction_at(traj, idx / k)
                acc = sum(
                    block_field(g, pos, blocks[j], steers[j], cross) * cmath.exp(1j * blocks[j].offset)
                    for j in range(idx)
                )
                own = block_field(g, pos, blocks[idx], steers[idx], cross) * cmath.exp(1j * blocks[idx].offset)
                assert abs(acc + own) >= abs(acc) - 1e-9
                acc0 = sum(block_field(g, pos, blocks[j], steers[j], cross) for j in range(idx))
                own0 = block_field(g, pos, blocks[idx], steers[idx], cross)
                if abs(acc0 + own0) < abs(acc0) - 1e-9:
                    zero_offset_drops += 1
        # without the offsets some joins interfere destructively
        assert zero_offset_drops > 0

    def test_peak_gain_degrades_with_block_count(self):
        g = ArrayGeometry(64, 64)
        traj = make_trajectory(7, 35.0, 40.0)
        floors = []
        for k in (1, 2, 4, 8):
            awv = steered_awv(g, plan_with_k(g, traj, k))
            floors.append(min(gain_db(g, awv.phases, direction_at(traj, (i + 0.5) / k)) for i in range(k)))
        assert floors[0] == pytest.approx(36.1236, abs=0.01)
        assert floors[0] > floors[1] > floors[2] > floors[3]

    def test_trajectory_floor_beats_quasi_omni(self):
        # moderate spans: every direction along the path stays well above the
        # best quasi-omni gain on the same path
        g = ArrayGeometry(64, 64)
        qo = AwvEvaluator(g, cached_quasi_omni(g))
        for seed in range(3):
            traj = make_trajectory(200 + seed, 3.0, 15.0)
            awv = steered_awv(g, plan_with_k(g, traj, chosen_k(g, traj)))
            ev = AwvEvaluator(g, awv)
            dirs = [direction_at(traj, s) for s in np.linspace(0.0, 1.0, 101)]
            floor = min(ev.gain_db(d) for d in dirs)
            qo_best = max(qo.gain_db(d) for d in dirs)
            assert floor >= qo_best + 10.0

    def test_symmetric_trajectory_balances_endpoint_gains(self):
        g = ArrayGeometry(64, 64)
        q0 = Quaternion.from_axis_angle((0, 0, 1), math.radians(-8.0))
        q1 = Quaternion.from_axis_angle((0, 0, 1), math.radians(8.0))
        pos = np.array([0.0, 0.0, 1.7])
        traj = trajectory_from_poses(Pose(0.0, pos, q0), q1, AP)
        awv = steered_awv(g, plan_with_k(g, traj, chosen_k(g, traj)))
        g0 = gain_db(g, awv.phases, direction_at(traj, 0.0))
        g1 = gain_db(g, awv.phases, direction_at(traj, 1.0))
        assert g0 == pytest.approx(g1, abs=0.1)


class TestOnePassPlan:
    def test_directions_are_direction_at_bit_for_bit(self):
        # one slerp set-up serves every s, in floats, near parallel too
        for traj in (make_trajectory(3, 5.0, 40.0), make_trajectory(4, 0.0, 1e-6)):
            ss = [0.0, 1.0 / 16, 0.25, 0.5, 0.9, 1.0]
            assert traj.directions(ss) == [tuple(direction_at(traj, s).tolist()) for s in ss]

    def test_one_block_computes_no_crossover_field(self, monkeypatch):
        calls = []
        fields = covrage.block_fields
        monkeypatch.setattr(covrage, "block_fields", lambda *a: calls.append(a) or fields(*a))
        g = ArrayGeometry(64, 64)
        traj = make_trajectory(2, 5.0, 20.0)
        assert plan_with_k(g, traj, 1)[0].offset == 0.0
        assert calls == []
        plan_with_k(g, traj, 3)
        assert len(calls) == 1 and len(calls[0][2]) == 2


class TestCovrageBeam:
    def test_static_prediction_degenerates_to_steering(self):
        g = ArrayGeometry(64, 64)
        pose = Pose(0.0, HERE, Quaternion.from_axis_angle((0, 1, 0), 0.1))
        awv = covrage_beam(g, pose, pose.orientation, AP)
        from xrsim.geometry import ap_direction_in_hmd_frame

        aim = ap_direction_in_hmd_frame(pose, AP)
        assert np.allclose(awv.phases, steering_phases(g, aim).phases, atol=1e-12)
        assert gain_db(g, awv.phases, aim) == pytest.approx(36.1236, abs=0.01)

    def test_matches_the_planning_pipeline(self):
        g = ArrayGeometry(64, 64)
        q0 = IDENTITY
        q1 = Quaternion.from_axis_angle((0, 0, 1), math.radians(12.0))
        now = Pose(0.0, HERE, q0)
        direct = covrage_beam(g, now, q1, AP)
        traj = trajectory_from_poses(now, q1, AP)
        blocks = plan_with_k(g, traj, chosen_k(g, traj))
        assert np.allclose(direct.phases, steered_awv(g, blocks).phases, atol=1e-12)

    def test_arc_wider_than_two_columns_can_split(self):
        # a 150 deg yaw with the AP level with the headset sweeps a 150 deg arc
        g = ArrayGeometry(8, 2)
        ap_ahead = HERE + np.array([5.0, 0.0, 0.0])
        now = Pose(0.0, HERE, IDENTITY)
        q_pred = Quaternion.from_axis_angle((0, 0, 1), math.radians(150.0))
        traj = trajectory_from_poses(now, q_pred, ap_ahead)
        assert column_blocks(plan_with_k(g, traj, chosen_k(g, traj))) == [(0, 1), (1, 2)]
        assert covrage_beam(g, now, q_pred, ap_ahead).phases.shape == (16,)

    def test_deterministic(self):
        g = ArrayGeometry(64, 64)
        now = Pose(0.0, HERE, IDENTITY)
        q_pred = Quaternion.from_axis_angle((1, 0, 0), 0.2)
        a = covrage_beam(g, now, q_pred, AP)
        b = covrage_beam(g, now, q_pred, AP)
        assert np.array_equal(a.phases, b.phases)


# SHA-256 of the phases of beams whose poses give each block count: a yaw
# of the predicted orientation away from a tilted headset, with the AP level
# ahead of it, on a 64x64 array and, for the 150 deg arc, on two columns.
# Re-pinned when the block targets stopped passing through azimuth and
# elevation: that round trip rounded them, and the phases moved by at most
# 7.1e-15 rad.
PHASE_DIGESTS = {
    ((64, 64), 1.0, 1): "d034bcd88d9d5695128f0937d924ff08104cbe4d9aaf60afc499fdf46fe07301",
    ((64, 64), 2.5, 2): "64f6d5d1113db357e3624a4708671dbd3b935df277ce96f5d46d0c73009ac3fa",
    ((64, 64), 7.0, 5): "141fe55d985a302b75d8ca27263d19fd4a8d88f6af8980ff8c3764c743f37477",
    ((64, 64), 20.0, 8): "d759b8ff07980515a7341c639a014946f9bba5c4461ef873d1b3e120bae4f36e",
    ((8, 2), 150.0, 2): "9ff3b0473caa14defcad9853f1edc4ff673428ff5280dce957bfb5996181f1ea",
}


@pytest.mark.parametrize("shape, yaw_deg, k", PHASE_DIGESTS)
def test_phase_digests(shape, yaw_deg, k):
    g = ArrayGeometry(*shape)
    tilt = Quaternion.from_axis_angle((1, 1, 0), 0.1)
    now = Pose(0.0, HERE, tilt)
    q_pred = normalized(compose(Quaternion.from_axis_angle((0, 0, 1), math.radians(yaw_deg)), tilt))
    awv = covrage_beam(g, now, q_pred, HERE + np.array([5.0, 0.0, 0.0]))
    assert len(awv.blocks) == k
    assert hashlib.sha256(awv.phases.tobytes()).hexdigest() == PHASE_DIGESTS[shape, yaw_deg, k]
