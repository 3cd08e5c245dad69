"""What a link batch leaves out, and why no outcome can see it.

The kernel forms each end's direction in y and z only, the components every
gain reads, with x NaN; and it turns the AP end by its fixed turn about y in
closed form instead of the general quaternion turn.  The array steps read
each batch's delivered counts and break lists, which a batch builds in
closed form or on their first read.  These tests pin each contract against
the general form it replaces."""

import math
from bisect import bisect_left

import numpy as np
import pytest

from xrsim import macsim
from xrsim.antenna import ArrayGeometry, AwvEvaluator
from xrsim.codebook import cached_quasi_omni, generate_sector_codebook, steered_sectors
from xrsim.config import load_config
from xrsim.covrage import covrage_beam
from xrsim.geometry import Pose, Quaternion, rotate_into_frames

from rotations import compose, normalized

AP_QUAT = np.array([macsim.AP_ORIENTATION.w, macsim.AP_ORIENTATION.x, macsim.AP_ORIENTATION.y,
                    macsim.AP_ORIENTATION.z])


def unit_columns(rng, m):
    """(3, m) random unit vectors, one per column, as a link batch holds them."""
    v = rng.normal(size=(3, m))
    return v / np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def covrage_composite():
    """A five-block covrage beam on a 64x64 array, its blocks turned by
    nonzero offsets: a tilted headset whose predicted yaw is 7 degrees on."""
    tilt = Quaternion.from_axis_angle((1, 1, 0), 0.1)
    q_pred = normalized(compose(Quaternion.from_axis_angle((0, 0, 1), math.radians(7.0)), tilt))
    here = np.array([1.0, 0.5, 1.7])
    return covrage_beam(ArrayGeometry(64, 64), Pose(0.0, here, tilt), q_pred, here + np.array([5.0, 0.0, 0.0]))


def evaluator(name):
    g = ArrayGeometry(8, 8)
    if name == "sector_stack":
        return AwvEvaluator(g, steered_sectors(g))
    if name == "sectors_codebook":
        return AwvEvaluator(g, generate_sector_codebook(g, cached_quasi_omni(g)))
    awv = covrage_composite()
    assert len(awv.blocks) == 5 and all(b.offset != 0.0 for b in awv.blocks[1:])
    return AwvEvaluator(awv.geometry, awv)


class TestGainsReadOnlyYAndZ:
    @pytest.mark.parametrize("name", ["sector_stack", "covrage_composite", "sectors_codebook"])
    def test_an_x_of_nan_gives_the_same_bytes(self, name, rng):
        ev = evaluator(name)
        u = unit_columns(rng, 2000)
        want = ev.gains_db(u.T)
        u[0] = math.nan
        assert ev.gains_db(u.T).tobytes() == want.tobytes()
        assert ev.gains_db(np.ascontiguousarray(u.T)).tobytes() == want.tobytes()


class TestTheApsFixedTurn:
    def test_the_ap_is_mounted_by_a_turn_about_y(self):
        # the closed form drops the general turn's terms in x and z: a
        # changed mount fails here before any digest does
        assert macsim.AP_ORIENTATION.x == macsim.AP_ORIENTATION.z == 0.0

    def test_the_closed_form_is_the_general_turn_bit_for_bit(self, rng):
        v = unit_columns(rng, 100_000)
        want = rotate_into_frames(AP_QUAT, v.T)
        got = macsim._into_ap_frame(v.copy()).T
        assert np.isnan(got[:, 0]).all()
        assert np.ascontiguousarray(got[:, 1:]).tobytes() == np.ascontiguousarray(want[:, 1:]).tobytes()

    def test_axis_aligned_directions_give_the_same_gains(self):
        # exact zeros, of either sign, in every component: the closed form
        # may differ from the general turn in a zero's sign only, which no
        # gain sees
        rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.6, 0, 0.8), (0.6, 0.8, 0), (0, 0.6, 0.8)]
        signs = [(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)]
        v = np.array([[x * sx, y * sy, z * sz] for x, y, z in rows for sx, sy, sz in signs]).T
        assert (v == 0.0).any(axis=1).all() and np.signbit(v[v == 0.0]).any()
        want = rotate_into_frames(AP_QUAT, v.T)
        got = macsim._into_ap_frame(v.copy()).T
        assert np.array_equal(got[:, 1:], want[:, 1:])
        for name in ("sector_stack", "covrage_composite", "sectors_codebook"):
            ev = evaluator(name)
            assert ev.gains_db(got).tobytes() == ev.gains_db(want).tobytes(), name


def eager_breaks(starts, airtime):
    """The entries not followed by their end at ``airtime``, then n + 1: the
    list every batch built for each airtime before any step read it."""
    at = np.array(starts)
    return np.flatnonzero(at[:-1] + airtime != at[1:]).tolist() + [len(at) + 1]


def checked_run(overrides):
    """Run the config, checking every batch's delivered counts against the
    running sum of its outcomes and every break lookup of the array steps
    against the eager lists; returns each batch's form of the counts (range,
    zeros or list) and whether any all-fail batch built a tail list."""
    sim = macsim.Simulator(load_config(overrides=list(overrides)))
    link_index, next_break, step = sim._link_index, sim._next_break, sim._step
    forms, eager, fail_tails = [], {}, []

    def checking_index(t):
        k = link_index(t)
        if k == 0:  # a new batch
            ok = sim._batch_snr >= sim.cfg.snr_threshold_db
            assert list(sim._batch_done) == [0] + np.cumsum(ok).tolist()
            done = sim._batch_done
            forms.append("range" if isinstance(done, range) else "zeros" if not any(done) else "list")
            eager.clear()
        return k

    def checking_break(tail, i):
        got = next_break(tail, i)
        if tail not in eager:
            eager[tail] = eager_breaks(sim._batch_starts, (sim._full_airtime, sim._tail_airtime)[tail])
        assert got == eager[tail][bisect_left(eager[tail], i)], (tail, i)
        return got

    def checking_step(t, horizon):
        out = step(t, horizon)
        if forms[-1] == "zeros":
            fail_tails.append(sim._batch_breaks[1] is not None)
        return out

    sim._link_index, sim._next_break, sim._step = checking_index, checking_break, checking_step
    sim.run()
    return forms, any(fail_tails)


class TestStepBookkeeping:
    def test_an_all_success_run(self):
        forms, _ = checked_run(["data_rate = 8e9", "sim_time = 0.3"])
        assert len(forms) >= 2 and set(forms) == {"range"}

    def test_an_all_fail_run_builds_no_tail_list(self):
        forms, built_tail = checked_run(
            ["rx_beamforming = sectors", "prediction = none", "bf_location = abft", "sim_time = 0.3"])
        assert len(forms) >= 2 and set(forms) == {"zeros"}
        assert not built_tail

    def test_a_mixed_run(self):
        forms, _ = checked_run(["prediction = oracle", "bf_interval = 1.0", "sim_time = 2"])
        assert "list" in forms
