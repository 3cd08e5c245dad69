"""Event loop, beacon-interval schedule, MPDU accounting and the medium rules."""

import collections
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim import macsim
from xrsim.antenna import ArrayGeometry, AwvEvaluator, gain_db
from xrsim.channel import snr_db
from xrsim.codebook import cached_quasi_omni, generate_sector_codebook, steered_sectors, synthesize_quasi_omni
from xrsim.config import ConfigError, ScenarioConfig, load_config
from xrsim.geometry import ap_direction_in_hmd_frame, unit_vector
from xrsim.macsim import (
    EVENT_KINDS,
    FrameRecord,
    best_sector,
    burst_shape,
    write_event_log,
)
from xrsim.mobility import pose_at

CHUNK = 65536 * 8
HDR = 100 * 8


def shape(rate):
    return burst_shape(ScenarioConfig(data_rate=rate, frame_rate=100.0))


def mpdu_sizes_bits(config):
    """Per-MPDU on-air sizes for one burst, from ``burst_shape``."""
    count, full, tail = burst_shape(config)
    return [full] * (count - 1) + [tail]


def frame_airtime(config):
    """Uninterrupted service time of one whole burst, from ``burst_shape``."""
    count, full, tail = burst_shape(config)
    return ((count - 1) * full + tail) / config.phy_rate_bps + count * config.per_mpdu_overhead


class TestMpduAccounting:
    def test_frozen_ladders(self):
        # burst = rate / frame_rate bits, cut into 64 KiB chunks with a
        # 100 byte header each; remainders worked out by hand
        for rate, n, rem_bytes in [
            (2e9, 39, 9632),
            (5e9, 96, 24080),
            (7e9, 134, 33712),
            (8e9, 153, 38528),
        ]:
            count, full, tail = shape(rate)
            assert count == n
            assert full == CHUNK + HDR
            assert tail == rem_bytes * 8 + HDR
            sizes = mpdu_sizes_bits(ScenarioConfig(data_rate=rate, frame_rate=100.0))
            assert sizes == [full] * (n - 1) + [tail]

    def test_an_even_burst_ends_on_a_full_mpdu(self):
        cfg = ScenarioConfig(data_rate=CHUNK * 300.0, frame_rate=100.0)
        assert burst_shape(cfg) == (3, CHUNK + HDR, CHUNK + HDR)
        assert mpdu_sizes_bits(cfg) == [CHUNK + HDR] * 3

    def test_frozen_airtimes(self):
        for rate, airtime in [
            (2e9, 2.594576e-3),
            (5e9, 6.481791e-3),
            (7e9, 9.073268e-3),
            (8e9, 10.369006e-3),
        ]:
            cfg = ScenarioConfig(data_rate=rate, frame_rate=100.0)
            assert frame_airtime(cfg) == pytest.approx(airtime, abs=1e-9)

    def test_airtime_closed_form(self):
        cfg = ScenarioConfig(data_rate=5e9, frame_rate=100.0)
        n = burst_shape(cfg)[0]
        expect = (cfg.burst_bits + n * HDR) / 8.085e9 + n * 3e-6
        assert frame_airtime(cfg) == expect

    def test_saturating_rate_exceeds_the_frame_interval(self):
        assert frame_airtime(ScenarioConfig(data_rate=8e9, frame_rate=100.0)) > 0.01
        assert frame_airtime(ScenarioConfig(data_rate=7e9, frame_rate=100.0)) < 0.01

    @given(
        total_bits=st.integers(min_value=1, max_value=3_000_000),
        mpdu_bytes=st.integers(min_value=1, max_value=70_000),
        header_bytes=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_sizes_partition_the_burst(self, total_bits, mpdu_bytes, header_bytes):
        cfg = ScenarioConfig(
            data_rate=total_bits * 100.0,
            frame_rate=100.0,
            mpdu_bytes=mpdu_bytes,
            header_bytes=header_bytes,
        )
        count, full, tail = burst_shape(cfg)
        chunk, hdr = mpdu_bytes * 8, header_bytes * 8
        assert (count - 1) * full + tail == total_bits + count * hdr
        assert count == math.ceil(total_bits / chunk)
        assert full == chunk + hdr
        assert 0 < tail - hdr <= chunk
        assert mpdu_sizes_bits(cfg) == [full] * (count - 1) + [tail]


class TestBiConfig:
    """The beacon-interval schedule fields, as the simulator reads them."""

    def test_accepts_the_standard_schedule(self):
        cfg = load_config(overrides=["bi_duration = 0.1024"])
        assert cfg.bhi_duration == 2e-3
        assert cfg.sls_duration == 0.75e-3

    def test_rejects_bhi_outside_the_interval(self):
        with pytest.raises(ConfigError, match="bhi_duration"):
            load_config(overrides=["bi_duration = 0.1024", "bhi_duration = 0.2"])
        with pytest.raises(ConfigError, match="bhi_duration"):
            load_config(overrides=["bi_duration = 0.1024", "bhi_duration = 0.0"])

    def test_rejects_unknown_bf_location(self):
        with pytest.raises(ConfigError, match="bf_location"):
            load_config(overrides=["bf_location = beacon"])


# the AP direction of the 1.9 s sweep in the 2 s digest runs, where AP
# sectors 20 and 21 (aims -10 and +10 deg azimuth) are a mirror pair, as
# azimuth and elevation (the run's own vector is 1.7e-18 lower in z)
MIRROR_DIRECTION = unit_vector(3.3878870498648826e-16, 0.6851006141968146)


def oracle_gains(g, awvs, d):
    return np.array([gain_db(g, awv, d) for awv in awvs])


class TestBestSector:
    @pytest.fixture(scope="class")
    def book(self):
        g = ArrayGeometry(8, 8)
        return g, generate_sector_codebook(g, synthesize_quasi_omni(g, seed=3))

    def test_matches_brute_force(self, book):
        # one stacked pass against the per-element oracle, under the same rule
        g, awvs = book
        sweep = AwvEvaluator(g, awvs)
        for d in [unit_vector(20.0, -10.0), unit_vector(0.0, 0.0), unit_vector(-45.0, 30.0), unit_vector(130.0, -60.0)]:
            assert best_sector(sweep.gain_db(d)) == best_sector(oracle_gains(g, awvs, d))
        assert best_sector(sweep.gain_db(MIRROR_DIRECTION)) == best_sector(oracle_gains(g, awvs, MIRROR_DIRECTION)) == 20

    @pytest.fixture(scope="class")
    def mirror_gains(self, book):
        g, awvs = book
        gains = oracle_gains(g, awvs, MIRROR_DIRECTION)
        assert sorted(np.argsort(-gains)[:2]) == [20, 21]
        assert abs(gains[20] - gains[21]) < macsim.SWEEP_TIE_DB
        return gains

    @pytest.mark.parametrize("delta", [1e-14, -1e-14])
    def test_rounding_noise_goes_to_the_lowest_id(self, mirror_gains, delta):
        for sid in (20, 21):
            gains = mirror_gains.copy()
            gains[sid] += delta
            assert best_sector(gains) == 20

    @pytest.mark.parametrize("delta", [1e-6, -1e-6])
    def test_a_measurable_gap_picks_the_larger_gain(self, mirror_gains, delta):
        gains = mirror_gains.copy()
        gains[20] = gains[21] + delta
        assert best_sector(gains) == (20 if delta > 0 else 21)

    def test_tie_breaks_to_the_lowest_id(self):
        # a single-element array radiates identically in every sector
        g = ArrayGeometry(1, 1)
        awvs = generate_sector_codebook(g, synthesize_quasi_omni(g))
        assert best_sector(AwvEvaluator(g, awvs).gain_db(unit_vector(35.0, 10.0))) == 0

    @given(shift=st.floats(-20.0, 20.0), k=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_fixed_term_does_not_move_the_argmax(self, book, shift, k):
        # a gain shared by every sector, such as the other end's listener,
        # cannot move the winner, which is why the sweep leaves it out
        g, awvs = book
        d = [unit_vector(-25.0, 15.0), unit_vector(0.0, 0.0), unit_vector(130.0, -60.0), MIRROR_DIRECTION][k]
        gains = oracle_gains(g, awvs, d)
        assert best_sector(gains + shift) == best_sector(gains)


class TestApSweep:
    """The AP's initiator sweep probes its 36 steered transmit sectors."""

    @pytest.fixture(scope="class")
    def sim(self):
        return macsim.Simulator(load_config(overrides=["sim_time = 0.5"]))

    @staticmethod
    def directions(sim, xs, ys):
        positions = [np.array([x, y, sim.cfg.hmd_height]) for x in xs for y in ys]
        return [ap_direction_in_hmd_frame(sim.ap_pose, p) for p in positions]

    def test_a_steered_sector_beats_the_quasi_omni_across_the_room(self, sim):
        # why the AP needs no quasi-omni candidate: over the default room the
        # best steered sector beats the synthesized 8x8 pattern by >= 1 dB,
        # so adding it to the sweep could move no winner
        dirs = self.directions(sim, np.linspace(*sim.cfg.x_bounds, 41), np.linspace(*sim.cfg.y_bounds, 21))
        u = np.stack(dirs)
        quasi_omni = AwvEvaluator(sim.ap_geometry, cached_quasi_omni(sim.ap_geometry)).gains_db(u)
        assert np.min(sim.ap_sweep.gains_db(u).max(axis=1) - quasi_omni) >= 1.0

    def test_off_axis_winners_are_decided_by_gain(self, sim):
        # off the axes through the AP's foot point no mirror pair ties, so
        # the sweep must pick the per-element oracle's best sector by a
        # clear margin, not by the tie rule
        xs = [f * sim.cfg.room_x for f in (-0.375, -0.125, 0.125, 0.375)]
        ys = [f * sim.cfg.room_y for f in (-0.375, -0.125, 0.125, 0.375)]
        winners = []
        for d in self.directions(sim, xs, ys):
            gains = oracle_gains(sim.ap_geometry, sim.ap_sweep.awv, d)
            first, second = np.sort(gains)[::-1][:2]
            assert first - second > 1e6 * macsim.SWEEP_TIE_DB
            winners.append(best_sector(sim.ap_sweep.gain_db(d)))
            assert winners[-1] == int(np.argmax(gains))
        assert len(set(winners)) == 16


STATIC_2S = ("sim_time = 2.0", "rotation = static")


@pytest.fixture(scope="class")
def recorded_default_run():
    """A default 20 s run with every heap push recorded: its counters, the
    pushes per event kind and the heap's peak length."""
    sim = macsim.Simulator(load_config())
    push, pushes, peak = sim._push, collections.Counter(), [0]

    def recording_push(t, kind, payload=None):
        push(t, kind, payload)
        pushes[kind] += 1
        peak[0] = max(peak[0], len(sim._heap))

    sim._push = recording_push
    return sim.run().counters, pushes, peak[0]


class TestSchedule:
    def test_counters_over_two_seconds(self, run_cached):
        res = run_cached(*STATIC_2S, collect=True)
        # ceil(2.0 / 0.1024) beacon intervals, one sweep per 100 ms trigger
        assert res.counters["bhi_count"] == 20
        assert res.counters["sls_runs"] == 20
        assert res.counters["bf_updates"] == 20
        assert res.counters["frames_total"] == 200
        assert res.counters["frames_delivered"] == 200
        assert res.counters["mpdu_failures"] == 0

    def test_frame_records_conserved(self, run_cached):
        res = run_cached(*STATIC_2S, collect=True)
        assert [r.frame_id for r in res.frames] == list(range(200))
        for r in res.frames:
            assert r.completed is not None
            latency = r.completed - r.created
            assert r.delivered == (latency <= res.config.deadline)

    def test_latency_floor_is_the_uninterrupted_airtime(self, run_cached):
        res = run_cached(*STATIC_2S, collect=True)
        floor = frame_airtime(res.config)
        latencies = [r.completed - r.created for r in res.frames if r.completed]
        assert min(latencies) >= floor - 1e-12
        assert min(latencies) == pytest.approx(floor, abs=1e-12)

    def test_bhi_windows(self, run_cached):
        res = run_cached(*STATIC_2S, collect=True)
        assert len(res.bhi_intervals) == 20
        for k, (b0, b1) in enumerate(res.bhi_intervals):
            assert b0 == pytest.approx(k * 0.1024, abs=1e-12)
            assert b1 - b0 == pytest.approx(2e-3, abs=1e-15)

    def test_first_sweep_waits_for_the_first_bhi(self, run_cached):
        # the t=0 trigger lands inside the BHI and runs right at its end
        res = run_cached(*STATIC_2S, collect=True)
        s0, s1 = res.sls_intervals[0]
        assert s0 == pytest.approx(2e-3, abs=1e-15)
        assert s1 == pytest.approx(2.75e-3, abs=1e-15)

    def test_heap_stays_a_few_entries_long(self, recorded_default_run):
        # each periodic source holds one pending entry; pushing every beacon,
        # trigger and burst up front took 2,397 entries
        counters, _, peak = recorded_default_run
        assert counters["frames_total"] == 2000
        assert peak <= 7

    def test_back_to_back_mpdus_skip_the_heap(self, recorded_default_run):
        # only an MPDU that ends at or after the next heap event is pushed, so
        # each such event accounts for at most one push; with one heap
        # round-trip per MPDU there were 192,000
        counters, pushes, _ = recorded_default_run
        assert counters["mpdu_attempts"] == 192_000
        others = ("beacon_start", "bhi_end", "bf_trigger", "sls_done", "burst_arrival")
        assert 0 < pushes["mpdu_tx_done"] <= sum(pushes[kind] for kind in others)

    @pytest.mark.parametrize(
        "overrides",
        [STATIC_2S, ("sim_time = 2.0", "rx_beamforming = sectors", "prediction = none", "bf_location = abft")],
        ids=["static", "all_fail"],
    )
    def test_outputs_hold_python_numbers(self, run_cached, overrides):
        # the array step sums numpy arrays; its counters must still be ints
        # that json accepts, and its records plain floats and bools
        res = run_cached(*overrides, collect=True)
        assert all(type(v) is int for v in res.counters.values()), res.counters
        assert json.loads(json.dumps(res.counters)) == res.counters
        assert {tuple(map(type, iv)) for iv in res.tx_intervals} == {(float, float, bool, int)}
        assert {type(r.completed) for r in res.frames} <= {float, type(None)}

    def test_every_source_fires_at_time_zero(self, run_cached):
        # ceil(sim_time / period - 1e-9) is 0 for a run this short; the t = 0
        # beacon, trigger and burst still fall inside it
        res = run_cached("sim_time = 1e-12", collect=True)
        assert [(ev.t, ev.kind) for ev in res.events] == [
            (0.0, "beacon_start"), (0.0, "bf_trigger"), (0.0, "burst_arrival"), (1e-12, "sim_end"),
        ]
        assert res.counters["frames_total"] == 1

    def test_sweep_starts_are_attributable(self, run_cached):
        # every sweep begins at a trigger, a BHI end, or an MPDU completion
        res = run_cached(*STATIC_2S, collect=True)
        allowed = set()
        for ev in res.events:
            if ev.kind in ("bhi_end", "mpdu_tx_done"):
                allowed.add(ev.t)
            if ev.kind == "bf_trigger" and ev.payload == "start":
                allowed.add(ev.t)
        for s0, _ in res.sls_intervals:
            assert s0 in allowed


class TestMediumRules:
    def test_no_tx_starts_inside_a_bhi(self, run_cached):
        res = run_cached(*STATIC_2S, collect=True)
        for s, _, _, _ in res.tx_intervals:
            for b0, b1 in res.bhi_intervals:
                assert not (b0 <= s < b1)

    def test_tx_intervals_do_not_overlap(self, run_cached):
        res = run_cached(*STATIC_2S, collect=True)
        ordered = sorted(res.tx_intervals)
        for (s0, e0, _, _), (s1, e1, _, _) in zip(ordered, ordered[1:]):
            assert s1 >= e0 - 1e-12

    def test_tx_and_sweeps_are_disjoint(self, run_cached):
        res = run_cached(*STATIC_2S, collect=True)
        tx_s = np.array([iv[0] for iv in res.tx_intervals])
        tx_e = np.array([iv[1] for iv in res.tx_intervals])
        for s0, s1 in res.sls_intervals:
            overlap = np.minimum(tx_e, s1) - np.maximum(tx_s, s0)
            assert overlap.max() <= 1e-12

    def test_inflight_mpdu_carries_over_a_beacon_boundary(self, run_cached):
        # non-preemption witness: some MPDU straddles a beacon start
        res = run_cached(*STATIC_2S, collect=True)
        boundaries = [k * 0.1024 for k in range(1, 20)]
        assert any(
            s < b < e for s, e, _, _ in res.tx_intervals for b in boundaries
        )

    @pytest.mark.parametrize("sls_duration", ["0.01", "0.1"])
    def test_long_sweeps_keep_the_medium_exclusive(self, run_cached, sls_duration):
        # at the parent commit these runs had 4 and 9 BHI/sweep overlaps and
        # 0 and 3 sweep/sweep overlaps
        res = run_cached("sim_time = 1.0", "sls_duration = %s" % sls_duration, collect=True)
        windows = sorted(res.bhi_intervals + res.sls_intervals)
        assert len(res.sls_intervals) == res.counters["sls_runs"] >= 9
        for (_, e0), (s1, _) in zip(windows, windows[1:]):
            assert s1 >= e0
        for start, _, _, _ in res.tx_intervals:
            assert not any(w0 <= start < w1 for w0, w1 in windows)
        # a sweep starts only where it ends by the next beacon
        tbtts = [b0 for b0, _ in res.bhi_intervals]
        for s0, s1 in res.sls_intervals:
            assert all(s1 <= b0 for b0 in tbtts if b0 > s0)
        times = [ev.t for ev in res.events]
        assert times == sorted(times)

    def test_trigger_log_names_why_a_sweep_waits(self, run_cached):
        # a 0.1 s sweep fits only right after a BHI, so every trigger waits
        res = run_cached("sim_time = 1.0", "sls_duration = 0.1", collect=True)
        details = [ev.payload for ev in res.events if ev.kind == "bf_trigger"]
        assert details == ["postponed"] * 10
        bhi_ends = [b1 for _, b1 in res.bhi_intervals]
        assert [s0 for s0, _ in res.sls_intervals] == bhi_ends

    def test_guard_rejects_overlaps_and_time_running_back(self):
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.05", "rotation = static"]))
        sim._reserve(0.0, 2e-3, [])
        with pytest.raises(RuntimeError, match="overlaps"):
            sim._reserve(1e-3, 7.5e-4, [])
        sim.frames.append(FrameRecord(0, 0.0))  # frame 0 is queued
        with pytest.raises(RuntimeError, match="inside a BHI or sweep"):
            sim._try_start_tx(1e-3)

        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.05", "rotation = static"]))
        sim._push(-1.0, "bhi_end")
        with pytest.raises(RuntimeError, match="ran back"):
            sim.run()

    def test_mcs_gate_is_inclusive(self):
        # an attempt at exactly snr_threshold_db succeeds, one just below fails
        for offset_db, fails_all in ((0.0, False), (-1e-9, True)):
            overrides = ["sim_time = 0.05", "rotation = static", "snr_threshold_db = 12.5"]
            sim = macsim.Simulator(load_config(overrides=overrides))
            snr = 12.5 + offset_db
            sim.snr_at = lambda ts: np.full(len(ts), snr)
            counters = sim.run().counters
            assert counters["mpdu_attempts"] > 0
            assert counters["mpdu_failures"] == (counters["mpdu_attempts"] if fails_all else 0)


class TestRunService:
    """Serving back-to-back MPDUs in one pass against one heap round-trip
    per MPDU, the run length forced to 1."""

    @staticmethod
    def outcome(sim):
        res = sim.run()
        frames = [(r.frame_id, r.created, r.completed, r.delivered) for r in res.frames]
        return res.counters, frames, res.tx_intervals, res.bhi_intervals, res.sls_intervals, res.events

    @given(
        data_rate=st.sampled_from([2e9, 5e9, 7e9, 8e9]),
        deadline=st.sampled_from([0.02, 0.002, 0.005, 0.012]),
        per_mpdu_overhead=st.floats(0.0, 2e-4),
        bf_location=st.sampled_from(["dti", "abft"]),
        rx_beamforming=st.sampled_from(["covrage", "sectors", "quasi_omni"]),
        # the 8x8 headset's link fails MCS 21 at the default power; more
        # power lets attempts succeed and frames complete
        tx_power_dbm=st.sampled_from([10.0, 30.0, 50.0]),
        sim_time=st.floats(0.01, 0.3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_one_mpdu_per_heap_event(
        self, data_rate, deadline, per_mpdu_overhead, bf_location, rx_beamforming, tx_power_dbm, sim_time
    ):
        cfg = load_config(
            overrides=[
                "sim_time = %r" % sim_time,
                "data_rate = %r" % data_rate,
                "deadline = %r" % deadline,
                "per_mpdu_overhead = %r" % per_mpdu_overhead,
                "bf_location = %s" % bf_location,
                "rx_beamforming = %s" % rx_beamforming,
                "prediction = %s" % ("none" if rx_beamforming == "quasi_omni" else "device"),
                "tx_power_dbm = %r" % tx_power_dbm,
                "hmd_rows = 8",
                "hmd_cols = 8",
            ]
        )
        single = macsim.Simulator(cfg, collect_events=True)
        # every MPDU end is at or after the next event: each goes through the heap
        single._next_event_time = lambda: -math.inf
        want = self.outcome(single)
        assert self.outcome(macsim.Simulator(cfg, collect_events=True)) == want

    @staticmethod
    def stop_reasons(sim):
        """Record why each array step of ``sim`` stopped."""
        serve, reasons = sim._serve_head, []

        def spy(t, horizon):
            head = sim.head
            end = serve(t, horizon)
            if end is None:
                reasons.append("heap_event")
            elif sim.head != head:
                reasons.append("completion")
            elif end - sim.frames[head].created > sim.cfg.deadline:
                reasons.append("age_out")
            elif sim._batch_next < len(sim._batch_starts):
                reasons.append("start_mismatch")
            else:
                reasons.append("batch_end")
            return end

        sim._serve_head = spy
        return reasons

    @pytest.mark.parametrize(
        "stop, overrides, snr_db",
        [
            # 8 Gbps: a burst outlasts the burst interval, so steps end at arrivals
            ("heap_event", ["data_rate = 8e9"], lambda ts: np.full(len(ts), 100.0)),
            ("completion", ["data_rate = 2e9"], lambda ts: np.full(len(ts), 100.0)),
            # every attempt fails; a frame ages out 15 ms after its arrival,
            # while the next frame waits and no heap event is due
            ("age_out", ["deadline = 0.015"], lambda ts: np.full(len(ts), -100.0)),
            # outcomes flip every 100 us, so the retry prediction misses
            # wherever a burst's tail or next burst starts
            ("start_mismatch", [], lambda ts: np.where(np.floor(ts / 1e-4) % 2 == 0, 100.0, -100.0)),
        ],
    )
    def test_each_stop_matches_the_oracle(self, stop, overrides, snr_db):
        cfg = load_config(overrides=["sim_time = 0.1", "rotation = static"] + overrides)
        single = macsim.Simulator(cfg, collect_events=True)
        single.snr_at = snr_db
        single._next_event_time = lambda: -math.inf
        want = self.outcome(single)
        sim = macsim.Simulator(cfg, collect_events=True)
        sim.snr_at = snr_db
        reasons = self.stop_reasons(sim)
        assert self.outcome(sim) == want
        assert want[0]["mpdu_attempts"] > len(reasons) and reasons.count(stop) >= 2, collections.Counter(reasons)


class TestModes:
    def test_abft_beamforms_once_per_beacon(self, run_cached):
        res = run_cached(*STATIC_2S, "bf_location = abft")
        assert res.counters["sls_runs"] == 0
        assert res.counters["bf_updates"] == res.counters["bhi_count"] == 20

    def test_saturating_rate_misses_deadlines(self, run_cached):
        res = run_cached("sim_time = 3.0", "rotation = static", "data_rate = 8e9")
        reliability = res.counters["frames_delivered"] / res.counters["frames_total"]
        assert reliability < 0.15

    def test_queue_drop_discards_stale_frames(self, run_cached):
        # a frame leaves the queue once it is older than the deadline
        res = run_cached("sim_time = 1.0", "rotation = static", "data_rate = 8e9")
        c = res.counters
        assert c["frames_dropped"] >= 1
        assert c["frames_delivered"] + c["frames_dropped"] <= c["frames_total"]
        incomplete = sum(1 for r in res.frames if r.completed is None)
        assert incomplete >= c["frames_dropped"]

    def test_the_queue_is_the_arrived_frames_from_the_head(self):
        # after every decision: each frame below the head is completed or
        # dropped, none at or above it has completed, and the head's
        # delivered count is part of one burst
        sim = macsim.Simulator(load_config(overrides=["sim_time = 1.0", "rotation = static", "data_rate = 8e9"]))
        try_start, checked = sim._try_start_tx, []

        def check(t):
            try_start(t)
            below, queued = sim.frames[: sim.head], sim.frames[sim.head :]
            dropped = sum(1 for r in below if r.completed is None)
            assert dropped == sim.counters["frames_dropped"]
            assert all(r.completed is None for r in queued)
            assert 0 <= sim.sent < sim.burst_count and (sim.sent == 0 or queued)
            checked.append(t)

        sim._try_start_tx = check
        counters = sim.run().counters
        assert len(checked) > 100 and counters["frames_dropped"] >= 1
        assert 0 < counters["frames_delivered"] < counters["frames_total"] - counters["frames_dropped"]

    def test_single_mpdu_latency_closed_form(self, run_cached):
        # one burst fits one MPDU, so mid-interval frames finish in exactly
        # the MPDU airtime
        res = run_cached(
            "sim_time = 0.05", "rotation = static", "mpdu_bytes = 6250000"
        )
        airtime = (6_250_000 * 8 + HDR) / 8.085e9 + 3e-6
        latencies = [r.completed - r.created for r in res.frames]
        assert min(latencies) == pytest.approx(airtime, abs=1e-12)
        for lat in latencies[1:]:
            assert lat == pytest.approx(airtime, abs=1e-12)

    def test_flat_ap_array_ties_to_sector_zero(self, run_cached):
        res = run_cached(
            "sim_time = 0.3", "rotation = static", "ap_rows = 1", "ap_cols = 1",
            collect=True,
        )
        details = [ev.payload for ev in res.events if ev.kind == "sls_done"]
        assert details
        assert all(d.startswith("sector=0 ") for d in details)


class TestDeterminism:
    def test_identical_runs_bit_for_bit(self, run_cached, tmp_path):
        cached = run_cached(*STATIC_2S, collect=True)
        fresh = macsim.run(
            load_config(overrides=list(STATIC_2S)), collect_events=True
        )
        assert fresh.counters == cached.counters
        assert [
            (r.frame_id, r.created, r.completed, r.delivered) for r in fresh.frames
        ] == [(r.frame_id, r.created, r.completed, r.delivered) for r in cached.frames]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_event_log(a, cached.events)
        write_event_log(b, fresh.events)
        assert a.read_bytes() == b.read_bytes()


class TestEventLog:
    def test_file_shape(self, run_cached, tmp_path):
        res = run_cached(*STATIC_2S, collect=True)
        path = tmp_path / "events.csv"
        write_event_log(path, res.events)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,kind,detail"
        assert len(lines) == len(res.events) + 1
        times = []
        for line in lines[1:]:
            t_str, kind, _ = line.split(",", 2)
            whole, frac = t_str.split(".")
            assert len(frac) == 9
            assert kind in EVENT_KINDS
            times.append(float(t_str))
        assert times == sorted(times)


def _cache_calls():
    info = cached_quasi_omni.cache_info()
    return info.hits, info.misses


class TestLazyQuasiOmni:
    # element spacings no other test uses, so the first lookups miss
    def test_covrage_synthesizes_no_quasi_omni(self):
        hits0, misses0 = _cache_calls()
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.5", "spacing = 0.47"]))
        hits1, misses1 = _cache_calls()
        assert (hits1 - hits0, misses1 - misses0) == (0, 0)
        assert sim.hmd_eval is None and sim.hmd_sweep is None
        # the AP sweeps its 36 steered transmit sectors, in id order
        sectors = steered_sectors(sim.ap_geometry)
        assert len(sim.ap_sweep.awv) == len(sectors) == 36
        for awv, sector in zip(sim.ap_sweep.awv, sectors):
            assert awv.blocks and np.array_equal(awv.phases, sector.phases)

    @pytest.mark.parametrize("mode", ["quasi_omni", "sectors"])
    def test_other_modes_synthesize_their_hmd_quasi_omni(self, mode):
        hits0, misses0 = _cache_calls()
        sim = macsim.Simulator(
            load_config(
                overrides=[
                    "sim_time = 0.5",
                    "spacing = 0.49",
                    "rx_beamforming = %s" % mode,
                    "prediction = none",
                    "hmd_rows = 4",
                    "hmd_cols = 4",
                ]
            )
        )
        hits1, misses1 = _cache_calls()
        # the headset's pattern is the one lookup (a miss for the first mode
        # run, a hit for the second): the AP sweeps steered sectors alone
        assert (hits1 - hits0) + (misses1 - misses0) == 1
        # the quasi_omni mode's fixed pattern, or the sectors codebook's last
        # entry, whose first sweep sets the headset pattern
        if mode == "quasi_omni":
            assert sim.hmd_eval.awv is cached_quasi_omni(sim.hmd_geometry)
        else:
            assert sim.hmd_sweep.awv[-1] is cached_quasi_omni(sim.hmd_geometry)
            assert sim.hmd_eval is None

    @pytest.mark.parametrize(
        "overrides, first_update",
        [(STATIC_2S, "sls_done"), (("sim_time = 2.0", "bf_location = abft"), "bhi_end")],
    )
    def test_no_mpdu_starts_before_the_first_sweep(self, run_cached, overrides, first_update):
        # covrage has no HMD pattern before the first beamforming update,
        # and needs none, because no MPDU starts before it
        res = run_cached(*overrides, collect=True)
        first = next(ev.t for ev in res.events if ev.kind == first_update)
        assert res.tx_intervals
        assert min(start for start, _, _, _ in res.tx_intervals) >= first

    def test_a_link_evaluation_before_the_first_sweep_is_refused(self):
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.5"]))
        sim.frames.append(FrameRecord(0, 0.0))  # frame 0 is queued
        with pytest.raises(RuntimeError, match="before the first sweep"):
            sim._link_index(0.01)


class TestBatchedLink:
    """The batched link path against the per-element oracle channel.snr_db."""

    @pytest.fixture()
    def sim(self):
        # 1 s of high motion: the trace ends (and wraps) at 1.0 s, and the
        # 0.5 s walk has its last step at 1.0 s
        sim = macsim.Simulator(load_config(overrides=["sim_time = 1.0", "prediction = oracle"]))
        sim._apply_beamform(0.3)
        return sim

    @staticmethod
    def oracle(sim, t):
        pose = pose_at(sim.trace, sim.walk, t, sim.cfg.hmd_height)
        return snr_db(
            sim.cfg,
            sim.ap_pose,
            sim.ap_geometry,
            sim.ap_eval.awv,
            pose,
            sim.hmd_geometry,
            sim.hmd_eval.awv,
        )

    @staticmethod
    def link_snr(sim, t):
        """SNR of an MPDU starting at t: the batch entry the lookup gives it."""
        k = sim._link_index(t)  # may replace the batch
        return sim._batch_snr[k]

    def check(self, sim, ts):
        got = sim.snr_at(np.array(ts))
        assert got.shape == (len(ts),)
        for value, t in zip(got, ts):
            assert abs(value - self.oracle(sim, t)) <= 1e-9

    def test_batch_of_one(self, sim):
        self.check(sim, [0.3123])

    def test_back_to_back_starts(self, sim):
        airtime = sim._airtime(mpdu_sizes_bits(sim.cfg)[0])
        self.check(sim, [0.3 + k * airtime for k in range(70)])

    def test_trace_wrap(self, sim):
        assert sim.trace.duration == 1.0
        self.check(sim, [0.9996, 0.9999, 1.0, 1.00003, 1.0011, 1.7, 2.0005])

    def test_walk_last_step(self, sim):
        assert len(sim.walk.positions) == 3
        self.check(sim, [0.4999, 0.5, 0.9999, 1.0, 1.0001, 1.5])

    @staticmethod
    def epoch(overrides, t):
        sim = macsim.Simulator(load_config(overrides=["sim_time = 1.0"] + overrides))
        sim._apply_beamform(t)
        return sim

    def check_epoch(self, sim, closed_form_hmd):
        # steered sector and composite beams take the closed form, the
        # quasi-omni pattern the lattice product
        assert sim.ap_eval._w is None
        assert (sim.hmd_eval._w is None) == closed_form_hmd
        self.check(sim, [0.3 + 0.0137 * k for k in range(50)])

    def test_multi_block_covrage_epoch(self):
        sim = self.epoch(["prediction = oracle", "bf_interval = 1.0"], 0.0)
        assert sim.hmd_label == "covrage" and len(sim.hmd_eval.awv.blocks) >= 2
        self.check_epoch(sim, True)

    def test_sectors_directional_winner(self):
        sim = self.epoch(["rx_beamforming = sectors"], 0.5)
        assert sim.hmd_label == "sector=33"
        self.check_epoch(sim, True)

    def test_sectors_quasi_omni_winner(self):
        sim = self.epoch(["rx_beamforming = sectors"], 0.3)
        assert sim.hmd_label == "sector=36" and not sim.hmd_eval.awv.blocks
        self.check_epoch(sim, False)

    def test_quasi_omni_mode(self):
        sim = self.epoch(["rx_beamforming = quasi_omni", "prediction = none"], 0.3)
        assert sim.hmd_label == "qo"
        self.check_epoch(sim, False)

    @staticmethod
    def open_epoch(sim, frames_seen, head, sent=0, next_tbtt=4 * 0.1024, next_trigger=0.4):
        """The epoch state that run() keeps: the pending beacon and trigger,
        the bursts that have arrived, each at ``k * period``, and the queue,
        from frame ``head`` of which ``sent`` MPDUs are delivered."""
        period = sim.cfg.burst_interval
        sim.next_tbtt, sim.next_trigger = next_tbtt, next_trigger
        sim.frames = [FrameRecord(k, k * period) for k in range(frames_seen)]
        sim.head, sim.sent = head, sent

    @staticmethod
    def back_to_back(t, airtimes):
        """t and the starts that follow it, one airtime apart, summed as the
        MAC sums them."""
        starts = [t]
        for airtime in airtimes:
            starts.append(starts[-1] + airtime)
        return starts

    def _fill_queue(self, sim):
        # frame 30 arrived at 0.3; frames 31 on arrive every 10 ms
        self.open_epoch(sim, 31, head=30)

    def test_batch_cut_short_by_a_start_mismatch(self, sim):
        self._fill_queue(sim)
        t0 = 0.31
        assert self.link_snr(sim, t0) == pytest.approx(self.oracle(sim, t0), abs=1e-9)
        starts = list(sim._batch_starts)
        # the batch runs on through later bursts, up to the cap
        assert len(starts) == macsim._LINK_BATCH > sim.burst_count
        assert starts[1] == t0 + sim._airtime(burst_shape(sim.cfg)[1])
        assert self.link_snr(sim, starts[1]) == pytest.approx(self.oracle(sim, starts[1]), abs=1e-9)
        # the MAC starts later than predicted: a new batch begins there
        late = starts[2] + 1e-6
        assert self.link_snr(sim, late) == pytest.approx(self.oracle(sim, late), abs=1e-9)
        assert sim._batch_starts[0] == late and sim._batch_next == 1

    def test_batch_cut_short_by_a_beamforming_update(self, sim):
        self._fill_queue(sim)
        t0 = 0.31
        self.link_snr(sim, t0)
        t1 = sim._batch_starts[1]
        stale = self.oracle(sim, t1)
        sim._apply_beamform(0.8)
        fresh = self.oracle(sim, t1)
        assert abs(fresh - stale) > 1e-3
        assert self.link_snr(sim, t1) == pytest.approx(fresh, abs=1e-9)

    def test_prediction_skips_frames_that_age_out(self, sim):
        # frame 30 has one full MPDU and the short tail left; it ages out
        # while the full one is on air, so the next start is frame 31's
        # first MPDU, and frame 32's MPDUs follow frame 31's tail
        count, full, tail = burst_shape(sim.cfg)
        assert tail < full
        self.open_epoch(sim, 32, head=30, sent=count - 2, next_tbtt=1.0, next_trigger=1.0)
        t0 = 0.3 + sim.cfg.deadline - 1e-6
        assert t0 + sim._airtime(full) - 0.3 > sim.cfg.deadline
        frame_31 = [sim._airtime(full)] * (count - 1) + [sim._airtime(tail)]
        want = self.back_to_back(t0, [sim._airtime(full)] + frame_31 + [sim._full_airtime] * macsim._LINK_BATCH)
        assert sim._predicted_starts(t0) == want[: macsim._LINK_BATCH]

    def test_prediction_resumes_a_partly_sent_frame(self, sim):
        # two MPDUs of frame 30 are left; frame 31 arrives while the last
        # one is on air and starts at its end
        count, full, tail = burst_shape(sim.cfg)
        self.open_epoch(sim, 31, head=30, sent=count - 2, next_trigger=0.3115)
        resumed = self.back_to_back(0.30992, [sim._airtime(full), sim._airtime(tail)])
        assert resumed[-2] < 31 * sim.cfg.burst_interval < resumed[-1]
        want = resumed + self.back_to_back(resumed[-1], [sim._full_airtime] * 50)[1:]
        got = sim._predicted_starts(0.30992)
        assert got == [t for t in want if t < 0.3115]
        assert len(got) > len(resumed)

    def test_a_drained_queue_waits_for_the_next_arrival(self, sim):
        # frame 30's tail ends before frame 31 arrives: the next start is
        # that arrival, 31 * period, bit for bit as _schedule computes it
        period = sim.cfg.burst_interval
        count, full, tail = burst_shape(sim.cfg)
        self.open_epoch(sim, 31, head=30, sent=count - 2, next_trigger=0.3105)
        head = self.back_to_back(0.305, [sim._airtime(full)])
        assert head[-1] + sim._airtime(tail) < 31 * period
        after = self.back_to_back(31 * period, [sim._full_airtime] * 50)
        got = sim._predicted_starts(0.305)
        assert got == head + [t for t in after if t < 0.3105]
        assert got[len(head)] == 31 * period

    def test_prediction_after_a_failure_retries_until_the_frame_ages_out(self, sim):
        # the last attempt failed: frame 29's tail is retried at its own
        # airtime until the frame ages out, then frame 30's first MPDU at
        # the full airtime, up to the cap
        count, full, tail = burst_shape(sim.cfg)
        drop_age = sim.cfg.deadline
        self.open_epoch(sim, 31, head=29, sent=count - 1, next_tbtt=1.0, next_trigger=1.0)
        sim._last_ok = False
        t0 = 0.29 + drop_age - 5e-4
        want, t = [], t0
        for arrival, airtime in ((0.29, sim._airtime(tail)), (0.3, sim._airtime(full))):
            while t - arrival <= drop_age:
                want.append(t)
                t = t + airtime
            if arrival == 0.29:
                assert 0 < len(want) < macsim._LINK_BATCH  # both frames are in the batch
        assert sim._predicted_starts(t0) == want[: macsim._LINK_BATCH]
        # after a success each MPDU is predicted at its first attempt
        sim._last_ok = True
        assert sim._predicted_starts(t0)[:2] == self.back_to_back(t0, [sim._airtime(tail)])

    @pytest.mark.parametrize("bound", ["next_tbtt", "next_trigger", "sim_time"])
    def test_no_start_at_or_after_the_horizon(self, sim, bound):
        # a start that lands exactly on the bound is left out
        self.open_epoch(sim, 31, head=30, next_tbtt=1.0, next_trigger=1.0)
        want = self.back_to_back(0.301, [sim._full_airtime] * 10)
        if bound == "sim_time":
            sim.cfg = dataclasses.replace(sim.cfg, sim_time=want[6])
        else:
            setattr(sim, bound, want[6])
        assert sim._predicted_starts(0.301) == want[:6]

    def test_nothing_past_the_last_scheduled_burst(self):
        # frame 99 is the run's last burst, also at a sim_time just past
        # 100 periods; the epoch runs past its end and past 100 * period,
        # but no MPDU starts after it
        sim = macsim.Simulator(load_config(overrides=["sim_time = 1.000000000005"]))
        sim._apply_beamform(0.3)
        period, count = sim.cfg.burst_interval, sim.burst_count
        assert sim._sources["burst_arrival"][1] == 100
        assert 100 * period < sim.cfg.sim_time
        self.open_epoch(sim, 99, head=98, sent=count - 1, next_tbtt=1.024, next_trigger=math.inf)
        last = self.back_to_back(99 * period, [sim._full_airtime] * (count - 1))
        assert last[-1] + sim._tail_airtime < sim.cfg.sim_time
        assert sim._predicted_starts(0.985) == [0.985] + last

    def test_cap_doubles_to_the_ceiling_and_falls_back_on_a_mismatch(self):
        # one long burst that never ages out and no burst to come: from any
        # start, the MAC and the prediction step one full airtime at a time
        overrides = ["sim_time = 1.0", "frame_rate = 1", "data_rate = 8e9", "deadline = 1.0"]
        sim = macsim.Simulator(load_config(overrides=overrides))
        sim._apply_beamform(0.3)
        self.open_epoch(sim, 1, head=0, next_tbtt=1.0, next_trigger=1.0)
        assert sim._sources["burst_arrival"][1] == 1 and sim.burst_count > 4 * macsim._LINK_BATCH_CEILING
        sim.snr_at = lambda ts: np.zeros(len(ts))
        floor, ceiling = macsim._LINK_BATCH, macsim._LINK_BATCH_CEILING
        assert ceiling == 16 * floor

        def use_batch(t, upto=None):
            self.link_snr(sim, t)
            starts = list(sim._batch_starts)
            assert starts == self.back_to_back(t, [sim._full_airtime] * (len(starts) - 1))
            for start in starts[1:upto]:
                self.link_snr(sim, start)
            return starts

        t, lengths = 0.3, []
        for _ in range(7):
            starts = use_batch(t)
            lengths.append(len(starts))
            t = starts[-1] + sim._full_airtime
        assert lengths == [floor, 2 * floor, 4 * floor, 8 * floor, ceiling, ceiling, ceiling]
        # the MAC leaves the batch after two starts: back to the floor
        starts = use_batch(t, upto=2)
        assert len(starts) == ceiling
        assert len(use_batch(starts[2] + 1e-6)) == floor
        assert len(use_batch(sim._batch_starts[-1] + sim._full_airtime)) == 2 * floor

    @staticmethod
    def spied_run(overrides):
        """Counters of a whole run and the length of every link batch."""
        sim = macsim.Simulator(load_config(overrides=overrides))
        batches, snr_at = [], sim.snr_at

        def spy(ts):
            batches.append(len(ts))
            return snr_at(ts)

        sim.snr_at = spy
        return sim.run().counters, batches

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(["data_rate = 8e9"], id="8e9"),
            pytest.param(["data_rate = 2e9"], id="2e9"),
            pytest.param(["rx_beamforming = sectors", "prediction = none", "bf_location = abft"], id="all_fail"),
        ],
    )
    def test_whole_runs_evaluate_each_start_about_once(self, overrides):
        # 8 Gbps never drains the queue, 2 Gbps drains it after every burst,
        # and on the sectors A-BFT path every attempt fails, so each frame's
        # head MPDU is retried until it ages out; either way the batches
        # follow the MAC through whole epochs
        counters, batches = self.spied_run(["sim_time = 2.0"] + overrides)
        if "bf_location = abft" in overrides:
            assert counters["mpdu_failures"] == counters["mpdu_attempts"] > 0
        assert counters["mpdu_attempts"] <= sum(batches) <= 1.01 * counters["mpdu_attempts"]
        assert len(batches) <= 3 * counters["bf_updates"]

    def test_no_batch_exceeds_the_ceiling(self):
        # one epoch of 0.3 s at 4 us per MPDU: an unbounded cap would reach
        # tens of thousands of starts, and arrays of that many rows
        counters, batches = self.spied_run([
            "rx_beamforming = quasi_omni", "prediction = none", "bf_interval = 1.0", "bi_duration = 1.024",
            "mpdu_bytes = 1000", "data_rate = 8e9", "sim_time = 0.3", "hmd_rows = 8", "hmd_cols = 8",
        ])
        assert counters["mpdu_attempts"] > 20 * macsim._LINK_BATCH_CEILING
        assert max(batches) == macsim._LINK_BATCH_CEILING
