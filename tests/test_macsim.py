"""Event loop, beacon-interval schedule, MPDU accounting and the medium rules."""

import collections
import dataclasses
import json
import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim import antenna, macsim, mobility
from xrsim.antenna import ArrayGeometry, AwvEvaluator, gain_db
from xrsim.codebook import cached_quasi_omni, generate_sector_codebook, steered_sectors, synthesize_quasi_omni
from xrsim.config import LINK_BATCH_CEILING, ConfigError, ScenarioConfig, load_config
from xrsim.geometry import Pose, ap_direction_in_hmd_frame, unit_vector
from xrsim.macsim import (
    EVENT_KINDS,
    FrameRecord,
    best_sector,
    burst_shape,
    write_event_log,
)
from xrsim.mobility import pose_at

from links import snr_db

CHUNK = 65536 * 8
HDR = 100 * 8


def shape(rate):
    return burst_shape(ScenarioConfig(data_rate=rate, frame_rate=100.0))


def burst_record(burst_bits, mpdu_bytes=65536, header_bytes=100):
    """The three fields ``burst_shape`` reads, for bursts off the config's
    data-rate grid, which no ScenarioConfig holds."""
    return types.SimpleNamespace(burst_bits=burst_bits, mpdu_bytes=mpdu_bytes, header_bytes=header_bytes)


def mpdu_sizes_bits(config):
    """Per-MPDU on-air sizes for one burst, from ``burst_shape``."""
    count, full, tail = burst_shape(config)
    return [full] * (count - 1) + [tail]


def pending(sim, kind):
    """Whether an event of ``kind`` is pending in ``sim``'s schedule."""
    return sim._slots[kind][0] != math.inf


def set_slot(sim, kind, t):
    """Make ``kind``'s pending event fall at t, or none pending at inf."""
    sim._slots[kind] = (t,) + sim._slots[kind][1:]


def set_tbtt(sim, t):
    """Make the pending beacon fall at t, with the index of the grid TBTT
    nearest t as its payload, from which the MAC counts the TBTTs after it."""
    sim._slots["beacon_start"] = (t,) + sim._slots["beacon_start"][1:4] + (round(t / sim.cfg.bi_duration),)


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
        # three whole chunks: a burst no rate of the config grid makes
        cfg = burst_record(3 * CHUNK)
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
        cfg = burst_record(total_bits, mpdu_bytes, header_bytes)
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
    return np.array([gain_db(g, awv.phases, d) for awv in awvs])


class TestBestSector:
    @pytest.fixture(scope="class")
    def book(self):
        g = ArrayGeometry(8, 8)
        return g, generate_sector_codebook(g, synthesize_quasi_omni(g))

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
    def link(self):
        return macsim.Link(load_config(overrides=["sim_time = 0.5"]))

    @staticmethod
    def directions(link, xs, ys):
        positions = [np.array([x, y, link.cfg.hmd_height]) for x in xs for y in ys]
        return [ap_direction_in_hmd_frame(link.ap_pose, p) for p in positions]

    def test_a_steered_sector_beats_the_quasi_omni_across_the_room(self, link):
        # why the AP needs no quasi-omni candidate: over the default room the
        # best steered sector beats the 8x8 quasi-omni pattern by >= 1 dB,
        # so adding it to the sweep could move no winner
        dirs = self.directions(link, np.linspace(*link.cfg.x_bounds, 41), np.linspace(*link.cfg.y_bounds, 21))
        u = np.stack(dirs)
        quasi_omni = AwvEvaluator(link.ap_geometry, cached_quasi_omni(link.ap_geometry)).gains_db(u)
        assert np.min(link.ap_sweep.gains_db(u).max(axis=1) - quasi_omni) >= 1.0

    def test_off_axis_winners_are_decided_by_gain(self, link):
        # off the axes through the AP's foot point no mirror pair ties, so
        # the sweep must pick the per-element oracle's best sector by a
        # clear margin, not by the tie rule
        xs = [f * link.cfg.room_x for f in (-0.375, -0.125, 0.125, 0.375)]
        ys = [f * link.cfg.room_y for f in (-0.375, -0.125, 0.125, 0.375)]
        winners = []
        for d in self.directions(link, xs, ys):
            gains = oracle_gains(link.ap_geometry, link.ap_sweep.awv, d)
            first, second = np.sort(gains)[::-1][:2]
            assert first - second > 1e6 * macsim.SWEEP_TIE_DB
            winners.append(best_sector(link.ap_sweep.gain_db(d)))
            assert winners[-1] == int(np.argmax(gains))
        assert len(set(winners)) == 16

    def test_closed_form_winners_are_the_oracles_across_the_room(self, link):
        # the sweep sums its steered sectors in closed form, not element by
        # element, so its gains differ from the per-element oracle's by
        # rounding; under the tie rule the winner must not.  On the axes
        # through the AP's foot point mirror-image sectors tie, and so they
        # do at the digest runs' mirror direction
        assert link.ap_sweep._layout is not None and link.ap_sweep._row_weights is None
        dirs = self.directions(link, np.linspace(*link.cfg.x_bounds, 41), np.linspace(*link.cfg.y_bounds, 21))
        ties = 0
        for d in dirs + [MIRROR_DIRECTION]:
            gains = oracle_gains(link.ap_geometry, link.ap_sweep.awv, d)
            assert best_sector(link.ap_sweep.gain_db(d)) == best_sector(gains), d
            first, second = np.sort(gains)[::-1][:2]
            ties += bool(first - second < macsim.SWEEP_TIE_DB)
        assert ties >= 60
        assert best_sector(link.ap_sweep.gain_db(MIRROR_DIRECTION)) == 20


class TestHeadsetSweep:
    """The headset's responder sweep probes its 8x8 codebook: 36 steered
    sectors, then the quasi-omni."""

    def test_closed_form_winners_are_the_oracles_across_the_room(self):
        # the sectors' real block fields and the quasi-omni's row and column
        # factors move each gain off the per-element oracle's by about
        # 1e-13 dB; under the tie rule no winner moves.  Headset positions
        # over the room, each at orientations along the rotation trace, and
        # the mirror direction where sectors 20 and 21 tie
        overrides = ["sim_time = 1.0", "rx_beamforming = sectors", "prediction = none"]
        link = macsim.Link(load_config(overrides=overrides))
        sweep = link.hmd_sweep
        assert len(sweep.awv) == 37 and sweep.awv[36].factors is not None
        assert sweep._layout is not None and sweep._row_weights is not None
        dirs = [MIRROR_DIRECTION]
        for t in np.linspace(0.0, link.trace.duration, 8, endpoint=False):
            turn = pose_at(link.trace, link.walk, t, link.cfg.hmd_height).orientation
            for x in np.linspace(*link.cfg.x_bounds, 9):
                for y in np.linspace(*link.cfg.y_bounds, 5):
                    pose = Pose(t, np.array([x, y, link.cfg.hmd_height]), turn)
                    dirs.append(ap_direction_in_hmd_frame(pose, link.ap_position))
        winners = []
        for d in dirs:
            winners.append(best_sector(sweep.gain_db(d)))
            assert winners[-1] == best_sector(oracle_gains(link.hmd_geometry, sweep.awv, d)), d
        assert winners[0] == 20 and len(set(winners)) >= 15

    def test_the_quasi_omni_wins_on_the_oracles_gains_too(self):
        # the 16x16 epoch of TestBatchedLink.test_sectors_quasi_omni_winner
        sim = TestBatchedLink.epoch(["rx_beamforming = sectors", "hmd_rows = 16", "hmd_cols = 16"], 0.1)
        link = sim.link
        d = ap_direction_in_hmd_frame(pose_at(link.trace, link.walk, 0.1, link.cfg.hmd_height), link.ap_position)
        gains = oracle_gains(link.hmd_geometry, link.hmd_sweep.awv, d)
        assert best_sector(link.hmd_sweep.gain_db(d)) == best_sector(gains) == 36
        assert np.max(np.abs(link.hmd_sweep.gain_db(d) - gains)) <= 1e-9


ABFT_SECTORS = ("rx_beamforming = sectors", "prediction = none", "bf_location = abft")


class TestSweepRows:
    """Every update takes its row of a sweep batch, each sweep one
    ``gains_db`` over the batch's directions (``Link._sweep_row``).  On
    the A-BFT path every BHI end beamforms, at times no MAC decision moves,
    so a batch holds the coming BHI ends; a DTI batch holds its one update,
    as the MAC decides when a sweep ends."""

    @staticmethod
    def lone_sweeps(link, t):
        """The pose at t and the gains of each sweep evaluated at t alone:
        one ``gain_db`` toward one direction."""
        pose = pose_at(link.trace, link.walk, t, link.cfg.hmd_height)
        ap = link.ap_sweep.gain_db(ap_direction_in_hmd_frame(link.ap_pose, pose.position))
        hmd = None if link.hmd_sweep is None else link.hmd_sweep.gain_db(ap_direction_in_hmd_frame(pose, link.ap_position))
        return pose, ap, hmd

    @staticmethod
    def bhi_ends(cfg):
        """Every BHI end before sim_time, as _reserve computes it."""
        period, count = cfg.bi_duration, macsim.event_count(cfg.sim_time, cfg.bi_duration)
        ends = [j * period + cfg.bhi_duration for j in range(count)]
        return [t for t in ends if t < cfg.sim_time]

    @staticmethod
    def record(monkeypatch):
        """Record each update's time, log tag and the row it took, whether
        it built a new batch, and the rows left in the batch after it."""
        updates, beamform, sweep_row = [], macsim.Link.beamform, macsim.Link._sweep_row

        def taking(self, t):
            held = self._rows
            row = sweep_row(self, t)
            updates.append([t, None, row, self._rows is not held, len(self._rows)])
            return row

        def tagging(self, t):
            tag = beamform(self, t)
            updates[-1][1] = tag
            return tag

        monkeypatch.setattr(macsim.Link, "_sweep_row", taking)
        monkeypatch.setattr(macsim.Link, "beamform", tagging)
        return updates

    @staticmethod
    def pending(link):
        """The times of the rows the batch still holds."""
        return [row[0].t for row in link._rows]

    def check(self, link, update):
        t, tag, row, *_ = update
        pose, ap, hmd = self.lone_sweeps(link, t)
        assert row[0].t == t and row[0].position.tobytes() == pose.position.tobytes()
        assert row[0].orientation == pose.orientation
        assert row[1].tobytes() == ap.tobytes(), t
        assert (row[2] is None) == (hmd is None) and (hmd is None or row[2].tobytes() == hmd.tobytes()), t
        assert tag.startswith("sector=%d hmd=" % best_sector(ap))
        if hmd is not None:
            assert tag.endswith("hmd=sector=%d" % best_sector(hmd))

    @pytest.mark.parametrize("overrides", [
        pytest.param(("sim_time = 8.0", "seed = 1") + ABFT_SECTORS, id="sectors_abft"),
        pytest.param(("sim_time = 2.0", "bf_location = abft"), id="covrage"),
        pytest.param(("sim_time = 2.0", "bf_location = abft", "rx_beamforming = quasi_omni", "prediction = none"),
                     id="quasi_omni"),
    ])
    def test_every_bhi_end_takes_the_lone_sweeps_winners(self, monkeypatch, overrides):
        updates = self.record(monkeypatch)
        sim = macsim.Simulator(load_config(overrides=list(overrides)))
        sim.run()
        ends = self.bhi_ends(sim.cfg)
        assert [t for t, *_ in updates] == ends
        # the first update evaluates the whole run's grid, every later one takes its row
        assert [built for *_, built, _ in updates] == [True] + [False] * (len(ends) - 1)
        assert [left for *_, left in updates] == list(range(len(ends) - 1, -1, -1))
        assert not sim.link._rows  # no row is left once taken
        for update in updates:
            self.check(sim.link, update)

    @pytest.mark.parametrize("overrides", [
        pytest.param((), id="covrage"),
        pytest.param(("rx_beamforming = sectors", "prediction = none"), id="sectors"),
        pytest.param(("rx_beamforming = quasi_omni", "prediction = none"), id="quasi_omni"),
    ])
    def test_each_dti_update_takes_a_one_row_batch(self, monkeypatch, overrides):
        updates = self.record(monkeypatch)
        sim = macsim.Simulator(load_config(overrides=["sim_time = 2.0", *overrides]), collect_events=True)
        res = sim.run()
        assert res.config.bf_location == "dti"
        # every sweep that ends before sim_time updates, from a batch of its own
        assert [t for t, *_ in updates] == [end for _, end in res.sls_intervals if end < res.config.sim_time]
        assert len(updates) == res.counters["bf_updates"] >= 20
        assert all(built and left == 0 for *_, built, left in updates)
        assert not sim.link._rows
        for update in updates:
            self.check(sim.link, update)

    def test_an_off_grid_update_evaluates_alone(self, monkeypatch):
        updates = self.record(monkeypatch)
        link = macsim.Link(load_config(overrides=["sim_time = 1.0", *ABFT_SECTORS]))
        ends = self.bhi_ends(link.cfg)
        link.beamform(ends[0])
        assert self.pending(link) == ends[1:]
        # 0.3 is no BHI end: it takes no row of the held batch but evaluates
        # from its own time, and the next BHI end takes the row after it
        link.beamform(0.3)
        assert self.pending(link) == [t for t in ends if t > 0.3]
        link.beamform(ends[3])
        assert len(updates) == 3 and updates[2][2][0].t == ends[3] and self.pending(link) == ends[4:]
        # a replaced config moves the grid: the update it moves evaluates from its time
        link.cfg = dataclasses.replace(link.cfg, bhi_duration=link.cfg.bhi_duration / 2.0)
        t = 4 * link.cfg.bi_duration + link.cfg.bhi_duration
        link.beamform(t)
        assert self.pending(link) == self.bhi_ends(link.cfg)[5:]
        assert [built for *_, built, _ in updates] == [True, True, False, True]
        for update in updates:
            self.check(link, update)

    def test_no_batch_holds_more_than_the_ceiling(self, monkeypatch):
        # 215 s of beacons: 2,100 BHI ends, more than one batch holds
        updates = self.record(monkeypatch)
        link = macsim.Link(load_config(overrides=["sim_time = 215.0", "rotation = static", *ABFT_SECTORS]))
        ends = self.bhi_ends(link.cfg)
        assert len(ends) > LINK_BATCH_CEILING
        for t in ends:
            link.beamform(t)
        full, rest = LINK_BATCH_CEILING, len(ends) - LINK_BATCH_CEILING
        assert [i for i, (*_, built, _) in enumerate(updates) if built] == [0, full]
        assert [left for *_, left in updates] == [*range(full - 1, -1, -1), *range(rest - 1, -1, -1)]
        for update in updates[full - 1 : full + 1]:
            self.check(link, update)


class TestTheLinkApart:
    """The MAC reads the link through ``snr_at`` and ``beamform`` alone, and a
    link needs only the config."""

    def test_the_mac_runs_on_a_link_of_the_two_calls(self):
        # outcomes flip every 100 us, so attempts succeed and fail
        cfg = load_config(overrides=["sim_time = 0.3", "rotation = static"])
        updates = []

        def snr(ts):
            return np.where(np.floor(ts / 1e-4) % 2 == 0, 100.0, -100.0)

        real = macsim.Simulator(cfg, collect_events=True)
        real.link.snr_at = snr
        stub = macsim.Simulator(cfg, collect_events=True)
        stub.link = types.SimpleNamespace(snr_at=snr, beamform=lambda t: updates.append(t) or "stub")
        want, got = real.run(), stub.run()
        assert got.counters == want.counters and got.counters["bf_updates"] == len(updates) == 3
        assert 0 < got.counters["mpdu_failures"] < got.counters["mpdu_attempts"]
        assert got.counters["frames_delivered"] > 0
        assert got.frames == want.frames and got.tx_intervals == want.tx_intervals
        assert updates == [end for _, end in want.sls_intervals]

    @pytest.mark.parametrize("overrides", [(), ABFT_SECTORS, ("rx_beamforming = quasi_omni", "prediction = none")])
    def test_a_link_built_alone_is_a_simulators_link(self, overrides):
        cfg = load_config(overrides=["sim_time = 1.0", *overrides])
        alone, sim = macsim.Link(cfg), macsim.Simulator(cfg)
        ts = 0.3 + np.arange(70) * 1.3e-4
        assert alone.beamform(0.3) == sim.link.beamform(0.3)
        assert alone.snr_at(ts).tobytes() == sim.link.snr_at(ts).tobytes()


def test_each_sector_link_is_built_once_and_reused(monkeypatch):
    # a sector's weights never change, so its link evaluator is built on
    # the sector's first win and the same object serves every later win
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, overrides_for

    sim = macsim.Simulator(load_config(overrides=overrides_for(WORKLOADS["light_2g"], 1, 0.3)))
    built, init, beamform = [], AwvEvaluator.__init__, macsim.Link.beamform
    links = []

    def counting(self, geometry, awv):
        built.append(geometry)
        init(self, geometry, awv)

    def recording(self, t):
        tag = beamform(self, t)
        links.append((self.ap_sector, self.ap_eval))
        return tag

    monkeypatch.setattr(AwvEvaluator, "__init__", counting)
    monkeypatch.setattr(macsim.Link, "beamform", recording)
    sim.run()
    sim._apply_beamform(0.1)  # a sector that has won before
    assert len(links) == 4
    assert len({id(ev) for _, ev in links}) == len({sector for sector, _ in links})
    assert all(ev is sim.link._sector_links[sim.link.ap_sweep, sector] for sector, ev in links)
    assert built.count(sim.link.ap_geometry) == len({sector for sector, _ in links})
    assert built.count(sim.link.hmd_geometry) == 4  # a covrage beam is new at every update


@pytest.mark.parametrize("workload", ["light_2g", "saturated_8g", "sectors_abft"])
def test_a_starts_snr_does_not_depend_on_its_batch(monkeypatch, workload):
    # AwvEvaluator.gains_db cuts a batch into matrix products by its length;
    # a start's SNR must keep its bits in every batch from one start to the
    # 2,048 of the batch ceiling, wherever in the batch it falls
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, overrides_for

    sim = macsim.Simulator(load_config(overrides=overrides_for(WORKLOADS[workload], 1, 0.5)))
    sim._apply_beamform(0.3)
    ts = 0.3 + np.arange(2048) * sim._full_airtime
    whole = sim.link.snr_at(ts)
    for n in (1, 2, 3, 7, 128, 2047):
        for at in sorted({0, 1, 1000, 2048 - n}):
            assert np.array_equal(sim.link.snr_at(ts[at:at + n]), whole[at:at + n]), (n, at)


STATIC_2S = ("sim_time = 2.0", "rotation = static")


@pytest.fixture(scope="class")
def recorded_default_run():
    """A default 20 s run with every push recorded: its counters, the pushes
    per event kind and the peak count of pending events."""
    sim = macsim.Simulator(load_config())
    push, pushes, peak = sim._push, collections.Counter(), [0]

    def recording_push(t, kind, payload=None):
        push(t, kind, payload)
        pushes[kind] += 1
        peak[0] = max(peak[0], sum(pending(sim, k) for k in EVENT_KINDS))

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
        # each kind holds at most one pending event, in its slot; pushing
        # every beacon, trigger and burst up front took 2,397 heap entries.
        # Arrivals keep their rank without a push: admitting frames writes
        # the next one into its slot
        counters, pushes, peak = recorded_default_run
        assert counters["frames_total"] == 2000
        assert peak <= 7
        assert pushes["burst_arrival"] == 0

    def test_back_to_back_mpdus_skip_the_heap(self, recorded_default_run):
        # only an MPDU that ends at or after the next event is pushed, so
        # each such event accounts for at most one push; with one event per
        # MPDU there were 192,000
        counters, pushes, _ = recorded_default_run
        assert counters["mpdu_attempts"] == 192_000
        others = ("beacon_start", "bhi_end", "bf_trigger", "sls_done")
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
        assert [(t, kind) for t, kind, _ in res.events] == [
            (0.0, "beacon_start"), (0.0, "bf_trigger"), (0.0, "burst_arrival"), (1e-12, "sim_end"),
        ]
        assert res.counters["frames_total"] == 1

    def test_sweep_starts_are_attributable(self, run_cached):
        # every sweep begins at a trigger, a BHI end, or an MPDU completion
        res = run_cached(*STATIC_2S, collect=True)
        allowed = set()
        for t, kind, detail in res.events:
            if kind in ("bhi_end", "mpdu_tx_done"):
                allowed.add(t)
            if kind == "bf_trigger" and detail == "start":
                allowed.add(t)
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
        times = [t for t, _, _ in res.events]
        assert times == sorted(times)

    def test_trigger_log_names_why_a_sweep_waits(self, run_cached):
        # a 0.1 s sweep fits only right after a BHI, so every trigger waits
        res = run_cached("sim_time = 1.0", "sls_duration = 0.1", collect=True)
        details = [detail for _, kind, detail in res.events if kind == "bf_trigger"]
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

    def test_a_kind_is_pending_at_most_once(self):
        # one slot per kind: a second push of a pending kind is a fault
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.05", "rotation = static"]))
        sim._push(1e-3, "mpdu_tx_done", True)
        with pytest.raises(RuntimeError, match="mpdu_tx_done"):
            sim._push(2e-3, "mpdu_tx_done", True)

    def test_same_rank_events_at_one_instant_run_in_push_order(self):
        # no pinned run has two same-rank events at one instant: here an MPDU
        # end pushed before the run falls where the t = 0 beacon's BHI ends,
        # and its handler runs first because it was pushed first
        cfg = load_config(overrides=["sim_time = 0.05", "rotation = static"])
        sim, calls = macsim.Simulator(cfg), []
        for kind in ("mpdu_tx_done", "bhi_end"):
            def spy(t, payload, kind=kind, handler=getattr(sim, "_on_" + kind)):
                calls.append((t, kind))
                handler(t, payload)

            setattr(sim, "_on_" + kind, spy)
        sim._push(cfg.bhi_duration, "mpdu_tx_done", True)
        sim.run()
        assert [kind for t, kind in calls if t == cfg.bhi_duration] == ["mpdu_tx_done", "bhi_end"]

    def test_mcs_gate_is_inclusive(self):
        # an attempt at exactly snr_threshold_db succeeds, one just below fails
        for offset_db, fails_all in ((0.0, False), (-1e-9, True)):
            overrides = ["sim_time = 0.05", "rotation = static", "snr_threshold_db = 12.5"]
            sim = macsim.Simulator(load_config(overrides=overrides))
            snr = 12.5 + offset_db
            sim.link.snr_at = lambda ts: np.full(len(ts), snr)
            counters = sim.run().counters
            assert counters["mpdu_attempts"] > 0
            assert counters["mpdu_failures"] == (counters["mpdu_attempts"] if fails_all else 0)

    def test_a_nan_link_snr_is_refused(self):
        # a NaN fails the MCS gate unseen, as a plain failed attempt would
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.05", "rotation = static"]))
        sim.link.snr_at = lambda ts: np.where(np.arange(len(ts)) == 1, np.nan, 20.0)
        with pytest.raises(RuntimeError, match=r"NaN link SNR in the batch from t=\d"):
            sim.run()

    @pytest.mark.parametrize("sweep, mode", [("ap_sweep", "covrage"), ("hmd_sweep", "sectors")])
    def test_a_nan_sweep_gain_is_refused(self, sweep, mode):
        # best_sector([1, 5, nan, 3]) names sector 0, so a NaN gain would pick a winner unseen
        overrides = ["sim_time = 0.05", "rotation = static", "rx_beamforming = %s" % mode]
        sim = macsim.Simulator(load_config(overrides=overrides))
        gains_db = getattr(sim.link, sweep).gains_db

        def with_nan(directions):
            gains = gains_db(directions)
            gains[..., 2] = np.nan
            return gains

        getattr(sim.link, sweep).gains_db = with_nan
        with pytest.raises(RuntimeError, match=r"NaN sweep gain in the batch from t=\d"):
            sim.run()


class TestRunService:
    """Serving back-to-back MPDUs in one pass against one event per MPDU,
    the run length forced to 1."""

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
        # every MPDU end is at or after the next event: each is pushed
        single._next_event_time = lambda: -math.inf
        want = self.outcome(single)
        assert self.outcome(macsim.Simulator(cfg, collect_events=True)) == want

    @staticmethod
    def step_log(sim):
        """Record each array step of ``sim``: why it stopped, its horizon
        and the span of its attempts in the run's, as ``mpdu_attempts``
        counts them before and after the step."""
        step, steps = sim._step, []

        def spy(t, horizon):
            first = sim.counters["mpdu_attempts"]
            start = step(t, horizon)
            if start is None:
                reason = "heap_event" if pending(sim, "mpdu_tx_done") else "drained"
            elif sim._batch_next < len(sim._batch_starts):
                reason = "start_mismatch"
            else:
                reason = "batch_end"
            steps.append((reason, horizon, first, sim.counters["mpdu_attempts"]))
            return start

        sim._step = spy
        return steps

    @staticmethod
    def seen(steps, frames, tx_intervals):
        """Why each step stopped, and what the steps crossed: where a frame's
        attempts follow another's, an idle gap to an arrival, a completion
        or an age-out drop, and each MPDU end at an arrival time.  ``frames``
        and ``tx_intervals`` as :meth:`outcome` gives them; each step's rows
        are its span of ``tx_intervals``."""
        arrivals = {created for _, created, _, _ in frames}
        for reason, horizon, first, last in steps:
            rows = tx_intervals[first:last]
            yield reason
            for (_, end, _, frame_id), (start, _, _, next_id) in zip(rows, rows[1:]):
                if next_id != frame_id:
                    if start > end:
                        yield "idle_gap"
                    else:
                        yield "completion" if frames[frame_id][2] == end else "age_out"
            yield from ("tie" for _, end, _, _ in rows if end < horizon and end in arrivals)

    @pytest.mark.parametrize(
        "seen, overrides, snr_db",
        [
            # 8 Gbps: a burst outlasts the burst interval, so an MPDU is on
            # air at each trigger and beacon
            ("heap_event", ["data_rate = 8e9"], lambda ts: np.full(len(ts), 100.0)),
            # and the next frame waits queued while one completes
            ("completion", ["data_rate = 8e9"], lambda ts: np.full(len(ts), 100.0)),
            # every attempt fails; a frame ages out 15 ms after its arrival,
            # while the next frame waits and no other event is due
            ("age_out", ["deadline = 0.015"], lambda ts: np.full(len(ts), -100.0)),
            # outcomes flip every 100 us, so the retry prediction misses
            # wherever a burst's tail or next burst starts
            ("start_mismatch", [], lambda ts: np.where(np.floor(ts / 1e-4) % 2 == 0, 100.0, -100.0)),
            # 2 Gbps drains the queue after every burst: a step waits for
            # the next arrival, and stops where none comes before a trigger
            ("idle_gap", ["data_rate = 2e9"], lambda ts: np.full(len(ts), 100.0)),
            ("drained", ["data_rate = 2e9"], lambda ts: np.full(len(ts), 100.0)),
            # every time a binary fraction of a second: 64 frames a second,
            # MPDUs of 2**-11 s from the sweep's end at 6 * 2**-11 s, and one
            # beacon interval, so every 32nd MPDU ends as a frame arrives
            (
                "tie",
                [
                    "sim_time = 0.1", "frame_rate = 64", "data_rate = 2e9", "mpdu_bytes = 31250",
                    "header_bytes = 0", "per_mpdu_overhead = 0", "phy_rate_bps = 512e6",
                    "bhi_duration = 0.001953125", "sls_duration = 0.0009765625",
                ],
                lambda ts: np.full(len(ts), 100.0),
            ),
        ],
    )
    def test_each_stop_matches_the_oracle(self, seen, overrides, snr_db):
        cfg = load_config(overrides=["sim_time = 0.3", "rotation = static"] + overrides)
        single = macsim.Simulator(cfg, collect_events=True)
        single.link.snr_at = snr_db
        single._next_event_time = lambda: -math.inf
        want = self.outcome(single)
        sim = macsim.Simulator(cfg, collect_events=True)
        sim.link.snr_at = snr_db
        steps = self.step_log(sim)
        assert self.outcome(sim) == want
        counts = collections.Counter(self.seen(steps, want[1], want[2]))
        assert want[0]["mpdu_attempts"] > len(steps) and counts[seen] >= 2, counts

    def test_a_step_serves_many_bursts(self):
        # 2 Gbps drains the queue after every burst; one step per burst
        # took 211 steps for these 200 bursts
        sim = macsim.Simulator(load_config(overrides=["sim_time = 2.0", "data_rate = 2e9"]))
        steps = self.step_log(sim)
        counters = sim.run().counters
        assert counters["frames_delivered"] == counters["frames_total"] == 200
        assert len(steps) <= 50

    def test_a_simulator_runs_once(self):
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.2"]))
        sim.run()
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run()


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
        try_start, next_start, checked = sim._try_start_tx, sim._next_start, []

        def check(t, *horizon):
            start = (next_start if horizon else try_start)(t, *horizon)
            below, queued = sim.frames[: sim.head], sim.frames[sim.head :]
            dropped = sum(1 for r in below if r.completed is None)
            assert dropped == sim.counters["frames_dropped"]
            assert all(r.completed is None for r in queued)
            assert 0 <= sim.sent < sim.burst_count and (sim.sent == 0 or queued)
            checked.append(t)
            return start

        # a decision is taken on every free medium, and inside an array step
        # wherever a frame completes or leaves the queue
        sim._try_start_tx, sim._next_start = check, check
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
        details = [detail for _, kind, detail in res.events if kind == "sls_done"]
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


class TestLazySetUp:
    """Set-up builds only what the run reads."""

    @pytest.mark.parametrize("prediction, builds", [("none", 0), ("extrapolation", 0), ("oracle", 0), ("device", 1)])
    def test_only_device_prediction_builds_the_device_column(self, monkeypatch, prediction, builds):
        built = []

        class CountingTrace(mobility.TraceSet):
            def __init__(self, times, orientations, build=None, horizons=None):
                device = (lambda: built.append(1) or build()) if callable(build) else build
                super().__init__(times, orientations, device, horizons)

        monkeypatch.setattr(mobility, "TraceSet", CountingTrace)
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.3", "prediction = %s" % prediction]))
        assert isinstance(sim.link.trace, CountingTrace) and sim.link.trace.has_device and built == []
        assert sim.run().counters["bf_updates"] == 3
        assert len(built) == builds

    def test_sectors_share_one_steered_set(self):
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.3", "rx_beamforming = sectors"]))
        assert sim.link.ap_geometry == sim.link.hmd_geometry
        assert len(sim.link.hmd_sweep.awv) == 37 and len(sim.link.ap_sweep.awv) == 36
        assert all(h is a for h, a in zip(sim.link.hmd_sweep.awv[:36], sim.link.ap_sweep.awv))
        assert sim.link.ap_sweep.awv is steered_sectors(sim.link.ap_geometry)


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
        assert sim.link.hmd_eval is None and sim.link.hmd_sweep is None
        # the AP sweeps its 36 steered transmit sectors, in id order
        sectors = steered_sectors(sim.link.ap_geometry)
        assert len(sim.link.ap_sweep.awv) == len(sectors) == 36
        for awv, sector in zip(sim.link.ap_sweep.awv, sectors):
            assert awv.blocks and np.array_equal(awv.phases, sector.phases)

    def test_a_covrage_run_builds_no_phases(self, monkeypatch):
        # the closed form sums steered blocks, so no beam the loop plans
        # builds its 4,096 phases; the AP's stacked sweep built its own
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.5"]))
        built = []
        block_phases = antenna._block_phases
        monkeypatch.setattr(antenna, "_block_phases", lambda *a: built.append(a) or block_phases(*a))
        counters = sim.run().counters
        assert counters["bf_updates"] == 5 and counters["mpdu_attempts"] > 0
        assert sim.link.hmd_eval.awv.blocks and built == []

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
            assert sim.link.hmd_eval.awv is cached_quasi_omni(sim.link.hmd_geometry)
        else:
            assert sim.link.hmd_sweep.awv[-1] is cached_quasi_omni(sim.link.hmd_geometry)
            assert sim.link.hmd_eval is None

    @pytest.mark.parametrize(
        "overrides, first_update",
        [(STATIC_2S, "sls_done"), (("sim_time = 2.0", "bf_location = abft"), "bhi_end")],
    )
    def test_no_mpdu_starts_before_the_first_sweep(self, run_cached, overrides, first_update):
        # covrage has no HMD pattern before the first beamforming update,
        # and needs none, because no MPDU starts before it
        res = run_cached(*overrides, collect=True)
        first = next(t for t, kind, _ in res.events if kind == first_update)
        assert res.tx_intervals
        assert min(start for start, _, _, _ in res.tx_intervals) >= first

    def test_a_link_evaluation_before_the_first_sweep_is_refused(self):
        # the link refuses it, whether the MAC asks or not
        sim = macsim.Simulator(load_config(overrides=["sim_time = 0.5"]))
        sim.frames.append(FrameRecord(0, 0.0))  # frame 0 is queued
        with pytest.raises(RuntimeError, match="before the first sweep at t=0.010000000"):
            sim._link_index(0.01)
        with pytest.raises(RuntimeError, match="before the first sweep at t=0.020000000"):
            macsim.Link(sim.cfg).snr_at(np.array([0.02, 0.03]))


class TestBatchedLink:
    """The batched link path against the per-element oracle ``snr_db``
    (``tests/links.py``)."""

    @pytest.fixture()
    def sim(self):
        # 1 s of high motion: the trace ends (and wraps) at 1.0 s, and the
        # 0.5 s walk has its last step at 1.0 s
        sim = macsim.Simulator(load_config(overrides=["sim_time = 1.0", "prediction = oracle"]))
        sim._apply_beamform(0.3)
        return sim

    @staticmethod
    def oracle(sim, t):
        pose = pose_at(sim.link.trace, sim.link.walk, t, sim.cfg.hmd_height)
        return snr_db(
            sim.cfg,
            sim.link.ap_pose,
            sim.link.ap_geometry,
            sim.link.ap_eval.awv,
            pose,
            sim.link.hmd_geometry,
            sim.link.hmd_eval.awv,
        )

    @staticmethod
    def link_snr(sim, t):
        """SNR of an MPDU starting at t: the batch entry the lookup gives it."""
        k = sim._link_index(t)  # may replace the batch
        return sim._batch_snr[k]

    def check(self, sim, ts):
        got = sim.link.snr_at(np.array(ts))
        assert got.shape == (len(ts),)
        for value, t in zip(got, ts):
            assert abs(value - self.oracle(sim, t)) <= 1e-9

    def test_batch_of_one(self, sim):
        self.check(sim, [0.3123])

    def test_back_to_back_starts(self, sim):
        airtime = sim._airtime(mpdu_sizes_bits(sim.cfg)[0])
        self.check(sim, [0.3 + k * airtime for k in range(70)])

    def test_trace_wrap(self, sim):
        assert sim.link.trace.duration == 1.0
        self.check(sim, [0.9996, 0.9999, 1.0, 1.00003, 1.0011, 1.7, 2.0005])

    def test_walk_last_step(self, sim):
        assert len(sim.link.walk.positions) == 3
        self.check(sim, [0.4999, 0.5, 0.9999, 1.0, 1.0001, 1.5])

    @staticmethod
    def epoch(overrides, t):
        sim = macsim.Simulator(load_config(overrides=["sim_time = 1.0"] + overrides))
        sim._apply_beamform(t)
        return sim

    @staticmethod
    def path(ev):
        """The sum an evaluator takes: the row and column factors, the
        complex block sum, or the real field of one full-width block at
        offset 0, whose layout records no turn."""
        if ev._row_weights is not None:
            return "factored"
        return "real" if ev._layout[4] is None else "complex"

    def check_epoch(self, sim, hmd_path):
        # a steered sector, the AP's on every epoch, takes the real field
        assert self.path(sim.link.ap_eval) == "real"
        assert self.path(sim.link.hmd_eval) == hmd_path
        self.check(sim, [0.3 + 0.0137 * k for k in range(50)])

    def test_multi_block_covrage_epoch(self):
        sim = self.epoch(["prediction = oracle", "bf_interval = 1.0"], 0.0)
        assert sim.link.hmd_label == "covrage" and len(sim.link.hmd_eval.awv.blocks) >= 2
        self.check_epoch(sim, "complex")

    def test_one_block_covrage_epoch(self):
        sim = self.epoch(["prediction = none"], 0.3)
        assert sim.link.hmd_label == "covrage" and len(sim.link.hmd_eval.awv.blocks) == 1
        self.check_epoch(sim, "real")

    def test_sectors_directional_winner(self):
        sim = self.epoch(["rx_beamforming = sectors"], 0.5)
        assert sim.link.hmd_label == "sector=33"
        self.check_epoch(sim, "real")

    def test_sectors_quasi_omni_winner(self):
        # the 8x8 chirp wins no sweep of the default runs; at 16x16 it beats
        # every sector by 0.34 dB here, in the narrow beams' gaps
        sim = self.epoch(["rx_beamforming = sectors", "hmd_rows = 16", "hmd_cols = 16"], 0.1)
        assert sim.link.hmd_label == "sector=36" and sim.link.hmd_eval.awv.factors is not None
        self.check_epoch(sim, "factored")

    def test_quasi_omni_mode(self):
        sim = self.epoch(["rx_beamforming = quasi_omni", "prediction = none"], 0.3)
        assert sim.link.hmd_label == "qo"
        self.check_epoch(sim, "factored")

    def test_a_quasi_omni_batch_holds_one_pair_of_phasor_tables(self):
        # one 2,048-start batch of the 64x64 quasi-omni: its traced peak is
        # the row or the column phasor table, 2.54 MB measured (0.61 of the
        # bound), where the lattice product's was 8.79 MB.  This is what kept
        # the loop's minor faults at about 1,850, down from about 236,000
        sim = self.epoch(["rx_beamforming = quasi_omni", "prediction = none"], 0.3)
        g = sim.link.hmd_geometry
        assert (g.rows, g.cols) == (64, 64)
        airtime = sim._airtime(mpdu_sizes_bits(sim.cfg)[0])
        ts = np.array(self.back_to_back(0.3, [airtime] * (LINK_BATCH_CEILING - 1)))
        assert len(ts) == 2048
        sim.link.snr_at(ts[:2])
        tracemalloc.start()
        try:
            sim.link.snr_at(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(ts) * (g.rows + g.cols) * np.dtype(complex).itemsize, peak

    @staticmethod
    def open_epoch(sim, frames_seen, head, sent=0, next_tbtt=4 * 0.1024, next_trigger=0.4):
        """The epoch state that run() keeps: the pending beacon and trigger
        in their slots, the bursts that have arrived, each at ``k * period``,
        and the queue, from frame ``head`` of which ``sent`` MPDUs are
        delivered."""
        period = sim.cfg.burst_interval
        set_tbtt(sim, next_tbtt)
        set_slot(sim, "bf_trigger", next_trigger)
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

    @pytest.mark.parametrize("bound", ["abft_tbtt", "owed_sweep_tbtt", "next_trigger", "sim_time"])
    def test_no_start_at_or_after_the_horizon(self, sim, bound):
        # a start that lands exactly on the bound is left out; a TBTT bounds
        # the batch on the A-BFT path, where every BHI end beamforms, and
        # while a sweep is owed, which starts at the BHI end
        self.open_epoch(sim, 31, head=30, next_tbtt=1.0, next_trigger=1.0)
        want = self.back_to_back(0.301, [sim._full_airtime] * 10)
        if bound == "sim_time":
            sim.cfg = dataclasses.replace(sim.cfg, sim_time=want[6])
        elif bound == "next_trigger":
            set_slot(sim, "bf_trigger", want[6])
        else:
            set_slot(sim, "beacon_start", want[6])
            if bound == "abft_tbtt":
                sim.cfg = dataclasses.replace(sim.cfg, bf_location="abft")
            else:
                sim.sls_owed = True
        assert sim._predicted_starts(0.301) == want[:6]

    @pytest.mark.parametrize("landing", ["at", "after"])
    def test_a_dti_start_at_or_after_a_tbtt_moves_to_the_bhi_end(self, sim, landing):
        # a DTI beacon header changes neither AWV, so the batch runs on:
        # the start that meets the BHI moves to its end, where the MAC takes
        # its next decision, and the starts go on back to back from there
        full = sim._full_airtime
        self.open_epoch(sim, 31, head=30, next_tbtt=1.0, next_trigger=1.0)
        want = self.back_to_back(0.301, [full] * 10)
        tbtt = want[6] if landing == "at" else (want[5] + want[6]) / 2.0
        set_tbtt(sim, tbtt)
        bhi_end = tbtt + sim.cfg.bhi_duration  # as _reserve computes it
        assert bhi_end > want[6]
        got = sim._predicted_starts(0.301)
        assert got[:6] == want[:6]
        assert got[6:11] == self.back_to_back(bhi_end, [full] * 4)

    def test_an_mpdu_in_flight_past_the_bhi_end_keeps_its_own_end(self, sim):
        # the MPDU on air when the BHI begins completes; the next start is
        # its end, which comes after the BHI's
        full = sim._full_airtime
        sim.cfg = dataclasses.replace(sim.cfg, bhi_duration=full / 4.0)
        self.open_epoch(sim, 31, head=30, next_tbtt=1.0, next_trigger=1.0)
        want = self.back_to_back(0.301, [full] * 10)
        tbtt = (want[5] + want[6]) / 2.0
        set_tbtt(sim, tbtt)
        assert tbtt + sim.cfg.bhi_duration < want[6]
        assert sim._predicted_starts(0.301)[:11] == want

    def test_a_one_second_epoch_crosses_several_bhis(self):
        # with bf_interval = 1.0 only the run's end bounds the batch: every
        # start follows the previous one's airtime, an arrival or a BHI end
        # (each TBTT as _schedule computes it), and none falls in a BHI
        sim = macsim.Simulator(load_config(overrides=["sim_time = 1.0", "bf_interval = 1.0"]))
        assert sim._sources["bf_trigger"][1] == 1
        cfg, period = sim.cfg, sim.cfg.burst_interval
        self.open_epoch(sim, 31, head=30, next_tbtt=3 * cfg.bi_duration, next_trigger=math.inf)
        sim._link_cap = 10**6
        got = sim._predicted_starts(0.301)
        bhis = [(j * cfg.bi_duration, j * cfg.bi_duration + cfg.bhi_duration) for j in range(3, 10)]
        arrivals, bhi_ends = {k * period for k in range(31, 100)}, {end for _, end in bhis}
        assert got[-1] < cfg.sim_time < got[-1] + sim._full_airtime + period
        assert not any(begin <= t < end for t in got for begin, end in bhis)
        for prev, t in zip(got, got[1:]):
            assert t in (prev + sim._full_airtime, prev + sim._tail_airtime) or t in arrivals | bhi_ends
        assert len(bhi_ends & set(got)) >= 3

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
        assert sim._sources["burst_arrival"][1] == 1 and sim.burst_count > 4 * LINK_BATCH_CEILING
        sim.link.snr_at = lambda ts: np.zeros(len(ts))
        floor, ceiling = macsim._LINK_BATCH, LINK_BATCH_CEILING
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
        batches, snr_at = [], sim.link.snr_at

        def spy(ts):
            batches.append(len(ts))
            return snr_at(ts)

        sim.link.snr_at = spy
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
        # a DTI batch runs across beacon headers: about one per epoch
        per_update = 3 if "bf_location = abft" in overrides else 1.25
        assert len(batches) <= per_update * counters["bf_updates"]

    def test_no_batch_exceeds_the_ceiling(self):
        # one epoch of 0.3 s at 4 us per MPDU: an unbounded cap would reach
        # tens of thousands of starts, and arrays of that many rows
        counters, batches = self.spied_run([
            "rx_beamforming = quasi_omni", "prediction = none", "bf_interval = 1.0", "bi_duration = 1.024",
            "mpdu_bytes = 1000", "data_rate = 8e9", "sim_time = 0.3", "hmd_rows = 8", "hmd_cols = 8",
        ])
        assert counters["mpdu_attempts"] > 20 * LINK_BATCH_CEILING
        assert max(batches) == LINK_BATCH_CEILING
