"""Behaviour fingerprint: SHA-256 of the event-log bytes of ten fixed 2 s runs.

Every event, its time to the nanosecond and its detail (sweep winners, MPDU
outcomes and start times) lands in the log, so these digests pin the
simulated outcome of each receive mode and schedule path.  A refactor or a
speed-up must keep them; a change that moves them on purpose says why.  The
same logs are checked to run in (time, rank) order.
"""

import collections
import hashlib

import numpy as np
import pytest

from linkbatches import record_link_batches
from xrsim import macsim
from xrsim.config import load_config
from xrsim.macsim import _RANK, write_event_log

DIGESTS = {
    "static": (
        ("rotation = static",),
        "c2353a84e3d3cc5172d436c49ac6489fab69306b51e167d3d3c2f641c55f4668",
    ),
    # the oracle reads the trace no later than the run's end; before that
    # clamp its last epoch read the head orientation of t = 0 across the
    # trace's wrap, and 1,433 attempts failed.  Now none fails, and the log,
    # which never names the headset beam, has the bytes of the static one
    "high_oracle": (
        ("prediction = oracle",),
        "c2353a84e3d3cc5172d436c49ac6489fab69306b51e167d3d3c2f641c55f4668",
    ),
    # so a pin still sees the oracle beam: over 1 s epochs 27,253 attempts fail
    "oracle_1s": (
        ("prediction = oracle", "bf_interval = 1.0"),
        "af02dd64a3cbf0346592d4345d09240956130ce92753057cde2252a219afc043",
    ),
    "rate_8g": (
        ("data_rate = 8e9",),
        "b2f55b52a68daf6fa5996b96ce59e051ef08bb3b8ef214851ff561b235bee878",
    ),
    # In every run here the two best AP sectors of each sweep are a mirror
    # pair about the probed direction (14 and 20, or 20 and 21), whose gains
    # differ by rounding alone, so the sweep tie rule names the lower id.
    # Replacing the strict maximum by that rule moved one line in each of
    # the six logs, the sweep at about 1.90 s (here at 1.9476 s) from AP
    # sector 21 to 20.
    "abft": (
        ("bf_location = abft",),
        "d18d8b17d4bca9738ecb329c0726f269add248c8fe797c2be9c3a05a331814fa",
    ),
    # the closed-form quasi-omni entry wins none of its sweeps: six sweep
    # lines that named it name a steered headset sector, every attempt of
    # both patterns fails, and no other byte moved
    "sectors": (
        ("rx_beamforming = sectors", "prediction = none"),
        "cc2bfab30bd59417bcb0fc4d3d4a446c689c96362f5cf0ed9404fca288ac1d84",
    ),
    "quasi_omni": (
        ("rx_beamforming = quasi_omni", "prediction = none"),
        "022401d13454d5b46f9c573085a571052757364d567e7562562315786dd6cd89",
    ),
    # the covrage beam from the held orientation: 84 failed attempts
    "prediction_none": (
        ("prediction = none",),
        "9f8d668aaf37afcfa843d1adefb738916a9baf30f813d5cc2da71e2a7077843f",
    ),
    # at bf_interval = 0.1 no attempt fails and the log, which never names
    # the headset beam, has the bytes of the static one; over 1 s epochs
    # 18,643 attempts fail
    "extrapolation_1s": (
        ("prediction = extrapolation", "bf_interval = 1.0"),
        "4b904e90e32683438d6e4841f99b4eac09560a938ed8c8ccb5cd2d89e91d6d0d",
    ),
    # 50 ms walk steps, as the link-batch digests take, move the headset off
    # the axes through the AP's foot point, where every AP sweep of the runs
    # above is a mirror tie; here most sweeps are decided by gain
    "walk_50ms": (
        ("walk_step_interval = 0.05",),
        "9fc308e7722392608fc5ad098c5e3c9476db9f32322d22b61f7a4d80f116ee3c",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_event_log_digest(name, run_cached, tmp_path):
    overrides, want = DIGESTS[name]
    res = run_cached("sim_time = 2.0", *overrides, collect=True)
    path = tmp_path / "events.csv"
    write_event_log(path, res.events)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_events_run_in_time_and_rank_order(name, run_cached):
    # an arrival keeps its rank: at one instant it follows a beacon start or
    # a trigger, as every log here has it at least once (16 times at
    # bf_interval = 0.1), and precedes every other kind
    overrides, _ = DIGESTS[name]
    events = run_cached("sim_time = 2.0", *overrides, collect=True).events
    keys = [(t, _RANK[kind]) for t, kind, _ in events]
    assert keys == sorted(keys)
    shared = [(ka, kb) for (ta, ka, _), (tb, kb, _) in zip(events, events[1:]) if ta == tb and ka != kb]
    assert sum(kind == "burst_arrival" for _, kind in shared) >= 1


@pytest.mark.parametrize("name", ["rate_8g", "sectors", "walk_50ms"])
def test_the_log_is_a_view_of_the_records(name):
    # the attempts are the retired link batches' used prefixes of starts and
    # SNRs, in order; after the loop one replay of them on the frame records
    # gives each attempt's tx_intervals row and its log line, as each
    # arrival's line comes from the frame records; a run that collects
    # nothing keeps no prefixes
    overrides, _ = DIGESTS[name]
    collecting = macsim.Simulator(load_config(overrides=["sim_time = 2.0", *overrides]), collect_events=True)
    res = collecting.run()
    starts = np.concatenate([at for at, _ in collecting._attempts])
    snr = np.concatenate([snr for _, snr in collecting._attempts])
    assert starts.tolist() == [row[0] for row in res.tx_intervals]
    assert (snr >= res.config.snr_threshold_db).tolist() == [row[2] for row in res.tx_intervals]
    assert sum(len(at) for at, _ in collecting._attempts) == res.counters["mpdu_attempts"]
    assert np.count_nonzero(snr < res.config.snr_threshold_db) == res.counters["mpdu_failures"]
    done = collections.defaultdict(list)
    for t, kind, detail in res.events:
        if kind == "mpdu_tx_done":
            done[t].append(detail.split())
    rows = [row for row in res.tx_intervals if row[1] < res.config.sim_time]
    assert len(rows) == sum(map(len, done.values())) > 0
    for start, end, ok, frame_id in rows:
        ((frame, _, got_ok, got_start),) = done[end]
        assert (frame, got_ok, got_start) == ("frame=%d" % frame_id, "ok=%d" % ok, "start=%.9f" % start)
    arrivals = [(t, detail.split()[0]) for t, kind, detail in res.events if kind == "burst_arrival"]
    assert arrivals == [(r.created, "frame=%d" % r.frame_id) for r in res.frames]

    sim = macsim.Simulator(load_config(overrides=["sim_time = 2.0", *overrides]))
    plain = sim.run()
    assert sim._attempts == [] and plain.tx_intervals is None and plain.events is None
    assert plain.counters == res.counters


def test_the_off_axis_run_decides_ap_sweeps_by_gain(monkeypatch):
    # 16 of its 20 AP sweeps have a top-two gap above 1e-6 dB, where the
    # other runs' 20 are all mirror pairs within SWEEP_TIE_DB
    gaps, pick = [], macsim.best_sector

    def recording(gains_db):
        second, first = np.sort(gains_db)[-2:]
        gaps.append(first - second)
        return pick(gains_db)

    monkeypatch.setattr(macsim, "best_sector", recording)
    macsim.run(load_config(overrides=["sim_time = 2.0", *DIGESTS["walk_50ms"][0]]))
    assert len(gaps) == 20
    assert sum(gap > 1e-6 for gap in gaps) >= 16


# the smallest |SNR - snr_threshold_db| over every link evaluation of the
# runs above was 3.19e-4 dB (extrapolation_1s); numpy's kernel levels move an
# SNR by ulps, so a digest above that moves while this holds is a real
# change of the program, not rounding
THRESHOLD_CLEARANCE_DB = 3e-4


def test_no_link_evaluation_sits_at_the_threshold():
    closest = []
    for overrides, _ in DIGESTS.values():
        sim = macsim.Simulator(load_config(overrides=["sim_time = 2.0", *overrides]))
        for _, snr in record_link_batches(sim):
            closest.append(np.abs(np.frombuffer(snr) - sim.cfg.snr_threshold_db).min())
    assert min(closest) >= THRESHOLD_CLEARANCE_DB


# over every sweep of the runs above, the tie members lay at most 5.95e-14
# dB below the best gain and every other candidate at least 0.00716 dB
# (sectors); numpy's kernel levels move a gain by ulps, so a digest above
# that moves while this holds is a real change of the program, not rounding
# of a sweep direction
SWEEP_TIE_SPREAD_DB = 1e-12
SWEEP_CLEARANCE_DB = 1e-3


def test_no_sweep_candidate_sits_at_the_tie_margin(monkeypatch):
    spreads, clearances, pick = [], [], macsim.best_sector

    def recording(gains_db):
        best = gains_db.max()
        below, tie = best - gains_db, gains_db >= best - macsim.SWEEP_TIE_DB  # as best_sector ties them
        spreads.append(below[tie].max())
        clearances.append(below[~tie].min(initial=np.inf))
        return pick(gains_db)

    monkeypatch.setattr(macsim, "best_sector", recording)
    for overrides, _ in DIGESTS.values():
        macsim.run(load_config(overrides=["sim_time = 2.0", *overrides]))
    assert len(spreads) == 184  # 20 a run, 2 over 1 s epochs, 40 where both ends sweep
    assert max(spreads) <= SWEEP_TIE_SPREAD_DB
    assert min(clearances) >= SWEEP_CLEARANCE_DB
