"""Every name the benchmark's tracer wraps still exists.

The traced benchmark run (``perfbench/tracer.py``) wraps xrsim functions by
name from outside the package.  Entering and leaving its instrumentation,
without simulating anything, fails here in milliseconds when one of those
names is deleted or renamed.  A direct ``gain_db`` call must book one call,
which is what the per-layer ``gain_db`` counts count; every sweep, DTI or
A-BFT, takes its row of a sweep batch through ``gains_db``, which the
tracer does not wrap, and books its ``best_sector`` alone; one covrage
update must book each of its traced steps once, so that no fast path goes
round a wrapped name; and a cold set-up must book its one 8x8 quasi-omni
synthesis, which is where the per-layer figures show set-up savings.  A run
must book one ``link_snr_db`` call per link batch, which is what the
per-layer link count counts.  Each workload's traced run at the pinned
seed and length books the pinned call counts, and its plain run matches its
pinned counters and frame digest, which is what the benchmark's output
check reads.
"""

from pathlib import Path

import pytest

from xrsim import antenna, codebook, macsim
from xrsim.antenna import ArrayGeometry
from xrsim.codebook import cached_quasi_omni, generate_sector_codebook, synthesize_quasi_omni
from xrsim.config import load_config
from xrsim.geometry import unit_vector
from xrsim.metrics import summarize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (owner, attribute) of every target perfbench/tracer.py wraps
TRACED = [
    (macsim, "generate_rotation_trace"),
    (macsim, "generate_walk"),
    (macsim, "generate_sector_codebook"),
    (macsim, "pose_at"),
    (macsim, "ap_direction_in_hmd_frame"),
    (macsim, "predict_pose"),
    (macsim, "link_snr_db"),
    (macsim, "covrage_beam"),
    (macsim, "best_sector"),
    (codebook, "synthesize_quasi_omni"),
    (antenna.AwvEvaluator, "gain_db"),
    (antenna.AwvEvaluator, "__init__"),
]


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    originals = [owner.__dict__[attr] for owner, attr in TRACED]
    with instrument(Tracer()):
        for (owner, attr), fn in zip(TRACED, originals):
            assert owner.__dict__[attr] is not fn, attr
    for (owner, attr), fn in zip(TRACED, originals):
        assert owner.__dict__[attr] is fn, attr


@pytest.mark.parametrize("workload", ["saturated_8g", "light_2g", "sectors_abft"])
def test_cold_setup_synthesizes_only_the_headset_quasi_omni(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument
    from workloads import WORKLOADS, overrides_for

    # the benchmark measures set-up in a fresh interpreter, so the quasi-omni
    # cache starts empty; an element spacing no other test uses gives the
    # same misses here without clearing the cache the other tests share
    spacing = {"saturated_8g": 0.501, "light_2g": 0.502, "sectors_abft": 0.503}[workload]
    cfg = load_config(overrides=overrides_for(WORKLOADS[workload], 1, 0.3) + ["spacing = %r" % spacing])
    before = cached_quasi_omni.cache_info()
    with instrument(Tracer()) as tracer:
        macsim.Simulator(cfg)
    after = cached_quasi_omni.cache_info()
    totals = tracer.totals()
    # the AP sweeps steered sectors alone; only the 8x8 sector headset's
    # codebook ends in a quasi-omni, and covrage builds none
    headset = 1 if workload == "sectors_abft" else 0
    assert totals.get("codebook.synthesize_quasi_omni.8x8", (0, 0.0))[0] == headset
    assert "codebook.synthesize_quasi_omni.64x64" not in totals
    # reached through the cache: one miss per synthesis, and no hit
    assert after.misses - before.misses == headset
    assert after.hits - before.hits == 0


def test_a_dti_update_books_one_best_sector_per_sweep(monkeypatch):
    # a DTI update, like an A-BFT one, takes its row of a sweep batch, here
    # a batch of its own: both sweeps go through gains_db and book their
    # best_sector alone, while a direct gain_db call books one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    g = ArrayGeometry(8, 8)
    awvs = generate_sector_codebook(g, synthesize_quasi_omni(g))
    sim = macsim.Simulator(load_config(overrides=["sim_time = 0.3", "rx_beamforming = sectors", "prediction = none"]))
    with instrument(Tracer()) as tracer:
        antenna.AwvEvaluator(g, awvs).gain_db(unit_vector(20.0, -10.0))
        assert tracer.totals()["antenna.AwvEvaluator.gain_db.8x8"][0] == 1
        sim._apply_beamform(0.0)  # the AP sweep and the headset sweep
    totals = {name: calls for name, (calls, _) in tracer.totals().items()}
    assert totals["antenna.AwvEvaluator.gain_db.8x8"] == 1
    assert totals["macsim.best_sector"] == 2
    assert totals["mobility.pose_at"] == 1 and totals["geometry.ap_direction_in_hmd_frame"] == 2


def test_an_abft_update_books_one_best_sector_per_sweep(monkeypatch):
    # an A-BFT update takes its row of the beacon-grid batch: both sweeps
    # go through gains_db, which the tracer does not wrap, and the first
    # update reads every BHI end's pose and both directions once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    overrides = ["sim_time = 0.5", "rx_beamforming = sectors", "prediction = none", "bf_location = abft"]
    sim = macsim.Simulator(load_config(overrides=overrides))
    period, bhi = sim.cfg.bi_duration, sim.cfg.bhi_duration
    with instrument(Tracer()) as tracer:
        for j in range(5):
            sim._apply_beamform(j * period + bhi)
            totals = {name: calls for name, (calls, _) in tracer.totals().items()}
            assert totals["macsim.best_sector"] == 2 * (j + 1)
            assert totals["mobility.pose_at"] == 5 and totals["geometry.ap_direction_in_hmd_frame"] == 10
            assert "antenna.AwvEvaluator.gain_db.8x8" not in totals


def test_one_covrage_update_books_each_traced_step_once(monkeypatch):
    # the per-layer counts of a covrage run are per update: a fast path
    # that skipped a wrapped name, or took it twice, would move them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    sim = macsim.Simulator(load_config(overrides=["sim_time = 0.3"]))
    assert sim.cfg.rx_beamforming == "covrage"
    with instrument(Tracer()) as tracer:
        sim._apply_beamform(0.1234)
    totals = {name: calls for name, (calls, _) in tracer.totals().items()}
    assert totals == {
        "mobility.pose_at": 1,
        "geometry.ap_direction_in_hmd_frame": 1,
        "macsim.best_sector": 1,
        "geometry.predict_pose": 1,
        "covrage.covrage_beam": 1,
        "antenna.AwvEvaluator.init": 2,  # the AP sector's link, on its first win, and the beam's
    }


@pytest.mark.parametrize("workload", ["saturated_8g", "light_2g", "sectors_abft"])
def test_a_traced_run_books_one_link_call_per_link_batch(monkeypatch, workload):
    # channel.link_snr_db.calls is the benchmark's count of link batches:
    # Link.snr_at must reach the budget once per batch, through the
    # name the tracer wraps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument
    from workloads import WORKLOADS, overrides_for

    batches = []
    snr_at = macsim.Link.snr_at

    def counting(self, ts):
        batches.append(len(ts))
        return snr_at(self, ts)

    monkeypatch.setattr(macsim.Link, "snr_at", counting)
    sim = macsim.Simulator(load_config(overrides=overrides_for(WORKLOADS[workload], 1, 0.3)))
    with instrument(Tracer()) as tracer:
        sim.run()
    assert len(batches) >= 2
    assert tracer.totals()["channel.link_snr_db"][0] == len(batches)


# the traced calls of each workload's run at the pinned seed and length, in
# the order of CALL_COLUMNS; 0: the run books none.  No sweep books
# gain_db.  codebook.synthesize_quasi_omni.* is left out: it runs only on a
# miss of the process-wide quasi-omni cache, which other tests warm
CALL_COLUMNS = ("saturated_8g", "light_2g", "sectors_abft")
TRACED_CALLS = {
    "channel.link_snr_db": (84, 82, 84),
    "macsim.best_sector": (80, 80, 158),
    "mobility.pose_at": (80, 80, 79),
    "geometry.ap_direction_in_hmd_frame": (80, 80, 158),
    "geometry.predict_pose": (80, 80, 0),
    "covrage.covrage_beam": (80, 80, 0),
    "antenna.AwvEvaluator.init": (84, 84, 9),
    "mobility.generate_rotation_trace": (1, 1, 1),
    "mobility.generate_walk": (1, 1, 1),
    "codebook.generate_sector_codebook": (0, 0, 1),
}


@pytest.mark.parametrize("workload", CALL_COLUMNS)
def test_each_workload_books_its_pinned_calls(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument
    from workloads import DEFAULT_SEED, SIM_TIME, WORKLOADS, overrides_for

    cfg = load_config(overrides=overrides_for(WORKLOADS[workload], DEFAULT_SEED, SIM_TIME))
    with instrument(Tracer()) as tracer:
        macsim.Simulator(cfg).run()
    calls = {
        name: n for name, (n, _) in tracer.totals().items() if not name.startswith("codebook.synthesize_quasi_omni.")
    }
    i = CALL_COLUMNS.index(workload)
    assert calls == {name: counts[i] for name, counts in TRACED_CALLS.items() if counts[i]}


@pytest.mark.parametrize("workload", ["saturated_8g", "light_2g", "sectors_abft"])
def test_each_workload_holds_its_pins(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import DEFAULT_SEED, SIM_TIME, WORKLOADS, check_output, overrides_for

    w = WORKLOADS[workload]
    cfg = load_config(overrides=overrides_for(w, DEFAULT_SEED, SIM_TIME))
    result = macsim.run(cfg)
    reliability = summarize(result.frames, cfg.deadline).reliability
    pinned = (w.pinned_counters, w.pinned_digest)
    assert check_output(result.frames, result.counters, reliability, cfg.sim_time, cfg.burst_interval, pinned) == []
