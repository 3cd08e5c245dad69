"""Every name the benchmark's tracer wraps still exists.

The traced benchmark run (``perfbench/tracer.py``) wraps xrsim functions by
name from outside the package.  Entering and leaving its instrumentation,
without simulating anything, fails here in milliseconds when one of those
names is deleted or renamed.  A sweep must book one stacked ``gain_db``
call, which is what the per-layer ``gain_db`` and ``best_sector`` counts
count, and a cold set-up must book its one 8x8 quasi-omni synthesis, which
is where the per-layer figures show set-up savings.
"""

from pathlib import Path

import pytest

from xrsim import antenna, codebook, macsim
from xrsim.antenna import ArrayGeometry
from xrsim.codebook import cached_quasi_omni, generate_sector_codebook, synthesize_quasi_omni
from xrsim.config import load_config
from xrsim.geometry import unit_vector

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


def test_one_sweep_books_one_gain_call(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    g = ArrayGeometry(8, 8)
    awvs = generate_sector_codebook(g, synthesize_quasi_omni(g, seed=3))
    sim = macsim.Simulator(load_config(overrides=["sim_time = 0.3", "rx_beamforming = sectors", "prediction = none"]))
    with instrument(Tracer()) as tracer:
        antenna.AwvEvaluator(g, awvs).gain_db(unit_vector(20.0, -10.0))
        assert tracer.totals()["antenna.AwvEvaluator.gain_db.8x8"][0] == 1
        sim._apply_beamform(0.0)  # the AP sweep and the headset sweep
    totals = tracer.totals()
    assert totals["antenna.AwvEvaluator.gain_db.8x8"][0] == 3
    assert totals["macsim.best_sector"][0] == 2
