"""Every name the benchmark's tracer wraps still exists.

The traced benchmark run (``perfbench/tracer.py``) wraps xrsim functions by
name from outside the package.  Entering and leaving its instrumentation,
without simulating anything, fails here in milliseconds when one of those
names is deleted or renamed.  A sweep must book one stacked ``gain_db``
call, which is what the per-layer ``gain_db`` and ``best_sector`` counts
count.
"""

from pathlib import Path

from xrsim import antenna, macsim
from xrsim.antenna import ArrayGeometry
from xrsim.codebook import generate_sector_codebook
from xrsim.config import load_config
from xrsim.geometry import Direction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    names = ("pose_at", "predict_pose", "covrage_beam", "best_sector", "ap_direction_in_hmd_frame")
    originals = {name: getattr(macsim, name) for name in names}
    gain_db = antenna.AwvEvaluator.gain_db
    with instrument(Tracer()):
        for name in names:
            assert getattr(macsim, name) is not originals[name], name
        assert antenna.AwvEvaluator.gain_db is not gain_db
    for name in names:
        assert getattr(macsim, name) is originals[name], name
    assert antenna.AwvEvaluator.gain_db is gain_db


def test_one_sweep_books_one_gain_call(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    g = ArrayGeometry(8, 8)
    awvs = [awv for _, awv in generate_sector_codebook(g, seed=3).all_awvs()]
    sim = macsim.Simulator(load_config(overrides=["sim_time = 0.3", "rx_beamforming = sectors", "prediction = none"]))
    with instrument(Tracer()) as tracer:
        antenna.AwvEvaluator(g, awvs).gain_db(Direction(20.0, -10.0))
        assert tracer.totals()["antenna.AwvEvaluator.gain_db.8x8"][0] == 1
        sim._apply_beamform(0.0)  # the AP sweep and the headset sweep
    totals = tracer.totals()
    assert totals["antenna.AwvEvaluator.gain_db.8x8"][0] == 3
    assert totals["macsim.best_sector"][0] == 2
