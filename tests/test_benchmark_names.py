"""Every name the benchmark's tracer wraps still exists.

The traced benchmark run (``perfbench/tracer.py``) wraps xrsim functions by
name from outside the package.  Entering and leaving its instrumentation,
without simulating anything, fails here in milliseconds when one of those
names is deleted or renamed.
"""

from pathlib import Path

from xrsim import antenna, macsim

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
