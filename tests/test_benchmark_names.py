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

    pose_at, gain_db = macsim.pose_at, antenna.AwvEvaluator.gain_db
    with instrument(Tracer()):
        assert macsim.pose_at is not pose_at
        assert antenna.AwvEvaluator.gain_db is not gain_db
    assert macsim.pose_at is pose_at
    assert antenna.AwvEvaluator.gain_db is gain_db
