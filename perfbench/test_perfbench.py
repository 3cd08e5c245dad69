"""Tests of the benchmark itself: tracer and probe arithmetic, the output check, and
a short smoke run of every workload.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
import time

import pytest

import run
from probe import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, check_output, frames_digest

sys.path.insert(0, str(run.ROOT / "src"))
from xrsim.macsim import FrameRecord  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 10.0

    def middle():
        now[0] += 100.0
        leaf_t()
        leaf_t()

    leaf_t = tracer.wrap(leaf, "leaf")
    middle_t = tracer.wrap(middle, "middle")
    with tracer.phase("p"):
        now[0] += 1000.0
        middle_t()
        leaf_t()

    assert tracer.stats[("p", "leaf")] == [3, 30.0]
    assert tracer.stats[("p", "middle")] == [1, 100.0]
    assert tracer.phases["p"] == (1130.0, 1000.0)
    assert tracer.phase_residual("p") == 0.0
    assert tracer.totals() == {"leaf": [3, 30.0], "middle": [1, 100.0]}


def test_span_closes_when_the_wrapped_call_raises():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 5.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        with tracer.phase("p"):
            tracer.wrap(boom, "boom")()
    assert tracer.stats[("p", "boom")] == [1, 5.0]
    assert tracer.phases["p"] == (5.0, 0.0)


def test_self_time_books_children_under_the_open_phase():
    tracer = Tracer()
    f = tracer.wrap(lambda x: x + 1, lambda x: "f.%d" % x)
    with tracer.phase("a"):
        f(1)
    with tracer.phase("b"):
        f(1)
        f(2)
    assert tracer.stats[("a", "f.1")][0] == 1
    assert tracer.stats[("b", "f.1")][0] == 1
    assert tracer.stats[("b", "f.2")][0] == 1
    assert tracer.totals()["f.1"][0] == 2
    for phase in ("a", "b"):
        assert abs(tracer.phase_residual(phase)) < 1e-9


def test_probe_counts_each_stretch_in_lengths_of_the_probe_that_ends_it():
    probe = SpeedProbe()
    # probes of 1 s and 2 s; the phase [0.5, 8.0] holds stretches of
    # 1.5 s (ended by the 1 s probe) and 3.0 s + 1.0 s (ended by 2 s probes)
    probe.probes = [(-1.0, 0.0), (2.0, 3.0), (6.0, 8.0), (9.0, 11.0)]
    busy, lengths = probe.interval(0.5, 8.0)
    assert busy == pytest.approx(1.5 + 3.0)
    assert lengths == pytest.approx(1.5 / 1.0 + 3.0 / 2.0)
    busy, lengths = probe.interval(8.0, 8.5)
    assert (busy, lengths) == pytest.approx((0.5, 0.25))
    assert probe.fastest() == 1.0
    with pytest.raises(ValueError):
        probe.interval(11.0, 12.0)


def test_probe_runs_on_the_timer_and_once_on_exit():
    t0 = time.perf_counter()
    with SpeedProbe(period_s=0.01) as probe:
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert len(probe.probes) >= 3
    busy, lengths = probe.interval(t0, t1)
    probed = sum(end - start for start, end in probe.probes if t0 <= start < t1)
    assert busy == pytest.approx(t1 - t0 - probed)
    assert lengths > 0


def _frames():
    frames = [FrameRecord(i, i * 0.01, i * 0.01 + 0.0065, True) for i in range(9)]
    frames.append(FrameRecord(9, 0.09, None, False))
    counters = {"frames_total": 10, "frames_delivered": 9, "mpdu_attempts": 40, "mpdu_failures": 3}
    return frames, counters


def test_output_check_accepts_consistent_output():
    frames, counters = _frames()
    pinned = (dict(counters), frames_digest(frames))
    assert check_output(frames, counters, 0.9, 0.1, 0.01, pinned) == []


@pytest.mark.parametrize(
    "field, value",
    [("completed", 0.0165000001), ("created", 0.0100000001), ("delivered", False), ("frame_id", 99)],
)
def test_output_check_flags_one_altered_frame(field, value):
    frames, counters = _frames()
    pinned = (dict(counters), frames_digest(frames))
    altered = copy.deepcopy(frames)
    setattr(altered[1], field, value)
    problems = check_output(altered, counters, 0.9, 0.1, 0.01, pinned)
    assert any("digest" in p for p in problems)


def test_output_check_flags_inconsistent_counters_without_pins():
    frames, counters = _frames()
    assert check_output(frames, dict(counters, frames_delivered=8), 0.9, 0.1, 0.01) != []
    assert check_output(frames, counters, 0.8, 0.1, 0.01) != []
    assert check_output(frames[:-1], counters, 0.9, 0.1, 0.01) != []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name):
    lines = []
    report = run.run_workload(name, seed=2, seconds=1.0, trace=1, sim_time=0.25, log=lines.append)
    assert report["correct"], lines
    assert report["failed"] == 0 and report["attempted"] == 2
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    if name == "sectors_abft":
        report = run.run_workload(name, seed=2, seconds=1.0, trace=0, sim_time=0.25, log=lines.append)
        assert report["correct"], lines
        assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert all(m["value"] > 0 for m in report["metrics"].values())
