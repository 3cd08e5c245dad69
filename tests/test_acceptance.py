"""Scenario-level checks, one per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they complete.
The heavyweight 20 s scenarios are shared through the session run cache, so
the whole file costs a handful of full simulations, not one per assertion.
"""

import cmath
import csv
import importlib.util
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from xrsim import cli, macsim
from xrsim.antenna import ArrayGeometry, AwvEvaluator, gain_db, steered_awv, steering_phases
from xrsim.codebook import generate_sector_codebook, synthesize_quasi_omni
from xrsim.config import load_config
from xrsim.covrage import choose_block_count, plan_with_k, trajectory_from_poses
from xrsim.geometry import Pose, Quaternion, unit_vector
from xrsim.macsim import best_sector, write_event_log

from angles import rotation_angle
from claims import SCENARIOS, margins, reliability
from directions import sample_directions
from fields import block_field
from linkbatches import record_link_batches
from rotations import IDENTITY, compose, direction_at, normalized, rotate, slerp


def report(name, ok, detail):
    print("%s: %s  [%s]" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (name, detail)


def latencies(result):
    return [r.completed - r.created for r in result.frames if r.completed is not None]


def timed_run(cfg):
    """Run one scenario; returns the result and (set-up, event loop) wall
    seconds, which together are the runtime a criterion gates."""
    t0 = time.perf_counter()
    sim = macsim.Simulator(cfg)
    t1 = time.perf_counter()
    res = sim.run()
    return res, (t1 - t0, time.perf_counter() - t1)


def test_criterion_1_capacity_ceiling():
    cfg = load_config(overrides=["data_rate = 8e9"])
    res, (setup, loop) = timed_run(cfg)
    wall = setup + loop
    rel = reliability(res)
    report(
        "criterion 1",
        rel <= 0.01 and wall < 30.0,
        "8 Gbps reliability %.4f <= 0.01, runtime %.1f s (set-up %.1f s + loop %.1f s) < 30 s"
        % (rel, wall, setup, loop),
    )


def test_criterion_2_latency_floor():
    cfg = load_config(overrides=["rotation = static"])
    res, (setup, loop) = timed_run(cfg)
    wall = setup + loop
    lat_min = min(latencies(res))
    report(
        "criterion 2",
        5.5e-3 <= lat_min <= 7.5e-3 and wall < 30.0,
        "static 5 Gbps min latency %.3f ms in 6.5 +- 1.0, runtime %.1f s (set-up %.1f s + loop %.1f s) < 30 s"
        % (lat_min * 1e3, wall, setup, loop),
    )


@pytest.fixture(scope="module")
def claims(run_cached):
    return margins(lambda name: run_cached(*SCENARIOS[name]))


def test_criterion_3_predictive_beam_headline(claims):
    rel, worst = claims[3].values
    detail = "high motion oracle reliability %.4f >= 0.995, max delivered %.2f ms <= 16" % (rel, worst * 1e3)
    report("criterion 3", claims[3].margin >= 0.0, detail)


def test_criterion_4_baseline_collapse(claims):
    detail = "sectors %.4f and quasi-omni %.4f both >= 10 pp under %.4f" % claims[4].values
    report("criterion 4", claims[4].margin >= 0.0, detail)


# why criterion 4 holds whatever the quasi-omni weights: the quasi_omni
# link's best SNR over the 20 s run, 10.82 dB, sits 7.18 dB under the
# threshold, because a phase-only pattern spread over the sphere has no
# array gain
QUASI_OMNI_SHORTFALL_DB = 7.0


def test_criterion_4_quasi_omni_link_stays_under_the_threshold():
    sim = macsim.Simulator(load_config(overrides=list(SCENARIOS["quasi_omni"])))
    best = max(np.frombuffer(snr).max() for _, snr in record_link_batches(sim))
    threshold = sim.cfg.snr_threshold_db
    report(
        "criterion 4 reason",
        threshold - best >= QUASI_OMNI_SHORTFALL_DB,
        "quasi-omni best SNR %.2f dB, %.2f dB >= %.1f dB under the %.0f dB threshold"
        % (best, threshold - best, QUASI_OMNI_SHORTFALL_DB, threshold),
    )


def test_criterion_5_sweep_plateau_gap(run_cached):
    # long beacon interval plus a static user isolates the sweep-length gap
    # in the latency distribution
    res = run_cached(*SCENARIOS["bi_1024_static"])
    lat = sorted(latencies(res))
    # cluster within 10 us (well under the gap scale) so ulp-level spread in
    # the arrival arithmetic does not split one latency mode into many atoms
    clusters = []
    for v in lat:
        if clusters and v - clusters[-1][1] <= 10e-6:
            s, _, n = clusters[-1]
            clusters[-1] = (s, v, n + 1)
        else:
            clusters.append((v, v, 1))
    modal_i = max(range(len(clusters)), key=lambda i: clusters[i][2])
    modal_lo, modal_hi, modal_n = clusters[modal_i]
    gap = clusters[modal_i + 1][0] - modal_hi if modal_i + 1 < len(clusters) else 0.0
    ok = 0.70e-3 <= gap <= 0.80e-3 and modal_n / len(lat) >= 0.5
    report(
        "criterion 5",
        ok,
        "zero-mass gap %.3f ms above the modal latency (%.3f ms, %d/%d frames)"
        % (gap * 1e3, modal_lo * 1e3, modal_n, len(lat)),
    )


def test_criterion_6_overhead_ordering(claims):
    *rel, loss = claims[6].values
    detail = "BI 1024 %.4f >= BI 102.4 %.4f >= 1 s beamforming %.4f, slow run loses %.0f%%" % (*rel, loss * 100.0)
    report("criterion 6", claims[6].margin >= 0.0, detail)


def test_criterion_7_prediction_insensitivity(claims):
    detail = "extrapolation %.4f vs oracle %.4f, spread %.4f <= 0.02" % claims[7].values
    report("criterion 7", claims[7].margin >= 0.0, detail)


ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    """The module of ``scripts/<name>.py``, loaded without running it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_claim_margins_row_is_the_claims_at_seed_1(claims, run_cached, monkeypatch):
    # at seed 1 the script's seed-prefixed configs equal the shared runs'
    # configs, so its runs are answered from the session cache.  The row is
    # also the seed-1 row of the checked-in seeds 1-6 table, which CI diffs
    # the script's whole output against
    script = _script("claim_margins")
    results = {load_config(overrides=list(o)): run_cached(*o) for o in SCENARIOS.values()}
    monkeypatch.setattr(script.macsim, "run", lambda cfg: results[cfg])
    row = script.seed_row(1)
    (rel, worst), (rel_margin, worst_margin) = claims[3]
    want = [
        1, rel, rel_margin, worst * 1e3, worst_margin * 1e3,
        *claims[4].values[:2], claims[4].margin,
        *claims[6].values, claims[6].margin,
        claims[7].values[2], claims[7].margin,
    ]
    got = re.findall(r"[-+]?\d+(?:\.\d+)?", row)
    assert len(got) == len(want), row
    for token, value in zip(got, want):
        # each cell is printed to its own number of places
        assert abs(float(token) - value) <= 0.5001 * 10.0 ** -len(token.partition(".")[2]), (token, value)
    pinned = (ROOT / "tests" / "claim_margins_1_6.md").read_text().splitlines()
    assert pinned[:3] == [script.HEADER, "|" + "---|" * 6, row]


def test_claim_margins_takes_two_seeds_or_none(monkeypatch, capsys):
    script = _script("claim_margins")
    monkeypatch.setattr(script.macsim, "run", lambda cfg: pytest.fail("a run started"))
    assert script.main(["1"]) == 2
    assert capsys.readouterr().err.startswith("Usage: python3 scripts/claim_margins.py")


# each paper experiment is one sweep preset, writing one CSV
@pytest.mark.parametrize("preset, count", [("paper-fig4", 12), ("paper-overhead", 6)])
def test_each_preset_writes_a_row_per_cell(tmp_path, capsys, preset, count):
    argv = ["sweep", "--preset", preset, "--out-dir", str(tmp_path), "--label", "s", "--set", "sim_time = 0.05"]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
    with open(tmp_path / "s.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == count
    assert all(r["error"] == "" and int(r["delivered"]) + int(r["lost"]) == 5 for r in table), table


def _random_direction(rng):
    return unit_vector(float(rng.uniform(-179.0, 180.0)), float(rng.uniform(-89.0, 89.0)))


def _trajectory(seed, span_lo, span_hi):
    rng = np.random.default_rng(seed)
    pos = np.array([1.0, 0.5, 1.7])
    ax = rng.normal(size=3)
    ax /= np.linalg.norm(ax)
    q0 = Quaternion.from_axis_angle(ax, rng.uniform(0.0, 0.3))
    ax2 = rng.normal(size=3)
    ax2 /= np.linalg.norm(ax2)
    q1 = normalized(compose(Quaternion.from_axis_angle(ax2, math.radians(rng.uniform(span_lo, span_hi))), q0))
    return trajectory_from_poses(Pose(0.0, pos, q0), q1, (0.0, 0.0, 10.0))


def test_criterion_8_property_suite(run_cached, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checks = []

    # rotation algebra: inverse, composition, slerp identities
    ok = True
    for _ in range(50):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        ang = float(rng.uniform(0.01, math.pi - 0.01))
        q = Quaternion.from_axis_angle(ax, ang)
        ok &= rotation_angle(compose(q, Quaternion(q.w, -q.x, -q.y, -q.z)), IDENTITY) < 1e-6
        q2 = Quaternion.from_axis_angle(rng.normal(size=3), float(rng.uniform(0.1, 2.0)))
        v = rng.normal(size=3)
        ok &= np.allclose(rotate(compose(q, q2), v), rotate(q, rotate(q2, v)), atol=1e-9)
        ok &= rotation_angle(slerp(q, q2, 0.0), q) < 1e-6
        ok &= rotation_angle(slerp(q, q2, 1.0), q2) < 1e-6
        half = slerp(q, q2, 0.5)
        ok &= abs(rotation_angle(q, half) - rotation_angle(half, q2)) < 1e-6
    checks.append(("rotation algebra", ok))

    # array gain never beats coherent addition; steering attains it
    ok = True
    for _ in range(20):
        g = ArrayGeometry(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        d = _random_direction(rng)
        bound = 10.0 * math.log10(g.n_elements)
        rand = rng.uniform(0.0, 2.0 * math.pi, g.n_elements)
        ok &= gain_db(g, rand, d) <= bound + 1e-9
        ok &= abs(gain_db(g, steering_phases(g, d).phases, d) - bound) < 1e-9
    checks.append(("coherence bound", ok))

    # a common phase shift leaves every gain unchanged
    ok = True
    for _ in range(20):
        g = ArrayGeometry(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        d = _random_direction(rng)
        phases = rng.uniform(0.0, 2.0 * math.pi, g.n_elements)
        shift = float(rng.uniform(-10.0, 10.0))
        ok &= abs(gain_db(g, phases, d) - gain_db(g, phases + shift, d)) <= 1e-9
    checks.append(("global phase invariance", ok))

    # one stacked sweep picks the winner the same rule picks from the
    # per-element oracle's gains of all 37 candidates plus a shared term;
    # the unshaped array, the broadside beam, is the last
    ok = True
    for _ in range(100):
        g = ArrayGeometry(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        awvs = generate_sector_codebook(g, steering_phases(g, unit_vector(0.0, 0.0)))
        d = _random_direction(rng)
        term = float(rng.uniform(-20.0, 20.0))
        gains = np.array([gain_db(g, awv.phases, d) + term for awv in awvs])
        ok &= len(awvs) == 37 and best_sector(AwvEvaluator(g, awvs).gain_db(d)) == best_sector(gains)
    checks.append(("sweep winner vs brute force", ok))

    # the closed-form quasi-omni pattern spreads its gain over each of ten
    # sphere samples less than the unshaped array does
    ok = True
    for g in (ArrayGeometry(4, 4), ArrayGeometry(8, 8), ArrayGeometry(64, 64)):
        awv, zero = synthesize_quasi_omni(g).phases, np.zeros(g.n_elements)
        for seed in range(10):
            dirs = sample_directions(300, np.random.default_rng(seed))
            qo = [gain_db(g, awv, d) for d in dirs]
            flat = [gain_db(g, zero, d) for d in dirs]
            ok &= (max(qo) - min(qo)) < (max(flat) - min(flat))
    checks.append(("quasi-omni beats zero phase", ok))

    # a single-block plan is plain steering at the trajectory midpoint
    ok = True
    g = ArrayGeometry(64, 64)
    for seed in range(5):
        traj = _trajectory(seed, 3.0, 30.0)
        awv = steered_awv(g, plan_with_k(g, traj, 1))
        expect = steering_phases(g, direction_at(traj, 0.5))
        ok &= np.allclose(awv.phases, expect.phases, atol=1e-12)
    checks.append(("single-block degeneracy", ok))

    # each aligned block can only raise the field magnitude at its crossover
    ok = True
    for seed in range(20):
        traj = _trajectory(100 + seed, 5.0, 40.0)
        k = choose_block_count(g.cols, g.spacing_wavelengths, traj.span_deg)
        blocks = plan_with_k(g, traj, k)
        steers = [steering_phases(g, direction_at(traj, (i + 0.5) / k)).phases for i in range(k)]
        pos = g.element_positions()
        for idx in range(1, k):
            cross = direction_at(traj, idx / k)
            acc = sum(
                block_field(g, pos, blocks[j], steers[j], cross) * cmath.exp(1j * blocks[j].offset)
                for j in range(idx)
            )
            own = block_field(g, pos, blocks[idx], steers[idx], cross) * cmath.exp(1j * blocks[idx].offset)
            ok &= abs(acc + own) >= abs(acc) - 1e-9
    checks.append(("crossover alignment", ok))

    # data never starts inside a BHI or sweep window
    res = run_cached("sim_time = 2.0", "rotation = static", collect=True)
    ok = True
    tx_s = np.array([iv[0] for iv in res.tx_intervals])
    tx_e = np.array([iv[1] for iv in res.tx_intervals])
    for b0, b1 in res.bhi_intervals:
        ok &= not np.any((tx_s >= b0) & (tx_s < b1))
    for s0, s1 in res.sls_intervals:
        ok &= float(np.max(np.minimum(tx_e, s1) - np.maximum(tx_s, s0))) <= 1e-12
    checks.append(("event-log non-overlap", ok))

    # every generated frame is accounted for exactly once
    ok = [r.frame_id for r in res.frames] == list(range(200))
    for r in res.frames:
        if r.delivered:
            ok &= r.completed is not None and (r.completed - r.created) <= res.config.deadline
    checks.append(("frame conservation", ok))

    # identical configs replay to identical event-log bytes
    ov = ["sim_time = 0.5", "rotation = static"]
    r1 = macsim.run(load_config(overrides=ov), collect_events=True)
    r2 = macsim.run(load_config(overrides=ov), collect_events=True)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_event_log(a, r1.events)
    write_event_log(b, r2.events)
    ok = r1.counters == r2.counters and a.read_bytes() == b.read_bytes()
    checks.append(("byte determinism", ok))

    wall = time.perf_counter() - t0
    for name, check_ok in checks:
        print("  - %s: %s" % (name, "ok" if check_ok else "FAILED"))
    report(
        "criterion 8",
        all(check_ok for _, check_ok in checks) and wall < 300.0,
        "%d/10 property checks pass in %.0f s < 300 s"
        % (sum(1 for _, c in checks if c), wall),
    )


# Counters and the benchmark's frame-record digest of the eight shared 20 s
# runs of claims.SCENARIOS.  They are the only full-length runs of the
# 1.024 s beacon interval and the 1 s beamforming interval, so they pin the
# schedule where the 2 s event-log digests cannot reach.  Counter order:
# frames_total, frames_delivered, frames_dropped, mpdu_attempts,
# mpdu_failures, sls_runs, bf_updates, bhi_count.
RUN_PINS = {
    "default": ((2000, 2000, 0, 192000, 0, 200, 200, 196),
                "b73a6102e6b6f07467304c1099c0c2a378ae49c40011b5cf2751424b2f4bcfea"),
    "oracle": ((2000, 2000, 0, 192000, 0, 200, 200, 196),
               "b73a6102e6b6f07467304c1099c0c2a378ae49c40011b5cf2751424b2f4bcfea"),
    "extrapolation": ((2000, 2000, 0, 192130, 130, 200, 200, 196),
                      "4eb10d1ba3b22277a02a20bbe688f372a412958bcbb07f887947fc3b0f895da5"),
    "sectors": ((2000, 328, 1670, 272333, 240552, 200, 200, 196),
                "fd20a3b1bff7881f34821dcddeaee324d09aadc368008f3315b9c6bbe6e9c69c"),
    "quasi_omni": ((2000, 0, 1998, 286452, 286452, 200, 200, 196),
                   "c7b755a8401f55479e0b98e458f162d219b96b67ac04badd5cdc6f067589ba69"),
    "bi_1024": ((2000, 2000, 0, 192000, 0, 200, 200, 20),
                "b49797424b3c913c11518b08d8c1640b61093e728cb2982714fa9c2cdb7163c4"),
    "bi_1024_static": ((2000, 2000, 0, 192000, 0, 200, 200, 20),
                       "b49797424b3c913c11518b08d8c1640b61093e728cb2982714fa9c2cdb7163c4"),
    "bf_1s": ((2000, 805, 1193, 256086, 176379, 20, 20, 196),
              "91ba58edbd211f5cb44bcf5e9797fccbb4c436adad1eaf6a9afd204d39dcf657"),
}
PIN_COUNTERS = (
    "frames_total", "frames_delivered", "frames_dropped", "mpdu_attempts",
    "mpdu_failures", "sls_runs", "bf_updates", "bhi_count",
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_full_length_run_pins(name, run_cached, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import frames_digest

    counters, digest = RUN_PINS[name]
    res = run_cached(*SCENARIOS[name])
    assert res.counters == dict(zip(PIN_COUNTERS, counters))
    assert frames_digest(res.frames) == digest
