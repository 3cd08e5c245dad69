"""Benchmark workloads and the output check.

Each workload is a list of ``key = value`` overrides on the
``ScenarioConfig`` defaults (high motion, device prediction, DTI
beamforming every 0.1 s).  The benchmark seed becomes the scenario seed.
At the default seed the simulator counters and a digest over the frame
records are pinned, so a change that claims a speed-up can show that the
simulated outcome did not move.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

# simulated seconds per measurement: long enough that the event loop
# outweighs set-up on the saturated and sector workloads
SIM_TIME = 8.0
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple
    pinned_counters: dict  # simulator counters at DEFAULT_SEED and SIM_TIME
    pinned_digest: str  # frames_digest at DEFAULT_SEED and SIM_TIME
    # typical host seconds of one full / set-up-only measurement on a
    # 2-core Xeon VM; they fix how many of each a run makes
    full_cost_s: float
    setup_cost_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "saturated_8g",
            "8 Gbps never drains the queue, so every MPDU start evaluates the link: event loop and link evaluation dominate",
            ("data_rate = 8e9",),
            {
                "frames_total": 800,
                "frames_delivered": 12,
                "frames_dropped": 786,
                "mpdu_attempts": 114568,
                "mpdu_failures": 0,
                "sls_runs": 80,
                "bf_updates": 80,
                "bhi_count": 79,
            },
            "2b9f87eba758d7f43b29bd4497f02728413ccc680d792d0a8315be4449102c07",
            18.0,
            8.5,
        ),
        Workload(
            "light_2g",
            "2 Gbps drains between bursts, so a quarter of the attempts: quasi-omni set-up dominates, loop work is small",
            ("data_rate = 2e9",),
            {
                "frames_total": 800,
                "frames_delivered": 800,
                "frames_dropped": 0,
                "mpdu_attempts": 31200,
                "mpdu_failures": 0,
                "sls_runs": 80,
                "bf_updates": 80,
                "bhi_count": 79,
            },
            "6419e869f902ea6be5c017a04795d3e99d72c80a533e6925a5946b65b7bcd022",
            11.0,
            8.5,
        ),
        Workload(
            "sectors_abft",
            "8x8 sector sweeps after every beacon header on the A-BFT path: no 64x64 synthesis, nearly every attempt fails",
            ("rx_beamforming = sectors", "prediction = none", "bf_location = abft"),
            {
                "frames_total": 800,
                "frames_delivered": 0,
                "frames_dropped": 798,
                "mpdu_attempts": 115443,
                "mpdu_failures": 115443,
                "sls_runs": 0,
                "bf_updates": 79,
                "bhi_count": 79,
            },
            "4a6ad282b85d76bbe2937233deaec2144ae95a5707ec590c8df22d756cae20bf",
            11.0,
            2.2,
        ),
    )
}


def overrides_for(workload: Workload, seed: int, sim_time: float = SIM_TIME) -> list:
    return list(workload.overrides) + ["sim_time = %r" % sim_time, "seed = %d" % seed]


def frames_digest(frames) -> str:
    """SHA-256 over (frame_id, created, completed, delivered) of every
    frame record, floats in exact hex form."""
    h = hashlib.sha256()
    for r in frames:
        completed = "" if r.completed is None else r.completed.hex()
        h.update(b"%d,%s,%s,%d\n" % (r.frame_id, r.created.hex().encode(), completed.encode(), r.delivered))
    return h.hexdigest()


def check_output(frames, counters: dict, reliability: float, sim_time: float, burst_interval: float, pinned=None) -> list:
    """Problems found in one run's output; empty when it is consistent.

    Always checks the counters against the frame records and the summary.
    ``pinned`` is a ``(counters, digest)`` pair to match exactly, given
    when the run used the seed and length the pins were taken at.
    """
    problems = []
    n_bursts = int(math.ceil(sim_time / burst_interval - 1e-9))
    if counters["frames_total"] != n_bursts or len(frames) != n_bursts:
        problems.append(
            "%d frames recorded, %d counted, %d bursts scheduled"
            % (len(frames), counters["frames_total"], n_bursts)
        )
    delivered = sum(1 for r in frames if r.delivered)
    if delivered != counters["frames_delivered"]:
        problems.append("%d frames flagged delivered, counter says %d" % (delivered, counters["frames_delivered"]))
    if not 0 <= counters["mpdu_failures"] <= counters["mpdu_attempts"] or counters["mpdu_attempts"] < 1:
        problems.append("attempts %(mpdu_attempts)d, failures %(mpdu_failures)d" % counters)
    if frames and reliability != delivered / len(frames):
        problems.append("reliability %r is not %d/%d" % (reliability, delivered, len(frames)))
    if pinned is not None:
        want_counters, want_digest = pinned
        if counters != want_counters:
            problems.append("counters %r differ from pinned %r" % (counters, want_counters))
        digest = frames_digest(frames)
        if digest != want_digest:
            problems.append("frame digest %s differs from pinned %s" % (digest, want_digest))
    return problems
