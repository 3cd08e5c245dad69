#!/usr/bin/env python3
"""Margins of the paper-claim criteria 3, 4, 6 and 7 over several seeds.

``tests/test_acceptance.py`` checks each criterion at seed 1 only.  This
script runs the seven 20 s scenarios those four criteria read at each seed,
with the test file's thresholds, and prints one markdown row per seed: each
criterion's value and its margin, how far the value clears its threshold
(negative when the criterion fails).  It takes about 45 s on 2 cores, so it
is not part of the test suite.

Usage: python3 scripts/claim_margins.py [first_seed last_seed]   (default 1 6)
"""

import sys

from xrsim import macsim
from xrsim.config import load_config

# the thresholds of tests/test_acceptance.py
RELIABILITY_FLOOR = 0.995  # criterion 3
WORST_LATENCY_CEILING = 16e-3  # criterion 3, seconds
COLLAPSE_GAP = 0.10  # criterion 4
SLOW_LOSS_FLOOR = 0.30  # criterion 6
PREDICTION_SPREAD = 0.02  # criterion 7

SCENARIOS = {
    "oracle": ("prediction = oracle",),
    "sectors": ("rx_beamforming = sectors", "prediction = none"),
    "quasi_omni": ("rx_beamforming = quasi_omni", "prediction = none"),
    "bi_1024": ("bi_duration = 1.024",),
    "default": (),
    "bf_1s": ("bf_interval = 1.0",),
    "extrapolation": ("prediction = extrapolation",),
}

HEADER = (
    "| seed | c3 oracle reliability (margin) | c3 worst delivered ms (margin) "
    "| c4 sectors / quasi-omni (margin) | c6 BI 1024 >= BI 102.4 >= 1 s bf, loss (margin) "
    "| c7 spread (margin) |"
)


def seed_row(seed: int) -> str:
    """The four criteria at one seed as a markdown table row."""
    rel, worst = {}, 0.0
    for name, overrides in SCENARIOS.items():
        res = macsim.run(load_config(overrides=["seed = %d" % seed, *overrides]))
        rel[name] = res.counters["frames_delivered"] / res.counters["frames_total"]
        if name == "oracle":
            worst = max(r.completed - r.created for r in res.frames if r.delivered)
    c4 = rel["oracle"] - COLLAPSE_GAP - max(rel["sectors"], rel["quasi_omni"])
    c6 = min(
        rel["bi_1024"] - rel["default"],
        rel["default"] - rel["bf_1s"],
        1.0 - rel["bf_1s"] - SLOW_LOSS_FLOOR,
    )
    spread = abs(rel["extrapolation"] - rel["oracle"])
    cells = [
        "%d" % seed,
        "%.4f (%+.4f)" % (rel["oracle"], rel["oracle"] - RELIABILITY_FLOOR),
        "%.2f (%+.2f)" % (worst * 1e3, (WORST_LATENCY_CEILING - worst) * 1e3),
        "%.4f / %.4f (%+.4f)" % (rel["sectors"], rel["quasi_omni"], c4),
        "%.4f >= %.4f >= %.4f, %.4f (%+.4f)"
        % (rel["bi_1024"], rel["default"], rel["bf_1s"], 1.0 - rel["bf_1s"], c6),
        "%.4f (%+.4f)" % (spread, PREDICTION_SPREAD - spread),
    ]
    return "| " + " | ".join(cells) + " |"


def main(argv) -> int:
    if len(argv) not in (0, 2):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    first, last = (int(a) for a in argv) if argv else (1, 6)
    print(HEADER)
    print("|" + "---|" * 6)
    for seed in range(first, last + 1):
        print(seed_row(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
