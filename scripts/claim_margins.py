#!/usr/bin/env python3
"""Margins of the paper-claim criteria 3, 4, 6 and 7 over several seeds.

``tests/test_acceptance.py`` checks each criterion at seed 1 only.  This
script runs the seven 20 s scenarios those four criteria read at each seed
and prints one markdown row per seed: each criterion's value and its
margin, how far the value clears its threshold (negative when the criterion
fails).  Scenarios, thresholds and margins come from ``tests/claims.py``,
which the tests read too.  It takes about 12 s on 2 cores; the test suite
checks its seed-1 row only, on the runs the criterion tests share.

Usage: python3 scripts/claim_margins.py [first_seed last_seed]   (default 1 6)
"""

import sys
from pathlib import Path

from xrsim import macsim
from xrsim.config import load_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from claims import SCENARIOS, margins  # noqa: E402

HEADER = (
    "| seed | c3 oracle reliability (margin) | c3 worst delivered ms (margin) "
    "| c4 sectors / quasi-omni (margin) | c6 BI 1024 >= BI 102.4 >= 1 s bf, loss (margin) "
    "| c7 spread (margin) |"
)


def seed_row(seed: int) -> str:
    """The four criteria at one seed as a markdown table row."""
    claims = margins(lambda name: macsim.run(load_config(overrides=["seed = %d" % seed, *SCENARIOS[name]])))
    (rel, worst), (rel_margin, worst_margin) = claims[3]
    cells = [
        "%d" % seed,
        "%.4f (%+.4f)" % (rel, rel_margin),
        "%.2f (%+.2f)" % (worst * 1e3, worst_margin * 1e3),
        "%.4f / %.4f (%+.4f)" % (*claims[4].values[:2], claims[4].margin),
        "%.4f >= %.4f >= %.4f, %.4f (%+.4f)" % (*claims[6].values, claims[6].margin),
        "%.4f (%+.4f)" % (claims[7].values[2], claims[7].margin),
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
