"""The paper claims at 20 s: the shared scenarios, the thresholds of
criteria 3, 4, 6 and 7, and the one function that reads the criteria off
the runs.  ``tests/test_acceptance.py`` asserts them at seed 1 and
``scripts/claim_margins.py`` tabulates them over seeds, so the two cannot
disagree."""

from typing import NamedTuple

# the eight shared 20 s runs by name, as override tuples: the run-cache keys
# of the criterion tests and the run pins
SCENARIOS = {
    "default": (),
    "oracle": ("prediction = oracle",),
    "extrapolation": ("prediction = extrapolation",),
    "sectors": ("rx_beamforming = sectors", "prediction = none"),
    "quasi_omni": ("rx_beamforming = quasi_omni", "prediction = none"),
    "bi_1024": ("bi_duration = 1.024",),
    "bi_1024_static": ("bi_duration = 1.024", "rotation = static"),
    "bf_1s": ("bf_interval = 1.0",),
}

RELIABILITY_FLOOR = 0.995  # criterion 3
WORST_LATENCY_CEILING = 16e-3  # criterion 3, seconds
COLLAPSE_GAP = 0.10  # criterion 4
SLOW_LOSS_FLOOR = 0.30  # criterion 6
PREDICTION_SPREAD = 0.02  # criterion 7


class Claim(NamedTuple):
    values: tuple  # what the criterion reads, in its detail line's order
    # one per inequality, each >= 0 exactly when it holds: the rounded
    # difference of two doubles has the sign of the exact one
    margins: tuple

    @property
    def margin(self) -> float:
        return min(self.margins)


def reliability(result) -> float:
    return result.counters["frames_delivered"] / result.counters["frames_total"]


def margins(run) -> dict:
    """Criteria 3, 4, 6 and 7 by number, each a :class:`Claim`, from
    ``run(name)``, the run result of ``SCENARIOS[name]``; each scenario is
    asked for once."""
    names = ("oracle", "sectors", "quasi_omni", "bi_1024", "default", "bf_1s", "extrapolation")
    results = {name: run(name) for name in names}
    rel = {name: reliability(res) for name, res in results.items()}
    worst = max(r.completed - r.created for r in results["oracle"].frames if r.delivered)
    r_cov, r_sec, r_qo = rel["oracle"], rel["sectors"], rel["quasi_omni"]
    r_long, r_std, r_slow = rel["bi_1024"], rel["default"], rel["bf_1s"]
    loss = 1.0 - r_slow
    spread = abs(rel["extrapolation"] - r_cov)
    return {
        3: Claim((r_cov, worst), (r_cov - RELIABILITY_FLOOR, WORST_LATENCY_CEILING - worst)),
        4: Claim((r_sec, r_qo, r_cov), (r_cov - COLLAPSE_GAP - max(r_sec, r_qo),)),
        6: Claim((r_long, r_std, r_slow, loss), (r_long - r_std, r_std - r_slow, loss - SLOW_LOSS_FLOOR)),
        7: Claim((rel["extrapolation"], r_cov, spread), (PREDICTION_SPREAD - spread,)),
    }
