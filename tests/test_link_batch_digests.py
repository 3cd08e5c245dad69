"""Same-floats guard: SHA-256 of every link batch of four short runs, the
starts and the SNR bytes (``tests/linkbatches.py``).

The event-log digests see only outcomes: an SNR that moves by an ulp and
stays on its side of the threshold leaves every log byte in place.  These
pin the floats of the link path itself: the walk and trace lookups, the
turn into each array's frame, both gain evaluators and the budget.  A
refactor or a speed-up must keep them; a change that moves them on purpose
says why.  They also pin numpy's ``log10`` and ``arccos`` kernels, which
round otherwise without AVX-512: ``tests/test_host_facts.py`` checks both
on fixed inputs, so a host that fails these for that reason says so there.
"""

import numpy as np
import pytest

from linkbatches import batches_digest, record_link_batches
from xrsim import macsim
from xrsim.config import load_config
from xrsim.mobility import save_trace

# the walk starts under the AP and steps along one axis at a time: at the
# default 0.5 s step a short run keeps one horizontal component of the
# headset-AP direction exactly 0, where summing the squared distance in
# another order gives the same bits; 50 ms steps turn it off both axes
STEP = "walk_step_interval = 0.05"

DIGESTS = {
    # the covrage composite beam on a 64x64 headset: complex block sums
    "covrage": (
        ("sim_time = 0.3", STEP),
        "faf1e840826359beb19634066f100e6f3400486a3d4252d502ae241538bfb5de",
    ),
    # 8x8 headset sectors swept after every beacon header: real one-block
    # fields, and the quasi-omni codebook entry on the lattice
    "sectors_abft": (
        ("sim_time = 0.3", STEP, "rx_beamforming = sectors", "prediction = none", "bf_location = abft"),
        "fb08481f3d19cab7805bf5362fb60b34d6693b55e50baa1447fce7d6ecf57356",
    ),
    # a fixed 8x8 quasi-omni headset pattern: the lattice path on every batch
    "quasi_omni": (
        ("sim_time = 0.3", STEP, "rx_beamforming = quasi_omni", "prediction = none", "hmd_rows = 8", "hmd_cols = 8"),
        "fda200e5913cd384aaca5c7518660dcd07fe96ebee35be99eb651d5077c750c5",
    ),
}

# covrage on a recorded 1 s trace (the one of ``TestBatchedLink``) run past
# its end, so that link batches read the trace across its wrap
WRAPPED = ("sim_time = 1.3", STEP), "c3813437a698eb051fde13e5659e9941331edb43a5a3da08e0e8dfbf47920f99"


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_link_batch_digest(name):
    overrides, want = DIGESTS[name]
    batches = record_link_batches(macsim.Simulator(load_config(overrides=list(overrides))))
    assert len(batches) >= 2
    assert batches_digest(batches) == want


def test_link_batch_digest_across_a_recorded_traces_wrap(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(path, macsim.Simulator(load_config(overrides=["sim_time = 1.0", "prediction = oracle"])).trace)
    overrides, want = WRAPPED
    sim = macsim.Simulator(load_config(overrides=[*overrides, "rotation = %s" % path]))
    assert sim.trace.duration == 1.0
    batches = record_link_batches(sim)
    assert any(np.frombuffer(starts)[-1] > 1.0 for starts, _ in batches)
    assert batches_digest(batches) == want
