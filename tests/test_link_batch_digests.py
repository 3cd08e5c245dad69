"""Same-floats guard: SHA-256 of every link batch of five short runs, the
starts and the SNR bytes (``tests/linkbatches.py``).

The event-log digests see only outcomes: an SNR that moves by an ulp and
stays on its side of the threshold leaves every log byte in place.  These
pin the floats of the link path itself: the walk and trace lookups, the
turn into each array's frame, both gain evaluators and the budget.  A
refactor or a speed-up must keep them; a change that moves them on purpose
says why.  They also pin numpy's ``log10`` and ``arccos`` kernels, which
round otherwise on its AVX2 kernels than on its AVX-512 ones, so each digest
is kept per kernel level (``test_host_facts.KERNELS``).
``tests/test_host_facts.py`` checks both ufuncs on fixed inputs, so a host
that fails these for that reason says so there.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linkbatches import batches_digest, record_link_batches
from test_host_facts import AVX2_ONLY, HOST, KERNELS
from xrsim import macsim
from xrsim.config import load_config
from xrsim.mobility import save_trace

# the walk starts under the AP and steps along one axis at a time: at the
# default 0.5 s step a short run keeps one horizontal component of the
# headset-AP direction exactly 0, where summing the squared distance in
# another order gives the same bits; 50 ms steps turn it off both axes
STEP = "walk_step_interval = 0.05"

DIGESTS = {
    # the covrage composite beam on a 64x64 headset: each block's field
    # turned by its centre phase plus its offset, the blocks added in order
    "covrage": (
        ("sim_time = 0.3", STEP),
        {
            "AVX-512": "1df36f58120fa37ae8a797a9c4358e84a9d7b184268ba334e7ed1f12166cd6ac",
            "AVX2": "ecf5a84b99e7bf2829014b005098470c0e7328c1653e727f70dde3aceb88fe96",
        },
    ),
    # the covrage beam planned from extrapolated motion, where no attempt
    # fails at bf_interval = 0.1, so no event-log digest sees it
    "extrapolation": (
        ("sim_time = 0.3", STEP, "prediction = extrapolation"),
        {
            "AVX-512": "1499aa55daa11dd62069f86382c97517dbf0db83f93018d4291f1d8724866d51",
            "AVX2": "bf771fc096278c929680c9015ee76f8cb1b8cf06cb25c49815ad4c6cb866b322",
        },
    ),
    # 8x8 headset sectors swept after every beacon header: real one-block
    # fields, and the quasi-omni codebook entry from its row and column
    # factors
    "sectors_abft": (
        ("sim_time = 0.3", STEP, "rx_beamforming = sectors", "prediction = none", "bf_location = abft"),
        {
            "AVX-512": "74a3207f5e3667d0ce7f47f0420af785ba8b9b51b10bd0ddaa901dd154dda17b",
            "AVX2": "299566c7c15d1660a7fb5cbe189232dbd9ad26b6a7488be46a4567c4365d5b28",
        },
    ),
    # a fixed 8x8 quasi-omni headset pattern: the factored sum on every batch
    "quasi_omni": (
        ("sim_time = 0.3", STEP, "rx_beamforming = quasi_omni", "prediction = none", "hmd_rows = 8", "hmd_cols = 8"),
        {
            "AVX-512": "e805f626bab10eb76d2811c7e8e756dc04becf15c03da0b14c6f3445952f7070",
            "AVX2": "2e39e5a56d8207eab1099de5c55090cedc8b9811d5f53530a7f82d87df68b3b5",
        },
    ),
}

# covrage on a recorded 1 s trace (the one of ``TestBatchedLink``) run past
# its end, so that link batches read the trace across its wrap
WRAPPED = ("sim_time = 1.3", STEP), {
    "AVX-512": "779f877813e57dd8a42d63c14d8430e3014a26559a4e128264492fd2837769df",
    "AVX2": "6d8f508c68c62257962bfffc694a657402ad10096e521f4b5ba38f529d7ea7a4",
}

def link_batch_digest(name):
    """The digest of the DIGESTS case ``name`` on this process's kernels."""
    batches = record_link_batches(macsim.Simulator(load_config(overrides=list(DIGESTS[name][0]))))
    assert len(batches) >= 2
    return batches_digest(batches)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_link_batch_digest(name):
    assert link_batch_digest(name) == DIGESTS[name][1][KERNELS], HOST


def test_link_batch_digest_across_a_recorded_traces_wrap(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(path, macsim.scenario_trace(load_config(overrides=["sim_time = 1.0", "prediction = oracle"])))
    overrides, want = WRAPPED
    sim = macsim.Simulator(load_config(overrides=[*overrides, "rotation = %s" % path]))
    assert sim.link.trace.duration == 1.0
    batches = record_link_batches(sim)
    assert any(np.frombuffer(starts)[-1] > 1.0 for starts, _ in batches)
    assert batches_digest(batches) == want[KERNELS], HOST


@pytest.mark.parametrize(
    "env",
    # numpy's AVX2 kernels; and OpenBLAS on one thread, as perfbench runs
    # the simulator, where tier-1 runs on OpenBLAS's default thread pool
    [AVX2_ONLY, {"OPENBLAS_NUM_THREADS": "1"}],
    ids=["avx2_kernels", "one_blas_thread"],
)
def test_the_avx2_digest_holds_on_the_avx2_kernels(env):
    # on an AVX-512 host the tests above read only the AVX-512 digests; this
    # one runs the covrage case, the complex block sum, the extrapolation
    # case, the slerp continued past the present, and the quasi_omni case,
    # the factored sum, in a child, where numpy dispatches to its AVX2
    # kernels, or where OpenBLAS has one thread, and checks the digests of
    # the child's kernel level
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    names = ("covrage", "extrapolation", "quasi_omni")
    code = "import test_link_batch_digests as t; print(t.KERNELS, *map(t.link_batch_digest, %r))" % (names,)
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, **env, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    kernels, *got = child.stdout.split()
    assert kernels == ("AVX2" if env == AVX2_ONLY else KERNELS)
    assert got == [DIGESTS[name][1][kernels] for name in names], kernels
