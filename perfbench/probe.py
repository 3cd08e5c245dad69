"""Host-speed probe: a fixed reference kernel timed at regular intervals
while a measurement runs, so host time can be expressed at a fixed host
speed.

On a shared host the speed of a core changes by up to a factor of two, in
spells that last seconds to minutes, and the guest sees no steal time for
it.  A run-level median cannot remove a spell that covers the whole run.
So a SIGALRM timer interrupts the measured code every ``period_s`` and runs
``reference_kernel``, which does a fixed mix of interpreter work and small
numpy calls, like the simulator.  Each stretch of measured code between two
probes is then weighted by how slow the host was at that moment: the
stretch counts ``stretch / probe`` probe-lengths.  The probe-lengths are
turned back into seconds with one fixed constant, ``NOMINAL_PROBE_S``: the
result is the time the code would take on a host that runs the probe in
that time throughout.

The probes' own time is excluded from every figure.  The signal handler
runs between bytecodes of the main thread, so the simulator is neither
changed nor entered from another thread.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# about the probe's fastest time between simulator steps on the 2-core Xeon
# VM the benchmark was built on, so normalised seconds come out close to
# that host's wall time when it runs fast; a fixed constant, so that it
# adds no noise of its own
NOMINAL_PROBE_S = 0.72e-3

_RNG = np.random.default_rng(12345)
_MATRIX = np.exp(1j * _RNG.uniform(0.0, 2.0 * np.pi, (64, 64)))
_VECTOR = _RNG.standard_normal(3)


def reference_kernel() -> float:
    """Fixed work of about a millisecond on a fast core."""
    acc = 0.0
    for i in range(96):
        field = _MATRIX[i % 64] @ _MATRIX[:, i % 64]
        acc += float(abs(field))
        v = _VECTOR * (i + 1.0)
        acc += float(np.sqrt(v @ v))
        for j in range(40):
            acc += (j * 0.5) % 3.0
    return acc


class SpeedProbe:
    """Context manager that probes the host speed every ``period_s``."""

    def __init__(self, period_s: float = 0.05):
        self.period_s = period_s
        self.probes = []  # (start, end) of every probe, in time.perf_counter seconds
        self._previous_handler = None

    def probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.probes.append((t0, time.perf_counter()))

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        # the stretch after the last timer probe is weighted by this one
        self.probe()
        return False

    def fastest(self) -> float:
        return min(end - start for start, end in self.probes)

    def interval(self, t0: float, t1: float) -> tuple:
        """(busy_s, probe_lengths) of the ``time.perf_counter`` interval
        [t0, t1]: its wall time minus the probes inside it, and the same
        with every stretch between probes divided by the length of the
        probe that ends it."""
        busy = lengths = 0.0
        prev = t0
        for start, end in self.probes:
            if end <= t0:
                continue
            stretch = min(start, t1) - prev
            busy += stretch
            lengths += stretch / (end - start)
            if start >= t1:
                return busy, lengths
            prev = end
        raise ValueError("no probe after the end of the interval")
