"""Span-stack tracer for the traced benchmark run.

The tracer wraps the simulator's layer entry points from outside the
package: each wrapper opens a span, and when the span closes its duration
minus the time of the spans nested inside it is booked as the wrapped
name's self time, under the phase that is open.  Phase spans
(``macsim.setup``, ``macsim.loop``) get the same treatment, so a phase's
self time plus the self times of everything called inside it add up to the
phase's duration exactly.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.current_phase = None
        self.stats = {}  # (phase, name) -> [calls, self_s]
        self.phases = {}  # phase -> (duration_s, self_s)
        self._stack = []  # per open span: time covered by its children

    def _close(self, name: str, t0: float) -> None:
        dt = self.clock() - t0
        self_s = dt - self._stack.pop()
        key = (self.current_phase, name)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0]
        entry[0] += 1
        entry[1] += self_s
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, fn, name):
        """Traced version of ``fn``; ``name`` is a string or a function of
        the call's arguments that returns one."""
        label = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(label(*args, **kwargs), t0)

        return traced

    @contextmanager
    def phase(self, name: str):
        """Top-level span; calls traced inside it are booked under ``name``."""
        if self._stack:
            raise RuntimeError("phase %r opened inside another span" % name)
        self.current_phase = name
        self._stack.append(0.0)
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            self.phases[name] = (dt, dt - self._stack.pop())
            self.current_phase = None

    def totals(self) -> dict:
        """name -> [calls, self_s] summed over phases."""
        out = {}
        for (_, name), (calls, self_s) in self.stats.items():
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return out

    def phase_residual(self, phase: str) -> float:
        """Phase duration minus (phase self time + children's self times);
        zero up to rounding when the span bookkeeping is right."""
        duration, self_s = self.phases[phase]
        children = sum(s for (p, _), (_, s) in self.stats.items() if p == phase)
        return duration - (self_s + children)


def _shape_of(geometry) -> str:
    return "%dx%d" % (geometry.rows, geometry.cols)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap xrsim's layer functions where the simulator looks them up, and
    restore the originals on exit."""
    from xrsim import antenna, codebook, macsim

    targets = [
        # macsim imports these by name, so they are wrapped in its namespace
        (macsim, "generate_rotation_trace", "mobility.generate_rotation_trace"),
        (macsim, "generate_walk", "mobility.generate_walk"),
        (macsim, "generate_sector_codebook", "codebook.generate_sector_codebook"),
        (macsim, "pose_at", "mobility.pose_at"),
        (macsim, "ap_direction_in_hmd_frame", "geometry.ap_direction_in_hmd_frame"),
        (macsim, "predict_pose", "geometry.predict_pose"),
        (macsim, "link_snr_db", "channel.link_snr_db"),
        (macsim, "covrage_beam", "covrage.covrage_beam"),
        (macsim, "best_sector", "macsim.best_sector"),
        # reached only on a miss of cached_quasi_omni, which calls it by module global
        (
            codebook,
            "synthesize_quasi_omni",
            lambda geometry, *a, **k: "codebook.synthesize_quasi_omni." + _shape_of(geometry),
        ),
        (
            antenna.AwvEvaluator,
            "gain_db",
            lambda ev, *a, **k: "antenna.AwvEvaluator.gain_db." + _shape_of(ev.geometry),
        ),
        (antenna.AwvEvaluator, "__init__", "antenna.AwvEvaluator.init"),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
