"""Row-wise slerp lookup the tests check the trace's segment table against:
every row wraps, brackets and sets up its own slerp."""

import numpy as np

from xrsim.geometry import _SLERP_MIN_ANGLE


def slerp_rows(q0: np.ndarray, q1: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-wise :func:`rotations.slerp` over (M, 4) scalar-first
    quaternion arrays and (M,) fractions, with its arithmetic."""
    d = q0[:, 0] * q1[:, 0] + q0[:, 1] * q1[:, 1] + q0[:, 2] * q1[:, 2] + q0[:, 3] * q1[:, 3]
    q1 = np.where((d < 0.0)[:, None], -q1, q1)
    angle = np.arccos(np.minimum(1.0, np.abs(d)))
    s = s[:, None]
    lin = q0 + s * (q1 - q0)
    norm = np.sqrt(lin[:, 0] * lin[:, 0] + lin[:, 1] * lin[:, 1] + lin[:, 2] * lin[:, 2] + lin[:, 3] * lin[:, 3])
    lin /= norm[:, None]
    near = (angle < _SLERP_MIN_ANGLE)[:, None]
    angle = angle[:, None]
    sa = np.sin(np.where(near, 1.0, angle))
    arc = np.sin((1.0 - s) * angle) / sa * q0 + np.sin(s * angle) / sa * q1
    return np.where(near, lin, arc)


def lookup_rows(trace, ts: np.ndarray) -> np.ndarray:
    """(M, 4) orientations of ``trace`` at the times ``ts``: each time
    wrapped into the recorded window, bracketed between two samples and
    slerped between them, the sample itself at u = 0."""
    times = trace.times
    t0 = times[0]
    w = np.fmod(ts - t0, trace.duration)
    w = np.where(w < 0.0, w + trace.duration, w)
    tw = np.where((t0 <= ts) & (ts <= times[-1]), ts, t0 + w)
    i = np.minimum(np.searchsorted(times, tw, side="right") - 1, len(times) - 2)
    u = (tw - times[i]) / (times[i + 1] - times[i])
    q0 = trace.orientations[i]
    return np.where((u == 0.0)[:, None], q0, slerp_rows(q0, trace.orientations[i + 1], u))
