"""Frame-latency summaries: reliability, latency CDF and quantiles, and the
run output files.

A frame is delivered when its last packet lands within the deadline.  Frames
that complete late still contribute their latency to the CDF (the curve may
extend past the deadline); frames that never complete only enlarge the
denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import ScenarioConfig, parse_config_lines
from .macsim import FrameRecord


@dataclass(frozen=True)
class RunSummary:
    reliability: float
    latency_cdf: tuple  # ((latency_s, cumulative_fraction), ...) ascending
    frame_count: int
    lost_count: int
    min_latency: Optional[float]
    max_latency: Optional[float]
    p50_latency: Optional[float]
    p90_latency: Optional[float]
    p99_latency: Optional[float]


def quantile(sorted_values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank quantile of ascending values: the ceil(p * n)-th
    smallest (at least the first, at most the last); None when empty."""
    if not sorted_values:
        return None
    idx = max(0, math.ceil(p * len(sorted_values)) - 1)
    return sorted_values[min(idx, len(sorted_values) - 1)]


def summarize(records: Sequence[FrameRecord], deadline: float) -> RunSummary:
    """Aggregate frame records into reliability and a latency CDF.

    The CDF is normalized by the total frame count, so its final value is the
    fraction of frames that completed at all; its value at the deadline is the
    reliability.
    """
    if not records:
        raise ValueError("no frame records to summarize")
    total = len(records)
    latencies = sorted(r.completed - r.created for r in records if r.completed is not None)
    delivered = sum(1 for lat in latencies if lat <= deadline)

    cdf: list[tuple[float, float]] = []
    for i, lat in enumerate(latencies):
        frac = (i + 1) / total
        if cdf and cdf[-1][0] == lat:
            cdf[-1] = (lat, frac)
        else:
            cdf.append((lat, frac))

    return RunSummary(
        reliability=delivered / total,
        latency_cdf=tuple(cdf),
        frame_count=total,
        lost_count=total - delivered,
        min_latency=latencies[0] if latencies else None,
        max_latency=latencies[-1] if latencies else None,
        p50_latency=quantile(latencies, 0.50),
        p90_latency=quantile(latencies, 0.90),
        p99_latency=quantile(latencies, 0.99),
    )


def format_ms(value: Optional[float]) -> str:
    """A latency in seconds as milliseconds with six decimals, or "none"."""
    return "none" if value is None else "%.6f" % (value * 1e3)


def summary_lines(summary: RunSummary) -> list[str]:
    """The key=value lines of the summary file, also printed by ``xrsim report``."""
    return [
        "frame_count=%d" % summary.frame_count,
        "delivered_count=%d" % (summary.frame_count - summary.lost_count),
        "lost_count=%d" % summary.lost_count,
        "reliability=%.4f" % summary.reliability,
        "min_latency_ms=%s" % format_ms(summary.min_latency),
        "p50_latency_ms=%s" % format_ms(summary.p50_latency),
        "max_latency_ms=%s" % format_ms(summary.max_latency),
    ]


def write_outputs(
    summary: RunSummary,
    records: Sequence[FrameRecord],
    frames_path=None,
    cdf_path=None,
    summary_path=None,
    header_lines: Sequence[str] = (),
) -> None:
    """Write per-frame CSV, CDF CSV and key-value summary (any subset).

    ``header_lines`` (typically the config echo) are prepended as comments to
    the per-frame CSV and the summary so every output names its provenance.
    Output is byte-deterministic for identical inputs.
    """
    if frames_path is not None:
        with open(frames_path, "w", encoding="ascii", newline="\n") as fh:
            for line in header_lines:
                fh.write("# %s\n" % line)
            fh.write("frame_id,created_s,completed_s,delivered\n")
            for r in records:
                completed = "" if r.completed is None else "%.17g" % r.completed
                fh.write("%d,%.17g,%s,%d\n" % (r.frame_id, r.created, completed, int(r.delivered)))
    if cdf_path is not None:
        with open(cdf_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("latency_ms,fraction\n")
            for lat, frac in summary.latency_cdf:
                fh.write("%.9f,%.9f\n" % (lat * 1e3, frac))
    if summary_path is not None:
        with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
            for line in header_lines:
                fh.write("# %s\n" % line)
            for line in summary_lines(summary):
                fh.write("%s\n" % line)


class FrameFormatError(ValueError):
    """A per-frame CSV row that :func:`write_outputs` could not have written."""


def read_frame_records(path) -> tuple[list[FrameRecord], float]:
    """Read back a per-frame CSV written by :func:`write_outputs`, and the
    deadline its run held the frames to: the ``# deadline = ...`` line of
    its config echo, or the :class:`ScenarioConfig` default where it has
    none, as for a config file.  A row that is short, not numeric, not
    finite, completes before it was created, has a delivered flag other than
    0 or 1, or is delivered without a completion time raises
    FrameFormatError naming its line; a file without rows raises it naming
    the file.  A ``#`` line that is no config line, or a deadline that is
    not finite and above 0, raises ConfigError naming it."""
    records, echo = [], []
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise FrameFormatError("%s: not an ASCII frame file (%s)" % (path, exc.reason)) from None
        for n, raw in enumerate(lines, start=1):
            line = raw.strip()
            echo.append(line[1:] if line.startswith("#") else "")  # at its own line number
            if not line or line.startswith("#") or line.startswith("frame_id"):
                continue
            fields = line.split(",")
            try:
                if len(fields) != 4 or fields[3] not in ("0", "1"):
                    raise ValueError
                created = float(fields[1])
                completed = float(fields[2]) if fields[2] else None
                delivered = fields[3] == "1"
                if not math.isfinite(created) or not (
                    completed is None or (math.isfinite(completed) and completed >= created)
                ):
                    raise ValueError
                # a frame is delivered only by completing in time
                if delivered and completed is None:
                    raise ValueError
                records.append(FrameRecord(int(fields[0]), created, completed, delivered))
            except ValueError:
                raise FrameFormatError("%s: line %d: malformed frame row %r" % (path, n, line)) from None
    if not records:
        raise FrameFormatError("%s: no frame rows" % path)
    deadline = parse_config_lines(echo, source=str(path)).get("deadline", ScenarioConfig.deadline)
    return records, ScenarioConfig(deadline=deadline).deadline
