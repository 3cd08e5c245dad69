"""Command-line front end: single runs, parameter sweeps, trace generation,
and re-summarizing saved frame logs.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys

from .config import ConfigError, check_work_cap, config_echo_lines, load_config, parse_config_lines
from .macsim import run, write_event_log
from .metrics import (
    FrameFormatError,
    format_ms,
    read_frame_records,
    summarize,
    summary_lines,
    write_outputs,
)
from .mobility import TraceFormatError, generate_rotation_trace, peak_dps_limit, save_trace, static_trace

PRESETS = ("paper-fig4",)


def _out_dir(args) -> str:
    d = args.out_dir or os.environ.get("XRSIM_OUT") or "."
    os.makedirs(d, exist_ok=True)
    return d


def _number(kind, or_zero=False):
    """argparse type: a finite number above 0 (or at least 0), so that a bad
    value exits 1 naming the option."""

    def parse(text):
        value = kind(text)
        if not math.isfinite(value) or not (value >= 0 if or_zero else value > 0):
            raise ValueError(text)
        return value

    parse.__name__ = "finite %s %s" % (kind.__name__, ">= 0" if or_zero else "> 0")
    return parse


# -- subcommands ----------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set or [])
    result = run(cfg, collect_events=args.events)
    summary = summarize(result.frames, cfg.deadline)
    out = _out_dir(args)
    base = os.path.join(out, args.label)
    write_outputs(
        summary,
        result.frames,
        frames_path=base + "_frames.csv",
        cdf_path=base + "_cdf.csv",
        summary_path=base + "_summary.txt",
        header_lines=config_echo_lines(cfg),
    )
    if args.events:
        write_event_log(base + "_events.csv", result.events)
    print(
        "%s: frames=%d delivered=%d reliability=%.4f min=%s p50=%s max=%s"
        % (
            args.label,
            summary.frame_count,
            summary.frame_count - summary.lost_count,
            summary.reliability,
            format_ms(summary.min_latency),
            format_ms(summary.p50_latency),
            format_ms(summary.max_latency),
        )
    )
    return 0


def _fig4_cells() -> list[dict]:
    cells = []
    for rate in ("2e9", "5e9", "7e9"):
        cells.append(
            {"data_rate": rate, "rx_beamforming": "covrage", "prediction": "device",
             "hmd_rows": "64", "hmd_cols": "64"}
        )
        cells.append(
            {"data_rate": rate, "rx_beamforming": "sectors", "prediction": "none",
             "hmd_rows": "8", "hmd_cols": "8"}
        )
        for shape in ("8", "64"):
            cells.append(
                {"data_rate": rate, "rx_beamforming": "quasi_omni", "prediction": "none",
                 "hmd_rows": shape, "hmd_cols": shape}
            )
    return cells


def _vary_cells(vary_args) -> list[dict]:
    axes = {}
    for spec in vary_args:
        if "=" not in spec:
            raise ConfigError("--vary expects key=v1,v2,... got %r" % spec)
        key, _, values = spec.partition("=")
        key = key.strip()
        parts = [v.strip() for v in values.split(",") if v.strip()]
        if not parts:
            raise ConfigError("--vary %r lists no values" % spec)
        # a repeated key or value would drop an axis or run a cell twice
        if key in axes:
            raise ConfigError("--vary key %r is given twice" % key)
        if len(set(parts)) < len(parts):
            raise ConfigError("--vary %r lists a value twice" % spec)
        axes[key] = parts
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _cmd_sweep(args) -> int:
    if args.preset and args.vary:
        raise ConfigError("--preset takes no --vary axis: the preset fixes its own cells")
    if args.preset:
        cells = _fig4_cells()
    elif args.vary:
        cells = _vary_cells(args.vary)
        # a key that is no config field, or a value that does not parse,
        # would fail its cells alike: line n of "--vary" is the n-th axis
        for cell in cells:
            parse_config_lines(["%s=%s" % kv for kv in cell.items()], source="--vary")
    else:
        raise ConfigError("sweep needs --preset or at least one --vary axis")

    base_cfg = load_config(args.config, args.set or [])
    keyed = []
    for cell in cells:
        key = ",".join("%s=%s" % (k, cell[k]) for k in sorted(cell))
        keyed.append((key, cell))
    keyed.sort(key=lambda kv: kv[0])

    out = _out_dir(args)
    rows = []
    for key, cell in keyed:
        # every cell runs the base seed, so all see the same motion, unless
        # a seed axis gives its own
        overrides = (args.set or []) + ["%s=%s" % (k, v) for k, v in sorted(cell.items())]
        try:
            cfg = load_config(args.config, overrides)
            result = run(cfg)
            summary = summarize(result.frames, cfg.deadline)
            row = (
                key,
                "%d" % cfg.seed,
                "%.6f" % summary.reliability,
                "%d" % (summary.frame_count - summary.lost_count),
                "%d" % summary.lost_count,
                format_ms(summary.p50_latency),
                format_ms(summary.p90_latency),
                format_ms(summary.p99_latency),
                format_ms(summary.max_latency),
                "",
            )
        except Exception as exc:  # record the failure, keep sweeping
            seed = cell.get("seed", "%d" % base_cfg.seed)
            row = (key, seed, "none", "0", "0", "none", "none", "none", "none", str(exc))
        rows.append(row)
        print("%s: reliability=%s" % (key, row[2]))

    path = os.path.join(out, args.label + ".csv")
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow("cell,seed,reliability,delivered,lost,p50_ms,p90_ms,p99_ms,max_ms,error".split(","))
        writer.writerows(rows)
    print("wrote %s (%d cells)" % (path, len(rows)))
    return 0


def _cmd_report(args) -> int:
    records = read_frame_records(args.frames)
    summary = summarize(records, args.deadline)
    for line in summary_lines(summary):
        print(line)
    return 0


def _cmd_generate_mobility(args) -> int:
    if args.kind == "static":
        trace = static_trace(args.duration)
    else:
        limit = peak_dps_limit(args.rate)
        if args.peak_dps >= limit:
            raise ConfigError(
                "argument --peak-dps: must be below 180 x --rate = %g deg/s, got %g" % (limit, args.peak_dps)
            )
        check_work_cap({"trace samples --duration x --rate": args.duration * args.rate})
        trace = generate_rotation_trace(
            args.peak_dps, args.duration, args.rate, args.seed, args.device_horizon
        )
    save_trace(args.out, trace)
    print("wrote %s (%d samples, %.1f s)" % (args.out, len(trace.times), trace.duration))
    return 0


# -- parser ---------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xrsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--config", help="key = value config file")
    sim.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field")
    sim.add_argument("--out-dir", help="output directory (default $XRSIM_OUT or .)")
    sim.add_argument("--label", default="run", help="basename for output files")
    sim.add_argument("--events", action="store_true", help="also write the event log CSV")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    sw.add_argument("--config", help="base config file")
    sw.add_argument("--set", action="append", metavar="KEY=VALUE", help="base overrides")
    sw.add_argument("--vary", action="append", metavar="KEY=V1,V2", help="sweep axis")
    sw.add_argument("--preset", choices=PRESETS, help="named experiment matrix")
    sw.add_argument("--out-dir", help="output directory (default $XRSIM_OUT or .)")
    sw.add_argument("--label", default="sweep", help="basename for the combined CSV")
    sw.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("report", help="re-summarize a per-frame CSV")
    rep.add_argument("--frames", required=True, help="per-frame CSV path")
    rep.add_argument("--deadline", type=_number(float), default=0.020)
    rep.set_defaults(func=_cmd_report)

    gm = sub.add_parser("generate-mobility", help="write a rotation trace CSV")
    gm.add_argument("--kind", choices=("rotation", "static"), default="rotation")
    gm.add_argument("--peak-dps", type=_number(float), default=300.0)
    gm.add_argument("--duration", type=_number(float), default=20.0)
    gm.add_argument("--rate", type=_number(float), default=1000.0)
    gm.add_argument("--seed", type=_number(int, or_zero=True), default=1)
    gm.add_argument("--device-horizon", type=_number(float, or_zero=True), default=0.1)
    gm.add_argument("--out", required=True)
    gm.set_defaults(func=_cmd_generate_mobility)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, FrameFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
