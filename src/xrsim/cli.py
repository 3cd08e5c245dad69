"""Command-line front end: single runs, parameter sweeps, trace generation,
and re-summarizing saved frame logs.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import os
import sys

from .config import ROTATION_MODES, ConfigError, config_echo_lines, load_config, parse_config_lines
from .macsim import run, scenario_trace, write_event_log
from .metrics import FrameFormatError, format_ms, read_frame_records, summarize, summary_lines, write_outputs
from .mobility import TraceFormatError, save_trace

# what ``main`` reports as a configuration problem, exit 1; a sweep records
# these as a cell's error row, and any other exception stops it with exit 2
CONFIG_ERRORS = (ConfigError, TraceFormatError, FrameFormatError, FileNotFoundError, IsADirectoryError)

# each paper experiment's cells: per rate, covrage on 64x64, sectors on 8x8
# and the quasi-omni on both; and beacon-interval length against the DTI
# beamforming period, then the A-BFT path at each beacon-interval length
PRESETS = {
    "paper-fig4": [{"data_rate": rate, "rx_beamforming": mode, "prediction": prediction, "hmd_rows": n, "hmd_cols": n}
                   for rate in ("2e9", "5e9", "7e9")
                   for mode, prediction, n in (("covrage", "device", "64"), ("sectors", "none", "8"),
                                               ("quasi_omni", "none", "8"), ("quasi_omni", "none", "64"))],
    "paper-overhead": [{"bi_duration": bi, "bf_interval": bf} for bi in ("0.1024", "1.024") for bf in ("0.1", "1.0")]
    + [{"bf_location": "abft", "bi_duration": bi} for bi in ("0.1024", "1.024")],
}


def _out_dir(args) -> str:
    """The output directory, made if missing; called before any run."""
    d = args.out_dir or os.environ.get("XRSIM_OUT") or "."
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ConfigError("%s %r: cannot make the output directory: %s" % (
            "--out-dir" if args.out_dir else "XRSIM_OUT", d, exc.strerror or exc)) from None
    return d


def _writable(option: str, value: str, *paths: str) -> tuple[str, ...]:
    """``paths``, the files a command writes, each in an existing directory
    and none a directory itself, else a ConfigError naming the ``option``
    that gave ``value``; called before any work."""
    for path in paths:
        d = os.path.dirname(path) or "."
        if not os.path.isdir(d):
            raise ConfigError("%s %r: no directory %r" % (option, value, d))
        if os.path.isdir(path):
            raise ConfigError("%s %r: %r is a directory" % (option, value, path))
    return paths


# -- subcommands ----------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set)
    base = os.path.join(_out_dir(args), args.label)
    suffixes = ("_frames.csv", "_cdf.csv", "_summary.txt") + (("_events.csv",) if args.events else ())
    paths = _writable("--label", args.label, *(base + suffix for suffix in suffixes))
    result = run(cfg, collect_events=args.events)
    summary = summarize(result.frames, cfg.deadline)
    write_outputs(summary, result.frames, *paths[:3], header_lines=config_echo_lines(cfg))
    if args.events:
        write_event_log(paths[3], result.events)
    latencies = (summary.min_latency, summary.p50_latency, summary.max_latency)
    print("%s: frames=%d delivered=%d reliability=%.4f min=%s p50=%s max=%s" % (
        args.label, summary.frame_count, summary.frame_count - summary.lost_count, summary.reliability,
        *map(format_ms, latencies)))
    return 0


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
        if key in axes:
            raise ConfigError("--vary key %r is given twice" % key)
        # the CSV is ASCII, and each row's cell key repeats the value; the
        # config reader cuts a value at "#", so its cell would run another
        # value than the one its row names
        for value in parts:
            if not value.isascii():
                raise ConfigError("--vary value %r is not ASCII" % value)
            if "#" in value:
                raise ConfigError("--vary value %r holds '#', which starts a comment" % value)
        # a key that is no config field, or a value that does not parse,
        # would fail every cell alike; a value read twice, as 2e9 and
        # 2000000000 are, would run one cell twice
        read = [parse_config_lines(["%s=%s" % (key, v)], source="--vary %r" % spec)[key] for v in parts]
        if len(set(read)) < len(parts):
            raise ConfigError("--vary %r lists a value twice" % spec)
        axes[key] = parts
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _cmd_sweep(args) -> int:
    if args.preset and args.vary:
        raise ConfigError("--preset takes no --vary axis: the preset fixes its own cells")
    if args.preset:
        cells = PRESETS[args.preset]
    elif args.vary:
        cells = _vary_cells(args.vary)
    else:
        raise ConfigError("sweep needs --preset or at least one --vary axis")

    base_cfg = load_config(args.config, args.set)
    keyed = sorted(((",".join("%s=%s" % (k, cell[k]) for k in sorted(cell)), cell) for cell in cells),
                   key=lambda kv: kv[0])

    (path,) = _writable("--label", args.label, os.path.join(_out_dir(args), args.label + ".csv"))
    rows = []
    for key, cell in keyed:
        # each cell is the base config with its fields replaced: all run the
        # base seed, so all see the same motion, unless a seed axis gives its own
        try:
            cfg = dataclasses.replace(base_cfg, **parse_config_lines(["%s=%s" % kv for kv in cell.items()]))
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
        except CONFIG_ERRORS as exc:  # record the cell's config error, keep sweeping
            seed = cell.get("seed", "%d" % base_cfg.seed)
            row = (key, seed, "none", "0", "0", "none", "none", "none", "none", str(exc))
        rows.append(row)
        print("%s: reliability=%s" % (key, row[2]))

    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow("cell,seed,reliability,delivered,lost,p50_ms,p90_ms,p99_ms,max_ms,error".split(","))
        writer.writerows(rows)
    print("wrote %s (%d cells)" % (path, len(rows)))
    return 0


def _cmd_report(args) -> int:
    records, deadline = read_frame_records(args.frames)
    for line in summary_lines(summarize(records, deadline)):
        print(line)
    return 0


def _cmd_generate_mobility(args) -> int:
    cfg = load_config(args.config, args.set)
    if cfg.rotation not in ROTATION_MODES:
        raise ConfigError("rotation names the trace file %r: generate-mobility writes the trace of %s"
                          % (cfg.rotation, ", ".join(ROTATION_MODES)))
    _writable("--out", args.out, args.out)
    trace = scenario_trace(cfg)
    save_trace(args.out, trace)
    print("wrote %s (%d samples, %.1f s)" % (args.out, len(trace.times), trace.duration))
    return 0


# -- parser ---------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xrsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", help="key = value config file")
    config_flags.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field")

    sim = sub.add_parser("simulate", parents=[config_flags], help="run one scenario")
    sim.add_argument("--out-dir", help="output directory (default $XRSIM_OUT or .)")
    sim.add_argument("--label", default="run", help="basename for output files")
    sim.add_argument("--events", action="store_true", help="also write the event log CSV")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", parents=[config_flags], help="run a cartesian parameter sweep")
    sw.add_argument("--vary", action="append", metavar="KEY=V1,V2", help="sweep axis")
    sw.add_argument("--preset", choices=sorted(PRESETS), help="named experiment matrix: paper-fig4 (data rate by"
                    " beamforming mode) or paper-overhead (beacon interval by beamforming period and location)")
    sw.add_argument("--out-dir", help="output directory (default $XRSIM_OUT or .)")
    sw.add_argument("--label", default="sweep", help="basename for the combined CSV")
    sw.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("report", help="re-summarize a per-frame CSV at its run's deadline")
    rep.add_argument("--frames", required=True, help="per-frame CSV path")
    rep.set_defaults(func=_cmd_report)

    gm = sub.add_parser("generate-mobility", parents=[config_flags], help="write the rotation trace a scenario runs on")
    gm.add_argument("--out", required=True, help="trace CSV path")
    gm.set_defaults(func=_cmd_generate_mobility)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
