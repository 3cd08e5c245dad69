"""Config parsing and validation, plus the command-line front end."""

import argparse
import contextlib
import csv
import dataclasses
import signal
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrsim import cli
from xrsim.antenna import ArrayGeometry, AwvEvaluator
from xrsim.codebook import synthesize_quasi_omni
from xrsim.config import (
    LINK_BATCH_CEILING,
    WORK_CAP,
    ConfigError,
    ScenarioConfig,
    config_echo_lines,
    load_config,
    parse_config_lines,
)
from xrsim.macsim import FrameRecord, RunResult, run, scenario_trace
from xrsim.metrics import format_ms, read_frame_records, summarize
from xrsim.mobility import generate_rotation_trace, save_trace

from claims import SCENARIOS, reliability


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, rather than hang it, if the block runs too long."""

    def expire(signum, frame):
        pytest.fail("still running after %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestDefaults:
    def test_frozen_scenario_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.sim_time == 20.0
        assert cfg.seed == 1
        assert (cfg.room_x, cfg.room_y, cfg.room_z) == (20.0, 10.0, 10.0)
        assert cfg.hmd_height == 1.7
        assert cfg.rotation == "high"
        assert (cfg.peak_dps_low, cfg.peak_dps_high) == (60.0, 300.0)
        assert cfg.walk_speed == 1.0
        assert cfg.data_rate == 5e9
        assert cfg.frame_rate == 100.0
        assert cfg.deadline == 0.020
        assert cfg.mpdu_bytes == 65536
        assert cfg.header_bytes == 100
        assert cfg.per_mpdu_overhead == 3e-6
        assert cfg.bi_duration == 0.1024
        assert cfg.bhi_duration == 2e-3
        assert cfg.sls_duration == 0.75e-3
        assert (cfg.bf_location, cfg.bf_interval) == ("dti", 0.1)
        assert (cfg.rx_beamforming, cfg.prediction) == ("covrage", "device")
        assert (cfg.ap_rows, cfg.ap_cols) == (8, 8)
        assert cfg.spacing == 0.5
        assert cfg.tx_power_dbm == 10.0
        assert cfg.noise_figure_db == 10.0
        assert cfg.bandwidth_hz == 1.76e9
        assert cfg.carrier_hz == 60e9
        assert cfg.implementation_loss_db == 5.0
        assert cfg.phy_rate_bps == 8.085e9
        assert cfg.snr_threshold_db == 18.0

    def test_derived_views(self):
        cfg = ScenarioConfig()
        assert cfg.burst_interval == 0.01
        assert cfg.burst_bits == 50_000_000
        assert cfg.x_bounds == (-10.0, 10.0)
        assert cfg.y_bounds == (-5.0, 5.0)
        assert cfg.ap_position == (0.0, 0.0, 10.0)

    def test_hmd_shape_follows_the_mode(self):
        assert ScenarioConfig().hmd_shape() == (64, 64)
        assert ScenarioConfig(rx_beamforming="sectors", prediction="none").hmd_shape() == (8, 8)
        assert ScenarioConfig(hmd_rows=16, hmd_cols=32).hmd_shape() == (16, 32)


class TestValidation:
    def test_membership_errors_name_the_choices(self):
        with pytest.raises(ConfigError, match="data_rate"):
            ScenarioConfig(data_rate=9e9)
        with pytest.raises(ConfigError, match="bi_duration"):
            ScenarioConfig(bi_duration=0.5)
        with pytest.raises(ConfigError, match="bf_interval"):
            ScenarioConfig(bf_interval=0.2)
        with pytest.raises(ConfigError, match="rx_beamforming"):
            ScenarioConfig(rx_beamforming="phased")
        with pytest.raises(ConfigError, match="prediction"):
            ScenarioConfig(prediction="kalman")

    def test_quasi_omni_needs_no_prediction(self):
        with pytest.raises(ConfigError, match="quasi_omni"):
            ScenarioConfig(rx_beamforming="quasi_omni", prediction="device")
        ScenarioConfig(rx_beamforming="quasi_omni", prediction="none")

    def test_sector_sweep_array_limit(self):
        with pytest.raises(ConfigError, match="16x16"):
            ScenarioConfig(
                rx_beamforming="sectors", prediction="none", hmd_rows=32, hmd_cols=32
            )

    def test_every_route_to_a_config_checks_it(self):
        # the constructor, a replaced field and the config reader alike
        with pytest.raises(ConfigError, match="data_rate 3e"):
            ScenarioConfig(data_rate=3e9)
        with pytest.raises(ConfigError, match="deadline must be > 0"):
            dataclasses.replace(load_config(), deadline=-1.0)
        with pytest.raises(ConfigError, match="data_rate 3e"):
            load_config(overrides=["data_rate = 3e9"])

    def test_hmd_shape_needs_both_dimensions(self):
        with pytest.raises(ConfigError, match="hmd_rows"):
            ScenarioConfig(hmd_rows=8)

    def test_rotation_must_name_a_mode_or_file(self):
        with pytest.raises(ConfigError, match="rotation"):
            ScenarioConfig(rotation="/no/such/trace.csv")

    def test_burst_must_be_integer_bits(self):
        with pytest.raises(ConfigError, match="integer"):
            ScenarioConfig(data_rate=5e9, frame_rate=300.0)

    def test_missing_mcs_index(self):
        # the one MCS is the fields phy_rate_bps and snr_threshold_db
        with pytest.raises(ConfigError, match="unknown key 'mcs_index'"):
            load_config(overrides=["mcs_index = 5"])

    def test_peak_within_a_trace_steps_reach(self):
        # a trace step turns by at most 180 deg; only the peak that the
        # rotation mode reads is checked
        with pytest.raises(ConfigError, match="peak_dps_low must be below 180 x trace_sample_rate"):
            ScenarioConfig(rotation="low", peak_dps_low=180_000.0)
        ScenarioConfig(rotation="low", peak_dps_low=179_990.0)
        ScenarioConfig(peak_dps_low=2e5)
        with pytest.raises(ConfigError, match="peak_dps_high"):
            ScenarioConfig(peak_dps_high=2000.0, trace_sample_rate=10.0)
        # and no slower than the fit resolves to 1%: 0.01 deg/s at 1000 Hz
        # came out 1.7% slow
        with pytest.raises(ConfigError, match="peak_dps_low must be at least 3e-5 x trace_sample_rate = 0.03 deg/s"):
            ScenarioConfig(rotation="low", peak_dps_low=0.01)
        ScenarioConfig(rotation="low", peak_dps_low=0.03)
        ScenarioConfig(rotation="high", peak_dps_low=0.01)
        with pytest.raises(ConfigError, match="peak_dps_high must be at least"):
            ScenarioConfig(peak_dps_high=200.0, trace_sample_rate=1e7, sim_time=0.3)

    def test_a_dti_sweep_must_fit_between_beacon_headers(self):
        ScenarioConfig(sls_duration=0.1004)
        with pytest.raises(ConfigError, match="sls_duration"):
            ScenarioConfig(sls_duration=0.1005)
        # A-BFT beamforming runs no DTI sweep
        ScenarioConfig(sls_duration=0.1005, bf_location="abft")

    def test_headset_below_the_ceiling_ap(self):
        for height in (-0.1, 10.0):
            with pytest.raises(ConfigError, match="hmd_height"):
                ScenarioConfig(hmd_height=height)
        ScenarioConfig(hmd_height=0.0)

    def test_shipped_scenarios_stay_well_under_the_work_cap(self):
        base = [["data_rate = 8e9"], *map(list, SCENARIOS.values())]
        cells = [["%s = %s" % kv for kv in cell.items()] for preset in cli.PRESETS.values() for cell in preset]
        for overrides in base + cells:
            counts = load_config(overrides=overrides).work_counts()
            assert max(counts.values()) <= WORK_CAP / 2, (overrides, counts)


class TestParsing:
    def test_unknown_key_lists_the_valid_ones(self):
        with pytest.raises(ConfigError, match="valid keys.*sim_time"):
            load_config(overrides=["bogus = 1"])

    def test_comments_and_blanks_ignored(self):
        values = parse_config_lines(["# header", "", "sim_time = 2.5  # trailing"])
        assert values == {"sim_time": 2.5}

    def test_missing_equals_names_the_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_lines(["sim_time = 1.0", "oops"])

    def test_file_plus_override_precedence(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("sim_time = 5.0\nrotation = static\n")
        cfg = load_config(path, ["sim_time = 2.0"])
        assert cfg.sim_time == 2.0
        assert cfg.rotation == "static"

    def test_echo_round_trips_every_field(self):
        cfg = load_config(overrides=["sim_time = 3.0", "rotation = static", "data_rate = 7e9"])
        lines = config_echo_lines(cfg)
        names = {ln.split(" = ")[0] for ln in lines}
        for f in fields(ScenarioConfig):
            assert f.name in names
        rebuilt = ScenarioConfig(**parse_config_lines(lines))
        assert rebuilt == cfg


SECTOR_RUN = [
    "--set", "sim_time = 0.3",
    "--set", "rotation = static",
    "--set", "rx_beamforming = sectors",
    "--set", "prediction = none",
]


class TestSimulateCommand:
    def test_writes_the_three_outputs(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--out-dir", str(tmp_path), "--label", "demo"] + SECTOR_RUN
        )
        assert rc == 0
        for suffix in ("_frames.csv", "_cdf.csv", "_summary.txt"):
            assert (tmp_path / ("demo" + suffix)).exists()
        out = capsys.readouterr().out
        assert "demo: frames=30" in out
        assert "reliability=" in out
        summary = (tmp_path / "demo_summary.txt").read_text()
        assert "# sim_time = 0.29999999999999999\n" in summary or "# sim_time = 0.3\n" in summary
        assert "frame_count=30\n" in summary
        frames, _ = read_frame_records(tmp_path / "demo_frames.csv")
        assert [r.frame_id for r in frames] == list(range(30))

    def test_events_flag_writes_the_log(self, tmp_path):
        rc = cli.main(
            ["simulate", "--out-dir", str(tmp_path), "--label", "ev", "--events"]
            + SECTOR_RUN
        )
        assert rc == 0
        lines = (tmp_path / "ev_events.csv").read_text().splitlines()
        assert lines[0] == "t,kind,detail"
        assert len(lines) > 10

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XRSIM_OUT", str(tmp_path / "envout"))
        rc = cli.main(["simulate", "--label", "envrun"] + SECTOR_RUN)
        assert rc == 0
        assert (tmp_path / "envout" / "envrun_frames.csv").exists()

    def test_one_column_headset_under_fast_motion_runs(self, tmp_path):
        # a wide predicted arc once asked covrage for more column blocks
        # than the array has (exit 2, "block count must be in [1, cols]")
        overrides = [
            "hmd_rows=8", "hmd_cols=1", "bf_interval=1.0", "prediction=oracle",
            "room_z=2.0", "peak_dps_high=1000", "sim_time=5",
        ]
        argv = ["simulate", "--out-dir", str(tmp_path)] + [a for ov in overrides for a in ("--set", ov)]
        assert cli.main(argv) == 0

    # the outputs echo the config in ASCII, one field a line: a run on a
    # non-ASCII path would finish, then fail to write them, and one on a
    # path with a newline would write a frames file that report rejects
    @pytest.mark.parametrize("name, why", [("trac\u00e9.csv", "not ASCII"), ("a\nb.csv", "control character")],
                             ids=["non_ascii", "newline"])
    def test_a_rotation_path_that_is_not_ascii_exits_one_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                                         name, why):
        path = tmp_path / name
        save_trace(path, generate_rotation_trace(300.0, 1.0, 1000.0, np.random.SeedSequence(1)))
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        argv = ["simulate", "--out-dir", str(tmp_path / "out"), "--set", "rotation = %s" % path]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: rotation") and why in err
        assert calls == [] and not (tmp_path / "out").exists()

    # a config file's "#" starts a comment; an override cut there ran on
    # another value, here a trace file named "a" next to "a#b.csv"
    @pytest.mark.parametrize("override", ["rotation = a#b.csv", "sim_time = 0.3 # note"])
    def test_an_override_that_holds_a_hash_exits_one_naming_it(self, tmp_path, capsys, monkeypatch, override):
        monkeypatch.chdir(tmp_path)
        for name in ("a", "a#b.csv"):
            save_trace(tmp_path / name, generate_rotation_trace(300.0, 1.0, 1000.0, np.random.SeedSequence(1)))
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a run started"))
        assert cli.main(["simulate", "--out-dir", str(tmp_path / "out"), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: override %r" % override) and "'#'" in err
        # a config file keeps its comments
        (tmp_path / "scenario.cfg").write_text("rotation = a#b.csv\n")
        assert load_config(tmp_path / "scenario.cfg").rotation == "a"

    def test_bad_override_exits_one(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--out-dir", str(tmp_path), "--set", "data_rate = 9e9"]
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    # the quasi-omni pattern is a closed form with no budget; the names of
    # the search budget it replaced are not scenario fields
    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("key", ["qo_samples", "qo_iters", "qo_iters_large", "codebook_seed"])
    def test_synthesis_budget_keys_are_unknown(self, tmp_path, capsys, key, via):
        line = "%s = 10" % key
        if via == "--config":
            path = tmp_path / "scenario.cfg"
            path.write_text("sim_time = 0.3\n%s\n" % line)
            line = str(path)
        assert cli.main(["simulate", "--out-dir", str(tmp_path), via, line]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unknown key %r; valid keys:" % key in err

    # a directory exited 2 on "Is a directory", and a file that is not text
    # on the 'utf-8' codec's decode error
    @pytest.mark.parametrize(
        "option, value, named",
        [
            ("--set", "rotation = {directory}", "rotation"),
            ("--config", "{directory}", "{directory}"),
            ("--set", "rotation = {binary}", "{binary}"),
            ("--config", "{binary}", "{binary}"),
        ],
        ids=["rotation_directory", "config_directory", "trace_not_text", "config_not_text"],
    )
    def test_unreadable_input_exits_one_naming_it(self, tmp_path, capsys, option, value, named):
        paths = {"directory": tmp_path / "a_directory", "binary": tmp_path / "binary.csv"}
        paths["directory"].mkdir()
        paths["binary"].write_bytes(b"\xfft,qw,qx,qy,qz\n")
        argv = ["simulate", "--out-dir", str(tmp_path / "out"), "--set", "sim_time = 0.2"]
        with time_limit(20.0):
            assert cli.main(argv + [option, value.format(**paths)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named.format(**paths) in err

    def test_missing_trace_exits_one(self, tmp_path):
        rc = cli.main(
            ["simulate", "--out-dir", str(tmp_path), "--set", "rotation = /no/file.csv"]
        )
        assert rc == 1

    # non-finite floats, values below a field's lower bound and peaks a trace
    # step cannot reach: without the checks these run to a quiet "reliability
    # 0", fail deep in set-up (exit 2) or make time run backwards (a hang).
    # mcs is an unknown key: the one MCS is phy_rate_bps and snr_threshold_db;
    # so is qo_samples, a codebook constant.
    @pytest.mark.parametrize(
        "override",
        [
            "walk_speed = nan",
            "tx_power_dbm = nan",
            "sls_duration = inf",
            "mcs = 21 8.085e9 nan",
            "seed = -1",
            "qo_samples = 0",
            "spacing = -0.5",
            "carrier_hz = -1",
            "mcs = 21 nan 18",
            "mcs = 21 -1 18",
            "per_mpdu_overhead = -1",
            # overflow deep in set-up or the link: distances, wavelength
            "room_z = 1e300",
            "hmd_height = 1e300",
            "carrier_hz = 1e-300",
            "sls_duration = 0.1005",
            "peak_dps_high = 2e5",
            "peak_dps_high = 1e30",
            "peak_dps_high = 0.01",  # slower than the trace fit resolves
            "seed = x",  # no number at all
        ],
    )
    def test_bad_value_exits_one_naming_the_field(self, tmp_path, capsys, override):
        with time_limit(20.0):
            rc = cli.main(
                ["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = 0.3", "--set", override]
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert override.split("=")[0].strip() in err


    # each would run for hours or exhaust memory; load_config must reject it
    # first, so a build without the cap never starts the run
    @pytest.mark.parametrize(
        "overrides, field",
        [
            (["frame_rate = 1e9"], "frame_rate"),
            (["mpdu_bytes = 1", "header_bytes = 0", "per_mpdu_overhead = 0"], "mpdu_bytes"),
            # one 1-byte tail MPDU per burst, retried every nanosecond
            (["mpdu_bytes = 6249999", "header_bytes = 0", "per_mpdu_overhead = 0"], "per_mpdu_overhead"),
            (["trace_sample_rate = 1e9"], "trace_sample_rate"),
            (["walk_step_interval = 1e-9"], "walk_step_interval"),
            (["ap_rows = 100000"], "ap_rows"),
            # a one-row headset's column phasor table: 314 MB a batch
            (["hmd_rows = 1", "hmd_cols = 9500"], "link batch"),
        ],
    )
    def test_over_the_work_cap_exits_one_naming_the_field(self, tmp_path, capsys, overrides, field):
        with pytest.raises(ConfigError, match="work cap"):
            load_config(overrides=overrides)
        argv = ["simulate", "--out-dir", str(tmp_path)]
        with time_limit(10.0):
            rc = cli.main(argv + [a for ov in overrides for a in ("--set", ov)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "work cap" in err and field in err

    # each exited 2, "int too large to convert to float", from the float
    # arithmetic of the spacing check or the work counts
    @pytest.mark.parametrize("overrides", [
        ["ap_rows = 1" + "0" * 400], ["ap_cols = 1" + "0" * 400], ["hmd_rows = 1" + "0" * 400, "hmd_cols = 8"],
        ["mpdu_bytes = 1" + "0" * 400], ["header_bytes = 1" + "0" * 400]])
    def test_a_huge_integer_exits_one_naming_the_field(self, tmp_path, capsys, monkeypatch, overrides):
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a run started"))
        argv = ["simulate", "--out-dir", str(tmp_path)]
        assert cli.main(argv + [a for ov in overrides for a in ("--set", ov)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must be <= 2**53" % overrides[0].split(" =")[0])


class TestLinkBatchCount:
    """The work cap's array count is a link batch's phasor tables, one
    16-byte entry per row and column of both arrays at each start of the
    largest batch: with the 8x8 AP it holds headsets up to rows + cols =
    4,866."""

    def test_a_98x98_quasi_omni_headset_runs(self, tmp_path):
        # the per-element set-up count rejected it
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = 0.05", "--set", "hmd_rows = 98",
                "--set", "hmd_cols = 98", "--set", "rx_beamforming = quasi_omni", "--set", "prediction = none"]
        with time_limit(20.0):
            assert cli.main(argv) == 0

    @pytest.mark.parametrize("rows, cols", [(2433, 2433), (1, 4865)])
    def test_the_largest_headsets_batch_stays_within_the_count(self, rows, cols):
        # traced peaks of 80 MB (the row table, then the column table) and
        # 160 MB (the column table) against 16 B x 1.0e7
        overrides = ["rx_beamforming = quasi_omni", "prediction = none", "hmd_rows = %d" % rows]
        with pytest.raises(ConfigError, match="link batch"):
            load_config(overrides=overrides + ["hmd_cols = %d" % (cols + 1)])
        counts = load_config(overrides=overrides + ["hmd_cols = %d" % cols]).work_counts()
        (count,) = [n for what, n in counts.items() if what.startswith("link batch")]
        g = ArrayGeometry(rows, cols)
        evaluator = AwvEvaluator(g, synthesize_quasi_omni(g))
        u = np.random.default_rng(1).normal(size=(LINK_BATCH_CEILING, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        tracemalloc.start()
        try:
            evaluator.gains_db(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * np.dtype(complex).itemsize, (peak, count)


# Fuzz draws per field kind: values to reject and values across a working
# range.  Rate- and size-like fields are drawn ordinarily only up to what runs
# in seconds at sim_time <= 0.3; far beyond that the work cap rejects the
# config, which the 1e300 and 10**9 draws exercise.  mpdu_bytes runs from 1:
# with the default 3 us per-MPDU overhead, 0.3 s holds at most 9.7e4
# attempts, and mpdu_bytes = 1 at sim_time = 0.3 (94,116 attempts with the
# 64x64 covrage headset) takes about 0.15 s of event loop on 2 cores.  Only
# with header_bytes and per_mpdu_overhead also at 0 does a run reach the
# cap's 1e7 attempts, about 1.7 us each (sim_time = 0.0098: 7.1e6 attempts,
# 12.4 s of event loop).
_FUZZ_FLOATS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "5e-324", "1.7976931348623157e308")
_FUZZ_INTS = (-1, 0, 1, 10**9)
_FUZZ_RANGES = {
    "frame_rate": (1e-3, 1e4),
    "trace_sample_rate": (1e-3, 1e5),
    "walk_step_interval": (1e-4, 1e3),
    "mpdu_bytes": (1, 10**7),
    "ap_rows": (1, 32),
    "ap_cols": (1, 32),
    "hmd_rows": (0, 16),
    "hmd_cols": (0, 16),
}
_FUZZ_WORDS = ("high", "low", "static", "abft", "dti", "sectors", "quasi_omni", "none", "oracle", "bogus")


@st.composite
def single_override(draw):
    field = draw(st.sampled_from([f for f in fields(ScenarioConfig) if f.name != "sim_time"]))
    lo, hi = _FUZZ_RANGES.get(field.name, (-1e3, 1e3))
    if field.type == "float":
        value = draw(st.one_of(st.sampled_from(_FUZZ_FLOATS), st.floats(lo, hi).map(repr)))
    elif field.type == "int":
        value = draw(st.one_of(st.sampled_from(_FUZZ_INTS), st.integers(int(lo), int(hi))))
    else:
        value = draw(st.sampled_from(_FUZZ_WORDS))
    return "%s = %s" % (field.name, value)


class TestOneHugeBurst:
    # frame_rate = 0.001 makes one burst of 9.5e6 MPDUs; building one queue
    # entry per MPDU took 16-22 s and 1.2 GiB on a 2-core VM even in a run
    # that ends right after the burst arrives
    @pytest.mark.parametrize("sim_time", ["5e-324", "0.3"])
    def test_runs_in_seconds(self, tmp_path, sim_time):
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = " + sim_time]
        with time_limit(10.0):
            assert cli.main(argv + ["--set", "frame_rate = 0.001"]) == 0

    def test_mpdu_count_is_no_bound(self, tmp_path):
        # 1.9e7 MPDUs of 10 bytes arrive, but a burst is one queue entry and
        # only the ~9.4e4 MPDUs that fit on the medium are attempted
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = 0.3", "--set", "mpdu_bytes = 10"]
        with time_limit(20.0):
            assert cli.main(argv) == 0


class TestSingleOverrideFuzz:
    @given(
        override=single_override(),
        sim_time=st.floats(0.0, 0.3, exclude_min=True),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exits_zero_or_one(self, tmp_path_factory, override, sim_time):
        out = tmp_path_factory.mktemp("fuzz")
        argv = ["simulate", "--out-dir", str(out), "--set", "sim_time = %r" % sim_time, "--set", override]
        with time_limit(20.0):
            rc = cli.main(argv)
        assert rc in (0, 1), argv

    # the grating-lobe turn counts pass 2**63 here, which an int64 cast of
    # them could not hold: it warned and flipped signs at random
    @pytest.mark.parametrize("spacing", ["1e300", "1e200"])
    def test_a_huge_spacing_runs(self, tmp_path, spacing):
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = 0.1", "--set", "spacing = " + spacing]
        with time_limit(20.0):
            assert cli.main(argv) == 0

    # 2 pi x spacing x (rows + cols) overflows: each exited 2 deep in set-up
    # or the link (the quasi-omni synthesis divided by zero), where the
    # default 64x64 headset overflows from about 2.2e305 and the 8x8 one
    # from about 1.8e306
    @pytest.mark.parametrize(
        "spacing, mode", [("1e306", "quasi_omni"), ("3e306", "covrage"), ("1e307", "sectors")]
    )
    def test_a_spacing_that_overflows_the_phases_exits_one(self, tmp_path, capsys, spacing, mode):
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "spacing = " + spacing,
                "--set", "rx_beamforming = " + mode, "--set", "prediction = none"]
        with time_limit(20.0):
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: spacing")

    # each length overflowed to inf and exited 2: the full MPDU's end read as
    # no event ("medium idle with pending data"), the walk step and the
    # element offsets in metres turned into NaN gains, and the path loss's
    # product warned "overflow encountered in multiply" (-inf SNRs without
    # the warnings filter)
    @pytest.mark.parametrize(
        "overrides, named",
        [
            (["phy_rate_bps = 1e-305"], "phy_rate_bps"),
            (["phy_rate_bps = 2.9e-303"], "phy_rate_bps"),
            (["phy_rate_bps = 1e-300", "per_mpdu_overhead = 1.7976931348623157e308"], "per_mpdu_overhead"),
            (["walk_speed = 1e308", "walk_step_interval = 2", "sim_time = 4", "seed = 21"],
             "walk_speed x walk_step_interval"),
            (["carrier_hz = 1", "spacing = 1e299", "rx_beamforming = quasi_omni", "prediction = none"],
             "spacing x c / carrier_hz"),
            (["carrier_hz = 1", "spacing = 5e299", "rx_beamforming = sectors", "prediction = none"],
             "spacing x c / carrier_hz"),
            (["carrier_hz = 1e307"], "carrier_hz"),
        ],
        ids=["airtime", "airtime_edge", "airtime_overhead", "walk_step", "offsets_quasi_omni", "offsets_sectors",
             "path_loss"],
    )
    def test_a_derived_length_that_overflows_exits_one_naming_its_fields(self, tmp_path, capsys, overrides, named):
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = 0.05"]
        with time_limit(20.0):
            assert cli.main(argv + [a for ov in overrides for a in ("--set", ov)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err and "overflows" in err

    # the largest of each length that runs: an airtime of 1.75e308 s, offsets
    # of 9.4e307 m, a 5e307 m walk step, and 4 pi d f of 1.7e308 m Hz
    @pytest.mark.parametrize(
        "overrides",
        [
            ["phy_rate_bps = 3e-303"],
            ["carrier_hz = 1", "spacing = 1e298", "rx_beamforming = quasi_omni", "prediction = none"],
            ["walk_speed = 1e308"],
            ["carrier_hz = 1e306"],
        ],
        ids=["airtime", "offsets", "walk_step", "path_loss"],
    )
    def test_the_largest_lengths_that_fit_run(self, tmp_path, overrides):
        argv = ["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = 0.6"]
        with time_limit(20.0):
            assert cli.main(argv + [a for ov in overrides for a in ("--set", ov)]) == 0


class TestOneMedian:
    """Frames of 1 ms and 3 ms: every output gives the nearest-rank p50,
    1 ms.  The summary file, report and simulate used to print an
    interpolating median of 2 ms, while sweep printed 1 ms."""

    def test_every_output_prints_the_nearest_rank_p50(self, tmp_path, capsys, monkeypatch):
        frames = [FrameRecord(0, 0.0, 0.001, True), FrameRecord(1, 0.01, 0.013, True)]
        assert summarize(frames, 0.02).p50_latency == 0.001
        monkeypatch.setattr(cli, "run", lambda cfg, collect_events=False: RunResult(cfg, frames, {}))
        base = ["--out-dir", str(tmp_path), "--set", "sim_time = 0.02"]

        assert cli.main(["simulate", "--label", "m"] + base) == 0
        assert " min=1.000000 p50=1.000000 max=3.000000\n" in capsys.readouterr().out
        summary = (tmp_path / "m_summary.txt").read_text()
        assert "p50_latency_ms=1.000000\n" in summary and "2.000000" not in summary

        assert cli.main(["report", "--frames", str(tmp_path / "m_frames.csv")]) == 0
        out = capsys.readouterr().out
        assert "p50_latency_ms=1.000000\n" in out and "2.000000" not in out

        assert cli.main(["sweep", "--label", "s", "--vary", "data_rate=2e9"] + base) == 0
        header, row = (tmp_path / "s.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["p50_ms"] == "1.000000"


class TestReportCommand:
    def test_round_trip_matches_the_run_summary(self, tmp_path, capsys):
        # 8 Gbps under high motion: some frames late, so every latency line
        # carries a number
        run_args = ["--set", "sim_time = 0.3", "--set", "data_rate = 8e9"]
        assert cli.main(["simulate", "--out-dir", str(tmp_path), "--label", "r"] + run_args) == 0
        capsys.readouterr()
        rc = cli.main(["report", "--frames", str(tmp_path / "r_frames.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        summary = (tmp_path / "r_summary.txt").read_text()
        body = [ln + "\n" for ln in summary.splitlines() if not ln.startswith("#")]
        assert len(body) == 7
        assert out == "".join(body)
        assert "none" not in out
        assert "reliability=1.0000" not in out

    def test_the_runs_own_deadline_summarizes_it(self, tmp_path, capsys):
        # at deadline = 0.04 the run delivers 44 of 200 frames; report, which
        # took a 20 ms deadline of its own, printed 12 of 200
        run_args = ["--set", "sim_time = 2", "--set", "data_rate = 8e9", "--set", "deadline = 0.04",
                    "--set", "seed = 1"]
        assert cli.main(["simulate", "--out-dir", str(tmp_path), "--label", "d"] + run_args) == 0
        capsys.readouterr()
        assert cli.main(["report", "--frames", str(tmp_path / "d_frames.csv")]) == 0
        out = capsys.readouterr().out
        summary = (tmp_path / "d_summary.txt").read_text()
        assert out == "".join(ln + "\n" for ln in summary.splitlines() if not ln.startswith("#"))
        assert "reliability=0.2200\n" in out

    def test_deadline_is_no_option(self, tmp_path, capsys):
        # the MAC drops stale frames at the run's deadline, so a summary at
        # any other one misreads the run
        assert cli.main(["report", "--frames", str(tmp_path / "f.csv"), "--deadline", "0.04"]) == 1
        assert "unrecognized arguments: --deadline" in capsys.readouterr().err

    # a file whose frames all arrived within 6 ms would read a quiet
    # reliability of 0
    @pytest.mark.parametrize("deadline", ["nan", "-1"])
    def test_a_bad_deadline_line_exits_one_naming_it(self, tmp_path, capsys, deadline):
        bad = tmp_path / "bad.csv"
        bad.write_text("# deadline = %s\nframe_id,created_s,completed_s,delivered\n0,0.0,0.006,1\n" % deadline)
        assert cli.main(["report", "--frames", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("config error: deadline")

    # short and non-numeric rows exited 2 as a runtime error; the others
    # exited 0 with a nan median, a negative latency, or a row flagged
    # delivered that never completed
    @pytest.mark.parametrize(
        "row",
        [
            "1,0.01,0.02",
            "1,0.01,0.02,1,0",
            "x,0.01,0.02,1",
            "1,0.01,late,1",
            "1,nan,0.02,1",
            "1,0.01,nan,1",
            "1,0.01,inf,0",
            "1,0.02,0.01,1",
            "1,0.01,0.02,2",
            "1,0.01,,1",
        ],
        ids=[
            "short", "long", "frame_id", "completed_text", "created_nan",
            "completed_nan", "completed_inf", "completed_first", "delivered_2",
            "delivered_never_completed",
        ],
    )
    def test_malformed_frames_exit_one_naming_the_line(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text("# sim_time = 0.02\nframe_id,created_s,completed_s,delivered\n0,0.0,0.006,1\n%s\n" % row)
        assert cli.main(["report", "--frames", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "line 4:" in err

    def test_header_only_frames_exit_one_naming_the_file(self, tmp_path, capsys):
        # exited 2 as a runtime error: nothing to summarize
        empty = tmp_path / "empty.csv"
        empty.write_text("# sim_time = 0.02\nframe_id,created_s,completed_s,delivered\n")
        assert cli.main(["report", "--frames", str(empty)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(empty) in err and "no frame rows" in err

    def test_frames_not_text_exit_one_naming_the_file(self, tmp_path, capsys):
        # exited 2 on the 'ascii' codec's decode error
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xffframe_id,created_s,completed_s,delivered\n")
        assert cli.main(["report", "--frames", str(binary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(binary) in err

    def test_missing_frames_exits_one(self, tmp_path):
        assert cli.main(["report", "--frames", str(tmp_path / "nope.csv")]) == 1


class TestSweepCommand:
    def test_two_cell_sweep_is_deterministic(self, tmp_path, capsys):
        args = [
            "sweep", "--out-dir", str(tmp_path),
            "--set", "sim_time = 0.2",
            "--set", "rotation = static",
            "--set", "rx_beamforming = sectors",
            "--set", "prediction = none",
            "--vary", "data_rate=5e9,2e9",
        ]
        assert cli.main(args + ["--label", "a"]) == 0
        assert cli.main(args + ["--label", "b"]) == 0
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        lines = a.decode().splitlines()
        assert lines[0].startswith("cell,seed,reliability")
        assert len(lines) == 3
        # cells come out sorted by key
        assert lines[1].startswith("data_rate=2e9,")
        assert lines[2].startswith("data_rate=5e9,")

    def test_failing_cell_is_recorded_not_fatal(self, tmp_path, capsys):
        rc = cli.main(
            [
                "sweep", "--out-dir", str(tmp_path), "--label", "f",
                "--set", "sim_time = 0.2",
                "--set", "rx_beamforming = sectors",
                "--set", "prediction = none",
                "--vary", "rotation=static,/missing/trace.csv",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert len(lines) == 3
        bad = next(ln for ln in lines if "/missing/trace.csv" in ln)
        assert bad.split(",")[2] == "none" or '"' in bad

    def test_a_runtime_error_in_a_cell_stops_the_sweep(self, tmp_path, capsys, monkeypatch):
        # a simulator fault is no config error of the cell: the sweep stops
        # with exit 2 as simulate does, before writing any CSV
        def fail(cfg, collect_events=False):
            raise RuntimeError("event queue ran dry")

        monkeypatch.setattr(cli, "run", fail)
        argv = ["sweep", "--out-dir", str(tmp_path), "--label", "r", "--set", "sim_time = 0.05"]
        assert cli.main(argv + ["--vary", "seed=1,2"]) == 2
        assert capsys.readouterr().err == "runtime error: event queue ran dry\n"
        assert not (tmp_path / "r.csv").exists()

    def test_every_cell_runs_the_config_read_when_the_sweep_starts(self, tmp_path, capsys, monkeypatch):
        # the base is read once, so a config file rewritten after the first
        # cell moves none of the later cells to its sim_time of 0.1
        base = tmp_path / "base.txt"
        base.write_text("sim_time = 0.05\n")
        seen = []

        def rewriting(cfg, collect_events=False):
            seen.append(cfg.sim_time)
            base.write_text("sim_time = 0.1\n")
            return run(cfg)

        monkeypatch.setattr(cli, "run", rewriting)
        argv = ["sweep", "--config", str(base), "--out-dir", str(tmp_path), "--label", "b", "--vary", "seed=1,2,3"]
        assert cli.main(argv) == 0
        assert seen == [0.05, 0.05, 0.05]

    @pytest.mark.parametrize("error", cli.CONFIG_ERRORS, ids=lambda e: e.__name__)
    def test_what_simulate_exits_one_on_is_a_sweep_row(self, tmp_path, capsys, monkeypatch, error):
        # one tuple serves both: simulate reports it as a config error, and
        # a sweep records it as the cell's row and keeps going
        def fail(cfg, collect_events=False):
            raise error("cell %d is bad" % cfg.seed)

        monkeypatch.setattr(cli, "run", fail)
        assert cli.main(["simulate", "--out-dir", str(tmp_path), "--set", "seed = 3"]) == 1
        assert capsys.readouterr().err == "config error: cell 3 is bad\n"
        argv = ["sweep", "--out-dir", str(tmp_path), "--label", "r", "--vary", "seed=1,2"]
        assert cli.main(argv) == 0
        rows = list(csv.reader((tmp_path / "r.csv").open()))[1:]
        assert [(r[1], r[2], r[-1]) for r in rows] == [("1", "none", "cell 1 is bad"), ("2", "none", "cell 2 is bad")]

    def test_a_quote_in_a_cell_reads_back(self, tmp_path, capsys):
        # the quote was written undoubled, so a csv reader dropped it and
        # read a stray quote after the message
        cell = 'rotation=a"b'
        argv = ["sweep", "--out-dir", str(tmp_path), "--label", "q", "--set", "sim_time = 0.05"]
        assert cli.main(argv + ["--vary", cell + ",static"]) == 0
        with pytest.raises(ConfigError) as exc:
            load_config(overrides=["sim_time = 0.05", cell])
        with open(tmp_path / "q.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [10, 10, 10]
        bad = next(row for row in rows if row[0] == cell)
        assert bad[2] == "none" and bad[9] == str(exc.value)

    def test_sweep_needs_an_axis(self, tmp_path):
        assert cli.main(["sweep", "--out-dir", str(tmp_path)]) == 1

    # each ran something other than it was asked, with exit 0: the preset's
    # 12 cells without the axis, one cell at the last value, two identical
    # rows, or a row per value holding the same unknown-key error; a value
    # that is not ASCII ran every cell, then could not be written to the CSV;
    # one holding "#" ran only what comes before it, the rest a comment
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--preset", "paper-fig4", "--vary", "data_rate=2e9"], ("--preset", "--vary")),
            (["--vary", "data_rate=2e9", "--vary", "data_rate=5e9"], ("--vary", "'data_rate'")),
            (["--vary", "data_rate=2e9,2e9"], ("--vary", "data_rate=2e9,2e9")),
            (["--vary", "data_rate=2e9,2000000000"], ("--vary", "data_rate=2e9,2000000000", "twice")),
            (["--vary", "bogus=1,2"], ("--vary", "'bogus'")),
            (["--vary", "rotation=\u00e9,static"], ("--vary", "'\u00e9'", "ASCII")),
            (["--vary", "seed=1,1#x"], ("--vary", "'1#x'", "'#'")),
        ],
    )
    def test_a_conflicting_sweep_exits_one_before_any_cell(self, tmp_path, capsys, monkeypatch, argv, named):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        assert cli.main(["sweep", "--out-dir", str(tmp_path), "--label", "s"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and all(name in err for name in named)
        assert calls == [] and not (tmp_path / "s.csv").exists()

    def test_a_vary_axis_without_values_exits_one(self, tmp_path, capsys):
        assert cli.main(["sweep", "--out-dir", str(tmp_path), "--vary", "data_rate="]) == 1
        assert capsys.readouterr().err.startswith("config error: --vary 'data_rate=' lists no values")

    def test_malformed_vary_exits_one(self, tmp_path):
        assert cli.main(["sweep", "--out-dir", str(tmp_path), "--vary", "data_rate"]) == 1

    def test_preset_matrix_shape(self):
        cells = cli.PRESETS["paper-fig4"]
        assert len(cells) == 12
        rates = {c["data_rate"] for c in cells}
        assert rates == {"2e9", "5e9", "7e9"}
        for rate in rates:
            modes = [c["rx_beamforming"] for c in cells if c["data_rate"] == rate]
            assert sorted(modes) == ["covrage", "quasi_omni", "quasi_omni", "sectors"]

    def test_the_preset_writes_a_row_per_cell(self, tmp_path, capsys, monkeypatch):
        frames = [FrameRecord(0, 0.0, 0.001, True)]
        monkeypatch.setattr(cli, "run", lambda cfg, collect_events=False: RunResult(cfg, frames, {}))
        assert cli.main(["sweep", "--out-dir", str(tmp_path), "--label", "p", "--preset", "paper-fig4"]) == 0
        with open(tmp_path / "p.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        keys = sorted(",".join("%s=%s" % kv for kv in sorted(cell.items())) for cell in cli.PRESETS["paper-fig4"])
        assert [row[0] for row in rows] == keys and all(row[2] == "1.000000" and row[9] == "" for row in rows)

    def test_vary_axes_form_a_cartesian_product(self):
        # the axes are config fields: each value is read as the config reads it
        cells = cli._vary_cells(["seed=1,2,3", "rotation=static,low,high"])
        assert len(cells) == 9
        assert {(c["seed"], c["rotation"]) for c in cells} == {
            (a, b) for a in "123" for b in ("static", "low", "high")
        }

    def test_preset_mode_ordering_at_seven_gbps(self, run_cached):
        # full-length runs of the preset's 7 Gbps cells: the predictive mode
        # must beat the best baseline (the baselines' relative order is not
        # pinned down)
        rel = {(c["rx_beamforming"], c["hmd_rows"]): reliability(run_cached(*("%s = %s" % kv for kv in c.items())))
               for c in cli.PRESETS["paper-fig4"] if c["data_rate"] == "7e9"}
        covrage = rel.pop(("covrage", "64"))
        assert len(rel) == 3 and covrage > max(rel.values())

    @staticmethod
    def _sweep_rows_match_simulate(tmp_path, sweep, base):
        """Run the sweep the ``sweep`` flags name, check each row against
        `xrsim simulate` with that cell's overrides, and return the rows."""
        assert cli.main(["sweep", "--out-dir", str(tmp_path), "--label", "s"] + sweep + base) == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            cells = list(csv.DictReader(fh))
        for cell in cells:
            overrides = [arg for kv in cell["cell"].split(",") for arg in ("--set", kv)]
            argv = ["simulate", "--out-dir", str(tmp_path), "--label", "r"] + overrides
            assert cli.main(argv + base) == 0
            summary = (tmp_path / "r_summary.txt").read_text()
            assert "# seed = %s\n" % cell["seed"] in summary
            values = dict(ln.split("=", 1) for ln in summary.splitlines() if not ln.startswith("#"))
            assert values["reliability"] == "%.4f" % float(cell["reliability"])
            assert values["delivered_count"] == cell["delivered"]
            assert values["lost_count"] == cell["lost"]
            assert values["p50_latency_ms"] == cell["p50_ms"]
            assert values["max_latency_ms"] == cell["max_ms"]
        return cells

    def test_a_seed_axis_runs_its_own_seeds(self, tmp_path, capsys):
        # the derived cell seed used to replace the axis values, so the rows
        # ran seeds 1048701970 and 1474878502
        cells = self._sweep_rows_match_simulate(tmp_path, ["--vary", "seed=1,2"], ["--set", "sim_time = 0.2"])
        assert [cell["seed"] for cell in cells] == ["1", "2"]

    def test_every_cell_runs_the_base_seed(self, tmp_path, capsys):
        # each cell used to hash its key into a seed of its own, so the
        # strategies ran different walks and head traces
        cells = self._sweep_rows_match_simulate(
            tmp_path, ["--vary", "rx_beamforming=covrage,sectors"], ["--set", "sim_time = 0.2"]
        )
        assert [cell["cell"] for cell in cells] == ["rx_beamforming=covrage", "rx_beamforming=sectors"]
        assert [cell["seed"] for cell in cells] == ["1", "1"]

    def test_the_overhead_preset_runs_its_cells(self, tmp_path, capsys):
        # the DTI cells, beacon interval by beamforming period, then the
        # A-BFT path at each beacon interval, all in one CSV
        cells = self._sweep_rows_match_simulate(tmp_path, ["--preset", "paper-overhead"], ["--set", "sim_time = 0.3"])
        assert [cell["cell"] for cell in cells] == [
            "bf_interval=0.1,bi_duration=0.1024", "bf_interval=0.1,bi_duration=1.024",
            "bf_interval=1.0,bi_duration=0.1024", "bf_interval=1.0,bi_duration=1.024",
            "bf_location=abft,bi_duration=0.1024", "bf_location=abft,bi_duration=1.024",
        ]
        assert all(cell["seed"] == "1" and cell["error"] == "" for cell in cells)

    def test_cell_quantiles_are_the_run_summary_ones(self, tmp_path):
        base = ["sim_time = 0.3", "data_rate = 8e9"]
        args = ["sweep", "--out-dir", str(tmp_path), "--label", "q", "--vary", "prediction=device"]
        assert cli.main(args + [a for ov in base for a in ("--set", ov)]) == 0
        header, row = (tmp_path / "q.csv").read_text().splitlines()
        cell = dict(zip(header.split(","), row.split(",")))
        cfg = load_config(overrides=base + ["prediction=device", "seed=%s" % cell["seed"]])
        summary = summarize(run(cfg).frames, cfg.deadline)
        got = [cell["p50_ms"], cell["p90_ms"], cell["p99_ms"]]
        expect = [summary.p50_latency, summary.p90_latency, summary.p99_latency]
        assert got == [format_ms(v) for v in expect]
        assert len(set(got)) == 3


class TestGenerators:
    """``generate-mobility`` writes the trace of the config's ``rotation``,
    under the checks a run of that config makes."""

    def generate(self, out, *overrides):
        return cli.main(["generate-mobility", "--out", str(out)] + [a for ov in overrides for a in ("--set", ov)])

    def test_generate_mobility_round_trip(self, tmp_path):
        from xrsim.mobility import load_trace

        out = tmp_path / "trace.csv"
        assert self.generate(out, "sim_time = 0.5", "peak_dps_high = 200") == 0
        trace = load_trace(out)
        assert trace.duration == pytest.approx(0.5)
        assert trace.has_device

    # a non-finite or out-of-range generator argument wrote a "nan" trace
    # row (exit 0) or failed deep in generation (exit 2); the subcommand now
    # reads these as config fields, and the config rejects them
    @pytest.mark.parametrize(
        "overrides, field",
        [
            pytest.param(("rotation = static", "sim_time = nan"), "sim_time", id="static-sim_time-nan"),
            pytest.param(("rotation = static", "sim_time = -1"), "sim_time", id="static-sim_time-negative"),
            pytest.param(("trace_sample_rate = 0",), "trace_sample_rate", id="trace_sample_rate-0"),
            # a sample step turns by at most 180 deg: 180 x trace_sample_rate is out of reach
            pytest.param(("peak_dps_high = 2e5",), "peak_dps_high", id="peak-over-the-limit"),
            pytest.param(("peak_dps_high = 1e30",), "peak_dps_high", id="peak-far-over-the-limit"),
            # and one slower than the fit resolves to 1% at trace_sample_rate
            pytest.param(("peak_dps_high = 0.01",), "peak_dps_high", id="peak-under-the-floor"),
            pytest.param(("peak_dps_high = 0.01", "trace_sample_rate = 500"), "peak_dps_high",
                         id="peak-under-the-floor-500hz"),
        ],
    )
    def test_bad_field_exits_one_naming_it(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "out"
        assert self.generate(out, *overrides) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not out.exists()

    # it asked for petabytes (exit 2, or worse, a swapping host); the cap
    # must reject it before anything is allocated
    def test_over_the_work_cap_exits_one_naming_the_field(self, tmp_path, capsys):
        out = tmp_path / "out"
        with time_limit(10.0):
            assert self.generate(out, "sim_time = 1e12") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "work cap" in err and "sim_time" in err
        assert not out.exists()

    # found before the trace is built, naming --out, not as the OSError of
    # the write after it
    @pytest.mark.parametrize("where, message", [
        ("nosuch/x.csv", "no directory"), (".", "is a directory")])
    def test_an_out_that_cannot_be_written_exits_one_before_the_trace(self, tmp_path, capsys, monkeypatch,
                                                                      where, message):
        monkeypatch.setattr(cli, "scenario_trace", lambda cfg: pytest.fail("the trace was built"))
        out = tmp_path / where
        assert self.generate(out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --out %r" % str(out)) and message in err
        assert list(tmp_path.iterdir()) == []

    def test_default_invocations_exit_zero(self, tmp_path, capsys):
        assert self.generate(tmp_path / "trace.csv") == 0
        capsys.readouterr()

    def test_generated_trace_drives_a_run(self, tmp_path):
        out = tmp_path / "t.csv"
        assert self.generate(out, "rotation = static", "sim_time = 1.0") == 0
        rc = cli.main(
            [
                "simulate", "--out-dir", str(tmp_path), "--label", "traced",
                "--set", "sim_time = 0.2",
                "--set", "rotation = %s" % out,
                "--set", "rx_beamforming = sectors",
                "--set", "prediction = none",
            ]
        )
        assert rc == 0

    # the subcommand used to seed its generator with --seed itself, while a
    # run draws from child 0 of SeedSequence(seed): at seed 1 over 2 s the
    # two traces' quaternion components differed by up to 0.94
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("rotation", ["high", "low", "static"])
    def test_the_written_bytes_are_the_runs_trace(self, tmp_path, capsys, rotation, seed):
        overrides = ["sim_time = 2", "rotation = %s" % rotation, "seed = %d" % seed]
        assert self.generate(tmp_path / "written.csv", *overrides) == 0
        save_trace(tmp_path / "run.csv", scenario_trace(load_config(overrides=overrides)))
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
        capsys.readouterr()

    def test_the_trace_seed_is_child_zero_of_the_scenario_seed(self, tmp_path, capsys):
        # the seed rule the event-log digests were taken on, stated apart
        # from the code that applies it
        assert self.generate(tmp_path / "t.csv", "sim_time = 0.5", "seed = 7") == 0
        child = np.random.SeedSequence(7).spawn(2)[0]
        save_trace(tmp_path / "want.csv", generate_rotation_trace(300.0, 0.5, 1000.0, child))
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("bf_interval", ["0.1", "1.0"])
    def test_a_run_on_the_written_trace_is_the_generated_run(self, tmp_path, capsys, monkeypatch, run_cached,
                                                             bf_interval):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import frames_digest

        overrides = ("sim_time = 2.0", "bf_interval = %s" % bf_interval)
        assert self.generate(tmp_path / "t.csv", *overrides) == 0
        generated = run_cached(*overrides)
        recorded = run(load_config(overrides=[*overrides, "rotation = %s" % (tmp_path / "t.csv")]))
        assert recorded.counters == generated.counters
        assert frames_digest(recorded.frames) == frames_digest(generated.frames)
        capsys.readouterr()

    def test_a_rotation_file_exits_one_naming_rotation(self, tmp_path, capsys):
        assert self.generate(tmp_path / "t.csv", "sim_time = 0.5") == 0
        out = tmp_path / "out"
        assert self.generate(out, "rotation = %s" % (tmp_path / "t.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "rotation" in err
        assert not out.exists()


class TestEntry:
    # found before any run, not once a run has finished
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("where, named", [
        ("file", "--out-dir"), ("file/sub", "--out-dir"), ("env:file", "XRSIM_OUT"), ("env:file/sub", "XRSIM_OUT")])
    def test_an_out_dir_that_cannot_be_made_exits_one_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                                      command, where, named):
        (tmp_path / "file").write_text("")
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        argv = [command, "--set", "sim_time = 0.1"] + (["--vary", "seed=1,2"] if command == "sweep" else [])
        if where.startswith("env:"):
            monkeypatch.setenv("XRSIM_OUT", str(tmp_path / where[4:]))
        else:
            argv += ["--out-dir", str(tmp_path / where)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s" % named) and "cannot make the output directory" in err
        assert calls == []

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_a_label_in_a_missing_directory_exits_one_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                                     command):
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a run started"))
        argv = [command, "--out-dir", str(tmp_path), "--label", "nosuch/x", "--set", "sim_time = 0.1"]
        assert cli.main(argv + (["--vary", "seed=1,2"] if command == "sweep" else [])) == 1
        err = capsys.readouterr().err
        assert err == "config error: --label 'nosuch/x': no directory %r\n" % str(tmp_path / "nosuch")
        assert list(tmp_path.iterdir()) == []

    # each file the command would write is checked before any run, not
    # found by the write once every cell has run
    @pytest.mark.parametrize("command, name, extra", [
        ("simulate", "x_frames.csv", []), ("simulate", "x_cdf.csv", []), ("simulate", "x_summary.txt", []),
        ("simulate", "x_events.csv", ["--events"]), ("sweep", "x.csv", ["--vary", "seed=1,2"])])
    def test_an_output_file_that_is_a_directory_exits_one_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                                         command, name, extra):
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a run started"))
        (tmp_path / name).mkdir()
        argv = [command, "--out-dir", str(tmp_path), "--label", "x", "--set", "sim_time = 0.1"] + extra
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == "config error: --label 'x': %r is a directory\n" % str(tmp_path / name)
        assert list(tmp_path.iterdir()) == [tmp_path / name]

    def test_no_arguments_exits_one(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_a_runtime_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        def fail(cfg, collect_events=False):
            raise RuntimeError("the run failed")

        monkeypatch.setattr(cli, "run", fail)
        assert cli.main(["simulate", "--out-dir", str(tmp_path), "--set", "sim_time = 0.1"]) == 2
        assert capsys.readouterr().err == "runtime error: the run failed\n"

    def test_unknown_command_exits_one(self, tmp_path, capsys):
        # the deleted codebook generator wrote a file that nothing read
        out = tmp_path / "out"
        for argv in (["frobnicate"], ["generate-codebook", "--out", str(out)]):
            assert cli.main(argv) == 1
            assert "invalid choice" in capsys.readouterr().err
            assert not out.exists()

    def test_readme_cli_block_names_every_command(self):
        # the `xrsim <command>` lines of the README's CLI block, so that an
        # added or deleted command cannot leave the docs stale
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
        documented = {line.split()[1] for line in block.splitlines() if line.startswith("xrsim ")}
        (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert documented == set(sub.choices)
