"""Config parsing and validation, plus the command-line front end."""

import contextlib
import signal

import pytest

from xrsim import cli
from xrsim.config import (
    ConfigError,
    ScenarioConfig,
    config_echo_lines,
    load_config,
    parse_config_lines,
)
from xrsim.macsim import run
from xrsim.metrics import format_ms, read_frame_records, summarize


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
        assert cfg.mcs.index == 21
        assert cfg.mcs.phy_rate_bps == 8.085e9
        assert cfg.mcs.snr_threshold_db == 18.0

    def test_derived_views(self):
        cfg = ScenarioConfig()
        assert cfg.burst_interval == 0.01
        assert cfg.burst_bits == 50_000_000
        assert cfg.queue_drop_age == cfg.deadline
        assert ScenarioConfig(queue_drop=0.005).queue_drop_age == 0.005
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
            ScenarioConfig(data_rate=9e9).validate()
        with pytest.raises(ConfigError, match="bi_duration"):
            ScenarioConfig(bi_duration=0.5).validate()
        with pytest.raises(ConfigError, match="bf_interval"):
            ScenarioConfig(bf_interval=0.2).validate()
        with pytest.raises(ConfigError, match="rx_beamforming"):
            ScenarioConfig(rx_beamforming="phased").validate()
        with pytest.raises(ConfigError, match="prediction"):
            ScenarioConfig(prediction="kalman").validate()

    def test_quasi_omni_needs_no_prediction(self):
        with pytest.raises(ConfigError, match="quasi_omni"):
            ScenarioConfig(rx_beamforming="quasi_omni", prediction="device").validate()
        ScenarioConfig(rx_beamforming="quasi_omni", prediction="none").validate()

    def test_sector_sweep_array_limit(self):
        with pytest.raises(ConfigError, match="16x16"):
            ScenarioConfig(
                rx_beamforming="sectors", prediction="none", hmd_rows=32, hmd_cols=32
            ).validate()

    def test_hmd_shape_needs_both_dimensions(self):
        with pytest.raises(ConfigError, match="hmd_rows"):
            ScenarioConfig(hmd_rows=8).validate()

    def test_rotation_must_name_a_mode_or_file(self):
        with pytest.raises(ConfigError, match="rotation"):
            ScenarioConfig(rotation="/no/such/trace.csv").validate()

    def test_burst_must_be_integer_bits(self):
        with pytest.raises(ConfigError, match="integer"):
            ScenarioConfig(data_rate=5e9, frame_rate=300.0).validate()

    def test_missing_mcs_index(self):
        with pytest.raises(ConfigError, match="mcs_index"):
            ScenarioConfig(mcs_index=5).validate()


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

    def test_mcs_lines_accumulate(self):
        cfg = load_config(
            overrides=[
                "mcs = 10 1e9 5",
                "mcs = 21 8.085e9 18",
                "mcs_index = 10",
                "sim_time = 1.0",
            ]
        )
        assert cfg.mcs.phy_rate_bps == 1e9
        assert len(cfg.mcs_table) == 2

    def test_file_plus_override_precedence(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("sim_time = 5.0\nrotation = static\n")
        cfg = load_config(path, ["sim_time = 2.0"])
        assert cfg.sim_time == 2.0
        assert cfg.rotation == "static"

    def test_echo_round_trips_every_field(self):
        cfg = load_config(
            overrides=["sim_time = 3.0", "rotation = static", "data_rate = 7e9"]
        )
        lines = config_echo_lines(cfg)
        names = {ln.split(" = ")[0] for ln in lines}
        from dataclasses import fields

        for f in fields(ScenarioConfig):
            assert (f.name if f.name != "mcs_table" else "mcs") in names
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
        frames = read_frame_records(tmp_path / "demo_frames.csv")
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

    def test_bad_override_exits_one(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--out-dir", str(tmp_path), "--set", "data_rate = 9e9"]
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_trace_exits_one(self, tmp_path):
        rc = cli.main(
            ["simulate", "--out-dir", str(tmp_path), "--set", "rotation = /no/file.csv"]
        )
        assert rc == 1

    # non-finite floats, values below a field's lower bound and bad MCS
    # numbers: without the checks these run to a quiet "reliability 0", fail
    # deep in set-up (exit 2) or make time run backwards (a hang)
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

    # a run whose frames all arrived within 6 ms re-summarized with either
    # deadline read a quiet reliability of 0
    @pytest.mark.parametrize("deadline", ["nan", "-1"])
    def test_bad_deadline_exits_one_naming_it(self, tmp_path, capsys, deadline):
        rc = cli.main(["report", "--frames", str(tmp_path / "f.csv"), "--deadline", deadline])
        assert rc == 1
        assert "argument --deadline:" in capsys.readouterr().err

    def test_malformed_frames_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("frame_id,created_s,completed_s,delivered\n0,0.0,1.0\n")
        assert cli.main(["report", "--frames", str(bad)]) == 2
        assert "runtime error" in capsys.readouterr().err

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

    def test_sweep_needs_an_axis(self, tmp_path):
        assert cli.main(["sweep", "--out-dir", str(tmp_path)]) == 1

    def test_malformed_vary_exits_one(self, tmp_path):
        assert (
            cli.main(["sweep", "--out-dir", str(tmp_path), "--vary", "data_rate"]) == 1
        )

    def test_preset_matrix_shape(self):
        cells = cli._fig4_cells()
        assert len(cells) == 12
        rates = {c["data_rate"] for c in cells}
        assert rates == {"2e9", "5e9", "7e9"}
        for rate in rates:
            modes = [c["rx_beamforming"] for c in cells if c["data_rate"] == rate]
            assert sorted(modes) == ["covrage", "quasi_omni", "quasi_omni", "sectors"]

    def test_vary_axes_form_a_cartesian_product(self):
        cells = cli._vary_cells(["a=1,2,3", "b=x,y,z"])
        assert len(cells) == 9
        assert {(c["a"], c["b"]) for c in cells} == {
            (a, b) for a in "123" for b in "xyz"
        }

    def test_preset_mode_ordering_at_seven_gbps(self, run_cached):
        # full-length runs of the preset's 7 Gbps cells: the predictive mode
        # must beat the best baseline (the baselines' relative order is not
        # pinned down)
        def rel(*ov):
            res = run_cached(*ov)
            return res.counters["frames_delivered"] / res.counters["frames_total"]

        covrage = rel(
            "data_rate = 7e9", "rx_beamforming = covrage", "prediction = device",
            "hmd_rows = 64", "hmd_cols = 64",
        )
        sectors = rel(
            "data_rate = 7e9", "rx_beamforming = sectors", "prediction = none",
            "hmd_rows = 8", "hmd_cols = 8",
        )
        qo8 = rel(
            "data_rate = 7e9", "rx_beamforming = quasi_omni", "prediction = none",
            "hmd_rows = 8", "hmd_cols = 8",
        )
        qo64 = rel(
            "data_rate = 7e9", "rx_beamforming = quasi_omni", "prediction = none",
            "hmd_rows = 64", "hmd_cols = 64",
        )
        assert covrage > max(sectors, qo8, qo64)

    def test_cell_seed_derivation(self):
        a = cli._cell_seed(1, "data_rate=5e9")
        assert a == cli._cell_seed(1, "data_rate=5e9")
        assert a != cli._cell_seed(1, "data_rate=2e9")
        assert a != cli._cell_seed(2, "data_rate=5e9")
        assert 0 <= a < 2**31

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
    def test_generate_codebook_round_trip(self, tmp_path, capsys):
        from xrsim.codebook import read_codebook

        out = tmp_path / "book.cb"
        rc = cli.main(
            [
                "generate-codebook", "--rows", "4", "--cols", "4",
                "--samples", "200", "--iters", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        book = read_codebook(out)
        assert len(book.sectors) == 36

    def test_generate_mobility_round_trip(self, tmp_path):
        from xrsim.mobility import load_trace

        out = tmp_path / "trace.csv"
        rc = cli.main(
            [
                "generate-mobility", "--kind", "rotation", "--peak-dps", "200",
                "--duration", "0.5", "--out", str(out),
            ]
        )
        assert rc == 0
        trace = load_trace(out)
        assert trace.duration == pytest.approx(0.5)
        assert trace.has_device

    # a non-finite or out-of-range generator argument wrote a "nan" trace
    # row (exit 0) or failed deep in generation (exit 2)
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["generate-mobility", "--kind", "static", "--duration", "nan"], "--duration"),
            (["generate-mobility", "--kind", "static", "--duration", "-1"], "--duration"),
            (["generate-mobility", "--rate", "0"], "--rate"),
            (["generate-mobility", "--device-horizon", "inf"], "--device-horizon"),
            (["generate-codebook", "--rows", "0"], "--rows"),
            (["generate-codebook", "--seed", "-1"], "--seed"),
            (["generate-codebook", "--aims", "10,nan"], "--aims"),
        ],
    )
    def test_bad_argument_exits_one_naming_it(self, tmp_path, capsys, argv, option):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "argument %s:" % option in capsys.readouterr().err
        assert not out.exists()

    def test_generated_trace_drives_a_run(self, tmp_path):
        out = tmp_path / "t.csv"
        assert (
            cli.main(["generate-mobility", "--kind", "static", "--duration", "1.0",
                      "--out", str(out)])
            == 0
        )
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


class TestEntry:
    def test_no_arguments_exits_one(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_command_exits_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()
