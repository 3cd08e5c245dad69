"""Scenario configuration: one flat dataclass covering traffic, scheduling,
beamforming, motion, arrays, and the link budget, checked when it is built,
plus the key = value config-file syntax used by the CLI.

Config files hold one ``key = value`` pair per line, each key a field name;
``#`` starts a comment.  Command-line ``--set key=value`` overrides win over file
values; an override that holds ``#`` is rejected.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .antenna import SPEED_OF_LIGHT
from .mobility import peak_dps_floor, peak_dps_limit

ALLOWED_DATA_RATES = (2e9, 5e9, 7e9, 8e9)
ALLOWED_BI = (0.1024, 1.024)
ALLOWED_BF_INTERVALS = (0.1, 1.0)
ROTATION_MODES = ("low", "high", "static")
RX_MODES = ("covrage", "sectors", "quasi_omni")
PREDICTION_MODES = ("extrapolation", "device", "oracle", "none")

# Upper bound on each count of work in a run (ScenarioConfig.work_counts), so
# that no config can hang the simulator or exhaust memory.  The shipped
# scenarios stay below it: their largest counts are the attempt bound of a
# 20 s run at 2 Gbps, 1.6e6, and the link batch of a 64x64 headset, 2.9e5.
WORK_CAP = 1e7

# most predicted MPDU starts one link evaluation batch holds: the ceiling of
# the simulator's adaptive batch cap, and the factor of the link batch count
LINK_BATCH_CEILING = 2048

# largest room side in metres; keeps squared distances far from overflow
MAX_ROOM_SIDE = 1e6


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    # scenario
    sim_time: float = 20.0
    seed: int = 1
    room_x: float = 20.0
    room_y: float = 10.0
    room_z: float = 10.0
    hmd_height: float = 1.7
    # motion
    rotation: str = "high"  # low | high | static | path to a trace CSV
    peak_dps_low: float = 60.0
    peak_dps_high: float = 300.0
    trace_sample_rate: float = 1000.0
    walk_speed: float = 1.0
    walk_step_interval: float = 0.5
    # traffic
    data_rate: float = 5e9
    frame_rate: float = 100.0
    deadline: float = 0.020
    mpdu_bytes: int = 65536
    header_bytes: int = 100
    per_mpdu_overhead: float = 3e-6
    # scheduling
    bi_duration: float = 0.1024
    bhi_duration: float = 2e-3
    sls_duration: float = 0.75e-3
    bf_location: str = "dti"  # abft | dti
    bf_interval: float = 0.1  # DTI beamforming period
    # beamforming
    rx_beamforming: str = "covrage"
    prediction: str = "device"
    ap_rows: int = 8
    ap_cols: int = 8
    hmd_rows: int = 0  # 0 = resolved from rx_beamforming
    hmd_cols: int = 0
    spacing: float = 0.5
    # link budget
    tx_power_dbm: float = 10.0
    noise_figure_db: float = 10.0
    bandwidth_hz: float = 1.76e9
    carrier_hz: float = 60e9
    implementation_loss_db: float = 5.0
    extra_loss_db: float = 0.0
    # the one modulation-coding point (no rate adaptation); the threshold is
    # a calibration knob, not a measured value
    phy_rate_bps: float = 8.085e9
    snr_threshold_db: float = 18.0

    # -- derived views ----------------------------------------------------

    @property
    def burst_interval(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def burst_bits(self) -> int:
        return int(round(self.data_rate * self.burst_interval))

    @property
    def x_bounds(self) -> tuple[float, float]:
        return (-self.room_x / 2.0, self.room_x / 2.0)

    @property
    def y_bounds(self) -> tuple[float, float]:
        return (-self.room_y / 2.0, self.room_y / 2.0)

    @property
    def ap_position(self) -> tuple[float, float, float]:
        return (0.0, 0.0, self.room_z)

    def hmd_shape(self) -> tuple[int, int]:
        """HMD array size; defaults to 64x64 except for the sector-codebook
        mode, which uses the small array it can sweep."""
        if self.hmd_rows > 0:
            return (self.hmd_rows, self.hmd_cols)
        if self.rx_beamforming == "sectors":
            return (8, 8)
        return (64, 64)

    def __post_init__(self):
        """Raise ConfigError naming the first field that fails a check."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            # a float holds every int up to 2**53 exactly: no float arithmetic on one overflows
            if f.type == "int" and f.name != "seed" and value > 2**53:
                raise ConfigError(f"{f.name} must be <= 2**53, got {value!r}")
        for (bound, inclusive), names in _LOWER_BOUNDS.items():
            for name in names:
                value = getattr(self, name)
                if value < bound or (value == bound and not inclusive):
                    raise ConfigError(f"{name} must be {'>=' if inclusive else '>'} {bound:g}, got {value!r}")
        for name in ("room_x", "room_y", "room_z"):
            if getattr(self, name) > MAX_ROOM_SIDE:
                raise ConfigError(f"{name} must be <= {MAX_ROOM_SIDE:g} m, got {getattr(self, name)!r}")
        if not 0.0 <= self.hmd_height < self.room_z:
            raise ConfigError(
                f"hmd_height must lie between the floor and the ceiling AP at room_z = {self.room_z:g}, "
                f"got {self.hmd_height!r}"
            )
        if self.data_rate not in ALLOWED_DATA_RATES:
            rates = ", ".join(f"{r:g}" for r in ALLOWED_DATA_RATES)
            raise ConfigError(f"data_rate {self.data_rate:g} not in {{{rates}}}")
        if self.bi_duration not in ALLOWED_BI:
            raise ConfigError(f"bi_duration {self.bi_duration:g} not in {{0.1024, 1.024}}")
        if self.bf_location not in ("abft", "dti"):
            raise ConfigError("bf_location must be abft or dti")
        if self.bf_location == "dti" and self.bf_interval not in ALLOWED_BF_INTERVALS:
            raise ConfigError(f"bf_interval {self.bf_interval:g} not in {{0.1, 1.0}}")
        if self.rx_beamforming not in RX_MODES:
            raise ConfigError(f"rx_beamforming must be one of {', '.join(RX_MODES)}")
        if self.prediction not in PREDICTION_MODES:
            raise ConfigError(f"prediction must be one of {', '.join(PREDICTION_MODES)}")
        if self.rx_beamforming == "quasi_omni" and self.prediction != "none":
            raise ConfigError("quasi_omni beamforming requires prediction = none")
        # the run's outputs echo the config in ASCII, one field a line
        if not self.rotation.isascii():
            raise ConfigError(f"rotation {self.rotation!r} is not ASCII")
        if not self.rotation.isprintable():
            raise ConfigError(f"rotation {self.rotation!r} holds a control character")
        if self.rotation not in ROTATION_MODES and not os.path.isfile(self.rotation):
            raise ConfigError(
                f"rotation must be one of {', '.join(ROTATION_MODES)} or a trace file, got {self.rotation!r}"
            )
        bits = self.data_rate / self.frame_rate
        if not (math.isfinite(bits) and bits >= 1.0 and abs(bits - round(bits)) <= 1e-9):
            raise ConfigError("data_rate / frame_rate must be a positive integer number of bits")
        if not (0.0 < self.bhi_duration < self.bi_duration):
            raise ConfigError("bhi_duration must lie strictly inside the beacon interval")
        if self.bf_location == "dti" and self.bhi_duration + self.sls_duration > self.bi_duration:
            raise ConfigError(
                f"sls_duration {self.sls_duration:g} exceeds bi_duration - bhi_duration: "
                "the sweep can never fit between two beacon headers"
            )
        if (self.hmd_rows == 0) != (self.hmd_cols == 0):
            raise ConfigError("set both hmd_rows and hmd_cols or neither")
        rows, cols = self.hmd_shape()
        if self.rx_beamforming == "sectors" and (rows > 16 or cols > 16):
            raise ConfigError("sectors beamforming supports arrays up to 16x16")
        if not math.isfinite(2.0 * math.pi * self.spacing * max(self.ap_rows + self.ap_cols, rows + cols)):
            raise ConfigError(f"spacing {self.spacing!r} overflows the phase bound 2 pi spacing (rows + cols)")
        # products a run derives, formed as the run forms them: at inf an MPDU
        # never ends, a walk step or an element offset turns into NaN, and
        # the path loss makes every SNR -inf
        if not math.isfinite(burst_shape(self)[1] / self.phy_rate_bps + self.per_mpdu_overhead):
            raise ConfigError("full MPDU airtime 8 (mpdu_bytes + header_bytes) / phy_rate_bps + per_mpdu_overhead "
                              "overflows to inf")
        if not math.isfinite(self.walk_speed * self.walk_step_interval):
            raise ConfigError("walk step walk_speed x walk_step_interval overflows to inf")
        pitch = self.spacing * (SPEED_OF_LIGHT / self.carrier_hz)
        if not math.isfinite((max(self.ap_rows, self.ap_cols, rows, cols) - 1) / 2.0 * pitch):
            raise ConfigError("element offset (rows or cols - 1) / 2 x spacing x c / carrier_hz, in metres, "
                              "overflows to inf")
        # Friis' 4 pi d f, before its division by c, at the farthest headset
        if not math.isfinite(4.0 * math.pi * math.hypot(self.room_x / 2.0, self.room_y / 2.0,
                                                       self.room_z - self.hmd_height) * self.carrier_hz):
            raise ConfigError("path loss 4 pi x distance (room_x, room_y, room_z, hmd_height) x carrier_hz "
                              "overflows to inf")
        check_work_cap(self.work_counts())
        # after the cap: a sample rate too high to build also leaves no peak the fit resolves
        if self.rotation in ("low", "high"):
            name = "peak_dps_" + self.rotation
            peak, rate = getattr(self, name), self.trace_sample_rate
            limit, floor = peak_dps_limit(rate), peak_dps_floor(rate)
            if peak >= limit:
                raise ConfigError(
                    f"{name} must be below 180 x trace_sample_rate = {limit:g} deg/s, got {peak!r}: "
                    "one trace step turns by at most 180 deg"
                )
            if peak < floor:
                raise ConfigError(
                    f"{name} must be at least 3e-5 x trace_sample_rate = {floor:g} deg/s, got {peak!r}: "
                    "the trace fit resolves no slower peak to 1%"
                )

    def work_counts(self) -> dict:
        """The counts that bound a run's work and memory, keyed by how they
        are formed.  Every MPDU attempt occupies the medium for at least the
        shortest MPDU's airtime, so sim_time over that airtime bounds the
        attempts, retries of a failing MPDU included.  What grows with the
        arrays is a link batch's phasor tables: a 16-byte entry per row and
        column of both arrays at each of :data:`LINK_BATCH_CEILING` starts,
        counted in every mode, though only a quasi-omni pattern builds them."""
        periodic = self.frame_rate + 1.0 / self.bi_duration
        if self.bf_location == "dti":
            periodic += 1.0 / self.bf_interval
        rows, cols = self.hmd_shape()
        # the tail is the shortest MPDU: it is never longer than a full one
        shortest = burst_shape(self)[2] / self.phy_rate_bps
        return {
            "periodic events sim_time x (frame_rate + 1/bi_duration + 1/bf_interval)":
                self.sim_time * periodic,
            "MPDU attempts sim_time / shortest airtime (mpdu_bytes, header_bytes, per_mpdu_overhead)":
                self.sim_time / (shortest + self.per_mpdu_overhead),
            "trace samples sim_time x trace_sample_rate": self.sim_time * self.trace_sample_rate,
            "walk steps sim_time / walk_step_interval": self.sim_time / self.walk_step_interval,
            f"link batch phasor entries {LINK_BATCH_CEILING} x (ap_rows + ap_cols + hmd_rows + hmd_cols)":
                LINK_BATCH_CEILING * (self.ap_rows + self.ap_cols + rows + cols),
        }


def burst_shape(config: ScenarioConfig) -> tuple[int, int, int]:
    """One burst as ``(count, full size, tail size)``: payload chunks plus
    the fixed per-MPDU header, the last MPDU carrying what is left (a whole
    chunk when the burst divides evenly)."""
    chunk = config.mpdu_bytes * 8
    header = config.header_bytes * 8
    n_full, rem = divmod(config.burst_bits, chunk)
    return n_full + (rem > 0), chunk + header, (rem or chunk) + header


def check_work_cap(counts: dict) -> None:
    """Raise ConfigError naming the first count, keyed by how it is formed,
    that exceeds :data:`WORK_CAP`."""
    for what, count in counts.items():
        if not count <= WORK_CAP:
            raise ConfigError(f"{what} = {count:.3g} exceeds the work cap of {WORK_CAP:g}")


# (lower bound, whether the bound itself is allowed) -> the fields it limits;
# every float field must also be finite
_LOWER_BOUNDS = {
    (0.0, False): (
        "sim_time", "room_x", "room_y", "room_z", "peak_dps_low", "peak_dps_high",
        "trace_sample_rate", "walk_step_interval", "frame_rate", "deadline",
        "sls_duration", "spacing", "bandwidth_hz", "phy_rate_bps",
    ),
    (0.0, True): (
        "seed", "walk_speed", "header_bytes", "per_mpdu_overhead",
        "hmd_rows", "hmd_cols",
    ),
    # a carrier below 1 Hz has a wavelength that overflows to inf
    (1, True): ("mpdu_bytes", "ap_rows", "ap_cols", "carrier_hz"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _coerce(name: str, typ: str, value: str):
    value = value.strip()
    try:
        if typ == "int":
            return int(value)
        if typ == "float":
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {value!r} as {typ}")


def parse_config_lines(lines, source: str = "<config>") -> dict:
    """Parse key = value lines into a field dict."""
    values: dict = {}
    for n, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{n}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            known = ", ".join(sorted(_FIELD_TYPES))
            raise ConfigError(f"{source}:{n}: unknown key {key!r}; valid keys: {known}")
        values[key] = _coerce(key, _FIELD_TYPES[key], value)
    return values


def load_config(path=None, overrides=None) -> ScenarioConfig:
    """The config of an optional file plus override pairs."""
    values: dict = {}
    if path is not None:
        with open(path) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not a text config file ({exc.reason})") from None
        values.update(parse_config_lines(text.splitlines(), source=str(path)))
    if overrides:
        # "#" starts a config file's comment; cut there, an override would run another value
        for line in overrides:
            if "#" in line:
                raise ConfigError(f"override {line!r} holds '#', which starts a comment")
        values.update(parse_config_lines(overrides, source="<override>"))
    return ScenarioConfig(**values)


def config_echo_lines(cfg: ScenarioConfig) -> list[str]:
    """Every field as a key = value line, for run-output headers."""
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float):
            out.append(f"{f.name} = {v:.17g}")
        else:
            out.append(f"{f.name} = {v}")
    return out
