"""Link budget oracle values and the MCS gate."""

import math

import numpy as np
import pytest

from xrsim.antenna import ArrayGeometry, steering_phases
from xrsim.channel import free_space_path_loss_db, link_snr_db, noise_floor_dbm
from xrsim.config import ConfigError, ScenarioConfig, load_config, parse_config_lines
from xrsim.geometry import Pose, Quaternion, ap_direction_in_hmd_frame

from links import snr_db
from rotations import IDENTITY

# the link budget functions read the six budget fields of the scenario config
CFG = ScenarioConfig()


class TestPathLoss:
    def test_frozen_values_60ghz(self):
        # 20*log10(4*pi*d*f/c) computed by hand for the carrier in use
        assert free_space_path_loss_db(1.0, 60e9) == pytest.approx(68.010808, abs=1e-6)
        assert free_space_path_loss_db(2.0, 60e9) == pytest.approx(74.031408, abs=1e-6)
        assert free_space_path_loss_db(5.0, 60e9) == pytest.approx(81.990208, abs=1e-6)
        assert free_space_path_loss_db(10.0, 60e9) == pytest.approx(88.010808, abs=1e-6)

    def test_doubling_distance_adds_six_db(self):
        for d in (0.5, 3.0, 7.0):
            delta = free_space_path_loss_db(2 * d, 60e9) - free_space_path_loss_db(d, 60e9)
            assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)

    def test_monotone_in_distance(self):
        losses = [free_space_path_loss_db(d, 60e9) for d in np.linspace(0.1, 20.0, 50)]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0, 60e9)
        with pytest.raises(ValueError):
            free_space_path_loss_db(1.0, -1.0)


class TestNoiseAndSnr:
    def test_frozen_noise_floor(self):
        # -174 dBm/Hz + 10*log10(1.76e9) + 10 dB noise figure
        assert noise_floor_dbm(CFG) == pytest.approx(-71.544873, abs=1e-6)

    def test_link_snr_composition(self):
        got = link_snr_db(CFG, 18.0, 18.0, 5.0)
        expect = 10.0 + 18.0 + 18.0 - 81.990208 - 5.0 - 0.0 - (-71.544873)
        assert got == pytest.approx(expect, abs=1e-5)

    def test_extra_loss_shifts_one_for_one(self):
        base = link_snr_db(CFG, 20.0, 20.0, 3.0)
        lossy = link_snr_db(ScenarioConfig(extra_loss_db=7.5), 20.0, 20.0, 3.0)
        assert base - lossy == pytest.approx(7.5, abs=1e-12)

    def test_posed_arrays_both_steered_frozen(self):
        # AP 64x64 and HMD 8x8 five meters apart, boresights facing, both
        # steered on target: 10 + 36.1236 + 18.0618 - 81.9902 - 5 + 71.5449
        ap = Pose(0.0, np.array([5.0, 0.0, 0.0]), Quaternion.from_axis_angle((0, 0, 1), math.pi))
        hmd = Pose(0.0, np.array([0.0, 0.0, 0.0]), IDENTITY)
        g_ap, g_hmd = ArrayGeometry(64, 64), ArrayGeometry(8, 8)
        awv_ap = steering_phases(g_ap, ap_direction_in_hmd_frame(ap, hmd.position))
        awv_hmd = steering_phases(g_hmd, ap_direction_in_hmd_frame(hmd, ap.position))
        got = snr_db(CFG, ap, g_ap, awv_ap, hmd, g_hmd, awv_hmd)
        assert got == pytest.approx(48.740064, abs=1e-5)

    def test_snr_symmetric_in_endpoint_roles(self):
        ap = Pose(0.0, np.array([2.0, 1.0, 3.0]), Quaternion.from_axis_angle((0, 1, 0), 1.1))
        hmd = Pose(0.0, np.array([0.0, 0.0, 1.7]), Quaternion.from_axis_angle((1, 0, 0), 0.4))
        g_ap, g_hmd = ArrayGeometry(16, 16), ArrayGeometry(8, 8)
        awv_ap = steering_phases(g_ap, ap_direction_in_hmd_frame(ap, hmd.position))
        awv_hmd = steering_phases(g_hmd, ap_direction_in_hmd_frame(hmd, ap.position))
        fwd = snr_db(CFG, ap, g_ap, awv_ap, hmd, g_hmd, awv_hmd)
        rev = snr_db(CFG, hmd, g_hmd, awv_hmd, ap, g_ap, awv_ap)
        assert fwd == pytest.approx(rev, abs=1e-9)

    def test_snr_composes_from_parts(self):
        ap = Pose(0.0, np.array([3.0, -2.0, 2.5]), Quaternion.from_axis_angle((0, 0, 1), 2.0))
        hmd = Pose(0.0, np.array([0.5, 0.5, 1.7]), IDENTITY)
        g_ap, g_hmd = ArrayGeometry(64, 64), ArrayGeometry(8, 8)
        awv_ap = steering_phases(g_ap, ap_direction_in_hmd_frame(ap, hmd.position))
        awv_hmd = steering_phases(g_hmd, ap_direction_in_hmd_frame(hmd, ap.position))
        composed = link_snr_db(
            CFG,
            36.1235994797,
            18.0617997398,
            float(np.linalg.norm(ap.position - hmd.position)),
        )
        assert snr_db(CFG, ap, g_ap, awv_ap, hmd, g_hmd, awv_hmd) == pytest.approx(
            composed, abs=1e-6
        )


class TestMcs:
    """The one modulation-coding point: two plain config fields."""

    def test_default_entry(self):
        assert CFG.phy_rate_bps == 8.085e9
        assert CFG.snr_threshold_db == 18.0

    def test_parse_mcs_line(self):
        lines = ["phy_rate_bps = 4620e6", "snr_threshold_db = 14.5"]
        assert parse_config_lines(lines) == {"phy_rate_bps": 4.62e9, "snr_threshold_db": 14.5}
        cfg = load_config(overrides=lines)
        assert (cfg.phy_rate_bps, cfg.snr_threshold_db) == (4.62e9, 14.5)

    def test_parse_rejects_wrong_shape(self):
        # a table row is no key: the error lists the two fields instead
        for line in ("mcs = 12 4620e6 14.5", "mcs_index = 12"):
            with pytest.raises(ConfigError, match="unknown key.*phy_rate_bps.*snr_threshold_db"):
                load_config(overrides=[line])

    @pytest.mark.parametrize(
        "line",
        ["phy_rate_bps = nan", "phy_rate_bps = inf", "phy_rate_bps = 0", "phy_rate_bps = -1",
         "snr_threshold_db = nan"],
    )
    def test_rejects_bad_numbers(self, line):
        with pytest.raises(ConfigError, match=line.split(" =")[0]):
            load_config(overrides=[line])
