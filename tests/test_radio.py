import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nessim.network import Gbs, RadioGeometry
from nessim.radio import (
    EULER_GAMMA,
    AngleGeometry,
    AntennaParams,
    ChannelParams,
    Position,
    approx_rate,
    azimuth_gain_db,
    combined_gain_db,
    distance_3d,
    dbm_to_watts,
    elevation_gain_db,
    instantaneous_rate,
    sample_rician_power,
    sinr,
)

AP = AntennaParams()


def make_channel(**kw):
    defaults = dict(alpha=3.0, sigma2=1e-13, phi_ric=0.1, rx_gain=1.0)
    defaults.update(kw)
    return ChannelParams(**defaults)


def one_link(mu_x, gbs_height=10.0, ch=None, ap=AP):
    """Geometry of one GBS at the origin and one MU at (mu_x, 0), 1.5 m high."""
    gbss = [Gbs(0, Position(0.0, 0.0), gbs_height)]
    return RadioGeometry(gbss, [mu_x], [0.0], 1.0, 1e-13, ch or make_channel(), ap)


class TestDistance:
    def test_vertical_gap_only(self):
        assert distance_3d(Position(0, 0), 10.0, Position(0, 0), 1.5) == pytest.approx(8.5)

    def test_hand_case(self):
        d = distance_3d(Position(0, 0), 10.0, Position(6, 8), 1.5)
        assert d == pytest.approx(math.sqrt(8.5**2 + 6**2 + 8**2), abs=1e-12)
        assert d == pytest.approx(13.1244, abs=1e-4)

    def test_coincident(self):
        assert distance_3d(Position(0, 0), 10.0, Position(0, 0), 10.0) == 0.0


class TestAngles:
    # Sector boresights are 0, 120 and -120 degrees; the azimuth gain of a
    # sector is 14 - min(12 (psi / 70)^2, 20) dB at offset psi.

    def test_due_east(self):
        geom = one_link(8.5)
        assert geom.theta_elev[0, 0] == pytest.approx(45.0)
        assert geom.az_gain_db[0, 0, 0] == pytest.approx(14.0)

    def test_boresight_offset(self):
        # 120 degrees off both other boresights: past the front-back clamp.
        geom = one_link(8.5)
        assert geom.az_gain_db[0, 0, 1:].tolist() == pytest.approx([-6.0, -6.0])

    def test_wraps_into_half_open_interval(self):
        # Due west: 180 - (-120) = 300 wraps to -60 degrees off sector 2, and
        # sector 1 sits 60 degrees off, so both gain 14 - 12 (60/70)^2 dB.
        geom = one_link(-8.5)
        gain = 14.0 - 12.0 * (60.0 / 70.0) ** 2
        assert geom.az_gain_db[0, 0].tolist() == pytest.approx([-6.0, gain, gain])


class TestGains:
    def test_azimuth_peak(self):
        assert azimuth_gain_db(0.0, AP) == pytest.approx(14.0, abs=1e-9)

    def test_azimuth_half_of_beamwidth(self):
        assert azimuth_gain_db(35.0, AP) == pytest.approx(11.0, abs=1e-9)

    def test_azimuth_backlobe_clamped(self):
        assert azimuth_gain_db(180.0, AP) == pytest.approx(-6.0, abs=1e-9)

    def test_elevation_peak(self):
        assert elevation_gain_db(7.0, 7.0, AP) == pytest.approx(0.0, abs=1e-9)

    def test_elevation_at_beamwidth(self):
        assert elevation_gain_db(65.0, 0.0, AP) == pytest.approx(-12.0, abs=1e-9)

    def test_elevation_clamped(self):
        assert elevation_gain_db(90.0, 0.0, AP) == pytest.approx(-20.0, abs=1e-9)

    def test_combined_peak(self):
        g = AngleGeometry(7.0, 0.0)
        assert combined_gain_db(g, 7.0, AP) == pytest.approx(14.0, abs=1e-9)

    def test_combined_sum(self):
        assert combined_gain_db(AngleGeometry(65.0, 35.0), 0.0, AP) == pytest.approx(-1.0, abs=1e-9)
        assert combined_gain_db(AngleGeometry(90.0, 180.0), 0.0, AP) == pytest.approx(-26.0, abs=1e-9)

    @given(st.floats(-180, 180, exclude_min=True))
    def test_azimuth_symmetry(self, psi):
        if -psi <= -180.0:
            return
        assert azimuth_gain_db(psi, AP) == pytest.approx(azimuth_gain_db(-psi, AP))

    @given(
        st.floats(-179.9, 180),
        st.floats(-90, 90),
        st.floats(0, 14),
    )
    @settings(max_examples=200)
    def test_peak_and_floor_bounds(self, psi, theta, tilt):
        g = combined_gain_db(AngleGeometry(theta, psi), tilt, AP)
        assert g <= AP.g_max_dbi + 1e-12
        assert g >= AP.g_max_dbi - AP.front_back_db - AP.elev_floor_db - 1e-12


class TestRicianFading:
    def test_pure_los_limit(self):
        assert sample_rician_power(math.inf, np.random.default_rng(0), 5).tolist() == [1.0] * 5

    def test_unit_mean_rayleigh(self):
        draws = sample_rician_power(0.0, np.random.default_rng(1), size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.005

    @pytest.mark.parametrize("k", [0.0, 1.0, 3.0, 10.0])
    def test_unit_mean_any_k(self, k):
        draws = sample_rician_power(k, np.random.default_rng(2), size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_rayleigh_distribution_ks(self):
        from scipy import stats

        draws = sample_rician_power(0.0, np.random.default_rng(3), size=100_000)
        stat, _ = stats.kstest(draws, "expon")
        assert stat < 0.01

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            sample_rician_power(-1.0, np.random.default_rng(0), 5)


class TestReceivedPower:
    # 1 W (30 dBm) at 0 dB antenna gain: a 0 dBi azimuth peak, and a GBS at
    # the MU's height with zero tilt, so the MU sits on both boresights.
    FLAT = AntennaParams(g_max_dbi=0.0)

    def rx(self, d, alpha):
        geom = one_link(d, gbs_height=1.5, ch=make_channel(alpha=alpha), ap=self.FLAT)
        return geom.mean_rx_power(np.zeros((1, 3)), np.full((1, 3), 30.0))[0, 0, 0]

    def test_identity_composition(self):
        assert self.rx(1.0, 2.0) == pytest.approx(1.0)

    def test_inverse_square(self):
        assert self.rx(10.0, 2.0) / self.rx(20.0, 2.0) == pytest.approx(4.0)

    def test_cubic_pathloss(self):
        assert self.rx(10.0, 3.0) == pytest.approx(1e-3)


class TestSinr:
    def test_unit_distance_collapses_modes(self):
        for mode in ("literal", "single"):
            ch = make_channel(sigma2=0.1, pathloss_mode=mode)
            assert sinr(0.1, [], 1.0, ch) == pytest.approx(1.0)

    def test_perfect_cancellation(self):
        ch = make_channel(phi_ric=0.0, sigma2=0.1)
        assert sinr(1.0, [5.0, 7.0], 1.0, ch) == sinr(1.0, [], 1.0, ch)

    def test_residual_interference(self):
        ch = make_channel(phi_ric=0.1, sigma2=0.1)
        assert sinr(1.0, [1.0], 1.0, ch) == pytest.approx(5.0)

    def test_literal_mode_reapplies_distance(self):
        ch_lit = make_channel(alpha=2.0, sigma2=0.1, pathloss_mode="literal")
        ch_sgl = make_channel(alpha=2.0, sigma2=0.1, pathloss_mode="single")
        assert sinr(1.0, [], 10.0, ch_lit) == pytest.approx(sinr(1.0, [], 10.0, ch_sgl) / 100.0)


class TestRates:
    def test_instantaneous_values(self):
        assert instantaneous_rate(0.0) == 0.0
        assert instantaneous_rate(1.0) == pytest.approx(1.0)
        assert instantaneous_rate(3.0) == pytest.approx(2.0)

    def test_approx_zero_power(self):
        assert approx_rate(0.0, 1e-13, 100.0, make_channel()) == 0.0

    def test_approx_unit_point(self):
        # Choose p_hat so e^{-E} * rho = 1 exactly.
        ch = make_channel(alpha=2.0, pathloss_mode="single")
        p_hat = math.exp(EULER_GAMMA) * 1e-13
        assert approx_rate(p_hat, 1e-13, 5.0, ch) == pytest.approx(1.0, abs=1e-12)

    def test_monotonic(self):
        ch = make_channel()
        r = [approx_rate(p, 1e-13, 100.0, ch) for p in (1e-9, 1e-8, 1e-7)]
        assert r[0] < r[1] < r[2]
        d = [approx_rate(1e-8, 1e-13, dd, ch) for dd in (50.0, 100.0, 200.0)]
        assert d[0] > d[1] > d[2]
        nu = [approx_rate(1e-8, n, 100.0, ch) for n in (1e-14, 1e-13, 1e-12)]
        assert nu[0] > nu[1] > nu[2]

    def test_matches_fading_average_at_high_snr(self):
        # Rayleigh fading, e^{-E} * rho = 1e4: closed form vs Monte Carlo.
        ch = make_channel(alpha=2.0, pathloss_mode="single")
        nu = 1e-13
        rho = 1e4 * math.exp(EULER_GAMMA)
        p_hat = rho * nu
        expected = approx_rate(p_hat, nu, 7.0, ch)
        h2 = sample_rician_power(0.0, np.random.default_rng(7), size=200_000)
        mc = np.log2(1.0 + rho * h2).mean()
        assert abs(mc - expected) / expected < 0.01


class TestParamValidation:
    def test_channel_bounds(self):
        with pytest.raises(ValueError):
            make_channel(alpha=0.0)
        with pytest.raises(ValueError):
            make_channel(phi_ric=1.5)
        with pytest.raises(ValueError):
            make_channel(pathloss_mode="bogus")

    def test_antenna_bounds(self):
        with pytest.raises(ValueError):
            AntennaParams(psi_3db_deg=0.0)

    def test_dbm_conversion(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
