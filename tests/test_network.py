import math

import numpy as np
import pytest

from nessim.network import (
    MU_HEIGHT_M,
    Assignment,
    ConstraintConfig,
    Gbs,
    RadioGeometry,
    _nearest_distance,
    associate_cached,
    check_constraints,
    objective_value,
)
from nessim.radio import AntennaParams, ChannelParams, Position, dbm_to_watts, distance_3d

AP = AntennaParams()
CH = ChannelParams(alpha=3.0, sigma2=dbm_to_watts(-104.0), phi_ric=0.1, rx_gain=1.0)


def make_gbs(gid=0, x=0.0, y=0.0, active=True, height=10.0):
    return Gbs(gid, Position(x, y), height, active)


def make_cfg(**kw):
    defaults = dict(pi_thresh=1, pi_k_max=10, p_min_dbm=0.0, p_max_dbm=45.0,
                    d_min=10.0, d_max=500.0, rate_min=0.0, rate_max=10.0)
    defaults.update(kw)
    return ConstraintConfig(**defaults)


def make_geometry(gbss, x, y=0.0, rate_th=0.5, rsrp_th_dbm=-100.0, ch=CH, ap=AP):
    """MUs 0..n-1 at (x[u], y[u]); y and the thresholds may be shared scalars."""
    x = np.asarray(x, dtype=float)
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    return RadioGeometry(gbss, x, y, rate_th, dbm_to_watts(rsrp_th_dbm), ch, ap)


def sector_settings(gbss, tilt=0.0, power=30.0):
    """(K, 3) tilts and powers of the K active GBSs: every sector at one setting."""
    k = sum(g.active for g in gbss)
    return np.full((k, 3), tilt), np.full((k, 3), power)


def rx_power(gbss, x, ch=CH, ap=AP):
    """Fading-free received power per (MU, GBS, sector) at 0 degrees and 30 dBm, watts."""
    return make_geometry(gbss, x, ch=ch, ap=ap).mean_rx_power(*sector_settings(gbss))


def associate(gbss, x, cfg, power=30.0, **mus):
    geom = make_geometry(gbss, x, **mus)
    return associate_cached(geom, *sector_settings(gbss, power=power), cfg)


def make_assignment(pi, rates, sectors=None):
    """MUs 0..n-1 attached to GBS 0 (sector 0 unless given), with served flags `pi`."""
    n = len(pi)
    pi = np.array(pi, dtype=bool)
    return Assignment(
        np.zeros(n, dtype=int), np.array(sectors or [0] * n, dtype=int),
        np.ones(n, dtype=bool), pi.copy(), pi, np.array(rates, dtype=float),
        np.zeros((1, 3)), np.full((1, 3), 30.0),
    )


def constraints_of(gbss, x, assoc_cfg, check_cfg=None, tilt=0.0, power=30.0, rate_th=0.5):
    """Associate at one sector setting, then check the constraints."""
    geom = make_geometry(gbss, x, rate_th=rate_th)
    a = associate_cached(geom, *sector_settings(gbss, tilt, power), assoc_cfg)
    return check_constraints(a, geom, check_cfg or assoc_cfg)


class TestRsrp:
    def test_hand_value(self):
        # 30 dBm, ~100 m, alpha 3, combined gain close to 14 dBi on boresight.
        flat_ap = AntennaParams(theta_3db_deg=65.0)
        rx = rx_power([make_gbs()], [100.0], ap=flat_ap)[0, 0, 0]
        d3d = math.sqrt(100.0**2 + 8.5**2)
        theta = math.degrees(math.atan2(8.5, 100.0))
        gain_db = 14.0 - 12.0 * (theta / 65.0) ** 2
        expected = 1.0 * d3d ** (-3.0) * 10 ** (gain_db / 10.0)
        assert rx == pytest.approx(expected, rel=1e-12)
        # Idealized version (d exactly 100 m, full 14 dBi): 1 W * 10^1.4 * 1e-6.
        ideal = 10 ** 1.4 * 100.0 ** (-3.0)
        assert ideal == pytest.approx(2.512e-5, rel=1e-3)
        assert rx == pytest.approx(ideal, rel=0.05)

    def test_inverse_square_ratio(self):
        ch = ChannelParams(alpha=2.0, sigma2=CH.sigma2, phi_ric=0.1, rx_gain=1.0)
        r_near, r_far = rx_power([make_gbs()], [100.0, 200.0], ch=ch)[:, 0, 0]
        # Elevation-angle difference perturbs the pure 4:1 pathloss ratio only slightly.
        assert r_near / r_far == pytest.approx(4.0, rel=0.02)

    def test_boresight_peak(self):
        rx = rx_power([make_gbs()], [100.0])
        on_axis, off_axis = rx[0, 0, 0], rx[0, 0, 1]
        assert on_axis > off_axis


class TestGeometry:
    def test_nearest_distance_is_distance_3d(self):
        # Bit-equal, so the distance band check agrees with radio.distance_3d at
        # its edges. Each MU stands within 3 m of its own GBS, 7-9.5 m below
        # it, where the rounding of the squared height gap shows in a few
        # distances per 10^4; a drop has 200 GBSs, so 100 drops give 20000
        # height gaps.
        rng = np.random.default_rng(0)
        for _ in range(100):
            heights = rng.uniform(8.5, 11.0, 200).tolist()
            gbss = [make_gbs(k, x=100.0 * k, height=h) for k, h in enumerate(heights)]
            x = 100.0 * np.arange(200) + rng.uniform(-3.0, 3.0, 200)
            y = rng.uniform(-3.0, 3.0, 200)
            geom = make_geometry(gbss, x, y)
            expected = [
                distance_3d(g.position, g.height, Position(xu, yu), MU_HEIGHT_M)
                for g, xu, yu in zip(gbss, x.tolist(), y.tolist())
            ]
            assert _nearest_distance(geom).tolist() == expected

    def test_off_gbs_only_in_nearest_distance(self):
        # The MU stands by the off GBS 0, so that one is its nearest and sets
        # the distance band, but its links and its serving GBS are the active
        # GBS 5's.
        gbss = [make_gbs(0, active=False), make_gbs(5, x=300.0)]
        geom = make_geometry(gbss, [40.0])
        assert geom.n_gbs == 1 and geom.gbs_ids.tolist() == [5]
        assert geom.d3d.shape == (1, 1) and geom.az_gain_db.shape == (1, 1, 3)
        a = associate_cached(geom, *sector_settings(gbss, power=45.0), make_cfg())
        assert a.serving_gbs.tolist() == [5]
        nearest = distance_3d(gbss[0].position, 10.0, Position(40.0, 0.0), MU_HEIGHT_M)
        assert check_constraints(a, geom, make_cfg(d_min=nearest)).distance_ok
        beyond = np.nextafter(nearest, np.inf)
        assert not check_constraints(a, geom, make_cfg(d_min=beyond)).distance_ok

    @pytest.mark.parametrize("off, rows", [(False, 1), (True, 2)])
    def test_sector_settings_must_cover_active_gbss(self, off, rows):
        # One row per active GBS: any other row count would broadcast.
        geom = make_geometry([make_gbs(0), make_gbs(1, x=300.0, active=not off)], [40.0, 260.0])
        tilts, powers = np.zeros((rows, 3)), np.full((rows, 3), 30.0)
        with pytest.raises(ValueError):
            geom.mean_rx_power(tilts, powers)
        with pytest.raises(ValueError):
            associate_cached(geom, tilts, powers, make_cfg())


    def test_all_off_refused(self):
        # No config builds such a network, and an env could take no action in it.
        for gbss in ([], [make_gbs(0, active=False), make_gbs(1, x=500.0, active=False)]):
            with pytest.raises(ValueError, match="active GBS"):
                make_geometry(gbss, [100.0, 300.0])


class TestAssociate:
    def test_single_served_pair(self):
        a = associate([make_gbs()], [80.0], make_cfg(), power=40.0)
        assert a.serving_gbs[0] == 0
        assert a.pi_ind[0]
        assert a.rates[0] > 0.5

    def test_capacity_eviction_keeps_nearer(self):
        a = associate([make_gbs()], [100.0, 50.0], make_cfg(pi_k_max=1), power=40.0)
        assert a.serving_gbs[1] == 0
        assert a.serving_gbs[0] == -1
        assert not a.pi_ind[0]

    def test_served_implies_both_indicators(self):
        rng = np.random.default_rng(5)
        gbss = [make_gbs(0), make_gbs(1, x=400.0)]
        x, y, rate_th = (rng.uniform(-300, 700, 40), rng.uniform(-300, 300, 40),
                         rng.uniform(0.2, 3.0, 40))
        a = associate(gbss, x, make_cfg(), power=35.0, y=y, rate_th=rate_th)
        for u in range(40):
            if a.pi_ind[u]:
                assert a.vartheta[u] and a.gamma_ind[u]
                assert gbss[a.serving_gbs[u]].active

    def test_capacity_respected(self):
        a = associate([make_gbs()], 60.0 + 10.0 * np.arange(8), make_cfg(pi_k_max=3), power=40.0)
        assert np.count_nonzero(a.serving_gbs >= 0) == 3
        for counts in a.served_per_gbs().values():
            assert counts <= 3

    def test_argmax_rsrp_attachment(self):
        gbss = [make_gbs(0), make_gbs(1, x=300.0)]
        a = associate(gbss, [40.0, 260.0], make_cfg())
        assert a.serving_gbs.tolist() == [0, 1]

    def test_raising_threshold_never_enables(self):
        gbss = [make_gbs()]
        a_low = associate(gbss, [120.0], make_cfg(), power=38.0, rate_th=0.5)
        a_high = associate(gbss, [120.0], make_cfg(), power=38.0, rate_th=6.0)
        assert a_low.gamma_ind[0] or not a_high.gamma_ind[0]
        if not a_low.gamma_ind[0]:
            assert not a_high.gamma_ind[0]


class TestObjective:
    def test_empty(self):
        a = make_assignment([], [])
        assert objective_value(a) == 0.0

    def test_singleton(self):
        a = make_assignment([True], [2.5])
        assert objective_value(a) == pytest.approx(2.5)

    def test_additivity_excludes_unserved(self):
        a = make_assignment([True, True, True, False], [1.0, 2.0, 0.5, 9.0], sectors=[0, 1, 2, 0])
        assert objective_value(a) == pytest.approx(3.5)


class TestConstraints:
    def test_fresh_scenario_mostly_ok(self):
        x = 50.0 + 30.0 * np.arange(3)
        rep = constraints_of([make_gbs()], x, make_cfg(rate_min=0.0, rate_max=10.0), make_cfg(),
                             tilt=5.0, power=40.0)
        assert rep.capacity_ok and rep.rates_ok and rep.rate_band_ok
        assert rep.power_ok and rep.distance_ok and rep.tilt_ok

    def test_served_count_boundary(self):
        gbss = [make_gbs()]
        assert constraints_of(gbss, [80.0], make_cfg(), make_cfg(pi_thresh=1), power=40.0,
                              rate_th=0.2).served_count_ok
        assert not constraints_of(gbss, [80.0], make_cfg(), make_cfg(pi_thresh=2), power=40.0,
                                  rate_th=0.2).served_count_ok

    def test_tilt_boundary_inclusive(self):
        assert constraints_of([make_gbs()], [80.0], make_cfg(), tilt=14.0, power=40.0).tilt_ok

    def test_power_violation_detected(self):
        assert not constraints_of([make_gbs()], [80.0], make_cfg(), power=50.0).power_ok

    def test_distance_violation_detected(self):
        assert not constraints_of([make_gbs()], [5.0], make_cfg(d_min=10.0), power=40.0).distance_ok


class TestValidation:
    def test_negative_gbs_id_rejected(self):
        with pytest.raises(ValueError):
            Gbs(-1, Position(0, 0))  # -1 marks an unattached MU in an Assignment

    def test_cfg_bounds(self):
        with pytest.raises(ValueError):
            make_cfg(pi_k_max=0)
        with pytest.raises(ValueError):
            make_cfg(d_min=100.0, d_max=50.0)
