import math

import numpy as np
import pytest

from nessim.network import (
    Assignment,
    ConstraintConfig,
    Gbs,
    Mu,
    RadioGeometry,
    SectorState,
    associate,
    associate_cached,
    check_constraints,
    objective_value,
    rsrp,
    sector_arrays,
)
from nessim.radio import AntennaParams, ChannelParams, Position, dbm_to_watts, distance_3d

AP = AntennaParams()
CH = ChannelParams(alpha=3.0, sigma2=dbm_to_watts(-104.0), phi_ric=0.1, rx_gain=1.0)


def make_gbs(gid=0, x=0.0, y=0.0, active=True, tilt=0.0, power=30.0):
    return Gbs(gid, Position(x, y), 10.0, active, [SectorState(tilt, power) for _ in range(3)])


def make_cfg(**kw):
    defaults = dict(pi_thresh=1, pi_k_max=10, p_min_dbm=0.0, p_max_dbm=45.0,
                    d_min=10.0, d_max=500.0, rate_min=0.0, rate_max=10.0)
    defaults.update(kw)
    return ConstraintConfig(**defaults)


def make_mu(uid=0, x=100.0, y=0.0, rate_th=0.5, rsrp_th_dbm=-100.0):
    return Mu(uid, Position(x, y), 1.5, rate_th, dbm_to_watts(rsrp_th_dbm))


def make_assignment(pi, rates, sectors=None):
    """MUs 0..n-1 attached to GBS 0 (sector 0 unless given), with served flags `pi`."""
    n = len(pi)
    pi = np.array(pi, dtype=bool)
    return Assignment(
        np.arange(n), np.zeros(n, dtype=int), np.array(sectors or [0] * n, dtype=int),
        np.ones(n, dtype=bool), pi.copy(), pi, np.array(rates, dtype=float),
        np.zeros((1, 3)), np.full((1, 3), 30.0),
    )


def constraints_of(gbss, mus, assoc_cfg, check_cfg=None):
    """Associate at the GBSs' sector settings, then check the constraints."""
    geom = RadioGeometry.from_mus(gbss, mus, CH, AP)
    a = associate_cached(geom, *sector_arrays(gbss), assoc_cfg)
    return check_constraints(a, geom, check_cfg or assoc_cfg)


class TestRsrp:
    def test_hand_value(self):
        # 30 dBm, ~100 m, alpha 3, combined gain close to 14 dBi on boresight.
        flat_ap = AntennaParams(theta_3db_deg=65.0)
        g = make_gbs(power=30.0, tilt=0.0)
        m = make_mu(x=100.0)
        d3d = math.sqrt(100.0**2 + 8.5**2)
        theta = math.degrees(math.atan2(8.5, 100.0))
        gain_db = 14.0 - 12.0 * (theta / 65.0) ** 2
        expected = 1.0 * d3d ** (-3.0) * 10 ** (gain_db / 10.0)
        assert rsrp(g, 0, m, CH, flat_ap) == pytest.approx(expected, rel=1e-12)
        # Idealized version (d exactly 100 m, full 14 dBi): 1 W * 10^1.4 * 1e-6.
        from nessim.radio import received_power

        ideal = received_power(1.0, 1.0, 100.0, 14.0, CH)
        assert ideal == pytest.approx(2.512e-5, rel=1e-3)
        assert rsrp(g, 0, m, CH, flat_ap) == pytest.approx(ideal, rel=0.05)

    def test_inverse_square_ratio(self):
        ch = ChannelParams(alpha=2.0, sigma2=CH.sigma2, phi_ric=0.1, rx_gain=1.0)
        g = make_gbs(tilt=0.0)
        near, far = make_mu(0, x=100.0), make_mu(1, x=200.0)
        r_near = rsrp(g, 0, near, ch, AP)
        r_far = rsrp(g, 0, far, ch, AP)
        # Elevation-angle difference perturbs the pure 4:1 pathloss ratio only slightly.
        assert r_near / r_far == pytest.approx(4.0, rel=0.02)

    def test_boresight_peak(self):
        g = make_gbs(tilt=0.0)
        m = make_mu(x=100.0)
        on_axis = rsrp(g, 0, m, CH, AP)
        off_axis = rsrp(g, 1, m, CH, AP)
        assert on_axis > off_axis


class TestGeometry:
    def test_nearest_distance_is_distance_3d(self):
        # Bit-equal, so the distance band check agrees with radio.distance_3d at
        # its edges. The MUs stand within 3 m of GBS 0, where the rounding of
        # the squared height gap shows in a few distances per 10^4.
        rng = np.random.default_rng(0)
        gbss = [make_gbs(0), Gbs(1, Position(300.0, 40.0), 23.7, False)]
        n = 40000
        x = rng.uniform(-3.0, 3.0, n)
        y = rng.uniform(-3.0, 3.0, n)
        h = rng.uniform(1.0, 3.0, n)
        geom = RadioGeometry(gbss, x, y, 1.0, 1e-13, CH, AP, mu_heights=h)
        expected = [
            min(distance_3d(g.position, g.height, Position(xu, yu), hu) for g in gbss)
            for xu, yu, hu in zip(x.tolist(), y.tolist(), h.tolist())
        ]
        assert geom.nearest_d3d.tolist() == expected
        assert geom.nearest_range == (min(expected), max(expected))


class TestAssociate:
    def test_all_off_unserved(self):
        gbss = [make_gbs(0, active=False), make_gbs(1, x=500.0, active=False)]
        mus = [make_mu(0), make_mu(1, x=300.0)]
        a = associate(gbss, mus, CH, AP, make_cfg())
        assert all(link is None for link in a.serving.values())
        assert not any(a.vartheta.values())
        assert not any(a.pi_ind.values())
        assert a.served_count() == 0

    def test_single_served_pair(self):
        a = associate([make_gbs(power=40.0)], [make_mu(x=80.0)], CH, AP, make_cfg())
        assert a.serving[0] is not None
        assert a.pi_ind[0]
        assert a.rate[0] > 0.5

    def test_capacity_eviction_keeps_nearer(self):
        cfg = make_cfg(pi_k_max=1)
        mus = [make_mu(0, x=100.0), make_mu(1, x=50.0)]
        a = associate([make_gbs(power=40.0)], mus, CH, AP, cfg)
        assert a.serving[1] is not None
        assert a.serving[0] is None
        assert not a.pi_ind[0]

    def test_served_implies_both_indicators(self):
        rng = np.random.default_rng(5)
        gbss = [make_gbs(0, power=35.0), make_gbs(1, x=400.0, power=35.0)]
        mus = [
            make_mu(u, x=float(rng.uniform(-300, 700)), y=float(rng.uniform(-300, 300)),
                    rate_th=float(rng.uniform(0.2, 3.0)))
            for u in range(40)
        ]
        a = associate(gbss, mus, CH, AP, make_cfg())
        for u in range(40):
            if a.pi_ind[u]:
                assert a.vartheta[u] and a.gamma_ind[u]
            gbs_id = a.serving[u][0] if a.serving[u] else None
            if a.pi_ind[u]:
                assert gbss[gbs_id].active

    def test_capacity_respected(self):
        cfg = make_cfg(pi_k_max=3)
        mus = [make_mu(u, x=60.0 + 10.0 * u) for u in range(8)]
        a = associate([make_gbs(power=40.0)], mus, CH, AP, cfg)
        attached = [u for u, link in a.serving.items() if link is not None]
        assert len(attached) == 3
        for counts in a.served_per_gbs().values():
            assert counts <= 3

    def test_argmax_rsrp_attachment(self):
        gbss = [make_gbs(0, power=30.0), make_gbs(1, x=300.0, power=30.0)]
        mus = [make_mu(0, x=40.0), make_mu(1, x=260.0)]
        a = associate(gbss, mus, CH, AP, make_cfg())
        assert a.serving[0][0] == 0
        assert a.serving[1][0] == 1

    def test_raising_threshold_never_enables(self):
        gbss = [make_gbs(power=38.0)]
        base = [make_mu(0, x=120.0, rate_th=0.5)]
        raised = [make_mu(0, x=120.0, rate_th=6.0)]
        a_low = associate(gbss, base, CH, AP, make_cfg())
        a_high = associate(gbss, raised, CH, AP, make_cfg())
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
        gbss = [make_gbs(power=40.0, tilt=5.0)]
        mus = [make_mu(u, x=50.0 + 30 * u, rate_th=0.5) for u in range(3)]
        rep = constraints_of(gbss, mus, make_cfg(rate_min=0.0, rate_max=10.0), make_cfg())
        assert rep.capacity_ok and rep.rates_ok and rep.rate_band_ok
        assert rep.power_ok and rep.distance_ok and rep.tilt_ok

    def test_served_count_boundary(self):
        gbss = [make_gbs(power=40.0)]
        mus = [make_mu(0, x=80.0, rate_th=0.2)]
        assert constraints_of(gbss, mus, make_cfg(), make_cfg(pi_thresh=1)).served_count_ok
        assert not constraints_of(gbss, mus, make_cfg(), make_cfg(pi_thresh=2)).served_count_ok

    def test_tilt_boundary_inclusive(self):
        gbss = [make_gbs(tilt=14.0, power=40.0)]
        mus = [make_mu(0, x=80.0)]
        assert constraints_of(gbss, mus, make_cfg()).tilt_ok

    def test_power_violation_detected(self):
        gbss = [make_gbs(power=50.0)]
        mus = [make_mu(0, x=80.0)]
        assert not constraints_of(gbss, mus, make_cfg()).power_ok

    def test_distance_violation_detected(self):
        gbss = [make_gbs(power=40.0)]
        mus = [make_mu(0, x=5.0)]
        assert not constraints_of(gbss, mus, make_cfg(d_min=10.0)).distance_ok


class TestValidation:
    def test_three_sectors_enforced(self):
        with pytest.raises(ValueError):
            Gbs(0, Position(0, 0), 10.0, True, [SectorState(0.0, 30.0)])

    def test_negative_gbs_id_rejected(self):
        with pytest.raises(ValueError):
            Gbs(-1, Position(0, 0))  # -1 marks an unattached MU in an Assignment

    def test_cfg_bounds(self):
        with pytest.raises(ValueError):
            make_cfg(pi_k_max=0)
        with pytest.raises(ValueError):
            make_cfg(d_min=100.0, d_max=50.0)
