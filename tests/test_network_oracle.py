"""Oracle test for the array-backed association, constraint checks and objective.

The reference below is the earlier per-user implementation: geometry built
from one record per MU, association results as dicts keyed by MU index,
constraint checks that loop over users with `radio.distance_3d` and over the
sector settings one by one, and the objective folded left to right over dicts.
The array path must reproduce it exactly, bit for bit, on hypothesis-drawn drops.
"""

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nessim.network import (
    MU_HEIGHT_M,
    SECTOR_BORESIGHTS_DEG,
    TILT_MAX_DEG,
    TILT_MIN_DEG,
    Assignment,
    ConstraintConfig,
    ConstraintReport,
    Gbs,
    RadioGeometry,
    associate_cached,
    check_constraints,
    objective_value,
)
from nessim.radio import (
    EULER_GAMMA,
    AntennaParams,
    ChannelParams,
    Position,
    dbm_to_watts,
    distance_3d,
    wrap_deg,
)

# ---------------------------------------------------------------- reference


@dataclass(frozen=True)
class MuRecord:
    """One MU of a drop; it stands at MU_HEIGHT_M and its id is its index."""

    position: Position
    rate_threshold: float  # bits/s/Hz
    rsrp_threshold: float  # watts


class ReferenceGeometry:
    def __init__(self, gbss, mus, ch, ap):
        self.gbss, self.mus, self.ch, self.ap = gbss, mus, ch, ap
        self.n_gbs, self.n_mu = len(gbss), len(mus)
        gx = np.array([g.position.x for g in gbss])
        gy = np.array([g.position.y for g in gbss])
        gh = np.array([g.height for g in gbss])
        ux = np.array([m.position.x for m in mus])
        uy = np.array([m.position.y for m in mus])
        uh = np.full(len(mus), MU_HEIGHT_M)
        dx = ux[:, None] - gx[None, :]
        dy = uy[:, None] - gy[None, :]
        dz = gh[None, :] - uh[:, None]
        d2d = np.hypot(dx, dy)
        self.d3d = np.sqrt(d2d**2 + dz**2)
        self.theta_elev = np.degrees(np.arctan2(dz, d2d))
        bearing = np.degrees(np.arctan2(dy, dx))
        psi = wrap_deg(bearing[:, :, None] - np.array(SECTOR_BORESIGHTS_DEG)[None, None, :])
        az_att = np.minimum(12.0 * (psi / ap.psi_3db_deg) ** 2, ap.front_back_db)
        self.az_gain_db = ap.g_max_dbi - az_att
        self.pathloss = self.d3d ** (-ch.alpha)
        self.active = np.array([g.active for g in gbss], dtype=bool)
        self.rate_thresholds = np.array([m.rate_threshold for m in mus])
        self.rsrp_thresholds = np.array([m.rsrp_threshold for m in mus])

    def mean_rx_power(self, tilts_deg, powers_dbm):
        ap, ch = self.ap, self.ch
        el_off = self.theta_elev[:, :, None] - tilts_deg[None, :, :]
        el_att = np.minimum(12.0 * (el_off / ap.theta_3db_deg) ** 2, ap.elev_floor_db)
        gain_db = self.az_gain_db - el_att
        p_tx = 10.0 ** (powers_dbm / 10.0) * 1e-3
        rx = p_tx[None, :, :] * self.pathloss[:, :, None] * 10.0 ** (gain_db / 10.0) * ch.rx_gain
        rx[:, ~self.active, :] = 0.0
        return rx


@dataclass
class ReferenceAssignment:
    serving: dict
    vartheta: dict
    gamma_ind: dict
    pi_ind: dict
    rate: dict

    def served_count(self):
        return sum(self.pi_ind.values())

    def served_per_gbs(self):
        counts = {}
        for mu_id, link in self.serving.items():
            if link is not None and self.pi_ind[mu_id]:
                counts[link[0]] = counts.get(link[0], 0) + 1
        return counts


def reference_associate(geom, tilts, powers, cfg):
    mus, gbss = geom.mus, geom.gbss
    if geom.n_mu == 0 or not geom.active.any():
        off = dict.fromkeys(range(geom.n_mu), False)
        return ReferenceAssignment(
            dict.fromkeys(off), dict(off), dict(off), dict(off), dict.fromkeys(off, 0.0)
        )
    rx = geom.mean_rx_power(tilts, powers)
    best_sector = np.argmax(rx, axis=2)
    best_rx = np.take_along_axis(rx, best_sector[:, :, None], axis=2)[:, :, 0]
    flat = rx.reshape(geom.n_mu, -1)
    cand = np.argmax(flat, axis=1)
    cand_gbs, cand_sector = cand // 3, cand % 3
    cand_rx = flat[np.arange(geom.n_mu), cand]
    attached = np.ones(geom.n_mu, dtype=bool)
    mu_ids = np.arange(geom.n_mu)
    for k in range(geom.n_gbs):
        if not geom.active[k]:
            attached[cand_gbs == k] = False
            continue
        members = np.flatnonzero(cand_gbs == k)
        if len(members) > cfg.pi_k_max:
            order = np.lexsort((mu_ids[members], -cand_rx[members]))
            attached[members[order[cfg.pi_k_max:]]] = False
    total_best = best_rx.sum(axis=1)
    interference = total_best - best_rx[np.arange(geom.n_mu), cand_gbs]
    nu = geom.ch.phi_ric * interference + geom.ch.sigma2
    d_serv = geom.d3d[np.arange(geom.n_mu), cand_gbs]
    denom = nu if geom.ch.pathloss_mode == "single" else d_serv ** geom.ch.alpha * nu
    rates = np.log2(1.0 + math.exp(-EULER_GAMMA) * cand_rx / denom)
    vartheta = attached & (cand_rx >= geom.rsrp_thresholds)
    gamma = attached & (rates >= geom.rate_thresholds)
    pi = vartheta & gamma
    serving = {}
    for i in range(len(mus)):
        serving[i] = (gbss[cand_gbs[i]].id, int(cand_sector[i])) if attached[i] else None
    return ReferenceAssignment(
        serving,
        {i: bool(vartheta[i]) for i in range(len(mus))},
        {i: bool(gamma[i]) for i in range(len(mus))},
        {i: bool(pi[i]) for i in range(len(mus))},
        {i: (float(rates[i]) if attached[i] else 0.0) for i in range(len(mus))},
    )


def reference_objective(a):
    # An explicit left fold from 0.0 in MU order: Python 3.12's sum() compensates.
    served = (a.rate[mu_id] for mu_id, served in a.pi_ind.items() if served)
    return functools.reduce(operator.add, served, 0.0)


def reference_check_constraints(a, gbss, mus, tilts, powers, cfg):
    per_gbs = a.served_per_gbs()
    rates_ok = True
    for mu_id, is_served in a.pi_ind.items():
        if is_served and a.rate[mu_id] < mus[mu_id].rate_threshold:
            rates_ok = False
    distance_ok = True
    for m in mus:
        d_near = min(distance_3d(g.position, g.height, m.position, MU_HEIGHT_M) for g in gbss)
        if not cfg.d_min <= d_near <= cfg.d_max:
            distance_ok = False
    return ConstraintReport(
        served_count_ok=a.served_count() >= cfg.pi_thresh,
        capacity_ok=all(c <= cfg.pi_k_max for c in per_gbs.values()),
        rates_ok=rates_ok,
        rate_band_ok=all(cfg.rate_min <= m.rate_threshold <= cfg.rate_max for m in mus),
        power_ok=all(cfg.p_min_dbm <= p <= cfg.p_max_dbm for p in powers.ravel().tolist()),
        distance_ok=distance_ok,
        tilt_ok=all(TILT_MIN_DEG <= t <= TILT_MAX_DEG for t in tilts.ravel().tolist()),
    )


# ---------------------------------------------------------------- strategies

coords = st.floats(-400.0, 400.0, allow_nan=False)


def band_around(draw, lo, hi):
    """A [low, high] band whose edges sit exactly on, just inside or just
    outside the observed [lo, hi], or clear of it."""
    low = draw(st.sampled_from([lo, np.nextafter(lo, np.inf), np.nextafter(lo, -np.inf), lo - 5.0]))
    high = draw(st.sampled_from([hi, np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf), hi + 5.0]))
    if not low < high:
        high = low + 1.0
    return float(low), float(high)


@st.composite
def drops(draw):
    n_gbs = draw(st.integers(1, 3))
    gbss = [
        Gbs(
            10 * k + draw(st.integers(0, 9)),
            Position(draw(coords), draw(coords)),
            draw(st.sampled_from([10.0, 12.3, 25.0])),
            draw(st.booleans()),
        )
        for k in range(n_gbs)
    ]
    if not any(g.active for g in gbss):  # a network keeps one station on
        gbss[0] = dataclasses.replace(gbss[0], active=True)
    n_mu = draw(st.integers(0, 20))  # np.sum would add 8 or more terms pairwise
    mus = []
    for _ in range(n_mu):
        if mus and draw(st.booleans()):
            pos = mus[draw(st.integers(0, len(mus) - 1))].position  # capacity-eviction tie
        else:
            pos = Position(draw(coords), draw(coords))
        mus.append(MuRecord(
            pos, draw(st.floats(0.0, 4.0)), dbm_to_watts(draw(st.floats(-120.0, -60.0))),
        ))
    angles = st.one_of(st.sampled_from([TILT_MIN_DEG, TILT_MAX_DEG]), st.floats(-2.0, 16.0))
    levels = st.one_of(st.sampled_from([0.0, 45.0]), st.floats(-5.0, 50.0))
    tilts = np.array([[draw(angles) for _ in range(3)] for _ in gbss])
    powers = np.array([[draw(levels) for _ in range(3)] for _ in gbss])

    nearest = [
        min(distance_3d(g.position, g.height, m.position, MU_HEIGHT_M) for g in gbss) for m in mus
    ]
    thresholds = [m.rate_threshold for m in mus]
    d_min, d_max = band_around(draw, min(nearest, default=20.0), max(nearest, default=150.0))
    rate_min, rate_max = band_around(draw, min(thresholds, default=1.0), max(thresholds, default=3.0))
    cfg = ConstraintConfig(
        pi_thresh=draw(st.integers(0, 5)), pi_k_max=draw(st.integers(1, 4)),
        p_min_dbm=0.0, p_max_dbm=45.0,
        d_min=d_min, d_max=d_max, rate_min=rate_min, rate_max=rate_max,
    )
    ch = ChannelParams(
        alpha=draw(st.sampled_from([2.0, 3.0, 3.5])),
        pathloss_mode=draw(st.sampled_from(["literal", "single"])),
    )
    ap = draw(st.sampled_from([
        AntennaParams(), AntennaParams(theta_3db_deg=6.5, elev_floor_db=30.0),
    ]))
    return gbss, mus, tilts, powers, cfg, ch, ap


# ---------------------------------------------------------------- the oracle


def geometry_of(gbss, mus, ch, ap):
    """The array geometry for a list of MU records."""
    return RadioGeometry(
        gbss,
        [m.position.x for m in mus],
        [m.position.y for m in mus],
        [m.rate_threshold for m in mus],
        [m.rsrp_threshold for m in mus],
        ch,
        ap,
    )


@settings(max_examples=300, deadline=None)
@given(drops())
def test_array_path_matches_per_user_reference(case):
    gbss, mus, tilts, powers, cfg, ch, ap = case
    geom = geometry_of(gbss, mus, ch, ap)
    ref_geom = ReferenceGeometry(gbss, mus, ch, ap)
    # The array path takes sector settings for the active GBSs only; the
    # reference takes them for every GBS and zeroes the off ones' power.
    active = ref_geom.active
    if mus:
        ref_rx = ref_geom.mean_rx_power(tilts, powers)
        assert np.array_equal(geom.mean_rx_power(tilts[active], powers[active]), ref_rx[:, active])
        assert not ref_rx[:, ~active].any()

    a = associate_cached(geom, tilts[active], powers[active], cfg)
    ref = reference_associate(ref_geom, tilts, powers, cfg)
    links = zip(a.serving_gbs.tolist(), a.serving_sector.tolist())
    assert {u: (k, s) if k >= 0 else None for u, (k, s) in enumerate(links)} == ref.serving
    assert a.vartheta == ref.vartheta
    assert a.gamma_ind == ref.gamma_ind
    assert a.pi_ind == ref.pi_ind
    assert dict(enumerate(a.rates.tolist())) == ref.rate
    assert a.served_count() == ref.served_count()
    assert a.served_per_gbs() == ref.served_per_gbs()
    # repr tells 0 from 0.0 and shows every bit of a float.
    assert repr(objective_value(a)) == repr(reference_objective(ref))
    assert check_constraints(a, geom, cfg) == reference_check_constraints(
        ref, gbss, mus, tilts[active], powers[active], cfg
    )


def test_objective_is_a_left_fold_not_pairwise():
    # One large rate then many tiny ones: a left fold rounds each tiny one
    # away, while np.sum's pairwise blocks add them up first.
    rates = [1.0] + [1e-16] * 15 + [5.0]
    pi = [True] * 16 + [False]
    n = len(rates)
    a = Assignment(
        np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.array(pi), np.array(pi),
        np.array(pi), np.array(rates), np.zeros((1, 3)), np.zeros((1, 3)),
    )
    ref = ReferenceAssignment({}, {}, {}, dict(enumerate(pi)), dict(enumerate(rates)))
    assert np.sum(a.rates[a.pi_mask]) != reference_objective(ref)
    assert repr(objective_value(a)) == repr(reference_objective(ref)) == "1.0"
