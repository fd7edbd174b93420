"""Topology, MU association, serving indicators, and constraint checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .radio import (
    AntennaParams,
    ChannelParams,
    Position,
    approx_rate,
    azimuth_gain_db,
    db_to_linear,
    dbm_to_watts,
    elevation_gain_db,
    wrap_deg,
)

SECTOR_BORESIGHTS_DEG = (0.0, 120.0, -120.0)

TILT_MIN_DEG = 0.0
TILT_MAX_DEG = 14.0

MU_HEIGHT_M = 1.5
# A user drop squares d_min and d_max, so each must have a float square.
DROP_DISTANCE_MAX_M = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class Gbs:
    id: int
    position: Position
    height: float = 10.0
    active: bool = True

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("GBS id must be >= 0")  # -1 marks an unattached MU


@dataclass(frozen=True)
class ConstraintConfig:
    pi_thresh: int            # minimum total served MUs
    pi_k_max: int             # per-GBS serving capacity
    p_min_dbm: float = 0.0
    p_max_dbm: float = 45.0
    d_min: float = 20.0
    d_max: float = 150.0
    rate_min: float = 1.0     # allowed band for MU rate thresholds
    rate_max: float = 3.0

    def __post_init__(self):
        if self.pi_thresh < 0:
            raise ValueError("pi_thresh must be >= 0")
        if self.pi_k_max < 1:
            raise ValueError("pi_k_max must be >= 1")
        if self.p_min_dbm >= self.p_max_dbm:
            raise ValueError("p_min_dbm must be < p_max_dbm")
        if self.d_min >= self.d_max:
            raise ValueError("d_min must be < d_max")
        for name in ("d_min", "d_max"):
            if abs(getattr(self, name)) > DROP_DISTANCE_MAX_M:
                raise ValueError(f"{name}: must be at most {DROP_DISTANCE_MAX_M:.9g} m in magnitude")


@dataclass(eq=False)
class Assignment:
    """Per-MU serving links, indicator gates and rates, one array entry per MU
    in geometry order, for the applied per-(GBS, sector) tilts and powers.

    The dict views keyed by MU index (`vartheta`, `gamma_ind`, `pi_ind`) are
    built on first read.
    """

    serving_gbs: np.ndarray     # (U,) GBS id, -1 when unattached
    serving_sector: np.ndarray  # (U,) sector index, -1 when unattached
    vartheta_mask: np.ndarray   # (U,) RSRP gate
    gamma_mask: np.ndarray      # (U,) rate gate
    pi_mask: np.ndarray         # (U,) served = vartheta and gamma
    rates: np.ndarray           # (U,) fading-averaged rate, bits/s/Hz; 0 when unattached
    tilts_deg: np.ndarray       # (K, 3) applied tilts of the K active GBSs
    powers_dbm: np.ndarray      # (K, 3) applied powers of the K active GBSs

    def served_count(self) -> int:
        return int(np.count_nonzero(self.pi_mask))

    def served_per_gbs(self) -> dict[int, int]:
        gbs_ids = self.serving_gbs[self.pi_mask & (self.serving_gbs >= 0)]
        ids, counts = np.unique(gbs_ids, return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    @staticmethod
    def _by_mu(values: np.ndarray) -> dict:
        return dict(enumerate(values.tolist()))

    @cached_property
    def vartheta(self) -> dict[int, bool]:
        return self._by_mu(self.vartheta_mask)

    @cached_property
    def gamma_ind(self) -> dict[int, bool]:
        return self._by_mu(self.gamma_mask)

    @cached_property
    def pi_ind(self) -> dict[int, bool]:
        return self._by_mu(self.pi_mask)


@dataclass(frozen=True)
class ConstraintReport:
    served_count_ok: bool   # (c) total served >= pi_thresh
    capacity_ok: bool       # (d) per-GBS served <= pi_k_max
    rates_ok: bool          # (e) served links meet their rate thresholds
    rate_band_ok: bool      # (f) thresholds within [rate_min, rate_max]
    power_ok: bool          # (g) sector powers within [p_min, p_max]
    distance_ok: bool       # (h) nearest-GBS 3D distance within [d_min, d_max]
    tilt_ok: bool           # (i) tilts within [0, 14] degrees


def _value_range(values: np.ndarray) -> tuple[float, float]:
    """(min, max), or (inf, -inf) for no values so that every band holds."""
    return float(values.min(initial=np.inf)), float(values.max(initial=-np.inf))


def _offsets(gbss: list[Gbs], mu_x: np.ndarray, mu_y: np.ndarray):
    """(U, K) x, y and height offsets from each MU to each of the K `gbss`."""
    gx, gy, gh = np.array([(g.position.x, g.position.y, g.height) for g in gbss]).T
    # A full (U, K) dz like dx: numpy may run another SIMD loop on a broadcast one.
    return mu_x[:, None] - gx, mu_y[:, None] - gy, gh - np.full((len(mu_x), 1), MU_HEIGHT_M)


def _nearest_distance(geom: RadioGeometry) -> np.ndarray:
    """(U,) 3D distance from each MU to its nearest GBS, off ones included, by
    radio.distance_3d's arithmetic (libm pow squares dz as Python's ** does), so
    the distance band check agrees with it bit for bit at the band edges."""
    dx, dy, dz = _offsets(geom.gbss, geom.mu_x, geom.mu_y)
    return np.sqrt(np.float_power(dz, 2) + dx * dx + dy * dy).min(axis=1)


class RadioGeometry:
    """Precomputed per-(MU, GBS, sector) geometry for fast re-association.

    Tilt/power sweeps only change the elevation term, so everything that
    depends on positions alone is cached as arrays: distances, elevation
    angles, and azimuth gains per sector. MUs are given as arrays, one entry
    per MU, indexed 0..U-1 and standing at `MU_HEIGHT_M`; the thresholds may
    be scalars shared by all of them.

    An off GBS radiates nothing, so the link arrays (`d3d`, `theta_elev`,
    `az_gain_db`, `pathloss`) and `gbs_ids`/`n_gbs` cover the active GBSs
    only, in `gbss` order. Off GBSs enter only `check_constraints`. At least
    one GBS must be active.
    """

    def __init__(
        self,
        gbss: list[Gbs],
        mu_x,
        mu_y,
        rate_thresholds,
        rsrp_thresholds,
        ch: ChannelParams,
        ap: AntennaParams,
    ):
        active = [g for g in gbss if g.active]
        if not active:
            raise ValueError("at least one active GBS required")
        self.gbss, self.ch, self.ap = gbss, ch, ap
        ux = np.asarray(mu_x, dtype=float)
        uy = np.asarray(mu_y, dtype=float)
        self.n_mu = len(ux)
        self.mu_x, self.mu_y = ux, uy
        self.rate_thresholds = np.broadcast_to(np.asarray(rate_thresholds, dtype=float), ux.shape)
        self.rsrp_thresholds = np.broadcast_to(np.asarray(rsrp_thresholds, dtype=float), ux.shape)
        self.gbs_ids = np.array([g.id for g in active], dtype=np.int64)
        self.n_gbs = len(active)

        dx, dy, dz = _offsets(active, ux, uy)
        d2d = np.hypot(dx, dy)
        self.d3d = np.sqrt(d2d**2 + dz**2)                      # (U, K)
        self.theta_elev = np.degrees(np.arctan2(dz, d2d))       # (U, K)
        bearing = np.degrees(np.arctan2(dy, dx))                # (U, K)
        psi = wrap_deg(bearing[:, :, None] - np.array(SECTOR_BORESIGHTS_DEG)[None, None, :])
        self.az_gain_db = azimuth_gain_db(psi, ap)              # (U, K, 3)
        self.pathloss = self.d3d ** (-ch.alpha)                 # (U, K)

    def mean_rx_power(self, tilts_deg: np.ndarray, powers_dbm: np.ndarray) -> np.ndarray:
        """Fading-free received power, shape (U, K, 3), for (K, 3) tilts and
        powers of the K active GBSs."""
        if tilts_deg.shape != (self.n_gbs, 3) or powers_dbm.shape != (self.n_gbs, 3):
            raise ValueError(f"tilts and powers must have shape ({self.n_gbs}, 3)")
        el_gain_db = elevation_gain_db(self.theta_elev[:, :, None], tilts_deg[None, :, :], self.ap)
        return (
            dbm_to_watts(powers_dbm)[None, :, :]
            * self.pathloss[:, :, None]
            * db_to_linear(self.az_gain_db + el_gain_db)
            * self.ch.rx_gain
        )


def associate_cached(geom: RadioGeometry, tilts_deg, powers_dbm, cfg: ConstraintConfig) -> Assignment:
    """Best-RSRP association with capacity eviction, over cached geometry."""
    tilts = np.asarray(tilts_deg, float)
    powers = np.asarray(powers_dbm, float)
    n = geom.n_mu
    rx = geom.mean_rx_power(tilts, powers)
    best_rx = rx.max(axis=2)                                  # (U, K)

    # Tentative attach: argmax over (gbs, sector), lowest index wins on ties.
    flat = rx.reshape(n, 3 * geom.n_gbs)  # -1 cannot be inferred for n = 0
    cand = np.argmax(flat, axis=1)
    cand_gbs = cand // 3
    cand_sector = cand % 3
    rows = np.arange(n)
    cand_rx = flat[rows, cand]

    attached = np.ones(n, dtype=bool)
    for k in range(geom.n_gbs):
        members = np.flatnonzero(cand_gbs == k)
        if len(members) > cfg.pi_k_max:
            order = np.argsort(-cand_rx[members], kind="stable")
            attached[members[order[cfg.pi_k_max:]]] = False

    # Interference: other active GBSs via their best sector toward the MU.
    total_best = best_rx.sum(axis=1)
    interference = total_best - cand_rx
    nu = geom.ch.phi_ric * interference + geom.ch.sigma2
    rates = approx_rate(cand_rx, nu, geom.d3d[rows, cand_gbs], geom.ch)

    vartheta = attached & (cand_rx >= geom.rsrp_thresholds)
    gamma = attached & (rates >= geom.rate_thresholds)
    return Assignment(
        np.where(attached, geom.gbs_ids[cand_gbs], -1),
        np.where(attached, cand_sector, -1),
        vartheta,
        gamma,
        vartheta & gamma,
        np.where(attached, rates, 0.0),
        tilts,
        powers,
    )


def objective_value(a: Assignment) -> float:
    # A left-to-right fold over the served rates in MU order, whatever the
    # interpreter: np.sum adds pairwise and Python 3.12's sum() compensates,
    # and either changes the low bits of the reward.
    served = a.rates[a.pi_mask]
    return float(np.add.accumulate(served)[-1]) if served.size else 0.0


def check_constraints(a: Assignment, geom: RadioGeometry, cfg: ConstraintConfig) -> ConstraintReport:
    """Constraints (c)-(i) for an assignment over `geom`'s MUs; power and tilt
    are checked on the active GBSs' sector state the assignment was computed for."""
    d_lo, d_hi = _value_range(_nearest_distance(geom))
    r_lo, r_hi = _value_range(geom.rate_thresholds)
    p_lo, p_hi = _value_range(a.powers_dbm)
    t_lo, t_hi = _value_range(a.tilts_deg)
    return ConstraintReport(
        served_count_ok=a.served_count() >= cfg.pi_thresh,
        capacity_ok=all(c <= cfg.pi_k_max for c in a.served_per_gbs().values()),
        rates_ok=not np.any(a.pi_mask & (a.rates < geom.rate_thresholds)),
        rate_band_ok=cfg.rate_min <= r_lo and r_hi <= cfg.rate_max,
        power_ok=cfg.p_min_dbm <= p_lo and p_hi <= cfg.p_max_dbm,
        distance_ok=cfg.d_min <= d_lo and d_hi <= cfg.d_max,
        tilt_ok=TILT_MIN_DEG <= t_lo and t_hi <= TILT_MAX_DEG,
    )
