"""Closed-form radio physics: geometry, sector antenna gains, Rician fading,
and instantaneous / fading-averaged throughput."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Euler-Mascheroni constant as used in the fading-averaged rate formula.
EULER_GAMMA = 0.5772156649


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def dbm_to_watts(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0) * 1e-3


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("position coordinates must be finite")


@dataclass(frozen=True)
class ChannelParams:
    """Channel-model constants. Powers are linear watts, gains linear."""

    alpha: float = 3.0                    # path-loss exponent
    sigma2: float = dbm_to_watts(-104.0)  # noise power, watts
    phi_ric: float = 0.1                  # residual-interference coefficient
    rx_gain: float = 1.0                  # receive antenna gain, linear
    pathloss_mode: str = "literal"        # 'literal' or 'single'

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")
        if not 0.0 <= self.phi_ric <= 1.0:
            raise ValueError("phi_ric must be in [0, 1]")
        if self.rx_gain <= 0:
            raise ValueError("rx_gain must be > 0")
        if self.pathloss_mode not in ("literal", "single"):
            raise ValueError("pathloss_mode must be 'literal' or 'single'")


@dataclass(frozen=True)
class AntennaParams:
    """Sector antenna pattern constants (angles in degrees, gains in dB)."""

    g_max_dbi: float = 14.0       # azimuth pattern peak
    psi_3db_deg: float = 70.0     # azimuth half-power beamwidth
    front_back_db: float = 20.0   # azimuth attenuation clamp
    theta_3db_deg: float = 65.0   # elevation half-power beamwidth
    elev_floor_db: float = 20.0   # elevation attenuation clamp

    def __post_init__(self):
        if self.psi_3db_deg <= 0 or self.theta_3db_deg <= 0:
            raise ValueError("beamwidths must be > 0")
        if self.front_back_db <= 0 or self.elev_floor_db <= 0:
            raise ValueError("attenuation clamps must be > 0")


@dataclass(frozen=True)
class AngleGeometry:
    theta_elev_deg: float  # elevation angle of the GBS->MU ray
    psi_azim_deg: float    # azimuth offset from the sector boresight

    def __post_init__(self):
        if not -180.0 < self.psi_azim_deg <= 180.0:
            raise ValueError("psi_azim_deg must lie in (-180, 180]")


def wrap_deg(angle_deg):
    """Wrap an angle into (-180, 180]."""
    a = np.asarray(angle_deg, dtype=float)
    return -np.remainder(-a + 180.0, 360.0) + 180.0


def distance_3d(gbs_pos: Position, h_k: float, mu_pos: Position, h_u: float) -> float:
    dx = gbs_pos.x - mu_pos.x
    dy = gbs_pos.y - mu_pos.y
    return math.sqrt((h_k - h_u) ** 2 + dx * dx + dy * dy)


def azimuth_gain_db(psi_azim_deg, p: AntennaParams):
    psi = np.asarray(psi_azim_deg, dtype=float)
    att = np.minimum(12.0 * (psi / p.psi_3db_deg) ** 2, p.front_back_db)
    return p.g_max_dbi - att


def elevation_gain_db(theta_elev_deg, tilt_deg, p: AntennaParams):
    off = np.asarray(theta_elev_deg, dtype=float) - np.asarray(tilt_deg, dtype=float)
    att = np.minimum(12.0 * (off / p.theta_3db_deg) ** 2, p.elev_floor_db)
    return -att


def combined_gain_db(g: AngleGeometry, tilt_deg: float, p: AntennaParams) -> float:
    # Plain dB sum of both patterns, no joint clamp.
    return azimuth_gain_db(g.psi_azim_deg, p) + elevation_gain_db(
        g.theta_elev_deg, tilt_deg, p
    )


def sample_rician_power(k_factor: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` values of |h|^2 for unit-mean Rician fading."""
    if k_factor < 0:
        raise ValueError("k_factor must be >= 0")
    if math.isinf(k_factor):  # pure line of sight; the formula below would give NaN
        return np.ones(size)
    phase = rng.uniform(0.0, 2.0 * math.pi, size)
    scatter = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
    los = math.sqrt(k_factor / (k_factor + 1.0)) * np.exp(1j * phase)
    h = los + math.sqrt(1.0 / (k_factor + 1.0)) * scatter
    return np.abs(h) ** 2


def sinr(signal_rx, interferer_rx, d3d, ch: ChannelParams):
    denom = ch.phi_ric * float(np.sum(interferer_rx)) + ch.sigma2
    if ch.pathloss_mode == "literal":
        denom = d3d ** ch.alpha * denom
    return signal_rx / denom


def instantaneous_rate(gamma):
    return np.log2(1.0 + gamma)


def approx_rate(p_hat, denom_nu, d3d, ch: ChannelParams):
    """Fading-averaged throughput: log2(1 + e^{-E} * mean-SNR)."""
    denom = np.asarray(denom_nu, dtype=float)
    if ch.pathloss_mode == "literal":
        denom = np.asarray(d3d, dtype=float) ** ch.alpha * denom
    return np.log2(1.0 + math.exp(-EULER_GAMMA) * np.asarray(p_hat, dtype=float) / denom)
