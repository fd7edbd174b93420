"""MDP wrapper: per-sector (tilt, power) state, base-9 joint actions, and the
constraint-gated sum-rate reward."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    MU_HEIGHT_M,
    TILT_MAX_DEG,
    TILT_MIN_DEG,
    Assignment,
    ConstraintConfig,
    Gbs,
    RadioGeometry,
    associate_cached,
    objective_value,
)
from .radio import AntennaParams, ChannelParams, dbm_to_watts

TILT_STEP_DEG = 1.0
POWER_STEP_DB = 5.0
ACTIONS_PER_SECTOR = 9
SECTOR_LIMIT = 6  # controllable sectors, so at most 9**6 joint actions


@dataclass(frozen=True)
class Scenario:
    gbss: tuple[Gbs, ...]  # immutable, so envs that share a scenario share no mutable station
    mu_count: int
    constraints: ConstraintConfig
    channel: ChannelParams
    antenna: AntennaParams
    horizon: int = 100
    rsrp_threshold_dbm: float = -100.0
    resample_on_reset: bool = True

    @property
    def sector_count(self) -> int:
        return 3 * sum(g.active for g in self.gbss)


@dataclass
class EnvState:
    """Per-sector (tilt_deg, power_dbm) rows for the active GBSs' sectors, in
    `gbss` order."""

    rows: np.ndarray  # shape (S, 2)

    def copy(self) -> "EnvState":
        return EnvState(self.rows.copy())


@dataclass(frozen=True)
class EnvAction:
    index: int


@dataclass
class StepResult:
    next_state: EnvState
    reward: float
    served_count: int
    done: bool
    objective: float
    assignment: Assignment


def action_space_size(s_count: int) -> int:
    return ACTIONS_PER_SECTOR**s_count


# Row d: the (tilt, power) delta of base-9 digit d, (d // 3 - 1) degrees of
# tilt and (d % 3 - 1) * 5 dB of power.
DIGIT_DELTAS = np.array([(d // 3 - 1, d % 3 - 1) for d in range(ACTIONS_PER_SECTOR)]) * (
    TILT_STEP_DEG, POWER_STEP_DB
)


def decode_action(a: EnvAction, s_count: int) -> np.ndarray:
    """(S, 2) (tilt, power) deltas from the base-9 digits of the action,
    sector 0 least significant."""
    idx = a.index
    if not 0 <= idx < action_space_size(s_count):
        raise IndexError(f"action {idx} out of range for {s_count} sectors")
    return DIGIT_DELTAS[idx // ACTIONS_PER_SECTOR ** np.arange(s_count) % ACTIONS_PER_SECTOR]


def encode_features(state: EnvState, scn: Scenario) -> np.ndarray:
    """Row-major flattening to [0, 1]: tilt/14 and (p - Pmin)/(Pmax - Pmin)."""
    cfg = scn.constraints
    tilt = state.rows[:, 0] / TILT_MAX_DEG
    power = (state.rows[:, 1] - cfg.p_min_dbm) / (cfg.p_max_dbm - cfg.p_min_dbm)
    return np.column_stack([tilt, power]).reshape(-1)


class NesEnv:
    """Deterministic episodic environment over one scenario.

    MU placements and rate demands are drawn at reset (around a uniformly
    chosen GBS, off ones included, so stranded users appear); sector state
    starts at tilt 7 degrees and the power midpoint.
    """

    def __init__(self, scn: Scenario, rng: np.random.Generator):
        self.scn = scn
        self.rng = rng
        self.state: EnvState | None = None
        self.geom: RadioGeometry | None = None
        self.t = 0

    def _sample_geometry(self) -> RadioGeometry:
        scn = self.scn
        cfg = scn.constraints
        rng = self.rng
        anchors = rng.integers(0, len(scn.gbss), scn.mu_count)
        radii3 = np.sqrt(rng.uniform(cfg.d_min**2, cfg.d_max**2, scn.mu_count))
        angles = rng.uniform(0.0, 2.0 * math.pi, scn.mu_count)
        thresholds = rng.uniform(cfg.rate_min, cfg.rate_max, scn.mu_count)
        sites = np.array([(g.position.x, g.position.y, g.height - MU_HEIGHT_M) for g in scn.gbss])
        gx, gy, dz = sites[anchors].T
        # float_power is libm pow, so the ground radius and the cos and sin
        # below keep the bits of the scalar math (tests/test_env.py pins them).
        r2d = np.sqrt(np.maximum(np.float_power(radii3, 2) - dz * dz, 0.0))
        xs = gx + r2d * np.cos(angles)
        ys = gy + r2d * np.sin(angles)
        return RadioGeometry(
            scn.gbss, xs, ys, thresholds, dbm_to_watts(scn.rsrp_threshold_dbm),
            scn.channel, scn.antenna,
        )

    def reset(self) -> EnvState:
        scn = self.scn
        if scn.resample_on_reset or self.geom is None:
            self.geom = self._sample_geometry()
        cfg = scn.constraints
        mid_power = 0.5 * (cfg.p_min_dbm + cfg.p_max_dbm)
        rows = np.tile([7.0, mid_power], (scn.sector_count, 1))
        self.state = EnvState(rows)
        self.t = 0
        return self.state.copy()

    def _apply(self, state: EnvState, a: EnvAction) -> EnvState:
        scn = self.scn
        rows = state.rows + decode_action(a, scn.sector_count)
        cfg = scn.constraints
        rows[:, 0] = np.clip(rows[:, 0], TILT_MIN_DEG, TILT_MAX_DEG)
        rows[:, 1] = np.clip(rows[:, 1], cfg.p_min_dbm, cfg.p_max_dbm)
        return EnvState(rows)

    def _evaluate(self, state: EnvState) -> tuple[float, int, float, Assignment]:
        scn = self.scn
        assignment = associate_cached(
            self.geom, state.rows[:, 0].reshape(-1, 3), state.rows[:, 1].reshape(-1, 3),
            scn.constraints,
        )
        objective = objective_value(assignment)
        served = assignment.served_count()
        reward = objective if served >= scn.constraints.pi_thresh else 0.0
        return reward, served, objective, assignment

    def step(self, a: EnvAction) -> StepResult:
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        next_state = self._apply(self.state, a)
        reward, served, objective, assignment = self._evaluate(next_state)
        self.state = next_state
        self.t += 1
        done = self.t >= self.scn.horizon
        return StepResult(next_state.copy(), reward, served, done, objective, assignment)

    def evaluate_action(self, a: EnvAction) -> float:
        """One-step reward of `a` from the current state, without mutation."""
        if self.state is None:
            raise RuntimeError("call reset() before evaluate_action()")
        candidate = self._apply(self.state, a)
        reward, _, _, _ = self._evaluate(candidate)
        return reward
