"""Experiment orchestration: config loading, scenario generation, policy
evaluation, sweeps, and deterministic CSV/SVG output."""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import baselines, dqn
from .env import SECTOR_LIMIT, EnvAction, NesEnv, Scenario, action_space_size, encode_features
from .network import ConstraintConfig, Gbs
from .radio import AntennaParams, ChannelParams, Position, db_to_linear, dbm_to_watts


DISTANCE_BAND_FLOOR_M = 20.0  # lower edge of every distance sweep band
# Bytes a user drop takes per (user, active station): a traced reset plus one
# step peaks at about 213 of them with 20 000 users.
DROP_LINK_BYTES = 256


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # Topology and scenario
    k_gbs: int = 2
    off_ids: tuple[int, ...] = (1,)
    inter_site_m: float = 500.0
    mu_count: int = 15
    d_min: float = 20.0
    d_max: float = 150.0
    rate_min: float = 1.0
    rate_max: float = 3.0
    rsrp_threshold_dbm: float = -100.0
    pi_thresh: int | None = None       # default: ceil(U / 2)
    pi_k_max: int | None = None        # default: 2 * ceil(U / active GBS count)
    p_min_dbm: float = 0.0
    p_max_dbm: float = 45.0
    horizon: int = 100
    resample_on_reset: bool = True
    # Channel
    alpha: float = 3.0
    sigma2_dbm: float = -104.0
    phi_ric: float = 0.1
    rx_gain_dbi: float = 0.0
    pathloss_mode: str = "literal"
    # Antenna
    g_max_dbi: float = 14.0
    psi_3db_deg: float = 70.0
    front_back_db: float = 20.0
    theta_3db_deg: float = 65.0
    elev_floor_db: float = 20.0
    # Agent
    learning_rate: float = 0.001
    batch_size: int = 32
    zeta: float = 0.9
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10000
    target_sync_period: int = 200
    hidden_sizes: tuple[int, ...] = (128, 128)
    warmup: int = 500
    buffer_capacity: int = 20000
    # Run control
    iterations: int = 20000
    eval_episodes: int = 5
    seed: int = 0
    out_dir: str = "out"
    svg: bool = False
    mu_grid: tuple[int, ...] = (200, 500, 1000, 1500, 2000)
    distance_grid: tuple[float, ...] = (50.0, 100.0, 200.0, 300.0, 400.0)

    def __post_init__(self):
        """Check every rule of the config, so that a config that constructs can
        run: a broken rule raises `ConfigError`."""
        try:
            for f in dataclasses.fields(self):  # the annotations are the schema
                object.__setattr__(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
            self.agent()
            if any(v < 0 for v in self.mu_grid):
                raise ValueError("mu_grid: MU counts must be >= 0")
            if any(v <= DISTANCE_BAND_FLOOR_M for v in self.distance_grid):
                raise ValueError(f"distance_grid: values must be > {DISTANCE_BAND_FLOOR_M:g} m")
            # Admission control: the joint action space grows as 9**sectors, so a
            # DQN that cannot fit in memory is refused before anything is built.
            s_count = 3 * (self.k_gbs - len(set(self.off_ids)))
            if 0 < s_count <= SECTOR_LIMIT:
                need = dqn.training_bytes(dqn.network_sizes(s_count, self.hidden_sizes))
                _admit("hidden_sizes/off_ids", f"training the DQN for {s_count} sectors", need)
            if self.k_gbs < 1:
                raise ValueError("k_gbs: must be >= 1")
            if not all(0 <= i < self.k_gbs for i in self.off_ids):
                raise ValueError("off_ids: contains an id outside [0, k_gbs)")
            if s_count == 0:
                raise ValueError("off_ids: no active GBS remains")
            if self.mu_count < 0:
                raise ValueError("mu_count: must be >= 0")
            if self.rate_min > self.rate_max:
                raise ValueError("rate_min/rate_max: need rate_min <= rate_max")
            if s_count > SECTOR_LIMIT:
                raise ValueError(f"{s_count} controllable sectors exceed limit {SECTOR_LIMIT}")
            for name, users in (("mu_count", self.mu_count), ("mu_grid", max(self.mu_grid, default=0))):
                _admit(name, "the user drop", users * (s_count // 3) * DROP_LINK_BYTES)
            for part in (self.constraints, self.channel, self.antenna):
                part()  # each part checks its own fields
            for name in ("seed", "iterations", "eval_episodes"):
                if getattr(self, name) < 0:
                    raise ValueError(f"{name}: must be >= 0")
            if self.horizon < 1:
                raise ValueError("horizon: must be >= 1")
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc

    def _part(self, cls, **derived):
        """Build `cls` from the config fields of the same names, plus `derived`."""
        names = {f.name for f in dataclasses.fields(cls)} - derived.keys()
        return cls(**{name: getattr(self, name) for name in names}, **derived)

    def channel(self) -> ChannelParams:
        return self._part(ChannelParams, sigma2=_linear("sigma2_dbm", dbm_to_watts, self.sigma2_dbm),
                          rx_gain=_linear("rx_gain_dbi", db_to_linear, self.rx_gain_dbi))

    def antenna(self) -> AntennaParams:
        return self._part(AntennaParams)

    def agent(self) -> dqn.AgentConfig:
        return self._part(dqn.AgentConfig)

    def constraints(self) -> ConstraintConfig:
        mu, active = self.mu_count, self.k_gbs - len(set(self.off_ids))
        pi_thresh = math.ceil(0.5 * mu) if self.pi_thresh is None else self.pi_thresh
        pi_k_max = 2 * math.ceil(max(mu, 1) / active) if self.pi_k_max is None else self.pi_k_max
        return self._part(ConstraintConfig, pi_thresh=pi_thresh, pi_k_max=pi_k_max)


# What a value of each field annotation may be; bools only where a bool is due.
_SCALARS = {
    "int": ((int, np.integer), "an integer"),
    "int | None": ((int, np.integer, type(None)), "an integer"),
    "float": ((int, float, np.integer, np.floating), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}
_TUPLES = {"tuple[int, ...]": ("int", "integers"), "tuple[float, ...]": ("float", "numbers")}


def _typed(name: str, kind: str, value):
    """`value` as the field `name` annotated `kind` stores it, a list as a tuple; a
    wrong type raises `ValueError`, and so does a float that is not finite."""
    item, plural = _TUPLES.get(kind, (kind, ""))
    if plural and not isinstance(value, (list, tuple)):
        raise ValueError(f"{name}: must be a list")
    types, what = _SCALARS[item]
    for v in value if plural else (value,):
        if not isinstance(v, types) or (isinstance(v, bool) and item != "bool"):
            raise ValueError(f"{name}: values must be {plural}" if plural else f"{name}: must be {what}")
        if item == "float":
            # An int is compared exactly: past the largest float, math.isfinite overflows.
            finite = abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v)
            if not finite and (name, v) != ("rsrp_threshold_dbm", -math.inf):  # -Infinity: no RSRP gate
                raise ValueError(f"{name}: must {'not be NaN' if v != v else 'be finite'}")
    return tuple(value) if plural else value


def _linear(name: str, to_linear, db: float) -> float:
    """`to_linear(db)`, the field `name` in linear units, as a float; a value
    outside a float's range raises `ValueError`, whatever numpy's error state."""
    with np.errstate(over="ignore"):
        value = float(to_linear(db))
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name}: {db:g} is outside a float's range in linear units")
    return value


def _admit(name: str, what: str, need: int) -> None:
    """Refuse `what` when the `need` bytes it takes exceed physical memory. A
    huge need prints as a power of ten: it may be past a float's range."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        gib = f"{need / 2**30:.1f}" if need < 2**60 else f"1e{math.log10(need >> 30):.0f}"
        raise ValueError(f"{name}: {what} needs about {gib} GiB, more than the "
                         f"{have / 2**30:.1f} GiB of physical memory")


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    """Build a config from an optional JSON file plus keyword overrides."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                values = json.load(f)
        # ValueError: not UTF-8, not JSON or a huge integer; RecursionError: nested too deep.
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config root must be a JSON object")
    values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in values:
        if key not in known:
            raise ConfigError(f"unknown config field: {key}")
    return ExperimentConfig(**values)


def _lattice_positions(k: int, spacing: float) -> list[Position]:
    side = math.ceil(math.sqrt(k))
    offset = (side - 1) / 2.0
    positions = []
    for i in range(k):
        row, col = divmod(i, side)
        positions.append(Position((col - offset) * spacing, (row - offset) * spacing))
    return positions


def generate_scenario(cfg: ExperimentConfig, rng: np.random.Generator) -> Scenario:
    """The stations on their lattice and the parts of `cfg`. `rng` is unused:
    the lattice comes from `cfg`. It stays because `tests/test_acceptance.py`
    passes one."""
    gbss = tuple(
        Gbs(id=i, position=pos, height=10.0, active=i not in cfg.off_ids)
        for i, pos in enumerate(_lattice_positions(cfg.k_gbs, cfg.inter_site_m))
    )
    return Scenario(
        gbss=gbss,
        mu_count=cfg.mu_count,
        constraints=cfg.constraints(),
        channel=cfg.channel(),
        antenna=cfg.antenna(),
        horizon=cfg.horizon,
        rsrp_threshold_dbm=cfg.rsrp_threshold_dbm,
        resample_on_reset=cfg.resample_on_reset,
    )


def make_greedy_policy(net: dqn.Mlp):
    def policy(features, s_count, rng):
        return EnvAction(int(np.argmax(dqn.forward(net, features))))

    return policy


def make_max_policy():
    def policy(features, s_count, rng):
        return baselines.max_policy(s_count)

    return policy


def make_random_policy():
    def policy(features, s_count, rng):
        return baselines.random_policy(s_count, rng)

    return policy


@dataclass
class EvalSummary:
    policy: str
    mean_reward: float
    reward_per_mu: float
    served_fraction: float


EVAL_WINDOW = 10  # terminal steps of each episode that enter the average


def evaluate_policy(policy, scn: Scenario, episodes: int, rng: np.random.Generator) -> EvalSummary:
    env = NesEnv(scn, rng)
    rewards = []
    served = []
    for _ in range(episodes):
        env.reset()
        for t in range(scn.horizon):
            features = encode_features(env.state, scn)
            action = policy(features, scn.sector_count, rng)
            result = env.step(action)
            if t >= scn.horizon - EVAL_WINDOW:
                rewards.append(result.reward)
                served.append(result.served_count)
    mean_reward = float(np.mean(rewards)) if rewards else 0.0
    served_frac = float(np.mean(served)) / scn.mu_count if served and scn.mu_count else 0.0
    per_mu = mean_reward / scn.mu_count if scn.mu_count else 0.0
    return EvalSummary("", mean_reward, per_mu, served_frac)


def brute_force_best(env: NesEnv) -> tuple[int, float]:
    """Exhaustive one-step search over the whole joint action space."""
    best_a, best_r = 0, -float("inf")
    for a in range(action_space_size(env.scn.sector_count)):
        r = env.evaluate_action(EnvAction(a))
        if r > best_r:
            best_a, best_r = a, r
    return best_a, best_r


def train_agent(cfg: ExperimentConfig) -> tuple[Scenario, dqn.Mlp, dqn.MetricsLog]:
    """Draw the scenario and train the DQN on it, both from `cfg.seed`."""
    scn = generate_scenario(cfg, np.random.default_rng(cfg.seed))
    env = NesEnv(scn, np.random.default_rng(cfg.seed))
    net, log = dqn.train(env, cfg.agent(), cfg.iterations, np.random.default_rng(cfg.seed))
    return scn, net, log


def evaluate_policies(scn: Scenario, net: dqn.Mlp | None, cfg: ExperimentConfig) -> list[EvalSummary]:
    """Evaluate the greedy DQN (when a net is given), random and max policies,
    each on its own generator seeded `cfg.seed + 1`."""
    roster = {"random": make_random_policy(), "max": make_max_policy()}
    if net is not None:
        roster = {"dqn": make_greedy_policy(net), **roster}
    return [
        dataclasses.replace(
            evaluate_policy(policy, scn, cfg.eval_episodes, np.random.default_rng(cfg.seed + 1)),
            policy=name,
        )
        for name, policy in roster.items()
    ]


@dataclass(frozen=True)
class SweepSpec:
    kind: str                      # 'mu_count' or 'distance_band'
    grid: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("mu_count", "distance_band"):
            raise ConfigError(f"unknown sweep kind: {self.kind}")
        if not self.grid:
            raise ConfigError("sweep grid must be nonempty")


def distance_band(value: float) -> tuple[float, float]:
    """Grid value v denotes the band [v - 50, v], floored at 20 m."""
    return (max(DISTANCE_BAND_FLOOR_M, value - 50.0), value)


@dataclass
class SweepRow:
    sweep: str
    value: float
    policy: str
    mean_reward: float
    reward_per_mu: float
    served_fraction: float


def run_sweep(spec: SweepSpec, cfg: ExperimentConfig, rng: np.random.Generator) -> list[SweepRow]:
    """Train and evaluate at every grid point, point i seeded `cfg.seed + i`.
    `rng` is unused: the per-point seeds come from `cfg`. It stays because
    `tests/test_acceptance.py` passes one."""
    rows = []
    for i, value in enumerate(spec.grid):
        if spec.kind == "mu_count":
            point = {"mu_count": int(value)}
        else:
            lo, hi = distance_band(value)
            point = {"d_min": lo, "d_max": hi}
        point_cfg = dataclasses.replace(cfg, seed=cfg.seed + i, **point)
        scn, net, _ = train_agent(point_cfg)
        rows.extend(
            SweepRow(spec.kind, float(value), *dataclasses.astuple(summary))
            for summary in evaluate_policies(scn, net, point_cfg)
        )
    return rows


FLOAT_FORMAT = "{:.9g}"  # every float of a CSV table or a chart label
SVG_WIDTH, SVG_HEIGHT = 800, 400  # px, both charts


def _fmt(x: float) -> str:
    return FLOAT_FORMAT.format(x)


def write_training_csv(log: dqn.MetricsLog, path) -> None:
    _write_table(path, dqn.MetricsRow, log.rows)


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    _write_table(path, SweepRow, rows)


def write_eval_csv(summaries: list[EvalSummary], path) -> None:
    _write_table(path, EvalSummary, summaries)


def _write_table(path, cls, rows) -> None:
    """Write `rows`, instances of the dataclass `cls`, as CSV under a header of
    its field names: a field annotated `float` as `_fmt` writes it, any other
    by `str`. `cls` has two fields or more, so `attrgetter` returns a tuple."""
    fields = dataclasses.fields(cls)
    line = ",".join(FLOAT_FORMAT if f.type == "float" else "{}" for f in fields).format
    values = operator.attrgetter(*(f.name for f in fields))
    _write_lines(path, [",".join(f.name for f in fields), *(line(*values(r)) for r in rows)])


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _write_svg(path, body: list[str]) -> None:
    """Write a chart's `body` elements inside the SVG frame on a white background."""
    _write_lines(path, [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        *body,
        "</svg>",
    ])


def _svg_polyline(points: list[tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{coords}"/>'


def write_training_svg(log: dqn.MetricsLog, path) -> None:
    """Reward and moving-average curves; byte-deterministic output."""
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 40  # px
    rewards = log.rewards()
    avg = [r.avg_reward for r in log.rows]
    parts = []
    if rewards:
        top = max(max(rewards), 1e-9)
        n = len(rewards)

        def to_xy(i, v):
            x = margin + (width - 2 * margin) * (i / max(n - 1, 1))
            y = height - margin - (height - 2 * margin) * (v / top)
            return x, y

        parts.append(_svg_polyline([to_xy(i, v) for i, v in enumerate(rewards)], "#9ecae1"))
        parts.append(_svg_polyline([to_xy(i, v) for i, v in enumerate(avg)], "#08519c"))
        parts.append(
            f'<text x="{margin}" y="{margin - 10}" font-size="12">'
            f"reward per iteration (light) and moving average (dark), max {_fmt(top)}</text>"
        )
    _write_svg(path, parts)


def write_sweep_svg(rows: list[SweepRow], path) -> None:
    """Per-policy mean-reward bars grouped by grid value; deterministic. The
    rows are `run_sweep`'s: a dqn, random and max row for every grid value."""
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 50  # px
    parts = []
    if rows:
        values = sorted({r.value for r in rows})
        policies = sorted({r.policy for r in rows})
        colors = {"dqn": "#08519c", "random": "#74c476", "max": "#de2d26"}
        top = max(max(r.mean_reward for r in rows), 1e-9)
        group_w = (width - 2 * margin) / len(values)
        bar_w = group_w / (len(policies) + 1)
        lookup = {(r.value, r.policy): r.mean_reward for r in rows}
        for gi, v in enumerate(values):
            for pi, p in enumerate(policies):
                h = (height - 2 * margin) * lookup[(v, p)] / top
                x = margin + gi * group_w + pi * bar_w
                y = height - margin - h
                parts.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                    f'height="{h:.2f}" fill="{colors[p]}"/>'
                )
            parts.append(
                f'<text x="{margin + gi * group_w:.2f}" y="{height - margin + 15}" '
                f'font-size="11">{_fmt(v)}</text>'
            )
    _write_svg(path, parts)
