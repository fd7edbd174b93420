"""Command-line entry point."""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import dqn, harness
from .env import EnvAction, NesEnv, encode_features
from .harness import ConfigError, SweepSpec


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (ExperimentConfig fields)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--iterations", type=int, help="override training iterations")
    p.add_argument("--svg", action="store_const", const=True, help="also emit SVG charts")
    p.add_argument("--pathloss-mode", choices=["literal", "single"], dest="pathloss_mode")


def cmd_train(cfg: harness.ExperimentConfig) -> int:
    _, net, log = harness.train_agent(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    harness.write_training_csv(log, os.path.join(cfg.out_dir, "training.csv"))
    dqn.save_checkpoint(net, os.path.join(cfg.out_dir, "checkpoint.bin"))
    if cfg.svg:
        harness.write_training_svg(log, os.path.join(cfg.out_dir, "training.svg"))
    tail = log.rewards()[-1000:]
    mean_tail = float(np.mean(tail)) if tail else 0.0
    print(f"trained {cfg.iterations} iterations; mean reward over final window: {mean_tail:.4g}")
    return 0


def cmd_eval(cfg: harness.ExperimentConfig) -> int:
    scn = harness.generate_scenario(cfg, np.random.default_rng(cfg.seed))
    checkpoint = os.path.join(cfg.out_dir, "checkpoint.bin")
    net = dqn.load_checkpoint(checkpoint) if os.path.exists(checkpoint) else None
    summaries = harness.evaluate_policies(scn, net, cfg)
    for s in summaries:
        print(f"{s.policy}: mean reward {s.mean_reward:.4g}, per MU {s.reward_per_mu:.4g}, "
              f"served fraction {s.served_fraction:.3f}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    harness.write_eval_csv(summaries, os.path.join(cfg.out_dir, "eval.csv"))
    return 0


def _cmd_sweep(cfg: harness.ExperimentConfig, kind: str) -> int:
    grid = cfg.mu_grid if kind == "mu_count" else cfg.distance_grid
    spec = SweepSpec(kind, tuple(float(v) for v in grid))
    rows = harness.run_sweep(spec, cfg, np.random.default_rng(cfg.seed))
    os.makedirs(cfg.out_dir, exist_ok=True)
    harness.write_sweep_csv(rows, os.path.join(cfg.out_dir, "sweep.csv"))
    if cfg.svg:
        harness.write_sweep_svg(rows, os.path.join(cfg.out_dir, "sweep.svg"))
    for r in rows:
        print(f"{r.sweep}={r.value:g} {r.policy}: mean reward {r.mean_reward:.4g}")
    return 0


def cmd_oracle_check(cfg: harness.ExperimentConfig) -> int:
    scn, net, _ = harness.train_agent(cfg)
    env = NesEnv(scn, np.random.default_rng(cfg.seed))
    env.reset()
    best_action, best_reward = harness.brute_force_best(env)
    greedy = int(np.argmax(dqn.forward(net, encode_features(env.state, scn))))
    greedy_reward = env.evaluate_action(EnvAction(greedy))
    print(f"exhaustive optimum: action {best_action}, reward {best_reward:.6g}")
    print(f"greedy DQN:         action {greedy}, reward {greedy_reward:.6g}")
    if best_reward > 0:
        print(f"ratio: {greedy_reward / best_reward:.4f}")
    return 0


COMMANDS = {
    "train": ("train a DQN and write training.csv + checkpoint.bin", cmd_train),
    "eval": ("evaluate dqn/random/max policies on the configured scenario", cmd_eval),
    "sweep-mus": ("sweep the MU count grid and write sweep.csv",
                  functools.partial(_cmd_sweep, kind="mu_count")),
    "sweep-distance": ("sweep the distance band grid and write sweep.csv",
                       functools.partial(_cmd_sweep, kind="distance_band")),
    "oracle-check": ("compare greedy DQN against the exhaustive one-step optimum", cmd_oracle_check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nessim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflowing or NaN-making arithmetic raises instead of writing wrong numbers.
        with np.errstate(over="raise", invalid="raise"):
            cfg = harness.load_config(
                args.config, seed=args.seed, out_dir=args.out, iterations=args.iterations,
                svg=args.svg, pathloss_mode=args.pathloss_mode,
            )
            return COMMANDS[args.command][1](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map to documented exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
