"""Run the nessim CLI in this process with a span around each layer call.

Usage: python3 bench/tracer.py STATS_JSON CLI_ARG...

The wrappers are installed by replacing module and class attributes of the
nessim package in this process only; no file of the package changes. Every
module attribute that refers to a wrapped function is replaced, so names
imported with ``from .x import f`` are traced too. When the command ends,
per-span call counts, self times and per-call durations, plus the counters
below, are written to STATS_JSON and the process exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (span name, module, attribute path). The order is the order of the report.
SPANS = [
    ("cli.main", "cli", "main"),
    ("dqn.train", "dqn", "train"),
    ("env.reset", "env", "NesEnv.reset"),
    ("env.step", "env", "NesEnv.step"),
    ("env.encode_features", "env", "encode_features"),
    ("network.RadioGeometry", "network", "RadioGeometry.__init__"),
    ("network.mean_rx_power", "network", "RadioGeometry.mean_rx_power"),
    ("network.associate_cached", "network", "associate_cached"),
    ("network.check_constraints", "network", "check_constraints"),
    ("network.objective_value", "network", "objective_value"),
    ("dqn.forward", "dqn", "forward"),
    ("dqn.select_action", "dqn", "select_action"),
    ("dqn.replay_push", "dqn", "ReplayBuffer.push"),
    ("dqn.train_step", "dqn", "train_step"),
    ("dqn.forward_batch", "dqn", "Mlp.forward_batch"),
    ("dqn.adam_update", "dqn", "AdamState.update"),
    ("dqn.sync_target", "dqn", "sync_target"),
    ("dqn.save_checkpoint", "dqn", "save_checkpoint"),
    ("harness.generate_scenario", "harness", "generate_scenario"),
    ("harness.evaluate_policy", "harness", "evaluate_policy"),
    ("harness.write_training_csv", "harness", "write_training_csv"),
    ("harness.write_eval_csv", "harness", "write_eval_csv"),
    ("baselines.max_policy", "baselines", "max_policy"),
    ("baselines.random_policy", "baselines", "random_policy"),
]


class Tracer:
    """Spans kept in memory: inclusive duration per call and self time per span.

    A span's self time is its duration minus the time of the spans it called.
    Bookkeeping done after a span ends (counters included) falls into the
    self time of its caller, and shows in the reported tracing overhead.
    """

    def __init__(self):
        self.durations = {name: [] for name, _, _ in SPANS}
        self.self_s = dict.fromkeys(self.durations, 0.0)
        self.counters = {
            "steps": 0,
            "gate_rejects": 0,
            "served": 0,
            "association_attempts": 0,
            "train_step_macs": 0,
            "mean_rx_power_bytes": 0,
        }
        self._child_time = []  # one accumulator per open span

    def wrap(self, name, fn, observe=None):
        durations = self.durations[name]
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                durations.append(dt)
                self.self_s[name] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # Counters, taken at the boundary where the work happens.

    def on_step(self, args, result):
        self.counters["steps"] += 1
        if result.objective > 0 and result.reward == 0:
            self.counters["gate_rejects"] += 1

    def on_associate(self, args, result):
        self.counters["served"] += sum(result.pi_ind.values())
        self.counters["association_attempts"] += len(result.pi_ind)

    def on_mean_rx_power(self, args, result):
        geom = args[0]
        self.counters["mean_rx_power_bytes"] += (
            geom.theta_elev.nbytes + geom.az_gain_db.nbytes + geom.pathloss.nbytes + result.nbytes
        )

    def on_train_step(self, args, result):
        net, cfg = args[0], args[3]
        layer_macs = [a * b for a, b in zip(net.sizes[:-1], net.sizes[1:])]
        # Two forward passes (target and online), weight gradients, and the
        # delta propagated back through every layer but the first.
        per_row = 3 * sum(layer_macs) + sum(layer_macs[1:])
        self.counters["train_step_macs"] += cfg.batch_size * per_row

    def report(self) -> dict:
        return {
            "root_s": sum(self.durations["cli.main"]),
            "spans": {
                name: {"self_s": self.self_s[name], "durations": self.durations[name]}
                for name in self.durations
            },
            "counters": self.counters,
        }


def install(tracer: Tracer) -> None:
    import importlib

    modules = {
        name: importlib.import_module(f"nessim.{name}")
        for name in ("network", "env", "dqn", "baselines", "harness", "cli")
    }
    observers = {
        "env.step": tracer.on_step,
        "network.associate_cached": tracer.on_associate,
        "network.mean_rx_power": tracer.on_mean_rx_power,
        "dqn.train_step": tracer.on_train_step,
    }
    for span, module, attr in SPANS:
        owner = modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(span, original, observers.get(span))
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py STATS_JSON CLI_ARG...", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    import nessim

    if not Path(nessim.__file__).resolve().is_relative_to(SRC):
        print(f"nessim resolved to {nessim.__file__}, not under {SRC}", file=sys.stderr)
        return 2
    from nessim import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    with open(stats_path, "w") as f:
        json.dump(tracer.report(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
