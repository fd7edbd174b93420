"""The benchmark tracer (bench/tracer.py) still finds every span it names and
its counters still move, so `bench/run.py --trace 1` keeps working when the
package is refactored. The tracer file is only read; every attribute it
replaces is put back afterwards."""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from nessim import harness
from nessim.env import EnvAction, NesEnv

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def span_target(module, attr):
    owner = importlib.import_module(f"nessim.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("nessim_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = [importlib.import_module(f"nessim.{m}") for _, m, _ in tracer.SPANS]
    owners += [span_target(m, attr)[0] for _, m, attr in tracer.SPANS if "." in attr]
    saved = {id(o): (o, dict(vars(o))) for o in owners}
    try:
        yield tracer
    finally:
        for owner, attrs in saved.values():
            for key, value in attrs.items():
                if vars(owner).get(key) is not value:
                    setattr(owner, key, value)


def test_every_span_resolves_and_counters_move(tracer_module):
    originals = {name: getattr(*span_target(m, attr)) for name, m, attr in tracer_module.SPANS}
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    for name, m, attr in tracer_module.SPANS:
        assert getattr(*span_target(m, attr)) is not originals[name], name

    cfg = harness.ExperimentConfig(k_gbs=1, off_ids=(), mu_count=5, horizon=3)
    env = NesEnv(harness.generate_scenario(cfg, np.random.default_rng(0)), np.random.default_rng(0))
    env.reset()
    env.step(EnvAction(0))
    for name in (
        "env.reset", "env.step", "network.RadioGeometry", "network.mean_rx_power",
        "network.associate_cached", "network.objective_value",
    ):
        assert len(tracer.durations[name]) == 1, name
    # A step leaves the constraint report to its callers.
    assert tracer.durations["network.check_constraints"] == []
    assert tracer.counters["steps"] == 1
    assert tracer.counters["association_attempts"] == cfg.mu_count
    assert tracer.counters["mean_rx_power_bytes"] > 0


def test_dqn_spans_record_a_training_run(tracer_module):
    tracer = tracer_module.Tracer()
    # The tracer keeps one span stack, so every span must open on the main thread.
    callers = set()
    wrap = tracer.wrap

    def wrap_recording_thread(name, fn, observe=None):
        def on_thread(*args, **kwargs):
            callers.add((name, threading.current_thread()))
            return fn(*args, **kwargs)

        return wrap(name, on_thread, observe)

    tracer.wrap = wrap_recording_thread
    tracer_module.install(tracer)
    cfg = harness.ExperimentConfig(
        k_gbs=1, off_ids=(), mu_count=5, horizon=3, warmup=8, batch_size=4, hidden_sizes=(8,),
        iterations=12,
    )
    harness.train_agent(cfg)
    train_steps = cfg.iterations - cfg.warmup + 1
    assert len(tracer.durations["harness.generate_scenario"]) == 1
    assert len(tracer.durations["dqn.train"]) == 1
    assert len(tracer.durations["dqn.train_step"]) == train_steps
    assert len(tracer.durations["dqn.adam_update"]) == train_steps
    # One forward pass per greedy action, plus target and online per train step.
    assert len(tracer.durations["dqn.select_action"]) == cfg.iterations
    forwards = len(tracer.durations["dqn.forward"])
    assert len(tracer.durations["dqn.forward_batch"]) == forwards + 2 * train_steps
    assert tracer.counters["train_step_macs"] > 0
    assert {name for name, _ in callers} >= {"dqn.train_step", "dqn.adam_update"}
    assert {thread for _, thread in callers} == {threading.main_thread()}
