import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nessim import dqn, harness
from nessim.env import EnvAction, NesEnv, encode_features
from nessim.harness import (
    ConfigError,
    ExperimentConfig,
    SweepSpec,
    distance_band,
    evaluate_policies,
    evaluate_policy,
    generate_scenario,
    load_config,
    make_greedy_policy,
    make_max_policy,
    make_random_policy,
    run_sweep,
    train_agent,
    write_sweep_csv,
    write_training_csv,
    write_training_svg,
)
from nessim.dqn import MetricsLog, MetricsRow
from nessim.network import ConstraintConfig
from nessim.radio import AntennaParams, ChannelParams


# A wrong type, or a value too large for a float or for memory, in one field:
# each message starts with that field's name.
NAMED_CONFIGS = (
    {"alpha": "x"},
    {"k_gbs": "2"},
    {"hidden_sizes": "ab"},
    {"resample_on_reset": "false"},  # a truthy string: it must not turn resampling on
    {"svg": "no"},
    {"pathloss_mode": 3},
    {"alpha": 10**400},  # an integer no float can hold
    {"hidden_sizes": [10**400]},  # a DQN estimate no float can hold
    {"mu_count": 10**12},  # refused before any user is drawn
    {"mu_grid": [10**12]},
    {"sigma2_dbm": 1e308},  # finite in dBm, infinite in watts
    {"rx_gain_dbi": 1e308},
    {"sigma2_dbm": -1e308},  # zero in watts
    {"d_max": 1e200},  # a user drop squares it
    {"d_min": -1e200},
)

# Configs that break one rule each; the CLI exits 2 on every one. The last one
# is refused by the memory estimate.
BAD_CONFIGS = (
    {"k_gbs": 2, "off_ids": [0, 1]},
    {"learning_rate": 0},
    {"target_sync_period": 0},
    {"buffer_capacity": 0},
    {"buffer_capacity": 499, "warmup": 500},
    {"hidden_sizes": [0]},
    {"pi_k_max": 0},
    {"pi_thresh": -1},
    {"distance_grid": [50, 10]},
    {"mu_grid": [-3]},
    {"mu_grid": 5},
    {"rician_k": 3.0, "iterations": 0},  # not a field: the rate is the K = 0 form
    {"elev_peak_dbi": 3.0, "iterations": 0},  # not a field: g_max_dbi is the one peak
    {"seed": -2},
    {"iterations": 2.5},
    {"mu_count": 2.5},
    {"hidden_sizes": [8.5]},
    {"mu_grid": [2.5]},
    {"pi_thresh": 2.5},
    {"iterations": True},
    {"seed": None},
    {"horizon": 0},
    {"eval_episodes": -1},
    {"alpha": float("nan")},  # json.dumps writes the NaN literal, which json.load reads
    {"d_min": float("nan")},
    {"distance_grid": [float("nan")]},
    {"inter_site_m": float("inf")},  # json.dumps writes Infinity, which json.load reads
    {"d_max": float("inf")},
    {"rate_max": float("inf")},
    {"p_max_dbm": float("inf")},
    {"g_max_dbi": float("inf")},
    {"rx_gain_dbi": float("inf")},
    {"distance_grid": [float("inf")]},
    {"rsrp_threshold_dbm": float("inf")},
    *NAMED_CONFIGS,
    {"k_gbs": 2, "off_ids": [], "hidden_sizes": [4096, 4096]},  # > 100 GiB of DQN
)


def tiny_cfg(**kw):
    defaults = dict(k_gbs=1, off_ids=(), mu_count=5, horizon=10, pi_thresh=1,
                    iterations=60, eval_episodes=2, warmup=16, batch_size=8,
                    eps_decay_steps=40)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestGenerateScenario:
    def test_single_gbs_at_origin(self):
        scn = generate_scenario(tiny_cfg(), np.random.default_rng(0))
        assert len(scn.gbss) == 1
        assert (scn.gbss[0].position.x, scn.gbss[0].position.y) == (0.0, 0.0)
        assert scn.gbss[0].active

    def test_all_off_rejected(self):
        with pytest.raises(ConfigError):
            generate_scenario(tiny_cfg(k_gbs=2, off_ids=(0, 1)), np.random.default_rng(0))

    def test_bad_off_id_rejected(self):
        with pytest.raises(ConfigError):
            generate_scenario(tiny_cfg(k_gbs=2, off_ids=(5,)), np.random.default_rng(0))

    def test_same_seed_identical(self):
        cfg = tiny_cfg(k_gbs=2, off_ids=(1,))
        s1 = generate_scenario(cfg, np.random.default_rng(3))
        s2 = generate_scenario(cfg, np.random.default_rng(3))
        assert [(g.position.x, g.position.y, g.active) for g in s1.gbss] == [
            (g.position.x, g.position.y, g.active) for g in s2.gbss]
        assert s1.constraints == s2.constraints

    def test_default_thresholds(self):
        scn = generate_scenario(tiny_cfg(mu_count=15, pi_thresh=None), np.random.default_rng(0))
        assert scn.constraints.pi_thresh == 8
        assert scn.constraints.pi_k_max == 30

    def test_stations_immutable(self):
        # Envs that share a scenario share its stations, so none may change.
        scn = generate_scenario(tiny_cfg(k_gbs=2, off_ids=(1,)), np.random.default_rng(0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.gbss[0].active = False
        with pytest.raises(TypeError):
            scn.gbss[0] = scn.gbss[1]

    def test_lattice_spacing(self):
        scn = generate_scenario(tiny_cfg(k_gbs=2, off_ids=(1,), inter_site_m=500.0),
                                np.random.default_rng(0))
        p0, p1 = scn.gbss[0].position, scn.gbss[1].position
        assert np.hypot(p0.x - p1.x, p0.y - p1.y) == pytest.approx(500.0)


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.iterations == 20000
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 32
        assert cfg.buffer_capacity == 20000

    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"mu_count": 42, "off_ids": [0], "k_gbs": 2}))
        cfg = load_config(str(p))
        assert cfg.mu_count == 42
        assert cfg.off_ids == (0,)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"not_a_field": 1}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_overrides_win(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"seed": 1}))
        assert load_config(str(p), seed=9).seed == 9

    def test_unreadable_file(self, tmp_path):
        # A JSON integer past Python's 4300-digit limit, bytes that are not
        # UTF-8, and arrays nested past the parser's recursion limit.
        p = tmp_path / "config.json"
        for data in (b'{"seed": 1' + b"0" * 5000 + b"}", b'{"seed": "\xff\xfe"}',
                     b"[" * 100_000 + b"]" * 100_000):
            p.write_bytes(data)
            with pytest.raises(ConfigError, match="cannot read config"):
                load_config(str(p))

    def test_bad_configs_fail_at_load(self, tmp_path):
        p = tmp_path / "config.json"
        for values in BAD_CONFIGS:
            p.write_text(json.dumps(values))
            with pytest.raises(ConfigError):
                load_config(str(p))


class TestExperimentConfig:
    def test_builders_match_part_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.agent() == dqn.AgentConfig()
        assert cfg.channel() == ChannelParams()
        assert cfg.antenna() == AntennaParams()
        derived = {"pi_thresh", "pi_k_max"}
        built = cfg.constraints()
        for f in dataclasses.fields(ConstraintConfig):
            if f.name not in derived:
                assert getattr(built, f.name) == f.default, f.name

    def test_annotations_are_the_schema(self):
        # The type pass knows every annotation, and each part field is the
        # same-named config field or one that its builder derives.
        config = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
        assert set(config.values()) <= harness._SCALARS.keys() | harness._TUPLES.keys()
        derived = {"sigma2", "rx_gain", "pi_thresh", "pi_k_max"}
        for part in (dqn.AgentConfig, AntennaParams, ChannelParams, ConstraintConfig):
            for f in dataclasses.fields(part):
                assert f.name in derived or config.get(f.name) == f.type, (part.__name__, f.name)

    def test_messages_name_the_field(self):
        for values in NAMED_CONFIGS:
            with pytest.raises(ConfigError) as info:
                ExperimentConfig(**values)
            (name,) = values
            assert str(info.value).startswith(name), info.value

    def test_huge_k_gbs_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="controllable sectors exceed"):
                ExperimentConfig(k_gbs=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_accepted_values(self):
        # Float fields take integers, integer fields numpy integers, and a
        # run may have no iterations or evaluation episodes; lists become tuples.
        cfg = ExperimentConfig(alpha=3, d_max=150, seed=np.int64(4), iterations=0, eval_episodes=0,
                               horizon=1, off_ids=[1], hidden_sizes=[8], mu_grid=[4],
                               distance_grid=[60.0])
        assert (cfg.off_ids, cfg.hidden_sizes, cfg.mu_grid, cfg.distance_grid) == (
            (1,), (8,), (4,), (60.0,))

    def test_no_rsrp_gate_constructs(self):
        # -Infinity dBm is the one infinite value a config takes: every MU passes the RSRP gate.
        cfg = ExperimentConfig(rsrp_threshold_dbm=float("-inf"))
        assert cfg.rsrp_threshold_dbm == float("-inf")

    def test_replace_checks_again(self):
        cfg = tiny_cfg()
        with pytest.raises(ConfigError, match="d_min"):
            dataclasses.replace(cfg, d_min=200.0, d_max=100.0)
        with pytest.raises(ConfigError, match="controllable sectors"):
            dataclasses.replace(cfg, k_gbs=3)


class TestEvaluatePolicy:
    def test_deterministic_given_seed(self):
        scn = generate_scenario(tiny_cfg(), np.random.default_rng(0))
        s1 = evaluate_policy(make_max_policy(), scn, 2, np.random.default_rng(5))
        s2 = evaluate_policy(make_max_policy(), scn, 2, np.random.default_rng(5))
        assert s1.mean_reward == s2.mean_reward
        assert s1.served_fraction == s2.served_fraction

    def test_out_of_coverage_zero(self):
        cfg = tiny_cfg(d_min=5000.0, d_max=6000.0, rsrp_threshold_dbm=-30.0)
        scn = generate_scenario(cfg, np.random.default_rng(0))
        for policy in (make_max_policy(), make_random_policy()):
            s = evaluate_policy(policy, scn, 1, np.random.default_rng(0))
            assert s.mean_reward == 0.0

    @pytest.mark.parametrize("horizon", [3, 10, 25])
    def test_window_matches_every_step_reference(self, horizon):
        # The reference keeps every step and averages each episode's last
        # EVAL_WINDOW of them.
        scn = generate_scenario(tiny_cfg(horizon=horizon), np.random.default_rng(0))
        policy, rng = make_random_policy(), np.random.default_rng(9)
        env, rewards, served = NesEnv(scn, rng), [], []
        for _ in range(3):
            env.reset()
            steps = [env.step(policy(encode_features(env.state, scn), scn.sector_count, rng))
                     for _ in range(horizon)]
            rewards += [r.reward for r in steps[-harness.EVAL_WINDOW:]]
            served += [r.served_count for r in steps[-harness.EVAL_WINDOW:]]
        s = evaluate_policy(make_random_policy(), scn, 3, np.random.default_rng(9))
        mean_reward = float(np.mean(rewards))
        assert (s.mean_reward, s.reward_per_mu, s.served_fraction) == (
            mean_reward, mean_reward / scn.mu_count, float(np.mean(served)) / scn.mu_count)

    def test_reward_per_mu(self):
        scn = generate_scenario(tiny_cfg(), np.random.default_rng(0))
        s = evaluate_policy(make_max_policy(), scn, 1, np.random.default_rng(0))
        assert s.reward_per_mu == pytest.approx(s.mean_reward / scn.mu_count)


class TestEvaluatePolicies:
    def test_roster_and_numbers(self):
        cfg = tiny_cfg(seed=4)
        scn, net, _ = train_agent(cfg)
        makers = {"dqn": lambda: make_greedy_policy(net),
                  "random": make_random_policy, "max": make_max_policy}
        for given, names in ((None, ["random", "max"]), (net, ["dqn", "random", "max"])):
            summaries = evaluate_policies(scn, given, cfg)
            assert [s.policy for s in summaries] == names
            for s in summaries:
                ref = evaluate_policy(makers[s.policy](), scn, cfg.eval_episodes,
                                      np.random.default_rng(cfg.seed + 1))
                assert (s.mean_reward, s.reward_per_mu, s.served_fraction) == (
                    ref.mean_reward, ref.reward_per_mu, ref.served_fraction)


class TestBruteForceOracle:
    def test_greedy_bounded_by_exhaustive(self):
        cfg = tiny_cfg(mu_count=3, horizon=1, resample_on_reset=False, iterations=300)
        scn, net, _ = train_agent(cfg)

        env = NesEnv(scn, np.random.default_rng(0))
        env.reset()
        _, best = harness.brute_force_best(env)
        greedy = int(np.argmax(dqn.forward(net, encode_features(env.state, scn))))
        assert env.evaluate_action(EnvAction(greedy)) <= best + 1e-12


class TestSweep:
    def test_row_cardinality(self):
        cfg = tiny_cfg(iterations=40, eval_episodes=1, mu_count=5)
        spec = SweepSpec("mu_count", (4.0, 6.0))
        rows = run_sweep(spec, cfg, np.random.default_rng(0))
        assert len(rows) == 6
        assert {(r.value, r.policy) for r in rows} == {
            (v, p) for v in (4.0, 6.0) for p in ("dqn", "random", "max")}

    def test_distance_band_convention(self):
        assert distance_band(100.0) == (50.0, 100.0)
        assert distance_band(50.0) == (20.0, 50.0)
        assert distance_band(400.0) == (350.0, 400.0)

    def test_rewards_nonnegative(self):
        cfg = tiny_cfg(iterations=40, eval_episodes=1)
        rows = run_sweep(SweepSpec("distance_band", (100.0,)), cfg, np.random.default_rng(0))
        assert all(r.mean_reward >= 0.0 for r in rows)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SweepSpec("bogus", (1.0,))
        with pytest.raises(ConfigError):
            SweepSpec("mu_count", ())


class TestOutputs:
    def test_empty_log_header_only(self, tmp_path):
        p = tmp_path / "training.csv"
        write_training_csv(MetricsLog(), p)
        assert p.read_text() == "iteration,reward,avg_reward,loss,epsilon,served\n"

    def test_byte_deterministic(self, tmp_path):
        log = MetricsLog()
        log.rows.append(MetricsRow(0, 1.23456789012, 1.0, 0.5, 1.0, 3))
        log.rows.append(MetricsRow(1, float("nan"), 2.0, float("nan"), 0.9, 4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_training_csv(log, p1)
        write_training_csv(log, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_nine_significant_digits(self, tmp_path):
        log = MetricsLog()
        log.rows.append(MetricsRow(0, 1.234567891234, 0.0, 0.0, 1.0, 0))
        p = tmp_path / "t.csv"
        write_training_csv(log, p)
        assert "1.23456789," in p.read_text()

    def test_sweep_csv_schema(self, tmp_path):
        rows = [harness.SweepRow("mu_count", 20.0, "dqn", 1.5, 0.075, 0.5)]
        p = tmp_path / "sweep.csv"
        write_sweep_csv(rows, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "sweep,value,policy,mean_reward,reward_per_mu,served_fraction"
        assert lines[1].startswith("mu_count,20,dqn,1.5,")

    def test_rows_byte_for_byte(self, tmp_path):
        # One row of each table: ints, strs, floats to 9 significant digits,
        # nan and inf.
        log = MetricsLog([MetricsRow(7, 0.1 + 0.2, float("inf"), float("nan"), 1.0, 12)])
        write_training_csv(log, tmp_path / "training.csv")
        assert (tmp_path / "training.csv").read_bytes() == (
            b"iteration,reward,avg_reward,loss,epsilon,served\n7,0.3,inf,nan,1,12\n")
        summary = harness.EvalSummary("max", 123456.789012, float("-inf"), 2 / 3)
        harness.write_eval_csv([summary], tmp_path / "eval.csv")
        assert (tmp_path / "eval.csv").read_bytes() == (
            b"policy,mean_reward,reward_per_mu,served_fraction\nmax,123456.789,-inf,0.666666667\n")
        row = harness.SweepRow("distance_band", 150.0, "dqn", float("nan"), 1e-12, 0.0)
        write_sweep_csv([row], tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (
            b"sweep,value,policy,mean_reward,reward_per_mu,served_fraction\n"
            b"distance_band,150,dqn,nan,1e-12,0\n")

    def test_svg_deterministic(self, tmp_path):
        log = MetricsLog()
        for i in range(20):
            log.rows.append(MetricsRow(i, float(i), i / 2.0, 0.1, 1.0, 1))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_training_svg(log, p1)
        write_training_svg(log, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("<svg")


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "nessim.cli", *args],
            capture_output=True, text=True,
        )

    def cfg_file(self, tmp_path, **kw):
        cfg = dict(k_gbs=1, off_ids=[], mu_count=5, horizon=10, pi_thresh=1,
                   iterations=60, eval_episodes=1, warmup=16, batch_size=8,
                   eps_decay_steps=40)
        cfg.update(kw)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_train_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        r = self.run_cli("train", "--config", self.cfg_file(tmp_path),
                         "--seed", "1", "--out", str(out), "--svg")
        assert r.returncode == 0, r.stderr
        assert (out / "training.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "training.svg").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        for values in BAD_CONFIGS:
            bad.write_text(json.dumps(values))
            r = self.run_cli("train", "--config", str(bad), "--out", str(tmp_path / "out"))
            assert r.returncode == 2, (values, r.stderr)
            assert r.stderr.startswith("config error"), (values, r.stderr)
        assert "GiB" in r.stderr  # the oversized DQN's memory estimate

    def test_negative_seed_flag_exit_code(self, tmp_path):
        for command in ("train", "eval"):
            r = self.run_cli(command, "--config", self.cfg_file(tmp_path), "--seed", "-2",
                             "--out", str(tmp_path / "out"))
            assert r.returncode == 2, r.stderr
            assert r.stderr == "config error: seed: must be >= 0\n"

    def test_nan_config_exit_code(self, tmp_path):
        # A NaN passes every range check: without the NaN rule, eval would
        # exit 0 and write zero rewards for both policies.
        p = tmp_path / "nan.json"
        p.write_text(json.dumps({"alpha": float("nan"), "iterations": 0, "eval_episodes": 1,
                                 "horizon": 5}))
        r = self.run_cli("eval", "--config", str(p), "--out", str(tmp_path / "out"))
        assert r.returncode == 2, r.stderr
        assert r.stderr == "config error: alpha: must not be NaN\n"

    def test_infinite_config_exit_code(self, tmp_path):
        # An infinite power passes every range check: without the finite rule,
        # eval would exit 0 after NaN arithmetic.
        p = tmp_path / "inf.json"
        p.write_text(json.dumps({"p_max_dbm": float("inf"), "iterations": 0, "eval_episodes": 1,
                                 "horizon": 3}))
        r = self.run_cli("eval", "--config", str(p), "--out", str(tmp_path / "out"))
        assert r.returncode == 2, r.stderr
        assert r.stderr == "config error: p_max_dbm: must be finite\n"
        assert not (tmp_path / "out" / "eval.csv").exists()

    def test_unreadable_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"seed": "\xff\xfe"}')
        r = self.run_cli("eval", "--config", str(p), "--out", str(tmp_path / "out"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error: cannot read config"), r.stderr

    @pytest.mark.parametrize("values, code", [
        ({"sigma2_dbm": 1e308}, 2),
        ({"rx_gain_dbi": 1e308}, 2),
        ({"p_max_dbm": 1e308}, 3),
        ({"g_max_dbi": 1e308}, 3),
        ({"alpha": 400.0}, 3),
        ({"d_max": 1e200}, 2),  # a user drop squares d_min and d_max
        ({"d_min": 1e200, "d_max": 1e201}, 2),
        ({"inter_site_m": 1e300}, 3),  # a user's squared distance overflows
    ])
    def test_overflowing_physics_exit_code(self, tmp_path, values, code):
        # Each value is finite, but the power, gain or path loss it gives is
        # not: without the checks, eval would exit 0 and write zero rewards.
        p = tmp_path / "ovf.json"
        p.write_text(json.dumps({**values, "iterations": 0, "eval_episodes": 1, "horizon": 3}))
        r = self.run_cli("eval", "--config", str(p), "--out", str(tmp_path / "out"))
        assert r.returncode == code, r.stderr
        (line,) = r.stderr.splitlines()  # no numpy warning, no traceback
        if code == 2:
            assert line.startswith(f"config error: {next(iter(values))}: "), line
        else:
            assert line.startswith("runtime error: overflow"), line
        assert not (tmp_path / "out" / "eval.csv").exists()

    def test_overflowing_training_exit_code(self, tmp_path):
        # Both halves of Adam's update overflow: the worker thread's half must
        # raise under the caller's error state too, not print a numpy warning.
        r = self.run_cli("train", "--config", self.cfg_file(tmp_path, iterations=300, warmup=32,
                         batch_size=16, eps_decay_steps=200, learning_rate=1e50),
                         "--out", str(tmp_path / "out"))
        assert r.returncode == 3, r.stderr
        (line,) = r.stderr.splitlines()  # no numpy warning from the worker
        assert line.startswith("runtime error: overflow"), line
        assert not (tmp_path / "out").exists()

    def test_unknown_field_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"zzz": 1}))
        r = self.run_cli("train", "--config", str(bad))
        assert r.returncode == 2

    def test_unwritable_output_exit_code(self, tmp_path):
        out = tmp_path / "out"
        (out / "training.csv").mkdir(parents=True)
        r = self.run_cli("train", "--config", self.cfg_file(tmp_path), "--out", str(out))
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("runtime error"), r.stderr

    def test_eval_after_train(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.cfg_file(tmp_path)
        assert self.run_cli("train", "--config", cfg, "--out", str(out)).returncode == 0
        r = self.run_cli("eval", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "dqn:" in r.stdout
        assert (out / "eval.csv").exists()

    def test_corrupt_checkpoint_exit_code(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        net = dqn.Mlp(dqn.network_sizes(3, dqn.AgentConfig().hidden_sizes), np.random.default_rng(0))
        dqn.save_checkpoint(net, out / "checkpoint.bin")
        data = (out / "checkpoint.bin").read_bytes()
        (out / "checkpoint.bin").write_bytes(data[: len(data) // 2])
        r = self.run_cli("eval", "--config", self.cfg_file(tmp_path), "--out", str(out))
        assert r.returncode == 3, r.stderr
        assert "checkpoint" in r.stderr

    def test_sweep_distance(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.cfg_file(tmp_path, distance_grid=[100.0], iterations=40)
        r = self.run_cli("sweep-distance", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
        text = (out / "sweep.csv").read_text()
        assert text.startswith("sweep,value,policy,")
        assert "distance_band,100," in text

    def test_svg_from_config(self, tmp_path):
        # "svg": true in the file is enough; without --svg the flag sets nothing.
        out = tmp_path / "out"
        r = self.run_cli("train", "--config", self.cfg_file(tmp_path, svg=True), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "training.svg").exists()

    def test_pathloss_mode_flag(self, tmp_path):
        out = tmp_path / "out"
        r = self.run_cli("train", "--config", self.cfg_file(tmp_path),
                         "--out", str(out), "--pathloss-mode", "single")
        assert r.returncode == 0, r.stderr


class TestEndToEndDeterminism:
    def test_train_twice_byte_identical(self, tmp_path):
        cfg = tiny_cfg(iterations=80)

        def run(out_dir):
            _, net, log = train_agent(cfg)
            os.makedirs(out_dir, exist_ok=True)
            write_training_csv(log, os.path.join(out_dir, "training.csv"))
            dqn.save_checkpoint(net, os.path.join(out_dir, "checkpoint.bin"))

        run(tmp_path / "a")
        run(tmp_path / "b")
        for name in ("training.csv", "checkpoint.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
