import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nessim.env import (
    EnvAction,
    EnvState,
    NesEnv,
    Scenario,
    action_space_size,
    decode_action,
    encode_features,
)
from nessim.harness import ExperimentConfig, generate_scenario
from nessim.network import MU_HEIGHT_M, TILT_MAX_DEG, ConstraintConfig, Gbs
from nessim.radio import AntennaParams, ChannelParams, Position, dbm_to_watts, distance_3d


def make_scenario(**kw):
    defaults = dict(
        gbss=[Gbs(0, Position(0, 0), 10.0, True)],
        mu_count=6,
        constraints=ConstraintConfig(pi_thresh=2, pi_k_max=12, p_min_dbm=0.0, p_max_dbm=45.0,
                                     d_min=20.0, d_max=150.0, rate_min=0.5, rate_max=2.0),
        channel=ChannelParams(sigma2=dbm_to_watts(-104.0)),
        antenna=AntennaParams(),
        horizon=20,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def reference_drop(scn, rng):
    """A user drop as scalar libm math, one user at a time: the same four
    draws as `NesEnv._sample_geometry`, then Python's `**`, `math.sqrt`,
    `math.cos` and `math.sin` per user. Returns (xs, ys, rate thresholds)."""
    cfg = scn.constraints
    anchors = rng.integers(0, len(scn.gbss), scn.mu_count)
    radii3 = np.sqrt(rng.uniform(cfg.d_min**2, cfg.d_max**2, scn.mu_count))
    angles = rng.uniform(0.0, 2.0 * math.pi, scn.mu_count)
    thresholds = rng.uniform(cfg.rate_min, cfg.rate_max, scn.mu_count)
    sites = [
        (g.position.x, g.position.y, (g.height - MU_HEIGHT_M) * (g.height - MU_HEIGHT_M))
        for g in scn.gbss
    ]
    xs, ys = [], []
    for k, r3, angle in zip(anchors.tolist(), radii3.tolist(), angles.tolist()):
        x, y, dz2 = sites[k]
        r2d = math.sqrt(max(r3**2 - dz2, 0.0))
        xs.append(x + r2d * math.cos(angle))
        ys.append(y + r2d * math.sin(angle))
    return np.array(xs), np.array(ys), thresholds


IDENTITY_DIGIT = 4  # (0 tilt, 0 dB) per sector


class TestActionCoding:
    def test_identity_action(self):
        assert decode_action(EnvAction(4), 1).tolist() == [[0.0, 0.0]]

    def test_first_action(self):
        assert decode_action(EnvAction(0), 1).tolist() == [[-1.0, -5.0]]

    def test_last_action_two_sectors(self):
        assert decode_action(EnvAction(80), 2).tolist() == [[1.0, 5.0], [1.0, 5.0]]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            decode_action(EnvAction(9), 1)
        with pytest.raises(IndexError):
            decode_action(EnvAction(-1), 1)

    @given(st.integers(1, 4), st.data())
    def test_roundtrip(self, s_count, data):
        # Each sector's base-9 digit is read back from its (tilt, power) delta,
        # so decode_action is injective.
        idx = data.draw(st.integers(0, action_space_size(s_count) - 1))
        deltas = decode_action(EnvAction(idx), s_count).tolist()
        digits = [int((dt + 1) * 3 + (dp / 5.0 + 1)) for dt, dp in deltas]
        assert sum(d * 9**i for i, d in enumerate(digits)) == idx

    def test_exhaustive_bijection_s2(self):
        # Injective on all 81 actions of two sectors, each delta in the grid.
        decoded = {tuple(map(tuple, decode_action(EnvAction(i), 2).tolist())) for i in range(81)}
        assert len(decoded) == 81
        grid = {(dt, dp) for dt in (-1.0, 0.0, 1.0) for dp in (-5.0, 0.0, 5.0)}
        assert all(set(deltas) <= grid for deltas in decoded)


class TestReset:
    def test_deterministic(self):
        scn = make_scenario()
        e1, e2 = NesEnv(scn, np.random.default_rng(3)), NesEnv(scn, np.random.default_rng(3))
        e1.reset(), e2.reset()
        for name in ("mu_x", "mu_y", "rate_thresholds"):
            assert np.array_equal(getattr(e1.geom, name), getattr(e2.geom, name))

    def test_initial_state_midpoints(self):
        env = NesEnv(make_scenario(), np.random.default_rng(0))
        state = env.reset()
        assert np.allclose(state.rows[:, 0], 7.0)
        assert np.allclose(state.rows[:, 1], 22.5)

    def test_degenerate_annulus(self):
        scn = make_scenario(
            constraints=ConstraintConfig(pi_thresh=2, pi_k_max=12, d_min=99.999999, d_max=100.0,
                                         rate_min=0.5, rate_max=2.0),
        )
        env = NesEnv(scn, np.random.default_rng(0))
        env.reset()
        assert env.geom.n_mu == scn.mu_count
        for x, y in zip(env.geom.mu_x.tolist(), env.geom.mu_y.tolist()):
            d = distance_3d(scn.gbss[0].position, 10.0, Position(x, y), MU_HEIGHT_M)
            assert d == pytest.approx(100.0, abs=1e-4)

    def test_empty_network(self):
        scn = make_scenario(mu_count=0)
        env = NesEnv(scn, np.random.default_rng(0))
        env.reset()
        result = env.step(EnvAction(4**0 * 4 + 4 * 9 + 4 * 81))  # identity on 3 sectors
        assert result.served_count == 0
        assert result.reward == 0.0


class TestArrayDrop:
    # The drop is array code, yet every user must land where the scalar
    # reference puts it, bit for bit. On a numpy build whose float64 cos, sin
    # or pow is not libm's, this fails instead of letting users move silently
    # (and with them every reward, training.csv and checkpoint).
    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(k_gbs=2, off_ids=(1,), mu_count=2000),  # users around the off GBS too
        ExperimentConfig(k_gbs=4, off_ids=(1, 2), mu_count=2000),
        # Below the 8.5 m height gap the ground radius clamps to 0: users on the mast.
        ExperimentConfig(k_gbs=2, off_ids=(1,), mu_count=2000, d_min=2.0, d_max=30.0),
    ], ids=["conv", "four-two-off", "clamped"])
    def test_matches_scalar_reference(self, cfg):
        scn = generate_scenario(cfg, np.random.default_rng(0))
        sites = {(g.position.x, g.position.y) for g in scn.gbss}
        on_mast = 0
        for seed in (0, 1, 2):
            env, ref_rng = NesEnv(scn, np.random.default_rng(seed)), np.random.default_rng(seed)
            for _ in range(2):
                env.reset()
                for got, want in zip(("mu_x", "mu_y", "rate_thresholds"),
                                     reference_drop(scn, ref_rng)):
                    assert getattr(env.geom, got).tobytes() == want.tobytes(), got
                on_mast += sum(p in sites for p in zip(env.geom.mu_x.tolist(),
                                                       env.geom.mu_y.tolist()))
        assert (on_mast > 0) == (cfg.d_min < scn.gbss[0].height - MU_HEIGHT_M)


class TestStep:
    def identity_action(self, s_count=3):
        idx = sum(IDENTITY_DIGIT * 9**i for i in range(s_count))
        return EnvAction(idx)

    def test_identity_is_fixed_point(self):
        env = NesEnv(make_scenario(), np.random.default_rng(1))
        state = env.reset()
        result = env.step(self.identity_action())
        assert np.array_equal(result.next_state.rows, state.rows)

    def test_tilt_clamped_at_upper_bound(self):
        env = NesEnv(make_scenario(), np.random.default_rng(1))
        env.reset()
        up = EnvAction(action_space_size(3) - 1)
        for _ in range(12):
            result = env.step(up)
        assert np.all(result.next_state.rows[:, 0] == TILT_MAX_DEG)
        assert np.all(result.next_state.rows[:, 1] == 45.0)

    def test_bounds_never_left(self):
        env = NesEnv(make_scenario(), np.random.default_rng(2))
        env.reset()
        rng = np.random.default_rng(9)
        for _ in range(60):
            result = env.step(EnvAction(int(rng.integers(729))))
            rows = result.next_state.rows
            assert np.all((rows[:, 0] >= 0.0) & (rows[:, 0] <= 14.0))
            assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 45.0))
            if result.done:
                env.reset()

    def test_reward_gated_by_threshold(self):
        scn = make_scenario(
            constraints=ConstraintConfig(pi_thresh=9999, pi_k_max=12, d_min=20.0, d_max=150.0,
                                         rate_min=0.5, rate_max=2.0),
        )
        env = NesEnv(scn, np.random.default_rng(0))
        env.reset()
        result = env.step(self.identity_action())
        assert result.reward == 0.0
        assert result.objective >= 0.0

    def test_positive_reward_implies_served_links(self):
        env = NesEnv(make_scenario(), np.random.default_rng(4))
        env.reset()
        up = EnvAction(action_space_size(3) - 1)
        for _ in range(8):
            result = env.step(up)
        if result.reward > 0:
            assert result.served_count >= env.scn.constraints.pi_thresh
            for mu_id, served in result.assignment.pi_ind.items():
                if served:
                    assert result.assignment.vartheta[mu_id]
                    assert result.assignment.gamma_ind[mu_id]

    def test_done_after_horizon(self):
        env = NesEnv(make_scenario(horizon=5), np.random.default_rng(0))
        env.reset()
        for i in range(5):
            result = env.step(self.identity_action())
        assert result.done

    def test_trajectory_determinism(self):
        scn = make_scenario()
        actions = np.random.default_rng(11).integers(0, 729, 40)

        def run():
            env = NesEnv(scn, np.random.default_rng(7))
            env.reset()
            rewards = []
            for a in actions:
                r = env.step(EnvAction(int(a)))
                rewards.append(r.reward)
                if r.done:
                    env.reset()
            return rewards

        assert run() == run()

    def test_evaluate_action_pure(self):
        env = NesEnv(make_scenario(), np.random.default_rng(0))
        env.reset()
        before = env.state.rows.copy()
        r1 = env.evaluate_action(EnvAction(0))
        r2 = env.evaluate_action(EnvAction(0))
        assert r1 == r2
        assert np.array_equal(env.state.rows, before)
        assert env.t == 0


class TestSharedScenario:
    def test_envs_on_one_scenario_do_not_interact(self):
        scn = make_scenario()
        gbss_before = copy.deepcopy(scn.gbss)
        actions = [int(a) for a in np.random.default_rng(5).integers(0, 729, 12)]

        solo = NesEnv(scn, np.random.default_rng(3))
        solo.reset()
        solo_rewards = [solo.step(EnvAction(a)).reward for a in actions]

        first, second = NesEnv(scn, np.random.default_rng(3)), NesEnv(scn, np.random.default_rng(4))
        first.reset(), second.reset()
        rewards = []
        for a in actions:
            rewards.append(first.step(EnvAction(a)).reward)
            second.step(EnvAction(728 - a))
        assert rewards == solo_rewards
        assert scn.gbss == gbss_before


class TestFeatures:
    def test_corner_values(self):
        scn = make_scenario()
        lo = EnvState(np.tile([0.0, 0.0], (3, 1)))
        hi = EnvState(np.tile([14.0, 45.0], (3, 1)))
        mid = EnvState(np.tile([7.0, 22.5], (3, 1)))
        assert np.allclose(encode_features(lo, scn), 0.0)
        assert np.allclose(encode_features(hi, scn), 1.0)
        assert np.allclose(encode_features(mid, scn), 0.5)

    def test_row_major_layout(self):
        scn = make_scenario()
        state = EnvState(np.array([[14.0, 0.0], [0.0, 45.0], [7.0, 22.5]]))
        f = encode_features(state, scn)
        assert np.allclose(f, [1.0, 0.0, 0.0, 1.0, 0.5, 0.5])
