import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nessim import dqn, harness
from nessim.dqn import (
    AdamState,
    AgentConfig,
    DimensionMismatch,
    Experience,
    InsufficientData,
    Mlp,
    ReplayBuffer,
    backprop,
    epsilon_at,
    forward,
    load_checkpoint,
    network_sizes,
    save_checkpoint,
    select_action,
    sync_target,
    td_targets,
    train,
    train_step,
)
from nessim.env import NesEnv, encode_features


def naive_forward(net, x):
    """Straightforward per-neuron re-implementation of the same arithmetic."""
    a = list(x)
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            z = b[j] + sum(a[i] * w[i, j] for i in range(w.shape[0]))
            if layer < len(net.weights) - 1:
                z = max(z, 0.0)
            out.append(z)
        a = out
    return np.array(a)


def fill_buffer(buf, n, feature_dim, rng, done_every=0):
    for i in range(n):
        done = done_every > 0 and (i + 1) % done_every == 0
        buf.push(Experience(rng.standard_normal(feature_dim), int(rng.integers(2)),
                            float(rng.uniform()), rng.standard_normal(feature_dim), done))


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = Mlp([3, 4, 2])
        assert np.allclose(forward(net, np.zeros(3)), 0.0)
        assert np.allclose(forward(net, np.ones(3)), 0.0)

    def test_linear_identity_row(self):
        net = Mlp([2, 2])
        net.weights[0][...] = np.eye(2)
        f = forward(net, np.array([3.5, 0.0]))
        assert f[0] == pytest.approx(3.5)
        assert f[1] == pytest.approx(0.0)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(0)
        net = Mlp([4, 5, 3], rng)
        for _ in range(5):
            x = rng.standard_normal(4)
            assert np.allclose(forward(net, x), naive_forward(net, x), atol=1e-12)

    def test_bit_exact_layers_and_input_untouched(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 6, 5, 3], rng)
        buf = ReplayBuffer(20, 4)
        fill_buffer(buf, 20, 4, rng)
        before = buf.states.copy()
        x = buf.states[2:10]  # a view: writing to x would write to the buffer
        q, acts = net.forward_batch(x, keep_cache=True)
        assert acts[0] is x
        assert np.array_equal(buf.states, before)
        a = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            a = a @ w + b
            if i < len(net.weights) - 1:
                a = np.maximum(a, 0.0)
            assert np.array_equal(acts[i + 1], a), i
        assert acts[-1] is q

    def test_dimension_mismatch(self):
        net = Mlp([3, 2])
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros(4))


def q_net(q):
    """A one-layer net that outputs exactly `q` for the input [0]: zero
    weights, and `q` as its biases."""
    net = Mlp([1, len(q)])
    net.biases[0][...] = q
    return net


def act(q, epsilon, rng):
    return select_action(q_net(q), np.zeros(1), epsilon, rng)


class TestSelectAction:
    def test_pure_greedy(self):
        assert act(np.array([1.0, 3.0, 2.0]), 0.0, np.random.default_rng(0)) == 1

    def test_tie_break_lowest(self):
        assert act(np.array([5.0, 5.0]), 0.0, np.random.default_rng(0)) == 0

    def test_full_exploration_uniform(self):
        rng = np.random.default_rng(1)
        net = q_net(np.array([0.0, 1.0, 2.0, 3.0]))
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            counts[select_action(net, np.zeros(1), 1.0, rng)] += 1
        assert np.all(np.abs(counts / n - 0.25) < 0.02 * 0.25 + 0.005)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(9)
        a = act(q, 0.0, np.random.default_rng(0))
        b = act(q + 100.0, 0.0, np.random.default_rng(0))
        assert a == b

    def test_exploring_runs_no_q_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dqn, "forward", lambda *args: calls.append(args))
        net = q_net(np.zeros(7))
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        actions = [select_action(net, np.zeros(1), 1.0, rng) for _ in range(200)]
        expected = []
        for _ in range(200):
            twin.random()
            expected.append(int(twin.integers(7)))
        assert calls == []
        assert actions == expected


class TestTdTargets:
    def test_terminal(self):
        net = Mlp([2, 3])
        targets = td_targets(net, np.array([2.0]), np.zeros((1, 2)), np.array([True]), 0.9)
        assert targets[0] == pytest.approx(2.0)

    def test_myopic(self):
        rng = np.random.default_rng(0)
        net = Mlp([2, 3], rng)
        next_states = rng.standard_normal((1, 2))
        # zeta must be in (0, 1]; a vanishing discount approaches the reward.
        targets = td_targets(net, np.array([1.5]), next_states, np.array([False]), 1e-12)
        assert targets[0] == pytest.approx(1.5, abs=1e-6)

    def test_bootstrap(self):
        net = Mlp([2, 2])
        net.biases[0][...] = [2.0, 0.5]
        targets = td_targets(net, np.array([1.0]), np.zeros((1, 2)), np.array([False]), 0.9)
        assert targets[0] == pytest.approx(1.0 + 0.9 * 2.0)


def fifo_rewards(buf):
    """Stored rewards read from the ring arrays, oldest first."""
    start = buf.idx - buf.size
    return [float(buf.rewards[(start + i) % buf.capacity]) for i in range(buf.size)]


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(5, 1)
        for i in range(8):
            buf.push(Experience(np.array([float(i)]), 0, float(i), np.array([0.0]), False))
        assert buf.size == 5
        assert fifo_rewards(buf) == [3.0, 4.0, 5.0, 6.0, 7.0]
        assert buf.states[:, 0].tolist() == [5.0, 6.0, 7.0, 3.0, 4.0]

    def test_partial_fill_order(self):
        buf = ReplayBuffer(10, 1)
        for i in range(3):
            buf.push(Experience(np.array([0.0]), 0, float(i), np.array([0.0]), False))
        assert fifo_rewards(buf) == [0.0, 1.0, 2.0]


class TestEpsilonSchedule:
    def test_endpoints_and_monotone(self):
        cfg = AgentConfig(eps_start=1.0, eps_end=0.05, eps_decay_steps=100)
        values = [epsilon_at(cfg, t) for t in range(150)]
        assert values[0] == 1.0
        assert values[100] == 0.05
        assert values[149] == 0.05
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestTrainStep:
    def make_setup(self, sizes=(3, 8, 4), n=200, seed=0):
        rng = np.random.default_rng(seed)
        net = Mlp(list(sizes), rng)
        target = net.copy()
        buf = ReplayBuffer(1000, sizes[0])
        fill_buffer(buf, n, sizes[0], rng, done_every=7)
        cfg = AgentConfig(batch_size=16, warmup=32, eps_decay_steps=10)
        return net, target, buf, cfg, rng

    def test_insufficient_data(self):
        net, target, _, cfg, rng = self.make_setup()
        empty = ReplayBuffer(100, 3)
        with pytest.raises(InsufficientData):
            train_step(net, target, empty, cfg, rng, AdamState(net))

    def test_fixed_point_zero_loss(self):
        rng = np.random.default_rng(3)
        net = Mlp([2, 4, 2], rng)
        target = net.copy()
        buf = ReplayBuffer(100, 2)
        # Terminal transitions whose reward equals the current Q(s, a).
        for _ in range(64):
            s = rng.standard_normal(2)
            a = int(rng.integers(2))
            r = float(forward(net, s)[a])
            buf.push(Experience(s, a, r, np.zeros(2), True))
        cfg = AgentConfig(batch_size=16, warmup=16)
        w_before = [w.copy() for w in net.weights]
        loss = train_step(net, target, buf, cfg, rng, AdamState(net))
        assert loss == pytest.approx(0.0, abs=1e-20)
        for w0, w1 in zip(w_before, net.weights):
            assert np.allclose(w0, w1, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            net = Mlp([2, 3, 2], np.random.default_rng(trial))
            buf = ReplayBuffer(64, 2)
            fill_buffer(buf, 40, 2, rng, done_every=5)
            cfg = AgentConfig(batch_size=8, warmup=8)
            target = net.copy()
            idx = np.random.default_rng(trial + 100).integers(0, buf.size, cfg.batch_size)

            def loss_at(params_net):
                q = params_net.forward_batch(buf.states[idx])
                taken = q[np.arange(len(idx)), buf.actions[idx]]
                q_next = target.forward_batch(buf.next_states[idx]).max(axis=1)
                t = buf.rewards[idx] + cfg.zeta * (~buf.dones[idx]) * q_next
                return float(np.mean((taken - t) ** 2))

            # Analytic gradients via the same path train_step uses.
            q, _ = net.forward_batch(buf.states[idx], keep_cache=True)
            taken = q[np.arange(len(idx)), buf.actions[idx]]
            q_next = target.forward_batch(buf.next_states[idx]).max(axis=1)
            t = buf.rewards[idx] + cfg.zeta * (~buf.dones[idx]) * q_next
            d_out = np.zeros_like(q)
            d_out[np.arange(len(idx)), buf.actions[idx]] = 2.0 * (taken - t) / len(idx)
            grads = backprop(net, buf.states[idx], d_out)

            h = 1e-5
            params = net.weights + net.biases
            for p, g in zip(params, grads):
                flat_p, flat_g = p.reshape(-1), g.reshape(-1)
                for j in range(0, flat_p.size, max(1, flat_p.size // 4)):
                    orig = flat_p[j]
                    flat_p[j] = orig + h
                    up = loss_at(net)
                    flat_p[j] = orig - h
                    down = loss_at(net)
                    flat_p[j] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(flat_g[j]), 1e-8)
                    assert abs(fd - flat_g[j]) / denom < 1e-4

    def test_single_transition_regression_converges(self):
        rng = np.random.default_rng(5)
        net = Mlp([2, 8, 3], rng)
        target = net.copy()
        buf = ReplayBuffer(10, 2)
        buf.push(Experience(np.array([0.3, -0.7]), 1, 2.0, np.zeros(2), True))
        cfg = AgentConfig(batch_size=1, warmup=1)
        adam = AdamState(net)
        losses = []
        for _ in range(2000):
            losses.append(train_step(net, target, buf, cfg, rng, adam))
        assert losses[-1] < 1e-6
        assert losses[-1] < losses[0]


def taken_action_batches(n_out, rng):
    """Named action batches: repeats, one action for all 32 rows, the last
    output column taken more than once, and a batch of one."""
    last_twice = rng.integers(0, n_out, 32)
    last_twice[[3, 17, 30]] = n_out - 1
    return {
        "repeated": rng.integers(0, min(n_out, 5), 32),
        "all_equal": np.full(32, rng.integers(n_out)),
        "last_column_repeated": last_twice,
        "batch_of_one": rng.integers(0, n_out, 1),
    }


class TestTakenActionBackward:
    """`backward(acts, d_out, taken)` writes the bytes of the dense
    `backward(acts, d_out)` when each row of `d_out` is zero outside its taken
    column. This holds on any BLAS: each entry of the dense head delta
    `d_out @ W.T` is one product plus exact zeros, and adding an exact zero
    leaves a sum unchanged in any summation order. The one exception is the
    sign of a zero product, so a row whose error is exactly 0 is compared by
    value."""

    @pytest.mark.parametrize("sizes", [[6, 128, 128, 729], [3, 5, 4, 7]])
    @pytest.mark.parametrize("zero_error", [False, True])
    def test_grad_matches_dense(self, sizes, zero_error):
        rng = np.random.default_rng(sum(sizes) + zero_error)
        net = Mlp(sizes)
        net.params[:] = rng.standard_normal(net.params.size) / np.sqrt(max(sizes[:-1]))
        for name, taken in taken_action_batches(sizes[-1], rng).items():
            x = rng.standard_normal((len(taken), sizes[0]))
            q, acts = net.forward_batch(x, keep_cache=True)
            err = rng.standard_normal(len(taken))
            if zero_error:
                err[0] = 0.0
            d_out = np.zeros_like(q)
            d_out[np.arange(len(taken)), taken] = 2.0 * err / len(taken)
            dense = net.backward(acts, d_out).copy()
            sparse = net.backward(acts, d_out, taken)
            if zero_error:
                assert np.array_equal(sparse, dense), name
            else:
                assert sparse.tobytes() == dense.tobytes(), name


class ListNet:
    """The per-array layout that preceded the flat `Mlp.params`: lists of
    weights and biases, kept with its backward loop and Adam as the reference
    that the flat-vector code must match bit for bit."""

    def __init__(self, net):
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]

    def forward_batch(self, x, keep_cache=False):
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.maximum(z, 0.0)
            activations.append(a)
        return (a, activations) if keep_cache else a


class ListAdam:
    def __init__(self, net, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in net.weights + net.biases]
        self.v = [np.zeros_like(p) for p in net.weights + net.biases]

    def update(self, net, grads, lr):
        self.t += 1
        params = net.weights + net.biases
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def list_train_step(net, target_net, buffer, cfg, rng, adam):
    idx = rng.integers(0, buffer.size, cfg.batch_size)
    states = buffer.states[idx]
    actions = buffer.actions[idx]
    rewards = buffer.rewards[idx]
    next_states = buffer.next_states[idx]
    dones = buffer.dones[idx]

    q_next = target_net.forward_batch(next_states).max(axis=1)
    targets = rewards + cfg.zeta * (~dones) * q_next

    q, acts = net.forward_batch(states, keep_cache=True)
    taken = q[np.arange(len(idx)), actions]
    err = taken - targets
    loss = float(np.mean(err**2))

    d_out = np.zeros_like(q)
    d_out[np.arange(len(idx)), actions] = 2.0 * err / len(idx)
    delta = d_out
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0.0)
    adam.update(net, grads_w + grads_b, cfg.learning_rate)
    return loss


def checkpoint_order(weights_then_biases):
    """Flatten a weights-then-biases list into the layout of `Mlp.params`."""
    n = len(weights_then_biases) // 2
    pairs = zip(weights_then_biases[:n], weights_then_biases[n:])
    return np.concatenate([a.ravel() for w, b in pairs for a in (w, b)])


class TestFlatParams:
    def test_train_steps_match_list_reference_bit_exactly(self):
        rng = np.random.default_rng(11)
        net = Mlp([4, 16, 8, 9], rng)
        target = net.copy()
        buf = ReplayBuffer(300, 4)
        for i in range(200):
            buf.push(Experience(rng.standard_normal(4), int(rng.integers(9)), float(rng.uniform()),
                                rng.standard_normal(4), i % 7 == 6))
        cfg = AgentConfig(batch_size=24, warmup=32, learning_rate=0.01)
        ref, ref_target = ListNet(net), ListNet(target)
        adam, ref_adam = AdamState(net), ListAdam(ref)
        rng_flat, rng_ref = np.random.default_rng(12), np.random.default_rng(12)
        for step in range(50):
            if step == 25:
                sync_target(net, target)
                ref_target = ListNet(ref)
            loss = train_step(net, target, buf, cfg, rng_flat, adam)
            ref_loss = list_train_step(ref, ref_target, buf, cfg, rng_ref, ref_adam)
            assert repr(loss) == repr(ref_loss), step
            assert net.params.tobytes() == checkpoint_order(ref.weights + ref.biases).tobytes()
            assert adam.m.tobytes() == checkpoint_order(ref_adam.m).tobytes()
            assert adam.v.tobytes() == checkpoint_order(ref_adam.v).tobytes()
        ref_target_params = checkpoint_order(ref_target.weights + ref_target.biases)
        assert target.params.tobytes() == ref_target_params.tobytes()

    def assert_views_of_params(self, net):
        arrays = net.weights + net.biases
        for a in arrays:
            assert np.shares_memory(net.params, a)
        assert np.array_equal(net.params, checkpoint_order(list(arrays)))

    def test_views_survive_copy_sync_load_and_adam(self, tmp_path):
        net = Mlp([3, 5, 4], np.random.default_rng(13))
        self.assert_views_of_params(net)
        self.assert_views_of_params(net.copy())
        target = Mlp([3, 5, 4])
        sync_target(net, target)
        self.assert_views_of_params(target)
        assert np.array_equal(target.params, net.params)
        save_checkpoint(net, tmp_path / "net.bin")
        self.assert_views_of_params(load_checkpoint(tmp_path / "net.bin"))
        before = net.params.copy()
        AdamState(net).update(net, np.ones_like(net.params), 0.1)
        self.assert_views_of_params(net)
        assert not np.array_equal(net.params, before)

    def test_layers_cannot_be_rebound(self):
        net = Mlp([2, 2])
        with pytest.raises(TypeError):
            net.weights[0] = np.eye(2)
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros(2)


def per_array(net, vec):
    """Split a vector with the layout of `net.params` into weights-then-biases copies."""
    view = Mlp(net.sizes)
    view.params[:] = vec
    return [a.copy() for a in view.weights + view.biases]


class TestAdamCrossover:
    def test_bias_correction_reaches_one_bit_exactly(self):
        # From t = 356 on, 1 - 0.9**t rounds to 1.0, and `update` skips m / bc1.
        assert min(t for t in range(1, 1000) if 1.0 - 0.9**t == 1.0) == 356
        rng = np.random.default_rng(16)
        net = Mlp([4, 16, 9], rng)
        adam = AdamState(net)
        adam.t = 350
        adam.m[:] = rng.standard_normal(net.params.size) * 1e-3
        adam.v[:] = rng.random(net.params.size) * 1e-6
        ref = ListNet(net)
        ref_adam = ListAdam(ref)
        ref_adam.t = adam.t
        ref_adam.m, ref_adam.v = per_array(net, adam.m), per_array(net, adam.v)
        for t in range(351, 363):
            grad = rng.standard_normal(net.params.size)
            adam.update(net, grad, 0.001)
            ref_adam.update(ref, per_array(net, grad), 0.001)
            assert adam.t == t
            assert net.params.tobytes() == checkpoint_order(ref.weights + ref.biases).tobytes(), t
            assert adam.m.tobytes() == checkpoint_order(ref_adam.m).tobytes(), t
            assert adam.v.tobytes() == checkpoint_order(ref_adam.v).tobytes(), t


def adam_and_reference(sizes, seed, t=0):
    """An `AdamState` and a `ListAdam` on twin nets, both at step count t."""
    net = Mlp(sizes, np.random.default_rng(seed))
    ref = ListNet(net)
    adam, ref_adam = AdamState(net), ListAdam(ref)
    adam.t = ref_adam.t = t
    return net, adam, ref, ref_adam


def matches_reference(net, adam, ref, ref_adam):
    return (
        net.params.tobytes() == checkpoint_order(ref.weights + ref.biases).tobytes()
        and adam.m.tobytes() == checkpoint_order(ref_adam.m).tobytes()
        and adam.v.tobytes() == checkpoint_order(ref_adam.v).tobytes()
    )


class TestAdamThreads:
    def test_rejected_gradient_changes_nothing(self):
        net = Mlp([3, 5, 4], np.random.default_rng(20))
        adam = AdamState(net)
        adam.update(net, np.ones(net.params.size), 0.01)
        before = (adam.t, adam.m.tobytes(), adam.v.tobytes(), net.params.tobytes())
        with pytest.raises(ValueError):
            adam.update(net, np.ones(net.params.size - 1), 0.01)
        with pytest.raises(ValueError):
            adam.update(Mlp([3, 5, 5]), np.ones(net.params.size), 0.01)
        assert (adam.t, adam.m.tobytes(), adam.v.tobytes(), net.params.tobytes()) == before
        adam.close()

    def test_worker_keeps_caller_error_state(self):
        # Only the worker's half overflows: it runs under the caller's numpy
        # error state, so the update raises instead of leaving inf in v.
        net = Mlp([3, 5, 4], np.random.default_rng(22))
        with AdamState(net) as adam, np.errstate(over="raise"):
            grad = np.zeros(net.params.size)
            grad[adam._cut:] = 1e200
            with pytest.raises(FloatingPointError):
                adam.update(net, grad, 0.01)

    def test_close_twice_and_as_context(self):
        net = Mlp([3, 5, 4], np.random.default_rng(21))
        with AdamState(net) as adam:
            adam.update(net, np.ones(net.params.size), 0.01)
        adam.close()

    def test_concurrent_states_match_list_reference(self):
        # More threads than cores, each driving its own AdamState (and so its
        # own worker) against the per-array reference, with the interpreter
        # switching threads as often as it can. Sizes cover an empty half
        # (2 parameters), an odd count below 16 and counts not a multiple of 8;
        # odd-numbered threads cross t = 356, where the bc1 shortcut starts.
        all_sizes = [[1, 1], [2, 3], [3, 5, 4], [4, 16, 9]]
        n_threads = (os.cpu_count() or 1) + 3
        done, failures = [], []

        def drive(i):
            sizes = all_sizes[i % len(all_sizes)]
            net, adam, ref, ref_adam = adam_and_reference(sizes, 30 + i, 330 * (i % 2))
            rng = np.random.default_rng(60 + i)
            try:
                for step in range(50):
                    grad = rng.standard_normal(net.params.size)
                    adam.update(net, grad, 0.01)
                    ref_adam.update(ref, per_array(net, grad), 0.01)
                    if not matches_reference(net, adam, ref, ref_adam):
                        failures.append((sizes, step))
                        return
                done.append(i)
            finally:
                adam.close()

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert failures == []
        assert sorted(done) == list(range(n_threads))


class TestAdamAllocation:
    def test_update_allocates_no_parameter_sized_vector(self):
        net = Mlp([6, 128, 128, 729], np.random.default_rng(14))
        adam = AdamState(net)
        grad = np.random.default_rng(15).standard_normal(net.params.size)
        adam.update(net, grad, 0.001)  # warm-up
        tracemalloc.start()
        try:
            adam.update(net, grad, 0.001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < net.params.nbytes


class TestSyncTarget:
    def test_copy_semantics(self):
        rng = np.random.default_rng(6)
        net, target = Mlp([3, 4, 2], rng), Mlp([3, 4, 2], np.random.default_rng(7))
        x = rng.standard_normal(3)
        assert not np.allclose(forward(net, x), forward(target, x))
        sync_target(net, target)
        assert np.allclose(forward(net, x), forward(target, x))

    def test_target_stale_between_syncs(self):
        rng = np.random.default_rng(8)
        net = Mlp([3, 4, 2], rng)
        target = net.copy()
        buf = ReplayBuffer(100, 3)
        fill_buffer(buf, 50, 3, rng)
        cfg = AgentConfig(batch_size=8, warmup=8)
        x = rng.standard_normal(3)
        before = forward(target, x).copy()
        adam = AdamState(net)
        for _ in range(5):
            train_step(net, target, buf, cfg, rng, adam)
        assert np.allclose(forward(target, x), before)
        assert not np.allclose(forward(net, x), before)

    def test_architecture_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sync_target(Mlp([2, 3]), Mlp([2, 4]))


class TestTrainLoop:
    def small_env(self, seed=0, warmup=16):
        cfg = harness.ExperimentConfig(
            k_gbs=1, off_ids=(), mu_count=4, pi_thresh=1, horizon=10,
            eps_decay_steps=50, warmup=warmup, batch_size=8,
        )
        scn = harness.generate_scenario(cfg, np.random.default_rng(seed))
        return NesEnv(scn, np.random.default_rng(seed)), cfg.agent()

    def test_zero_iterations(self):
        env, cfg = self.small_env()
        net, log = train(env, cfg, 0, np.random.default_rng(0))
        assert log.rows == []
        assert net.sizes[-1] == 9**3

    def test_bit_identical_repeat(self):
        r1 = self._run(seed=42)
        r2 = self._run(seed=42)
        assert r1 == r2

    def _run(self, seed):
        env, cfg = self.small_env(seed)
        net, log = train(env, cfg, 120, np.random.default_rng(seed))
        return [(r.iteration, r.reward, r.avg_reward, repr(r.loss), r.epsilon, r.served)
                for r in log.rows]

    def test_q_values_stay_finite(self):
        env, cfg = self.small_env(1)
        net, log = train(env, cfg, 200, np.random.default_rng(1))
        f = encode_features(env.state, env.scn)
        assert np.all(np.isfinite(forward(net, f)))


    def test_adam_worker_ends_with_train(self):
        before = set(threading.enumerate())
        env, cfg = self.small_env(2, warmup=8)
        train(env, cfg, 60, np.random.default_rng(2))
        assert set(threading.enumerate()) <= before

    def test_adam_worker_ends_when_train_raises(self, monkeypatch):
        before = set(threading.enumerate())
        env, cfg = self.small_env(3, warmup=8)
        step, calls, running = env.step, [], []

        def failing_step(action):
            calls.append(action)
            if len(calls) == 41:  # iteration 40, after 33 train steps
                running.extend(set(threading.enumerate()) - before)
                raise RuntimeError("step failed")
            return step(action)

        monkeypatch.setattr(env, "step", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            train(env, cfg, 100, np.random.default_rng(3))
        assert running  # the worker was alive mid-loop
        assert set(threading.enumerate()) <= before


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        net = Mlp(network_sizes(3, AgentConfig().hidden_sizes), rng)
        path = tmp_path / "net.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.sizes == net.sizes
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)

    def test_files_byte_identical(self, tmp_path):
        net = Mlp(network_sizes(2, AgentConfig().hidden_sizes), np.random.default_rng(10))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(net, p1)
        save_checkpoint(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(p)


def checkpoint_length(sizes):
    return 12 + 4 * len(sizes) + 8 * sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


class TestCheckpointFuzz:
    """Damaged checkpoint files raise ValueError, and never allocate beyond the file."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "valid.bin"
        save_checkpoint(Mlp(network_sizes(1, (4,)), np.random.default_rng(0)), path)
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "fuzz.bin"

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, 10**6))
    def test_truncated(self, valid, path, cut):
        path.write_bytes(valid[: cut % len(valid)])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @settings(max_examples=50, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_extended(self, valid, path, extra):
        path.write_bytes(valid + extra)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @settings(max_examples=100, deadline=None)
    @given(bit=st.integers(0, 10**6))
    def test_header_bit_flip(self, valid, path, bit):
        header_bits = 8 * (12 + 4 * 3)  # magic, version, count and three layer sizes
        data = bytearray(valid)
        data[(bit % header_bits) // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(
        n_sizes=st.one_of(st.integers(0, 5), st.integers(0, 2**32 - 1)),
        sizes=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)), max_size=5),
        payload_floats=st.integers(0, 64),
    )
    def test_random_header(self, path, n_sizes, sizes, payload_floats):
        data = b"QNET" + struct.pack("<II", 1, n_sizes) + struct.pack(f"<{len(sizes)}I", *sizes)
        data += bytes(8 * payload_floats)
        path.write_bytes(data)
        consistent = (
            n_sizes == len(sizes) >= 2 and min(sizes) >= 1 and len(data) == checkpoint_length(sizes)
        )
        tracemalloc.start()
        try:
            if consistent:
                assert load_checkpoint(path).sizes == sizes
            else:
                with pytest.raises(ValueError):
                    load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 + 4 * len(data)


class TestAgentConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            AgentConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            AgentConfig(zeta=0.0)
        with pytest.raises(ValueError):
            AgentConfig(eps_start=1.5)
