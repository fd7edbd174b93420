"""From-scratch deep Q-learning: numpy multilayer perceptron with reverse-mode
gradients, adaptive-moment updates, FIFO replay, epsilon-greedy control."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .env import EnvAction, NesEnv, action_space_size, encode_features
from .metrics import MetricsLog

CHECKPOINT_MAGIC = b"QNET"
CHECKPOINT_VERSION = 1


class DimensionMismatch(ValueError):
    pass


class InsufficientData(RuntimeError):
    pass


@dataclass(frozen=True)
class AgentConfig:
    learning_rate: float = 0.001
    batch_size: int = 32
    zeta: float = 0.9                 # discount factor
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10000
    target_sync_period: int = 200
    hidden_sizes: tuple[int, ...] = (128, 128)
    warmup: int = 500
    buffer_capacity: int = 20000

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.zeta <= 1.0:
            raise ValueError("zeta must be in (0, 1]")
        for e in (self.eps_start, self.eps_end):
            if not 0.0 <= e <= 1.0:
                raise ValueError("epsilon must be in [0, 1]")


def epsilon_at(cfg: AgentConfig, t: int) -> float:
    """Linear decay from eps_start to eps_end over eps_decay_steps."""
    if cfg.eps_decay_steps <= 0 or t >= cfg.eps_decay_steps:
        return cfg.eps_end
    frac = t / cfg.eps_decay_steps
    return cfg.eps_start + frac * (cfg.eps_end - cfg.eps_start)


class Mlp:
    """Fully connected net, rectifier hidden layers, identity output."""

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        last = len(sizes) - 2
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            scale = 1.0 / np.sqrt(n_in)
            if i == last:
                # Near-zero head: actions never trained stay near Q = 0 instead
                # of random init noise, so they cannot dominate the argmax.
                scale *= 1e-3
            if rng is None:
                w = np.zeros((n_in, n_out))
            else:
                w = rng.uniform(-scale, scale, (n_in, n_out))
            self.weights.append(w)
            self.biases.append(np.zeros(n_out))

    def forward_batch(self, x: np.ndarray, keep_cache: bool = False):
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise DimensionMismatch(
                f"expected (*, {self.sizes[0]}) features, got {x.shape}"
            )
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.maximum(z, 0.0)
            activations.append(a)
        if keep_cache:
            return a, activations
        return a

    def copy(self) -> "Mlp":
        clone = Mlp(self.sizes)
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def copy_from(self, other: "Mlp") -> None:
        if self.sizes != other.sizes:
            raise DimensionMismatch("architectures differ")
        self.weights = [w.copy() for w in other.weights]
        self.biases = [b.copy() for b in other.biases]


def forward(net: Mlp, features: np.ndarray) -> np.ndarray:
    return net.forward_batch(np.asarray(features, dtype=float)[None, :])[0]


def select_action(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    if len(q_values) == 0:
        raise ValueError("empty q_values")
    if rng.random() < epsilon:
        return int(rng.integers(len(q_values)))
    return int(np.argmax(q_values))


@dataclass
class Experience:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """FIFO ring buffer over preallocated arrays."""

    def __init__(self, capacity: int, feature_dim: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, feature_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, feature_dim))
        self.dones = np.zeros(capacity, dtype=bool)
        self.idx = 0
        self.size = 0

    def push(self, e: Experience) -> None:
        i = self.idx
        self.states[i] = e.state
        self.actions[i] = e.action
        self.rewards[i] = e.reward
        self.next_states[i] = e.next_state
        self.dones[i] = e.done
        self.idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_indices(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.size, batch)

    def ordered(self) -> list[Experience]:
        """Stored experiences, oldest first."""
        start = (self.idx - self.size) % self.capacity
        order = [(start + i) % self.capacity for i in range(self.size)]
        return [
            Experience(
                self.states[i].copy(),
                int(self.actions[i]),
                float(self.rewards[i]),
                self.next_states[i].copy(),
                bool(self.dones[i]),
            )
            for i in order
        ]


def td_targets(batch: list[Experience], target_net: Mlp, zeta: float) -> np.ndarray:
    if not batch:
        raise ValueError("empty batch")
    next_states = np.stack([e.next_state for e in batch])
    q_next = target_net.forward_batch(next_states).max(axis=1)
    rewards = np.array([e.reward for e in batch])
    cont = np.array([not e.done for e in batch], dtype=float)
    return rewards + zeta * cont * q_next


class AdamState:
    def __init__(self, net: Mlp, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in net.weights + net.biases]
        self.v = [np.zeros_like(p) for p in net.weights + net.biases]

    def update(self, net: Mlp, grads: list[np.ndarray], lr: float) -> None:
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


def backprop(net: Mlp, x: np.ndarray, d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss wrt weights then biases, given d(loss)/d(output)."""
    _, acts = net.forward_batch(x, keep_cache=True)
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]
    delta = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0.0)
    return grads_w + grads_b


def train_step(
    net: Mlp,
    target_net: Mlp,
    buffer: ReplayBuffer,
    cfg: AgentConfig,
    rng: np.random.Generator,
    adam: AdamState,
) -> float:
    if buffer.size < max(cfg.batch_size, cfg.warmup):
        raise InsufficientData(
            f"buffer has {buffer.size} < required {max(cfg.batch_size, cfg.warmup)}"
        )
    idx = buffer.sample_indices(cfg.batch_size, rng)
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

    # Gradient flows only through the taken-action output entries.
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


def sync_target(net: Mlp, target_net: Mlp) -> None:
    target_net.copy_from(net)


def build_network(scn_sector_count: int, cfg: AgentConfig, rng: np.random.Generator) -> Mlp:
    sizes = [2 * scn_sector_count, *cfg.hidden_sizes, action_space_size(scn_sector_count)]
    return Mlp(sizes, rng)


def train(
    env: NesEnv,
    cfg: AgentConfig,
    total_iterations: int,
    rng: np.random.Generator,
    avg_window: int = 200,
) -> tuple[Mlp, MetricsLog]:
    scn = env.scn
    net = build_network(scn.sector_count, cfg, rng)
    target = net.copy()
    adam = AdamState(net)
    buffer = ReplayBuffer(cfg.buffer_capacity, 2 * scn.sector_count)
    log = MetricsLog(avg_window=avg_window)

    state = env.reset()
    features = encode_features(state, scn)
    window_sum = 0.0
    window: list[float] = []
    for t in range(total_iterations):
        eps = epsilon_at(cfg, t)
        q = forward(net, features)
        action = select_action(q, eps, rng)
        result = env.step(EnvAction(action))
        next_features = encode_features(result.next_state, scn)
        buffer.push(Experience(features, action, result.reward, next_features, result.done))

        loss = float("nan")
        if buffer.size >= max(cfg.batch_size, cfg.warmup):
            loss = train_step(net, target, buffer, cfg, rng, adam)
        if (t + 1) % cfg.target_sync_period == 0:
            sync_target(net, target)

        window.append(result.reward)
        window_sum += result.reward
        if len(window) > avg_window:
            window_sum -= window.pop(0)
        log.add_row(t, result.reward, window_sum / len(window), loss, eps, result.served_count)

        if result.done:
            state = env.reset()
            features = encode_features(state, scn)
        else:
            features = next_features
    return net, log


def save_checkpoint(net: Mlp, path) -> None:
    """Versioned little-endian binary dump; round-trips bit-exactly."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(net.sizes)))
        f.write(struct.pack(f"<{len(net.sizes)}I", *net.sizes))
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> Mlp:
    """Restore a `save_checkpoint` file; a truncated, extended or malformed one
    raises ValueError. The header is checked against the file length before
    any array is allocated, so it cannot ask for more memory than the file holds."""
    with open(path, "rb") as f:
        data = f.read()
    head = len(CHECKPOINT_MAGIC) + 8
    if len(data) < head or not data.startswith(CHECKPOINT_MAGIC):
        raise ValueError("not a checkpoint file")
    version, n_sizes = struct.unpack_from("<II", data, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if not 2 <= n_sizes <= (len(data) - head) // 4:
        raise ValueError(f"checkpoint layer count {n_sizes} does not fit its {len(data)} bytes")
    sizes = list(struct.unpack_from(f"<{n_sizes}I", data, head))
    if min(sizes) < 1:
        raise ValueError(f"checkpoint layer sizes {sizes} must be >= 1")
    layers = list(zip(sizes[:-1], sizes[1:]))
    offset = head + 4 * n_sizes
    expected = offset + 8 * sum(n_in * n_out + n_out for n_in, n_out in layers)
    if len(data) != expected:
        raise ValueError(f"checkpoint is {len(data)} bytes, its layer sizes need {expected}")
    net = Mlp(sizes)
    for i, (n_in, n_out) in enumerate(layers):
        w = np.frombuffer(data, dtype="<f8", count=n_in * n_out, offset=offset)
        offset += 8 * n_in * n_out
        b = np.frombuffer(data, dtype="<f8", count=n_out, offset=offset)
        offset += 8 * n_out
        net.weights[i] = w.reshape(n_in, n_out).copy()
        net.biases[i] = b.copy()
    return net
