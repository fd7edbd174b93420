"""From-scratch deep Q-learning: numpy multilayer perceptron with reverse-mode
gradients, adaptive-moment updates, FIFO replay, epsilon-greedy control, and
the per-iteration training log."""

from __future__ import annotations

import contextvars
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .env import EnvAction, NesEnv, action_space_size, encode_features

CHECKPOINT_MAGIC = b"QNET"
CHECKPOINT_VERSION = 1
AVG_WINDOW = 200  # iterations in training.csv's running average reward
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


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
        if self.target_sync_period < 1:
            raise ValueError("target_sync_period must be >= 1")
        if self.buffer_capacity < max(self.batch_size, self.warmup):
            raise ValueError("buffer_capacity must be >= max(batch_size, warmup)")
        if min(self.hidden_sizes, default=1) < 1:
            raise ValueError("hidden sizes must be >= 1")


def param_count(sizes: list[int]) -> int:
    return sum(n_in * n_out + n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


def training_bytes(sizes: list[int]) -> int:
    """Memory of the float64 vectors with the layout of `Mlp.params` that a
    training run keeps: params and grad of the net and of the target net,
    Adam's m and v, and Adam's two scratch vectors."""
    return 8 * 8 * param_count(sizes)


def epsilon_at(cfg: AgentConfig, t: int) -> float:
    """Linear decay from eps_start to eps_end over eps_decay_steps."""
    if cfg.eps_decay_steps <= 0 or t >= cfg.eps_decay_steps:
        return cfg.eps_end
    frac = t / cfg.eps_decay_steps
    return cfg.eps_start + frac * (cfg.eps_end - cfg.eps_start)


class Mlp:
    """Fully connected net, rectifier hidden layers, identity output.

    All parameters live in one contiguous float64 vector, `params`, in
    checkpoint order: layer 0's weights, layer 0's biases, layer 1's weights,
    and so on. `weights` and `biases` are tuples of views into it, and `grad`,
    with `grad_weights` and `grad_biases`, has the same layout."""

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        layers = list(zip(sizes[:-1], sizes[1:]))
        self.params = np.zeros(param_count(sizes))
        self.grad = np.zeros_like(self.params)
        self.weights, self.biases = self._layer_views(self.params)
        self.grad_weights, self.grad_biases = self._layer_views(self.grad)
        if rng is None:
            return
        for i, (n_in, n_out) in enumerate(layers):
            scale = 1.0 / np.sqrt(n_in)
            if i == len(layers) - 1:
                # Near-zero head: actions never trained stay near Q = 0 instead
                # of random init noise, so they cannot dominate the argmax.
                scale *= 1e-3
            self.weights[i][...] = rng.uniform(-scale, scale, (n_in, n_out))

    def _layer_views(self, vec: np.ndarray) -> tuple[tuple, tuple]:
        weights, biases, offset = [], [], 0
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(vec[offset:offset + n_in * n_out].reshape(n_in, n_out))
            offset += n_in * n_out
            biases.append(vec[offset:offset + n_out])
            offset += n_out
        return tuple(weights), tuple(biases)

    def forward_batch(self, x: np.ndarray, keep_cache: bool = False):
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise DimensionMismatch(f"expected (*, {self.sizes[0]}) features, got {x.shape}")
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w  # a new array, so the bias and rectifier below never write to x
            a += b
            if i != last:
                np.maximum(a, 0.0, out=a)
            activations.append(a)
        return (a, activations) if keep_cache else a

    def backward(
        self, activations: list[np.ndarray], d_out: np.ndarray, taken: np.ndarray | None = None
    ) -> np.ndarray:
        """Write d(loss)/d(params) into `grad` and return it, given the
        `forward_batch(..., keep_cache=True)` activations and d(loss)/d(output).

        With `taken`, row r of `d_out` must be zero outside column `taken[r]`.
        Each entry of the head's delta `d_out @ W.T` is then one product plus
        exact zeros, so it is computed as that product, with the same bits."""
        delta = d_out
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=self.grad_weights[i])
            np.sum(delta, axis=0, out=self.grad_biases[i])
            if i > 0:
                if taken is not None and delta is d_out:
                    rows = np.arange(len(taken))
                    back = self.weights[i][:, taken].T * d_out[rows, taken][:, None]
                else:
                    back = delta @ self.weights[i].T
                delta = back * (activations[i] > 0.0)
        return self.grad

    def copy(self) -> "Mlp":
        clone = Mlp(self.sizes)
        clone.params[:] = self.params
        return clone

    def copy_from(self, other: "Mlp") -> None:
        if self.sizes != other.sizes:
            raise DimensionMismatch("architectures differ")
        self.params[:] = other.params


def forward(net: Mlp, features: np.ndarray) -> np.ndarray:
    return net.forward_batch(np.asarray(features, dtype=float)[None, :])[0]


def select_action(net: Mlp, features: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the net's outputs; only a greedy action runs the net."""
    if rng.random() < epsilon:
        return int(rng.integers(net.sizes[-1]))
    return int(np.argmax(forward(net, features)))


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


def td_targets(
    target_net: Mlp, rewards: np.ndarray, next_states: np.ndarray, dones: np.ndarray, zeta: float
) -> np.ndarray:
    q_next = target_net.forward_batch(next_states).max(axis=1)
    return rewards + zeta * (~dones) * q_next


def _adam_pass(m, v, grad, params, step, denom, lr, bc1, bc2) -> None:
    """Adam's element-wise update of one slice of the flat vectors, in place,
    with the rounding of the textbook expressions m = b1*m + (1-b1)*g,
    v = b2*v + ((1-b2)*g)*g and params -= lr*(m/bc1) / (sqrt(v/bc2) + eps):
    the operations run in that order, and none is folded into another (no
    lr/bc1). `step` and `denom` are scratch."""
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    v += np.multiply(step, grad, out=step)
    if bc1 == 1.0:  # beta1**t under half an ulp of 1 (t >= 356 at 0.9): m / bc1 is m
        np.multiply(m, lr, out=step)
    else:
        np.divide(m, bc1, out=step)
        step *= lr
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params -= step


class AdamState:
    """Adam over a net's flat parameter vector.

    Every operation is per element, so `update` runs `_adam_pass` on two
    contiguous halves at once, one on the caller's thread and one on a worker
    thread, and the result has the same bits as one pass over the whole
    vector. The worker starts on the first update; `close`, or leaving a
    `with` block, ends it."""

    def __init__(self, net: Mlp):
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self._step = np.empty_like(net.params)  # scratch, so an update allocates no vector
        self._denom = np.empty_like(net.params)
        # A multiple of 8 elements: on 64-byte-aligned vectors the halves share
        # no cache line. A shared line would cost time, never bits.
        self._cut = (net.params.size // 2 + 4) // 8 * 8
        self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="adam")

    def update(self, net: Mlp, grad: np.ndarray, lr: float) -> None:
        """One step over the whole flat parameter vector; `grad` has its layout.
        A gradient or net of another shape raises before anything changes."""
        if grad.shape != self.m.shape or net.params.shape != self.m.shape:
            raise DimensionMismatch(
                f"Adam has {self.m.size} parameters; got grad {grad.shape}, "
                f"params {net.params.shape}"
            )
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        vectors = (self.m, self.v, grad, net.params, self._step, self._denom)
        scalars = (lr, bc1, bc2)
        cut = self._cut
        # The worker runs in a copy of the caller's context, so under numpy's
        # error state (a context variable) too.
        upper = self._worker.submit(
            contextvars.copy_context().run, _adam_pass, *(a[cut:] for a in vectors), *scalars
        )
        try:
            _adam_pass(*(a[:cut] for a in vectors), *scalars)
        finally:
            upper.result()  # params are whole again, and a worker error raises here

    def close(self) -> None:
        """End the worker thread; later calls do nothing."""
        self._worker.shutdown()

    def __enter__(self) -> "AdamState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def backprop(net: Mlp, x: np.ndarray, d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss wrt weights then biases, given d(loss)/d(output).
    They are views into `net.grad`, so the next backward pass overwrites them."""
    _, acts = net.forward_batch(x, keep_cache=True)
    net.backward(acts, d_out)
    return [*net.grad_weights, *net.grad_biases]


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
    idx = rng.integers(0, buffer.size, cfg.batch_size)
    targets = td_targets(
        target_net, buffer.rewards[idx], buffer.next_states[idx], buffer.dones[idx], cfg.zeta
    )
    q, acts = net.forward_batch(buffer.states[idx], keep_cache=True)
    rows = np.arange(len(idx))
    actions = buffer.actions[idx]
    err = q[rows, actions] - targets
    loss = float(np.mean(err**2))

    # Gradient flows only through the taken-action output entries. `backward`
    # never reads the output activation, so q's array holds d(loss)/d(q).
    d_out = q
    d_out.fill(0.0)
    d_out[rows, actions] = 2.0 * err / len(idx)
    adam.update(net, net.backward(acts, d_out, actions), cfg.learning_rate)
    return loss


def sync_target(net: Mlp, target_net: Mlp) -> None:
    target_net.copy_from(net)


@dataclass
class MetricsRow:
    iteration: int
    reward: float
    avg_reward: float
    loss: float
    epsilon: float
    served: int


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)

    def rewards(self) -> list[float]:
        return [r.reward for r in self.rows]


def network_sizes(s_count: int, hidden_sizes: tuple[int, ...]) -> list[int]:
    return [2 * s_count, *hidden_sizes, action_space_size(s_count)]


def train(
    env: NesEnv, cfg: AgentConfig, total_iterations: int, rng: np.random.Generator
) -> tuple[Mlp, MetricsLog]:
    scn = env.scn
    net = Mlp(network_sizes(scn.sector_count, cfg.hidden_sizes), rng)
    target = net.copy()
    buffer = ReplayBuffer(cfg.buffer_capacity, 2 * scn.sector_count)
    log = MetricsLog()

    state = env.reset()
    features = encode_features(state, scn)
    window_sum = 0.0
    with AdamState(net) as adam:
        for t in range(total_iterations):
            eps = epsilon_at(cfg, t)
            action = select_action(net, features, eps, rng)
            result = env.step(EnvAction(action))
            next_features = encode_features(result.next_state, scn)
            buffer.push(Experience(features, action, result.reward, next_features, result.done))

            loss = float("nan")
            if buffer.size >= max(cfg.batch_size, cfg.warmup):
                loss = train_step(net, target, buffer, cfg, rng, adam)
            if (t + 1) % cfg.target_sync_period == 0:
                sync_target(net, target)

            window_sum += result.reward
            if t >= AVG_WINDOW:
                window_sum -= log.rows[t - AVG_WINDOW].reward
            avg = window_sum / min(t + 1, AVG_WINDOW)
            log.rows.append(MetricsRow(t, result.reward, avg, loss, eps, result.served_count))

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
        f.write(net.params.astype("<f8", copy=False).tobytes())


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
    offset = head + 4 * n_sizes
    expected = offset + 8 * param_count(sizes)
    if len(data) != expected:
        raise ValueError(f"checkpoint is {len(data)} bytes, its layer sizes need {expected}")
    net = Mlp(sizes)
    net.params[:] = np.frombuffer(data, dtype="<f8", offset=offset)
    return net
