"""Learned inverse-dynamics tracking controller.

A small fully connected network maps (x_r(t), x_r(t+1)) to the torque that
produces the transition.  Hidden layers are rectified, the output is linear,
and sizes follow the robot dimension: [2n, 4n, 4n, 2n, a].  Inputs are
standardized per dimension with statistics taken from the training set; the
statistics are part of the model.  Training minimizes the weighted mean
squared torque error, each trajectory weighted by 1 / (N (T_i - 1)) so the
loss is invariant to duplicating trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .statespace import DemonstrationSet, StateLayout

STD_FLOOR = 1e-8  # clamp for per-dimension input std


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ControllerModel:
    """Rectifier network plus the input standardization it was trained with.

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]); biases match the
    output side.  Arbitrary layer stacks are accepted so tests can build tiny
    hand-computable nets; `init` builds the standard [2n, 4n, 4n, 2n, a] one.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    input_mean: np.ndarray
    input_std: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"layer_sizes must be >= 2 positive entries, got {sizes}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("need one weight matrix and one bias per layer transition")
        Ws = []
        bs = []
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            W = np.asarray(W, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if W.shape != (sizes[l + 1], sizes[l]):
                raise ValueError(
                    f"weights[{l}] must have shape ({sizes[l + 1]}, {sizes[l]}), got {W.shape}"
                )
            if b.shape != (sizes[l + 1],):
                raise ValueError(f"biases[{l}] must have shape ({sizes[l + 1]},), got {b.shape}")
            Ws.append(_frozen(W))
            bs.append(_frozen(b))
        mean = _frozen(self.input_mean)
        std = _frozen(self.input_std)
        if mean.shape != (sizes[0],) or std.shape != (sizes[0],):
            raise ValueError("input_mean/input_std must match the input width")
        if not (std > 0).all():
            raise ValueError("input_std entries must be positive")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", tuple(Ws))
        object.__setattr__(self, "biases", tuple(bs))
        object.__setattr__(self, "input_mean", mean)
        object.__setattr__(self, "input_std", std)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    iterations: int = 300
    batch: int | None = 64  # None = full batch
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be None or >= 1, got {self.batch}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


@dataclass(frozen=True)
class TrainingTriples:
    """Flattened supervision (x_r(t), x_r(t+1), tau(t)) with per-pair weights.

    Weights sum to one.  `supervision` derives them from trajectory structure;
    `from_arrays` defaults to uniform.
    """

    x_now: np.ndarray
    x_next: np.ndarray
    tau: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x_now = np.atleast_2d(np.asarray(self.x_now, dtype=np.float64))
        x_next = np.atleast_2d(np.asarray(self.x_next, dtype=np.float64))
        tau = np.atleast_2d(np.asarray(self.tau, dtype=np.float64))
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        P = x_now.shape[0]
        if P < 1:
            raise ValueError("need at least one supervision triple")
        if x_next.shape[0] != P or tau.shape[0] != P or w.shape != (P,):
            raise ValueError("x_now, x_next, tau, weights must agree on the pair count")
        if x_next.shape[1] != x_now.shape[1]:
            raise ValueError("x_now and x_next must have the same width")
        if (w <= 0).any():
            raise ValueError("weights must be positive")
        for name, arr in (("x_now", x_now), ("x_next", x_next), ("tau", tau)):
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "weights", _frozen(w))

    @classmethod
    def from_arrays(cls, x_now, x_next, tau, weights=None) -> "TrainingTriples":
        x_now = np.atleast_2d(np.asarray(x_now, dtype=np.float64))
        if weights is None:
            weights = np.full(x_now.shape[0], 1.0 / x_now.shape[0])
        return cls(x_now, np.atleast_2d(x_next), np.atleast_2d(tau), weights)

    @property
    def count(self) -> int:
        return self.x_now.shape[0]


def supervision(demos: DemonstrationSet) -> TrainingTriples:
    """Extract (x_r(t), x_r(t+1), tau(t)) from every transition of every demo."""
    x_now, x_next, tau, w = [], [], [], []
    N = demos.n_demos
    for i, traj in enumerate(demos.trajectories):
        if traj.torques is None:
            raise ValueError(f"trajectory {i} has no torques; controller training needs them")
        pairs = traj.horizon - 1
        x_now.append(traj.x_r[:-1])
        x_next.append(traj.x_r[1:])
        tau.append(traj.torques[:pairs])
        w.append(np.full(pairs, 1.0 / (N * pairs)))
    return TrainingTriples(np.concatenate(x_now), np.concatenate(x_next), np.concatenate(tau), np.concatenate(w))


def init(layout: StateLayout, seed: int) -> ControllerModel:
    """Seeded init: layer sizes [2n, 4n, 4n, 2n, a], uniform weights in
    +-sqrt(6 / (fan_in + fan_out)), zero biases, identity input norm."""
    n, a = layout.n, layout.a
    sizes = (2 * n, 4 * n, 4 * n, 2 * n, a)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ControllerModel(
        layer_sizes=sizes,
        weights=tuple(weights),
        biases=tuple(biases),
        input_mean=np.zeros(sizes[0]),
        input_std=np.ones(sizes[0]),
    )


def _net_forward(weights, biases, Z):
    """Hidden layers rectified, output linear.  Returns (activations, pre-activations)."""
    hs = [Z]
    zs = []
    last = len(weights) - 1
    H = Z
    for l, (W, b) in enumerate(zip(weights, biases)):
        pre = H @ W.T + b
        zs.append(pre)
        H = pre if l == last else np.maximum(pre, 0.0)
        hs.append(H)
    return hs, zs


def _net_backward(weights, hs, zs, dY):
    """Gradients of a scalar loss given dL/d(output) rows.  Returns (dWs, dbs)."""
    L = len(weights)
    dWs = [None] * L
    dbs = [None] * L
    delta = dY
    for l in range(L - 1, -1, -1):
        dWs[l] = delta.T @ hs[l]
        dbs[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l]) * (zs[l - 1] > 0)
    return dWs, dbs


def _normalize(model: ControllerModel, Z: np.ndarray) -> np.ndarray:
    return (Z - model.input_mean) / model.input_std


def evaluate(model: ControllerModel, z) -> np.ndarray:
    """Run the network on one raw input vector (standardization included)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.layer_sizes[0],):
        raise ValueError(f"input must have shape ({model.layer_sizes[0]},), got {z.shape}")
    hs, _ = _net_forward(model.weights, model.biases, _normalize(model, z[None, :]))
    return hs[-1][0]


def forward(model: ControllerModel, x_now, x_next) -> np.ndarray:
    """Torque for the transition x_r(t) -> x_r(t+1)."""
    x_now = np.asarray(x_now, dtype=np.float64)
    x_next = np.asarray(x_next, dtype=np.float64)
    n2 = model.layer_sizes[0]
    if x_now.ndim != 1 or x_next.ndim != 1 or x_now.size + x_next.size != n2:
        raise ValueError(
            f"x_now and x_next must be 1-D and jointly match the input width {n2}"
        )
    return evaluate(model, np.concatenate([x_now, x_next]))


def loss(model: ControllerModel, triples: TrainingTriples) -> float:
    """Weighted mean squared torque error over the triples."""
    Z = _normalize(model, np.concatenate([triples.x_now, triples.x_next], axis=1))
    hs, _ = _net_forward(model.weights, model.biases, Z)
    err = hs[-1] - triples.tau
    return float(np.sum(triples.weights * np.sum(err * err, axis=1)))


def _grads(weights, biases, Z, tau, w):
    """Loss sum_k w_k |net(Z_k) - tau_k|^2 and its parameter gradients."""
    hs, zs = _net_forward(weights, biases, Z)
    err = hs[-1] - tau
    value = float(np.sum(w * np.sum(err * err, axis=1)))
    dY = 2.0 * w[:, None] * err
    dWs, dbs = _net_backward(weights, hs, zs, dY)
    return value, dWs, dbs


def train(
    demos: DemonstrationSet,
    config: TrainConfig = TrainConfig(),
) -> tuple[ControllerModel, np.ndarray]:
    """Train a controller on demonstration transitions.

    Returns the model and the per-iteration loss history (full training loss
    evaluated before each update, so history[0] is the initial loss).  One
    iteration is one pass over the triples: a single step at batch=None, or a
    seeded-shuffle sweep of minibatches otherwise.  Identical inputs give
    bit-identical weights.
    """
    triples = supervision(demos)
    inputs = np.concatenate([triples.x_now, triples.x_next], axis=1)
    mean = inputs.mean(axis=0)
    std = np.maximum(inputs.std(axis=0), STD_FLOOR)
    model = replace(init(demos.layout, config.seed), input_mean=mean, input_std=std)

    Z = (inputs - mean) / std
    tau = triples.tau
    w = triples.weights
    weights = [W.copy() for W in model.weights]
    biases = [b.copy() for b in model.biases]
    shuffle_rng = np.random.default_rng([config.seed, 1])

    adam_m = [np.zeros_like(W) for W in weights] + [np.zeros_like(b) for b in biases]
    adam_v = [np.zeros_like(g) for g in adam_m]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def apply(dWs, dbs):
        nonlocal step
        step += 1
        grads = list(dWs) + list(dbs)
        params = weights + biases
        if config.optimizer == "sgd":
            for pmod, g in zip(params, grads):
                pmod -= config.learning_rate * g
            return
        for k, (pmod, g) in enumerate(zip(params, grads)):
            adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
            adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g * g
            m_hat = adam_m[k] / (1 - beta1**step)
            v_hat = adam_v[k] / (1 - beta2**step)
            pmod -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    P = triples.count
    history = np.empty(config.iterations)
    for it in range(config.iterations):
        value, dWs, dbs = _grads(weights, biases, Z, tau, w)
        history[it] = value
        if not np.isfinite(value):
            raise ValueError(f"non-finite training loss at iteration {it}")
        if config.batch is None or config.batch >= P:
            apply(dWs, dbs)
            continue
        perm = shuffle_rng.permutation(P)
        for lo in range(0, P, config.batch):
            idx = perm[lo : lo + config.batch]
            wb = w[idx]
            _, dWs, dbs = _grads(weights, biases, Z[idx], tau[idx], wb / wb.sum())
            apply(dWs, dbs)

    final = replace(model, weights=tuple(weights), biases=tuple(biases))
    return final, history


def gradient_check(model: ControllerModel, triple, epsilon: float = 1e-5) -> float:
    """Max relative gap between analytic and central-difference gradients.

    The probe loss is the squared torque error of a single (x_now, x_next,
    tau) triple with weight one.  epsilon must lie in [1e-7, 1e-4].
    """
    if not (1e-7 <= epsilon <= 1e-4):
        raise ValueError(f"epsilon must lie in [1e-7, 1e-4], got {epsilon}")
    x_now, x_next, tau = triple
    Z = _normalize(
        model,
        np.concatenate([np.asarray(x_now, float), np.asarray(x_next, float)])[None, :],
    )
    tau = np.asarray(tau, dtype=np.float64)[None, :]
    one = np.ones(1)

    weights = [W.copy() for W in model.weights]
    biases = [b.copy() for b in model.biases]
    _, dWs, dbs = _grads(weights, biases, Z, tau, one)

    def probe() -> float:
        v, _, _ = _grads(weights, biases, Z, tau, one)
        return v

    worst = 0.0
    for analytic, param in zip(dWs + dbs, weights + biases):
        flat = param.reshape(-1)
        aflat = analytic.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            up = probe()
            flat[k] = orig - epsilon
            down = probe()
            flat[k] = orig
            numeric = (up - down) / (2 * epsilon)
            gap = abs(aflat[k] - numeric) / max(abs(aflat[k]), abs(numeric), 1e-8)
            worst = max(worst, gap)
    return worst
