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

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .statespace import DemonstrationSet, StateLayout, _is_int, require_valid

STD_FLOOR = 1e-8  # clamp for per-dimension input std

# the rectifier's 0-d zero: a Python float operand costs every ufunc call a
# conversion, a tenth of a one-row layer
_ZERO = np.zeros(())
_ZERO.setflags(write=False)

logger = logging.getLogger(__name__)


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

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"layer_sizes must be >= 2 positive entries, got {sizes}")
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("iterations", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (self.batch is None or _is_int(self.batch)):
            raise ValueError(f"batch must be None or an integer, got {self.batch!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be None or >= 1, got {self.batch}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    require_valid(demos)
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


class _Workspace:
    """Preallocated arrays for forward, loss and backward passes over `rows` rows.

    acts[l] receives layer l's output (rectified for hidden layers), and
    layers binds the given weights and biases to those buffers for
    `_forward`.  The backward arrays are allocated only when `backward` is
    set.
    """

    def __init__(self, weights, biases, rows: int, backward: bool):
        widths = [W.shape[0] for W in weights]
        self.acts = [np.empty((rows, k)) for k in widths]
        self.layers = _bind(weights, biases, self.acts)
        self.err = np.empty((rows, widths[-1]))
        self.row = np.empty(rows)  # per-row loss terms, or 2 w in backprop
        if backward:
            self.w = np.empty(rows)  # a minibatch's weights scaled to sum to one
            self.deltas = [np.empty((rows, k)) for k in widths]
            self.masks = [np.empty((rows, k), dtype=bool) for k in widths[:-1]]


def _bind(weights, biases, acts=None) -> list[tuple]:
    """Layers bound once for `_forward`: (transposed weight view, bias, output buffer) each.

    Biases may come shaped for the caller's rows.  acts holds one output
    buffer per layer; without it, or where an entry is None, the layer
    writes a new array.  The views follow the weights, so a caller that
    updates its weights in place binds them only once.
    """
    acts = acts or [None] * len(weights)
    return [(W.T, b, H) for W, b, H in zip(weights, biases, acts)]


def _forward(layers, Z, out=None) -> np.ndarray:
    """The output of the network bound in `layers` on the rows of Z.

    Hidden layers are rectified in their buffers; the linear output layer
    writes into out when given, else into its own buffer.
    """
    H = Z
    for W_T, b, buf in layers[:-1]:
        H = np.matmul(H, W_T, out=buf)
        H += b
        np.maximum(H, _ZERO, out=H)
    W_T, b, buf = layers[-1]
    H = np.matmul(H, W_T, out=buf if out is None else out)
    H += b
    return H


def _loss(out, tau, w, ws: _Workspace) -> float:
    """sum_k w_k |out_k - tau_k|^2 for network outputs `out`."""
    err = np.subtract(out, tau, out=ws.err)
    np.multiply(err, err, out=err)
    row = np.add.reduce(err, axis=1, out=ws.row)
    np.multiply(w, row, out=row)
    return float(np.add.reduce(row))


def _backprop(weights, Z, acts, tau, w, gWs, gbs, ws: _Workspace) -> None:
    """Gradients of sum_k w_k |net(Z_k) - tau_k|^2, written into gWs, gbs.

    `acts` are the layer outputs of `_forward` on Z with the same weights.
    A hidden unit passes gradient where its rectified output is positive,
    which is where its pre-activation is.
    """
    last = len(weights) - 1
    err = np.subtract(acts[last], tau, out=ws.err)
    scale = np.multiply(w, 2.0, out=ws.row)
    delta = np.multiply(scale[:, None], err, out=ws.deltas[last])
    for l in range(last, -1, -1):
        np.matmul(delta.T, acts[l - 1] if l > 0 else Z, out=gWs[l])
        np.add.reduce(delta, axis=0, out=gbs[l])
        if l > 0:
            prev = np.matmul(delta, weights[l], out=ws.deltas[l - 1])
            delta = np.multiply(prev, np.greater(acts[l - 1], 0.0, out=ws.masks[l - 1]), out=prev)


def _flat_views(sizes, theta):
    """Shaped (weights, biases) views into one flat buffer laid out W_0..W_L-1, b_0..b_L-1."""
    shapes = [(o, i) for i, o in zip(sizes[:-1], sizes[1:])] + [(o,) for o in sizes[1:]]
    views = []
    at = 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(theta[at : at + size].reshape(shape))
        at += size
    L = len(sizes) - 1
    return views[:L], views[L:]


def _flat_params(model: ControllerModel) -> np.ndarray:
    """A writable copy of the model's weights then biases as one float64 vector."""
    return np.concatenate([W.ravel() for W in model.weights] + list(model.biases))


def _normalize(model: ControllerModel, Z: np.ndarray) -> np.ndarray:
    return (Z - model.input_mean) / model.input_std


def evaluate(model: ControllerModel, z) -> np.ndarray:
    """Run the network on one raw input vector (standardization included)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.layer_sizes[0],):
        raise ValueError(f"input must have shape ({model.layer_sizes[0]},), got {z.shape}")
    return _forward(_bind(model.weights, model.biases), _normalize(model, z[None, :]))[0]


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
    ws = _Workspace(model.weights, model.biases, triples.count, backward=False)
    return _loss(_forward(ws.layers, Z), triples.tau, triples.weights, ws)


def train(
    demos: DemonstrationSet,
    config: TrainConfig = TrainConfig(),
) -> tuple[ControllerModel, np.ndarray]:
    """Train a controller on demonstration transitions.

    Returns the model and the per-iteration loss history: history[it] is the
    full-batch training loss before iteration it, so history[0] equals
    `loss` of the initial model; it comes from a forward-only pass.  One
    iteration is one pass over the triples: a single full-batch step at
    batch=None, or else a seeded-shuffle sweep of minibatch steps over
    contiguous slices of a shuffled copy of the triples.  All weights and
    biases live in one flat float64 vector; the per-layer arrays are shaped
    views into it, gradients land in a matching flat buffer, and Adam or SGD
    updates the vector in place.  Every buffer a pass writes is allocated
    once per call and reused by every iteration; the full-batch step reuses
    the history pass's layer outputs.  Identical inputs give bit-identical
    weights.
    """
    triples = supervision(demos)
    inputs = np.concatenate([triples.x_now, triples.x_next], axis=1)
    mean = inputs.mean(axis=0)
    std = np.maximum(inputs.std(axis=0), STD_FLOOR)
    model = replace(init(demos.layout, config.seed), input_mean=mean, input_std=std)

    Z = (inputs - mean) / std
    tau = triples.tau
    w = triples.weights
    sizes = model.layer_sizes
    theta = _flat_params(model)
    grad = np.zeros_like(theta)
    weights, biases = _flat_views(sizes, theta)
    gWs, gbs = _flat_views(sizes, grad)
    shuffle_rng = np.random.default_rng([config.seed, 1])

    lr = config.learning_rate
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    s1 = np.empty_like(theta)
    s2 = np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def apply():
        # in place, with the operand order of m = beta1 m + (1 - beta1) g,
        # v = beta2 v + (1 - beta2) g g, theta -= lr m_hat / (sqrt(v_hat) + eps),
        # so every element rounds exactly as in those expressions
        nonlocal step
        step += 1
        if config.optimizer == "sgd":
            np.subtract(theta, np.multiply(grad, lr, out=s1), out=theta)
            return
        np.add(np.multiply(adam_m, beta1, out=adam_m), np.multiply(grad, 1 - beta1, out=s1), out=adam_m)
        np.multiply(np.multiply(grad, 1 - beta2, out=s1), grad, out=s1)
        np.add(np.multiply(adam_v, beta2, out=adam_v), s1, out=adam_v)
        np.divide(adam_m, 1 - beta1**step, out=s1)
        np.add(np.sqrt(np.divide(adam_v, 1 - beta2**step, out=s2), out=s2), eps, out=s2)
        np.subtract(theta, np.divide(np.multiply(s1, lr, out=s1), s2, out=s1), out=theta)

    P = triples.count
    full = config.batch is None or config.batch >= P
    whole = _Workspace(weights, biases, P, backward=full)
    if not full:
        B = config.batch
        part = _Workspace(weights, biases, B, backward=True)
        tail = _Workspace(weights, biases, P % B, backward=True)  # the shorter last minibatch
        # a shuffled copy of the triples, refilled once per iteration, so
        # every minibatch is a contiguous slice of it
        Zs, taus, wsh = np.empty_like(Z), np.empty_like(tau), np.empty_like(w)

    history = np.empty(config.iterations)
    for it in range(config.iterations):
        value = _loss(_forward(whole.layers, Z), tau, w, whole)
        history[it] = value
        if not np.isfinite(value):
            raise ValueError(f"non-finite training loss at iteration {it}")
        if full:
            _backprop(weights, Z, whole.acts, tau, w, gWs, gbs, whole)
            apply()
            continue
        perm = shuffle_rng.permutation(P)
        # mode="clip" skips the bounds-check buffer; perm is always in range
        np.take(Z, perm, axis=0, out=Zs, mode="clip")
        np.take(tau, perm, axis=0, out=taus, mode="clip")
        np.take(w, perm, out=wsh, mode="clip")
        for lo in range(0, P, B):
            Zb, taub, wb = Zs[lo : lo + B], taus[lo : lo + B], wsh[lo : lo + B]
            ws = part if len(wb) == B else tail
            np.divide(wb, wb.sum(), out=ws.w)
            _forward(ws.layers, Zb)
            _backprop(weights, Zb, ws.acts, taub, ws.w, gWs, gbs, ws)
            apply()

    logger.info(
        "train: pairs=%d batch=%s updates=%d loss_first=%.6g loss_last=%.6g",
        P, "full" if full else config.batch, step, history[0], history[-1],
    )
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

    theta = _flat_params(model)
    grad = np.zeros_like(theta)
    weights, biases = _flat_views(model.layer_sizes, theta)
    ws = _Workspace(weights, biases, 1, backward=True)
    _forward(ws.layers, Z)
    _backprop(weights, Z, ws.acts, tau, one, *_flat_views(model.layer_sizes, grad), ws)

    def probe():
        return _loss(_forward(ws.layers, Z), tau, one, ws)

    worst = 0.0
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + epsilon
        up = probe()
        theta[k] = orig - epsilon
        down = probe()
        theta[k] = orig
        numeric = (up - down) / (2 * epsilon)
        gap = abs(grad[k] - numeric) / max(abs(grad[k]), abs(numeric), 1e-8)
        worst = max(worst, gap)
    return worst
