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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .statespace import DemonstrationSet, StateLayout, _adopt, _array, _count, _items, _real, require_valid

STD_FLOOR = 1e-8  # clamp for per-dimension input std

# most rows per block of a loss pass, which bounds the pass's workspace: each
# layer's output, the error and each bias tiled to the block.  At pointmass
# 100 x 100, 512 rows measured a traced peak of 1.72 MB for train at batch 256
# and 1.10 MB for loss, against 2.03 and 1.42 MB at 1,024 rows and 2.70 and
# 2.09 MB at 2,048; a history pass over the 9,900 pairs took 1.09-1.15 ms
# against 0.99-1.04 at 1,024 and 1.00-1.09 at 2,048 (medians of 300 passes,
# interleaved in one process, 3 processes, on 2 cores)
LOSS_BLOCK_ROWS = 512


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: a Python float operand costs
    every ufunc call a conversion, a tenth of a one-row layer"""
    arr = np.full((), value)
    arr.setflags(write=False)
    return arr


_ZERO = _constant(0.0)  # the rectifier's threshold

logger = logging.getLogger(__name__)


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
        sizes = tuple(_count(f"layer_sizes[{i}]", s, 1) for i, s in enumerate(_items("layer_sizes", self.layer_sizes, 2)))
        weights, biases = _items("weights", self.weights), _items("biases", self.biases)
        if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
            raise ValueError("need one weight matrix and one bias per layer transition")
        weights = tuple(_array(f"weights[{l}]", W, (sizes[l + 1], sizes[l])) for l, W in enumerate(weights))
        biases = tuple(_array(f"biases[{l}]", b, (sizes[l + 1],)) for l, b in enumerate(biases))
        mean = _array("input_mean", self.input_mean, (sizes[0],))
        std = _array("input_std", self.input_std, (sizes[0],))
        if not (std > 0).all():
            raise ValueError("input_std entries must be positive")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "input_mean", mean)
        object.__setattr__(self, "input_std", std)


# TrainConfig field -> its rule: rule(name, value) is value as the field
# holds it, or a ValueError naming name.  The CLI checks its train keys and
# flags by the same rules.
TRAIN_RULES = {
    "learning_rate": partial(_real, low=0, strict=True),
    "iterations": partial(_count, low=1),
    "batch": lambda name, value: None if value is None else _count(name, value, 1),
    "seed": partial(_count, low=0),
}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    iterations: int = 300
    batch: int | None = 64  # None = full batch, as is any batch >= the pair count
    seed: int = 0

    def __post_init__(self):
        for name, rule in TRAIN_RULES.items():
            object.__setattr__(self, name, rule(name, getattr(self, name)))


@dataclass(frozen=True)
class TrainingTriples:
    """Flattened supervision (x_r(t), x_r(t+1), tau(t)) with per-pair weights.

    Weights sum to one; `supervision` derives them from trajectory structure.
    """

    x_now: np.ndarray
    x_next: np.ndarray
    tau: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x_now = _array("x_now", self.x_now, (None, None), finite=False)
        P, n = x_now.shape
        if P < 1:
            raise ValueError("need at least one supervision triple")
        object.__setattr__(self, "x_now", x_now)
        object.__setattr__(self, "x_next", _array("x_next", self.x_next, (P, n), finite=False))
        object.__setattr__(self, "tau", _array("tau", self.tau, (P, None), finite=False))
        weights = _array("weights", self.weights, (P,), finite=False)
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", weights)

    @property
    def count(self) -> int:
        return self.x_now.shape[0]


def _pairs(demos: DemonstrationSet):
    """Every transition of every demo, each written once into new arrays.

    Returns Z = [x_r(t) | x_r(t+1)] (P, 2n), tau (P, a) and the weights (P,),
    each pair of a trajectory weighing 1 / (N (T_i - 1)).
    """
    require_valid(demos)
    for i, traj in enumerate(demos.trajectories):
        if traj.torques is None:
            raise ValueError(f"trajectory {i} has no torques; controller training needs them")
    N, n = demos.n_demos, demos.layout.n
    P = sum(traj.horizon - 1 for traj in demos.trajectories)
    Z, tau, w = np.empty((P, 2 * n)), np.empty((P, demos.layout.a)), np.empty(P)
    at = 0
    for traj in demos.trajectories:
        pairs = traj.horizon - 1
        Z[at : at + pairs, :n] = traj.x_r[:-1]
        Z[at : at + pairs, n:] = traj.x_r[1:]
        tau[at : at + pairs] = traj.torques
        w[at : at + pairs] = 1.0 / (N * pairs)
        at += pairs
    return Z, tau, w


def supervision(demos: DemonstrationSet) -> TrainingTriples:
    """Extract (x_r(t), x_r(t+1), tau(t)) from every transition of every demo.

    x_now and x_next are read-only column views of one (P, 2n) array.
    """
    Z, tau, w = _pairs(demos)
    for arr in (Z, tau, w):
        arr.setflags(write=False)
    n = demos.layout.n
    return _adopt(TrainingTriples, x_now=Z[:, :n], x_next=Z[:, n:], tau=tau, weights=w)


def init(layout: StateLayout, seed: int) -> ControllerModel:
    """Seeded init: layer sizes [2n, 4n, 4n, 2n, a], uniform weights in
    +-sqrt(6 / (fan_in + fan_out)), zero biases, identity input norm."""
    n, a = layout.n, layout.a
    sizes = (2 * n, 4 * n, 4 * n, 2 * n, a)
    rng = np.random.default_rng(_count("seed", seed, 0))
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
    `_forward`.  The backward arrays, and the gathered inputs, torques and
    weights of a minibatch, are allocated only when `backward` is set.
    """

    def __init__(self, weights, biases, rows: int, backward: bool):
        widths = [W.shape[0] for W in weights]
        self.acts = [np.empty((rows, k)) for k in widths]
        self.layers = _bind(weights, biases, self.acts)
        self.err = np.empty((rows, widths[-1]))
        if backward:
            self.row = np.empty(rows)  # 2 w in backprop
            self.deltas = [np.empty((rows, k)) for k in widths]
            self.masks = [np.empty((rows, k), dtype=bool) for k in widths[:-1]]
            self.Z = np.empty((rows, weights[0].shape[1]))
            self.tau = np.empty((rows, widths[-1]))
            self.w = np.empty(rows)  # the weights, then scaled in place to sum to one

    def head(self, rows: int) -> _Workspace:
        """This workspace cut to its leading rows: views of the same buffers, bound alike."""
        view = object.__new__(_Workspace)
        for name, value in vars(self).items():
            if name != "layers":
                setattr(view, name, [a[:rows] for a in value] if isinstance(value, list) else value[:rows])
        view.layers = [(W_T, b, H) for (W_T, b, _), H in zip(self.layers, view.acts)]
        return view


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


def _loss_pass(weights, biases, Z, tau, w):
    """A function that returns sum_k w_k |net(Z_k) - tau_k|^2 under the current weights.

    The rows run through one forward-only workspace in near-equal blocks of
    at most LOSS_BLOCK_ROWS and at least 2 rows, each block writing its
    rows' terms into one vector over all rows, which is then summed in one
    contiguous reduction: numpy's pairwise sum, the same to the bit as a
    single pass over all rows.  That needs every block large enough that
    BLAS rounds its rows as in a larger product: a lone row runs as gemv,
    and at inner width 48 OpenBLAS takes another kernel for blocks under
    ~50 rows, so no block is a short remainder.  A block one row shorter
    uses the workspace's leading rows.  Each call first tiles every bias
    into a buffer of the block's shape, so a block adds a same-shaped tile,
    not a broadcast row; the sums are the same.  Blocks are bound once
    here; the weights and biases may be updated in place between calls.
    """
    P = Z.shape[0]
    count = max(min(-(-P // LOSS_BLOCK_ROWS), P // 2), 1)
    bounds = [P * k // count for k in range(count + 1)]
    rows = -(-P // count)
    ws = _Workspace(weights, biases, rows, backward=False)
    tiles = [np.empty((rows, b.shape[0])) for b in biases]
    terms = np.empty(P)
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = ws.head(hi - lo)
        layers = _bind(weights, [tile[: hi - lo] for tile in tiles], part.acts)
        blocks.append((layers, part.err, Z[lo:hi], tau[lo:hi], w[lo:hi], terms[lo:hi]))

    def value() -> float:
        for b, tile in zip(biases, tiles):
            np.copyto(tile, b)
        for layers, err, Zb, taub, wb, row in blocks:
            np.subtract(_forward(layers, Zb), taub, out=err)
            np.multiply(err, err, out=err)
            np.add.reduce(err, axis=1, out=row)
            np.multiply(wb, row, out=row)
        return float(np.add.reduce(terms))

    return value


def _backprop(weights, Z, acts, tau, w, gWs, gbs, ws: _Workspace) -> None:
    """Gradients of sum_k w_k |net(Z_k) - tau_k|^2, written into gWs, gbs.

    `acts` are the layer outputs of `_forward` on Z with the same weights.
    A hidden unit passes gradient where its rectified output is positive,
    which is where its pre-activation is.  A bias gradient sums its delta's
    rows one after another where the layer is two or more wide, as
    `delta.sum(axis=0)` does, through einsum, which is cheaper; numpy sums
    a one-wide column pairwise, and einsum would not, so such a layer keeps
    the reduction.  einsum's order is numpy's implementation, not its
    contract; the trainer's bit pins hold it.
    """
    last = len(weights) - 1
    err = np.subtract(acts[last], tau, out=ws.err)
    scale = np.add(w, w, out=ws.row)  # 2 w, exactly
    delta = np.einsum("ij,i->ij", err, scale, out=ws.deltas[last])
    for l in range(last, -1, -1):
        np.matmul(delta.T, acts[l - 1] if l > 0 else Z, out=gWs[l])
        if delta.shape[1] > 1:
            np.einsum("ij->j", delta, out=gbs[l])
        else:
            np.add.reduce(delta, axis=0, out=gbs[l])
        if l > 0:
            prev = np.matmul(delta, weights[l], out=ws.deltas[l - 1])
            delta = np.multiply(prev, np.greater(acts[l - 1], _ZERO, out=ws.masks[l - 1]), out=prev)


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


def _inputs(model: ControllerModel, x_now, x_next) -> np.ndarray:
    """The network inputs [x_now | x_next] as one new array, standardized in place."""
    Z = np.concatenate([x_now, x_next], axis=-1)
    Z -= model.input_mean
    Z /= model.input_std
    return Z


def _transition(model: ControllerModel, x_now, x_next) -> np.ndarray:
    """The standardized (1, 2n) input of one transition, from vectors that jointly have the input width."""
    x_now, x_next = _array("x_now", x_now, (None,)), _array("x_next", x_next, (None,))
    n2 = model.layer_sizes[0]
    if x_now.size + x_next.size != n2:
        raise ValueError(f"x_now and x_next must jointly match the input width {n2}, got {x_now.size} + {x_next.size}")
    return _inputs(model, x_now, x_next)[None]


def forward(model: ControllerModel, x_now, x_next) -> np.ndarray:
    """Torque for the transition x_r(t) -> x_r(t+1), standardization included."""
    return _forward(_bind(model.weights, model.biases), _transition(model, x_now, x_next))[0]


def tracking_torque(model: ControllerModel, ref: np.ndarray, layout: StateLayout):
    """The closed loop's network torque source: an `envs._run` torque on the B rows [x_r(t) | ref(t+1)].

    ref (T, B, n) holds the references; the model must map the layout's 2n
    inputs to its a torques.  The reference half of every step's input is
    standardized up front, and the layers are bound once, hidden outputs to
    buffers of their own; a step standardizes x_r(t) into its half and the
    output layer writes straight into the step's torque rows.  The rows go
    through the network as a (B, 1, 2n) stack, one product per row, so each
    row rounds exactly as a `forward` call of its own.  `_run` checks the
    torques after the loop.
    """
    sizes = model.layer_sizes
    if (sizes[0], sizes[-1]) != (2 * layout.n, layout.a):
        raise ValueError(
            f"controller maps {sizes[0]} inputs to {sizes[-1]} torques; "
            f"the layout needs {2 * layout.n} to {layout.a}"
        )
    n, B = layout.n, ref.shape[1]
    mean, std = model.input_mean, model.input_std
    Z = np.empty((ref.shape[0] - 1, B, 1, 2 * n))
    np.divide(np.subtract(ref[1:, :, None], mean[n:], out=Z[..., n:]), std[n:], out=Z[..., n:])
    inputs = list(Z)
    nows = [z[:, 0, :n] for z in inputs]
    # constants shaped like one row: for B = 1 a ufunc then skips broadcasting
    mean_r, std_r = mean[None, :n], std[None, :n]
    hidden = [np.empty((B, 1, k)) for k in sizes[1:-1]]
    layers = _bind(model.weights, [b[None, None] for b in model.biases], hidden + [None])

    def torque(t, x_r, x_o, inner, out):
        now = nows[t]
        np.divide(np.subtract(x_r, mean_r, out=now), std_r, out=now)
        _forward(layers, inputs[t], out[:, None])

    return torque


def loss(model: ControllerModel, triples: TrainingTriples) -> float:
    """Weighted mean squared torque error over the triples, standardized in place in one copy."""
    Z = _inputs(model, triples.x_now, triples.x_next)
    return _loss_pass(model.weights, model.biases, Z, triples.tau, triples.weights)()


def train(
    demos: DemonstrationSet,
    config: TrainConfig = TrainConfig(),
) -> tuple[ControllerModel, np.ndarray]:
    """Train a controller on demonstration transitions.

    Returns the model and the per-iteration loss history: history[it] is the
    full-batch training loss before iteration it, so history[0] equals
    `loss` of the initial model; it comes from a forward-only pass.  One
    iteration is a seeded-shuffle sweep of minibatch steps over the P
    triples, each gathering its slice of the permutation into the step
    workspace.  A full batch is one minibatch of all pairs: batch=None, or
    a batch of P or more, makes one step of all P rows per iteration, in
    shuffled order.  The inputs, torques and weights are built once from
    the demos, and the inputs standardized in place.  All weights and
    biases live in one flat float64 vector; the per-layer arrays are shaped
    views into it, gradients land in a matching flat buffer, and Adam
    updates the vector in place.  Every buffer a pass writes is allocated
    once per call and reused by every iteration.  The history pass streams
    the rows through one workspace of at most LOSS_BLOCK_ROWS rows, so past
    that fixed block and the step workspace of min(batch, P) rows, `train` holds
    2n + a + 3 eight-byte words per pair: the standardized inputs, torques
    and weights, the per-row loss terms and the permutation.  The step
    workspace holds its rows' layer outputs, deltas and masks and their
    gathered inputs, torques and weights, so at a full batch it grows with
    P too.  Identical inputs give bit-identical weights.
    """
    Z, tau, w = _pairs(demos)
    P = len(w)
    mean = Z.mean(axis=0)
    std = np.maximum(Z.std(axis=0), STD_FLOOR)
    model = replace(init(demos.layout, config.seed), input_mean=mean, input_std=std)
    Z -= mean  # (inputs - mean) / std, in place
    Z /= std

    sizes = model.layer_sizes
    theta = _flat_params(model)
    grad = np.zeros_like(theta)
    weights, biases = _flat_views(sizes, theta)
    gWs, gbs = _flat_views(sizes, grad)
    shuffle_rng = np.random.default_rng([config.seed, 1])

    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    s1 = np.empty_like(theta)
    s2 = np.empty_like(theta)
    beta1, beta2 = 0.9, 0.999
    b1, b2, c1, c2, eps, lr = map(_constant, (beta1, beta2, 1 - beta1, 1 - beta2, 1e-8, config.learning_rate))
    step = 0

    def apply():
        # in place, with the operand order of m = beta1 m + (1 - beta1) g,
        # v = beta2 v + (1 - beta2) g g, theta -= lr m_hat / (sqrt(v_hat) + eps),
        # so every element rounds exactly as in those expressions
        nonlocal step
        step += 1
        np.add(np.multiply(adam_m, b1, out=adam_m), np.multiply(grad, c1, out=s1), out=adam_m)
        np.multiply(np.multiply(grad, c2, out=s1), grad, out=s1)
        np.add(np.multiply(adam_v, b2, out=adam_v), s1, out=adam_v)
        np.divide(adam_m, 1 - beta1**step, out=s1)
        np.add(np.sqrt(np.divide(adam_v, 1 - beta2**step, out=s2), out=s2), eps, out=s2)
        np.subtract(theta, np.divide(np.multiply(s1, lr, out=s1), s2, out=s1), out=theta)

    B = P if config.batch is None else min(config.batch, P)
    history_pass = _loss_pass(weights, biases, Z, tau, w)
    part = _Workspace(weights, biases, B, backward=True)
    tail = part.head(P % B)  # the shorter last minibatch

    history = np.empty(config.iterations)
    for it in range(config.iterations):
        value = history_pass()
        history[it] = value
        if not np.isfinite(value):
            raise ValueError(f"non-finite training loss at iteration {it}")
        perm = shuffle_rng.permutation(P)
        for lo in range(0, P, B):
            idx = perm[lo : lo + B]
            ws = part if len(idx) == B else tail
            # mode="clip" skips the bounds-check buffer; perm is always in range
            Z.take(idx, axis=0, out=ws.Z, mode="clip")
            tau.take(idx, axis=0, out=ws.tau, mode="clip")
            w.take(idx, out=ws.w, mode="clip")
            ws.w /= np.add.reduce(ws.w)
            _forward(ws.layers, ws.Z)
            _backprop(weights, ws.Z, ws.acts, ws.tau, ws.w, gWs, gbs, ws)
            apply()

    logger.info(
        "train: pairs=%d batch=%s updates=%d loss_first=%.6g loss_last=%.6g",
        P, "full" if B == P else B, step, history[0], history[-1],
    )
    final = replace(model, weights=tuple(weights), biases=tuple(biases))
    return final, history


def gradient_check(model: ControllerModel, triple, epsilon: float = 1e-5) -> float:
    """Max relative gap between analytic and central-difference gradients.

    The probe loss is the squared torque error of a single (x_now, x_next,
    tau) triple with weight one, read as `forward` reads its transition, and
    tau as an (a,) vector.  epsilon must lie in [1e-7, 1e-4].
    """
    epsilon = _real("epsilon", epsilon)
    if not (1e-7 <= epsilon <= 1e-4):
        raise ValueError(f"epsilon must lie in [1e-7, 1e-4], got {epsilon}")
    x_now, x_next, tau = triple
    Z = _transition(model, x_now, x_next)
    tau = _array("tau", tau, (model.layer_sizes[-1],))[None]
    one = np.ones(1)

    theta = _flat_params(model)
    grad = np.zeros_like(theta)
    weights, biases = _flat_views(model.layer_sizes, theta)
    ws = _Workspace(weights, biases, 1, backward=True)
    _forward(ws.layers, Z)
    _backprop(weights, Z, ws.acts, tau, one, *_flat_views(model.layer_sizes, grad), ws)
    probe = _loss_pass(weights, biases, Z, tau, one)

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
