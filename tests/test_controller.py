"""Inverse-dynamics network: forward math, gradients, training behavior."""

import re

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    ControllerModel,
    DemonstrationSet,
    StateLayout,
    TrainConfig,
    TrainingTriples,
    Trajectory,
    gradient_check,
    supervision,
    train,
)
from koopmanix.controller import evaluate, forward, init, loss
from koopmanix.envs import default_expert, generate_demos, pointmass_env

LAYOUT_1D = StateLayout(n=1, m=0, a=1)


def _walk_demos(seed, n_traj=5, horizon=101):
    """Scalar random-walk states with the exact inverse law tau = 2 (x' - x)."""
    rng = np.random.default_rng(seed)
    trajs = []
    for _ in range(n_traj):
        x = np.cumsum(rng.normal(0.0, 0.01, size=horizon))
        states = tuple(CompositeState([xi], []) for xi in x)
        taus = tuple(np.array([2.0 * (x[t + 1] - x[t])]) for t in range(horizon - 1))
        trajs.append(Trajectory(states, taus))
    return DemonstrationSet(LAYOUT_1D, tuple(trajs))


def _zero_torque_demos(seed, n_traj=3, horizon=21):
    rng = np.random.default_rng(seed)
    trajs = []
    for _ in range(n_traj):
        x = rng.normal(0.0, 1.0, size=horizon)
        states = tuple(CompositeState([xi], []) for xi in x)
        taus = tuple(np.zeros(1) for _ in range(horizon - 1))
        trajs.append(Trajectory(states, taus))
    return DemonstrationSet(LAYOUT_1D, tuple(trajs))


def _tiny_model(weights, biases, sizes, mean=None, std=None):
    k = sizes[0]
    return ControllerModel(
        layer_sizes=sizes,
        weights=tuple(np.atleast_2d(np.asarray(W, float)) for W in weights),
        biases=tuple(np.atleast_1d(np.asarray(b, float)) for b in biases),
        input_mean=np.zeros(k) if mean is None else np.asarray(mean, float),
        input_std=np.ones(k) if std is None else np.asarray(std, float),
    )


# ---- model construction ----


def test_model_rejects_bad_shapes():
    with pytest.raises(ValueError, match="layer_sizes"):
        _tiny_model([], [], (3,))
    with pytest.raises(ValueError, match="weights\\[0\\]"):
        _tiny_model([[[1.0, 2.0]]], [[0.0]], (1, 1))
    with pytest.raises(ValueError, match="biases\\[0\\]"):
        _tiny_model([[[1.0]]], [[0.0, 0.0]], (1, 1))
    with pytest.raises(ValueError, match="input_mean"):
        _tiny_model([[[1.0]]], [[0.0]], (1, 1), mean=[0.0, 0.0], std=[1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        _tiny_model([[[1.0]]], [[0.0]], (1, 1), std=[0.0])


def test_model_arrays_are_frozen():
    model = init(LAYOUT_1D, seed=0)
    with pytest.raises(ValueError):
        model.weights[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        model.input_mean[0] = 1.0


# ---- forward evaluation ----


def test_hand_network_evaluation():
    # 1-1-1 chain: relu(2 x) then 3 (.): at x=1 the output is 3 * relu(2) = 6,
    # at x=-1 the rectifier clips to zero.
    model = _tiny_model([[[2.0]], [[3.0]]], [[0.0], [0.0]], (1, 1, 1))
    assert evaluate(model, [1.0]) == pytest.approx(6.0)
    assert evaluate(model, [-1.0]) == 0.0


def test_single_layer_is_linear():
    # one transition means the output layer, so no rectifier anywhere
    model = _tiny_model([[[3.0]]], [[1.0]], (1, 1))
    assert evaluate(model, [-2.0]) == pytest.approx(-5.0)


def test_standardization_applied_before_network():
    model = _tiny_model([[[1.0]]], [[0.0]], (1, 1), mean=[3.0], std=[2.0])
    assert evaluate(model, [5.0]) == pytest.approx(1.0)
    assert evaluate(model, [3.0]) == 0.0


def test_evaluate_rejects_wrong_width():
    model = init(LAYOUT_1D, seed=0)
    with pytest.raises(ValueError, match="shape"):
        evaluate(model, [1.0, 2.0, 3.0])


def test_forward_concatenates_transition():
    model = init(StateLayout(n=2, m=0, a=2), seed=5)
    x_now = np.array([0.3, -0.7])
    x_next = np.array([0.4, -0.5])
    want = evaluate(model, np.concatenate([x_now, x_next]))
    assert np.array_equal(forward(model, x_now, x_next), want)
    with pytest.raises(ValueError, match="input width"):
        forward(model, x_now, np.array([1.0]))


def test_scaling_last_layer_scales_output():
    base = init(StateLayout(n=2, m=0, a=1), seed=3)
    scaled = ControllerModel(
        layer_sizes=base.layer_sizes,
        weights=base.weights[:-1] + (2.0 * base.weights[-1],),
        biases=base.biases[:-1] + (2.0 * base.biases[-1],),
        input_mean=base.input_mean,
        input_std=base.input_std,
    )
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = rng.normal(size=4)
        assert np.allclose(evaluate(scaled, z), 2.0 * evaluate(base, z), rtol=1e-14)


# ---- loss ----


def test_zero_network_loss_is_weighted_squared_torque():
    model = _tiny_model([[[0.0, 0.0]]], [[0.0]], (2, 1))
    triples = TrainingTriples.from_arrays([[1.0]], [[2.0]], [[3.0]])
    assert loss(model, triples) == pytest.approx(9.0)


def test_loss_weighting_hand_example():
    model = _tiny_model([[[0.0, 0.0]]], [[0.0]], (2, 1))
    triples = TrainingTriples(
        x_now=[[0.0], [0.0]],
        x_next=[[0.0], [0.0]],
        tau=[[1.0], [3.0]],
        weights=[0.25, 0.75],
    )
    assert loss(model, triples) == pytest.approx(0.25 * 1.0 + 0.75 * 9.0)


def test_triples_validation():
    with pytest.raises(ValueError, match="pair count"):
        TrainingTriples([[1.0]], [[2.0], [3.0]], [[0.0]], [1.0])
    with pytest.raises(ValueError, match="positive"):
        TrainingTriples([[1.0]], [[2.0]], [[0.0]], [0.0])


# ---- supervision extraction ----


def test_supervision_weights_follow_trajectory_structure():
    short = Trajectory(
        tuple(CompositeState([float(t)], []) for t in range(3)),
        (np.array([10.0]), np.array([11.0])),
    )
    long = Trajectory(
        tuple(CompositeState([float(10 + t)], []) for t in range(5)),
        tuple(np.array([20.0 + t]) for t in range(4)),
    )
    triples = supervision(DemonstrationSet(LAYOUT_1D, (short, long)))
    assert triples.count == 6
    # each trajectory contributes total weight 1/N regardless of its horizon
    assert np.allclose(triples.weights, [0.25, 0.25, 0.125, 0.125, 0.125, 0.125])
    assert triples.weights.sum() == pytest.approx(1.0)
    assert np.array_equal(triples.x_now[:, 0], [0.0, 1.0, 10.0, 11.0, 12.0, 13.0])
    assert np.array_equal(triples.x_next[:, 0], [1.0, 2.0, 11.0, 12.0, 13.0, 14.0])
    assert np.array_equal(triples.tau[:, 0], [10.0, 11.0, 20.0, 21.0, 22.0, 23.0])


def test_supervision_requires_torques():
    bare = Trajectory(tuple(CompositeState([float(t)], []) for t in range(3)))
    with pytest.raises(ValueError, match="trajectory 0"):
        supervision(DemonstrationSet(LAYOUT_1D, (bare,)))


def test_duplicating_demos_leaves_loss_unchanged():
    demos = _walk_demos(0, n_traj=2, horizon=11)
    doubled = DemonstrationSet(LAYOUT_1D, demos.trajectories + demos.trajectories)
    model = init(LAYOUT_1D, seed=1)
    assert loss(model, supervision(demos)) == pytest.approx(
        loss(model, supervision(doubled)), rel=1e-14
    )


# ---- initialization ----


def test_init_shapes_and_bounds():
    layout = StateLayout(n=3, m=0, a=2)
    model = init(layout, seed=42)
    assert model.layer_sizes == (6, 12, 12, 6, 2)
    for W, b, (fi, fo) in zip(
        model.weights, model.biases, zip(model.layer_sizes[:-1], model.layer_sizes[1:])
    ):
        assert W.shape == (fo, fi)
        lim = np.sqrt(6.0 / (fi + fo))
        assert np.abs(W).max() <= lim
        assert np.array_equal(b, np.zeros(fo))
    assert np.array_equal(model.input_mean, np.zeros(6))
    assert np.array_equal(model.input_std, np.ones(6))


def test_init_is_seeded():
    layout = StateLayout(n=2, m=0, a=1)
    a0 = init(layout, seed=7)
    a1 = init(layout, seed=7)
    b = init(layout, seed=8)
    for W0, W1 in zip(a0.weights, a1.weights):
        assert np.array_equal(W0, W1)
    assert any(not np.array_equal(Wa, Wb) for Wa, Wb in zip(a0.weights, b.weights))


# ---- gradients ----


def test_gradient_check_on_random_models():
    layout = StateLayout(n=2, m=0, a=2)
    rng = np.random.default_rng(99)
    accepted = 0
    while accepted < 20:
        model = init(layout, seed=int(rng.integers(0, 2**31)))
        x_now, x_next = rng.normal(size=2), rng.normal(size=2)
        tau = rng.normal(size=2)
        # skip draws with a hidden pre-activation near the rectifier kink,
        # where the central difference straddles the non-differentiable point
        H = np.concatenate([x_now, x_next])[None, :]
        near_kink = False
        for l, (W, b) in enumerate(zip(model.weights, model.biases)):
            pre = H @ W.T + b
            if l < len(model.weights) - 1:
                near_kink |= bool(np.abs(pre).min() < 1e-4)
                H = np.maximum(pre, 0.0)
        if near_kink:
            continue
        accepted += 1
        assert gradient_check(model, (x_now, x_next, tau)) < 1e-4


def test_gradient_check_epsilon_domain():
    model = init(LAYOUT_1D, seed=0)
    triple = (np.zeros(1), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="epsilon"):
        gradient_check(model, triple, epsilon=1e-8)
    with pytest.raises(ValueError, match="epsilon"):
        gradient_check(model, triple, epsilon=1e-3)


# ---- training ----


def test_train_config_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {value}"):
            TrainConfig(learning_rate=value)
    with pytest.raises(ValueError, match="iterations"):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError, match="batch"):
        TrainConfig(batch=0)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("field, value, message", [
    ("iterations", 2.5, "iterations must be an integer, got 2.5"),
    ("iterations", True, "iterations must be an integer, got True"),
    ("batch", 64.5, "batch must be None or an integer, got 64.5"),
    ("batch", True, "batch must be None or an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", False, "seed must be an integer, got False"),
])
def test_train_config_integer_fields(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(iterations=np.int64(3), batch=np.int32(16), seed=np.uint8(2))
    assert (cfg.iterations, cfg.batch, cfg.seed) == (3, 16, 2)


def test_history_starts_at_initial_loss():
    demos = _walk_demos(4, n_traj=2, horizon=21)
    cfg = TrainConfig(learning_rate=1e-4, iterations=5, batch=None, seed=11)
    _, history = train(demos, cfg)
    assert history.shape == (5,)

    triples = supervision(demos)
    inputs = np.concatenate([triples.x_now, triples.x_next], axis=1)
    m0 = init(demos.layout, cfg.seed)
    model0 = ControllerModel(
        layer_sizes=m0.layer_sizes,
        weights=m0.weights,
        biases=m0.biases,
        input_mean=inputs.mean(axis=0),
        input_std=np.maximum(inputs.std(axis=0), 1e-8),
    )
    assert history[0] == loss(model0, triples)


def test_train_is_deterministic():
    demos = _walk_demos(2, n_traj=3, horizon=31)
    cfg = TrainConfig(learning_rate=1e-3, iterations=20, batch=16, seed=5)
    m1, h1 = train(demos, cfg)
    m2, h2 = train(demos, cfg)
    assert np.array_equal(h1, h2)
    for W1, W2 in zip(m1.weights, m2.weights):
        assert np.array_equal(W1, W2)
    for b1, b2 in zip(m1.biases, m2.biases):
        assert np.array_equal(b1, b2)


def test_train_zero_torque_converges():
    demos = _zero_torque_demos(7)
    cfg = TrainConfig(learning_rate=1e-2, iterations=500, batch=None, seed=3)
    model, history = train(demos, cfg)
    final = loss(model, supervision(demos))
    assert final < 1e-6
    assert final < history[0]


def test_train_learns_linear_inverse_dynamics():
    for seed in (0, 1, 2):
        demos = _walk_demos(seed)
        cfg = TrainConfig(learning_rate=1e-4, iterations=300, batch=16, seed=seed)
        model, history = train(demos, cfg)
        final = loss(model, supervision(demos))
        assert final < 1e-3
        assert final < history[0] / 10


def test_train_sgd_decreases_loss():
    demos = _walk_demos(0)
    cfg = TrainConfig(learning_rate=1e-2, iterations=50, batch=None, seed=0, optimizer="sgd")
    model, history = train(demos, cfg)
    assert loss(model, supervision(demos)) < history[0] / 10


def test_train_requires_torques():
    bare = Trajectory(tuple(CompositeState([float(t)], []) for t in range(3)))
    with pytest.raises(ValueError, match="torques"):
        train(DemonstrationSet(LAYOUT_1D, (bare,)), TrainConfig(iterations=1))


def test_train_names_the_invalid_demo_step():
    good, bad = _walk_demos(0, n_traj=2, horizon=6).trajectories
    x_r = bad.x_r.copy()
    x_r[4, 0] = np.nan
    demos = DemonstrationSet(LAYOUT_1D, (good, Trajectory.from_arrays(x_r, bad.x_o, bad.torques)))
    message = "invalid demonstrations (1 violations; first: traj 1, t 4: non-finite state entry)"
    with pytest.raises(ValueError) as exc:
        train(demos, TrainConfig(iterations=1))
    assert str(exc.value) == message


# ---- pin: the flat-vector trainer against the per-array reference loop ----


def _reference_train(demos, config):
    """The per-array trainer the flat-vector `train` replaced, kept as an oracle.

    Each iteration runs a full-batch forward and backward pass for the history
    entry, then per-array Adam or SGD updates, exactly as before the rewrite.
    """

    def net_forward(weights, biases, Z):
        hs, zs, H = [Z], [], Z
        last = len(weights) - 1
        for l, (W, b) in enumerate(zip(weights, biases)):
            pre = H @ W.T + b
            zs.append(pre)
            H = pre if l == last else np.maximum(pre, 0.0)
            hs.append(H)
        return hs, zs

    def grads(weights, biases, Z, tau, w):
        hs, zs = net_forward(weights, biases, Z)
        err = hs[-1] - tau
        value = float(np.sum(w * np.sum(err * err, axis=1)))
        delta = 2.0 * w[:, None] * err
        L = len(weights)
        dWs, dbs = [None] * L, [None] * L
        for l in range(L - 1, -1, -1):
            dWs[l] = delta.T @ hs[l]
            dbs[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ weights[l]) * (zs[l - 1] > 0)
        return value, dWs, dbs

    triples = supervision(demos)
    inputs = np.concatenate([triples.x_now, triples.x_next], axis=1)
    mean = inputs.mean(axis=0)
    std = np.maximum(inputs.std(axis=0), 1e-8)
    m0 = init(demos.layout, config.seed)
    Z = (inputs - mean) / std
    tau, w = triples.tau, triples.weights
    weights = [W.copy() for W in m0.weights]
    biases = [b.copy() for b in m0.biases]
    shuffle_rng = np.random.default_rng([config.seed, 1])
    adam_m = [np.zeros_like(W) for W in weights] + [np.zeros_like(b) for b in biases]
    adam_v = [np.zeros_like(g) for g in adam_m]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def apply(dWs, dbs):
        nonlocal step
        step += 1
        grads_ = list(dWs) + list(dbs)
        params = weights + biases
        if config.optimizer == "sgd":
            for pmod, g in zip(params, grads_):
                pmod -= config.learning_rate * g
            return
        for k, (pmod, g) in enumerate(zip(params, grads_)):
            adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
            adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g * g
            m_hat = adam_m[k] / (1 - beta1**step)
            v_hat = adam_v[k] / (1 - beta2**step)
            pmod -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    P = triples.count
    history = np.empty(config.iterations)
    for it in range(config.iterations):
        value, dWs, dbs = grads(weights, biases, Z, tau, w)
        history[it] = value
        if config.batch is None or config.batch >= P:
            apply(dWs, dbs)
            continue
        perm = shuffle_rng.permutation(P)
        for lo in range(0, P, config.batch):
            idx = perm[lo : lo + config.batch]
            wb = w[idx]
            _, dWs, dbs = grads(weights, biases, Z[idx], tau[idx], wb / wb.sum())
            apply(dWs, dbs)
    return weights, biases, history


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("config", [
    TrainConfig(learning_rate=1e-3, iterations=12, batch=50, seed=7),
    TrainConfig(learning_rate=1e-3, iterations=12, batch=None, seed=7),
    TrainConfig(learning_rate=1e-3, iterations=12, batch=50, seed=7, optimizer="sgd"),
    TrainConfig(learning_rate=1e-3, iterations=12, batch=174, seed=7),
    TrainConfig(learning_rate=1e-3, iterations=12, batch=1, seed=7),
], ids=["adam-minibatch", "adam-full", "sgd-minibatch", "adam-batch-is-P", "adam-batch-1"])
def test_train_is_bit_identical_to_the_per_array_loop(config):
    env = pointmass_env()
    demos = generate_demos(env, default_expert(env), 6, 30, seed=42)
    P = supervision(demos).count
    assert P == 174 and P % 50 != 0
    model, history = train(demos, config)
    weights, biases, ref_history = _reference_train(demos, config)
    assert np.array_equal(_bits(history), _bits(ref_history))
    for got, want in zip(model.weights + model.biases, weights + biases):
        assert np.array_equal(_bits(got), _bits(want))


def test_train_logs_one_summary_line(caplog, capsys):
    demos = _walk_demos(4, n_traj=2, horizon=21)
    cfg = TrainConfig(learning_rate=1e-4, iterations=3, batch=15, seed=11)
    with caplog.at_level("INFO", logger="koopmanix.controller"):
        _, history = train(demos, cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "koopmanix.controller"]
    assert lines == [
        f"train: pairs=40 batch=15 updates=9 loss_first={history[0]:.6g} loss_last={history[-1]:.6g}"
    ]

    caplog.clear()
    with caplog.at_level("INFO", logger="koopmanix.controller"):
        train(demos, TrainConfig(iterations=2, batch=None))
    assert [r.getMessage().split(" loss_first")[0] for r in caplog.records] == [
        "train: pairs=40 batch=full updates=2"
    ]
    assert capsys.readouterr().out == ""
