"""End-to-end acceptance checks.

Each test prints one line, `acceptance NN <name>: PASS|FAIL (measurements)`,
then asserts.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines for passing tests too.  Tolerances are pinned in the assertions.
"""

import csv
import io
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from koopmanix import (
    CompositeState,
    ControllerModel,
    DemonstrationSet,
    KoopmanModel,
    LiftingSpec,
    StateLayout,
    TrainConfig,
    Trajectory,
    cost,
    dimension,
    evaluate_success,
    execute_policy,
    fit,
    gradient_check,
    lift,
    lift_matrix,
    load_controller,
    load_demos,
    load_model,
    perturb_params,
    robot_slice,
    save_controller,
    save_demos,
    save_model,
    success_rate,
    supervision,
    train,
)
from koopmanix.cli import main as cli_main
from koopmanix.controller import init as controller_init, loss as controller_loss
from koopmanix.envs import (
    _closed_loop,
    _reset_rows,
    default_criterion,
    default_expert,
    generate_demos,
    linear_env_random,
    pointmass_env,
    reset,
    run_expert,
    vanderpol_env,
)
from koopmanix.koopman import prediction_errors


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


# shared pointmass pipeline for the closed-loop criteria
_PIPELINE: dict = {}


def _pointmass_pipeline() -> dict:
    if _PIPELINE:
        return _PIPELINE
    t0 = time.perf_counter()
    env = pointmass_env()
    expert = default_expert(env)
    demos = generate_demos(env, expert, 100, 100, seed=42)
    expert_rate = success_rate(demos.trajectories, default_criterion(env))
    model = fit(demos, LiftingSpec("kodex-polynomial", env.layout))
    controller, _ = train(
        demos, TrainConfig(learning_rate=1e-3, iterations=500, batch=256, seed=7)
    )
    _PIPELINE.update(
        env=env,
        expert=expert,
        model=model,
        controller=controller,
        expert_rate=expert_rate,
        build_s=time.perf_counter() - t0,
    )
    return _PIPELINE


def _closed_loop_rate(env, model, controller, seed_root: int, n_runs=100, horizon=100) -> float:
    criterion = default_criterion(env)
    rng = np.random.default_rng(seed_root)
    wins = 0
    for s in rng.integers(2**62, size=n_runs):
        traj = execute_policy(model, controller, env, reset(env, int(s)), horizon)
        wins += evaluate_success(traj, criterion).success
    return 100.0 * wins / n_runs


def _base_rate() -> float:
    pipe = _pointmass_pipeline()
    if "base_rate" not in pipe:
        t0 = time.perf_counter()
        pipe["base_rate"] = _closed_loop_rate(
            pipe["env"], pipe["model"], pipe["controller"], seed_root=5000
        )
        pipe["eval_s"] = time.perf_counter() - t0
    return pipe["base_rate"]


def test_01_exact_linear_recovery():
    t0 = time.perf_counter()
    env = linear_env_random(5, spectral_radius=0.9, seed=12)
    demos = generate_demos(env, default_expert(env), 10, 50, seed=3)
    model = fit(demos, LiftingSpec("identity", env.layout))
    gap = float(np.linalg.norm(model.K - env.matrix))
    elapsed = time.perf_counter() - t0
    ok = gap < 1e-8 and elapsed < 1.0
    assert _report(1, "exact-linear-recovery", ok, f"|K-M|_F={gap:.2e}, {elapsed:.2f}s")


def test_02_least_squares_optimality():
    env = vanderpol_env()
    spec = LiftingSpec("kodex-polynomial", env.layout)
    demos = generate_demos(env, default_expert(env), 20, 40, seed=8)
    model = fit(demos, spec)
    J_star = cost(model, demos)
    rng = np.random.default_rng(44)
    p = model.K.shape[0]
    worst = math.inf
    for _ in range(200):
        delta = rng.standard_normal((p, p))
        delta /= np.linalg.norm(delta)
        probe = KoopmanModel(model.K + 1e-3 * delta, spec, env.layout)
        worst = min(worst, cost(probe, demos) - J_star)
    ok = worst >= 0.0
    assert _report(2, "least-squares-optimality", ok, f"worst margin={worst:.2e} over 200 deltas")


def test_03_stacked_qr_oracle():
    # mixed horizons so the per-trajectory weighting matters
    env = vanderpol_env()
    expert = default_expert(env)
    spec = LiftingSpec("kodex-polynomial", env.layout)
    rng = np.random.default_rng(31)
    trajs = [
        run_expert(env, expert, reset(env, int(rng.integers(2**32))), 40 + (i * 7) % 30)
        for i in range(30)
    ]
    demos = DemonstrationSet(env.layout, tuple(trajs))
    model = fit(demos, spec)

    N = demos.n_demos
    X_rows, Y_rows = [], []
    for traj in demos.trajectories:
        raw = np.stack([s.full for s in traj.states])
        phi = lift_matrix(spec, raw)
        w = np.sqrt(1.0 / (N * (traj.horizon - 1)))
        X_rows.append(w * phi[:-1])
        Y_rows.append(w * phi[1:])
    Q, R = np.linalg.qr(np.vstack(X_rows))
    K_qr = np.linalg.solve(R, Q.T @ np.vstack(Y_rows)).T
    gap = float(np.linalg.norm(model.K - K_qr))
    full_rank = model.fit_meta.rank == model.K.shape[0]
    ok = gap < 1e-8 and full_rank
    assert _report(3, "stacked-qr-oracle", ok, f"|K-K_qr|_F={gap:.2e}, rank={model.fit_meta.rank}")


def test_04_lifting_dimension_and_retrieval():
    layout = StateLayout(n=30, m=12, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)

    # independent enumerator of the observable list
    n, m = layout.n, layout.m
    count = n
    count += sum(1 for _ in itertools.combinations_with_replacement(range(n), 2))
    count += n  # cubes
    count += m
    count += sum(1 for _ in itertools.combinations_with_replacement(range(m), 2))
    count += m * m  # squared-times-linear over ordered pairs
    dim = dimension(spec)

    rng = np.random.default_rng(123)
    rs = robot_slice(spec)
    exact = 0
    for _ in range(1000):
        state = CompositeState(rng.normal(size=n), rng.normal(size=m))
        if np.array_equal(lift(spec, state)[rs], state.x_r):
            exact += 1
    ok = dim == 759 and count == 759 and exact == 1000
    assert _report(
        4, "lifting-dimension-retrieval", ok,
        f"dimension={dim}, enumerated={count}, exact retrievals={exact}/1000",
    )


def _walk_demos(seed, n_traj=5, horizon=101):
    rng = np.random.default_rng(seed)
    layout = StateLayout(n=1, m=0, a=1)
    trajs = []
    for _ in range(n_traj):
        x = np.cumsum(rng.normal(0.0, 0.01, size=horizon))
        states = tuple(CompositeState([xi], []) for xi in x)
        taus = tuple(np.array([2.0 * (x[t + 1] - x[t])]) for t in range(horizon - 1))
        trajs.append(Trajectory(states, taus))
    return DemonstrationSet(layout, tuple(trajs))


def test_05_controller_gradients_and_linear_plant():
    layout = StateLayout(n=2, m=0, a=2)
    rng = np.random.default_rng(99)
    worst_gap = 0.0
    accepted = 0
    while accepted < 20:
        model = controller_init(layout, seed=int(rng.integers(0, 2**31)))
        x_now, x_next = rng.normal(size=2), rng.normal(size=2)
        tau = rng.normal(size=2)
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
        worst_gap = max(worst_gap, gradient_check(model, (x_now, x_next, tau)))

    worst_mse = 0.0
    for seed in (0, 1, 2):
        demos = _walk_demos(seed)
        trained, _ = train(
            demos, TrainConfig(learning_rate=1e-4, iterations=300, batch=16, seed=seed)
        )
        worst_mse = max(worst_mse, controller_loss(trained, supervision(demos)))
    ok = worst_gap < 1e-4 and worst_mse < 1e-3
    assert _report(
        5, "controller-gradients-linear-plant", ok,
        f"max gradient gap={worst_gap:.2e}, worst train MSE={worst_mse:.2e}",
    )


def test_06_lifting_improves_nonlinear_prediction():
    env = vanderpol_env()
    demos = generate_demos(env, default_expert(env), 200, 100, seed=21)
    e_id = float(np.mean(prediction_errors(fit(demos, LiftingSpec("identity", env.layout)), demos)))
    e_kx = float(np.mean(prediction_errors(
        fit(demos, LiftingSpec("kodex-polynomial", env.layout)), demos
    )))
    ratio = e_kx / e_id
    ok = ratio < 0.5
    assert _report(
        6, "nonlinear-prediction-benefit", ok,
        f"identity={e_id:.2e}, polynomial={e_kx:.2e}, ratio={ratio:.3f}",
    )


def test_07_closed_loop_pipeline():
    pipe = _pointmass_pipeline()
    rate = _base_rate()
    total = pipe["build_s"] + pipe["eval_s"]
    ok = pipe["expert_rate"] == 100.0 and rate >= 80.0 and total < 60.0
    assert _report(
        7, "closed-loop-pipeline", ok,
        f"expert={pipe['expert_rate']:.0f}%, closed-loop={rate:.0f}% on 100 resets, "
        f"{total:.1f}s total",
    )


def test_08_fit_time_scales_linearly():
    env = linear_env_random(12, spectral_radius=0.9, seed=5)
    spec = LiftingSpec("kodex-polynomial", env.layout)
    counts = [10, 25, 50, 100, 150, 200]
    pool = generate_demos(env, default_expert(env), max(counts), 100, seed=9)
    subsets = [DemonstrationSet(env.layout, pool.trajectories[:count]) for count in counts]
    # min over interleaved repeats so a transient load spike cannot
    # inflate every sample of one count
    times = np.full(len(counts), np.inf)
    for _ in range(7):
        for i, sub in enumerate(subsets):
            times[i] = min(times[i], fit(sub, spec).fit_meta.wall_time_s)
    t = np.array(times)
    N = np.array(counts, dtype=float)
    A = np.stack([N, np.ones_like(N)], axis=1)
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    resid = t - A @ coef
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((t - t.mean()) ** 2))
    ok = r2 > 0.9 and t.max() < 10.0
    assert _report(
        8, "fit-time-linear-scaling", ok,
        f"p={dimension(spec)}, R2={r2:.3f}, max={t.max():.2f}s over N={counts}",
    )


def test_09_perturbation_and_retune():
    pipe = _pointmass_pipeline()
    base = _base_rate()
    perturbed_env = perturb_params(pipe["env"], "heavy-hand")
    before = _closed_loop_rate(perturbed_env, pipe["model"], pipe["controller"], seed_root=5000)

    fresh = generate_demos(perturbed_env, pipe["expert"], 100, 100, seed=43)
    retuned, _ = train(
        fresh, TrainConfig(learning_rate=1e-3, iterations=500, batch=256, seed=7)
    )
    after = _closed_loop_rate(perturbed_env, pipe["model"], retuned, seed_root=5000)
    drop = base - before
    gap = base - after
    ok = drop >= 20.0 and gap <= 10.0
    assert _report(
        9, "perturbation-retune", ok,
        f"base={base:.0f}%, perturbed={before:.0f}% (drop {drop:.0f}), "
        f"retuned={after:.0f}% (gap {gap:.0f})",
    )


def test_batched_closed_loop_matches_single_episodes():
    """The acceptance seeds of tests 07 and 09 in one lockstep batch each."""
    pipe = _pointmass_pipeline()
    env, model, controller = pipe["env"], pipe["model"], pipe["controller"]
    criterion = default_criterion(env)
    heavy = perturb_params(env, "heavy-hand")
    gap, flag_mismatches, t_batch, t_single = 0.0, 0, 0.0, 0.0
    for spec, root, distribution in ((env, 5000, "in"), (env, 6000, "out"), (heavy, 5000, "in")):
        seeds = np.random.default_rng(root).integers(2**62, size=100)
        inits = [reset(spec, int(s), distribution) for s in seeds]
        t0 = time.perf_counter()
        batch = _closed_loop(model, controller, spec, _reset_rows(spec, seeds, distribution), 100)
        t1 = time.perf_counter()
        singles = [execute_policy(model, controller, spec, init, 100) for init in inits]
        t_batch, t_single = t_batch + t1 - t0, t_single + time.perf_counter() - t1
        for got, one in zip(batch, singles):
            for have, want in ((got.x_r, one.x_r), (got.x_o, one.x_o), (got.torques, one.torques)):
                gap = max(gap, float(np.abs(have - want).max()))
            flag_mismatches += (
                evaluate_success(got, criterion).success != evaluate_success(one, criterion).success
            )
    # each row of a batch goes through its own products, so the lockstep
    # contract is bit equality: a batched episode equals its single run
    ok = gap == 0.0 and flag_mismatches == 0
    assert _report(
        12, "batched-closed-loop", ok,
        f"max gap {gap:.1e}, {flag_mismatches} success flags differ over 300 episodes, "
        f"batches {t_batch:.2f}s vs one at a time {t_single:.2f}s",
    )


def _scrubbed(path: Path) -> bytes:
    """File content with wall-time fields removed."""
    if path.name == "model.json":
        obj = json.loads(path.read_text())
        if obj.get("fit_meta"):
            obj["fit_meta"].pop("wall_time_s", None)
        return json.dumps(obj, sort_keys=True).encode()
    if path.name == "eval.csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        idx = rows[0].index("train_time_s")
        table = [[cell for i, cell in enumerate(row) if i != idx] for row in rows]
        return json.dumps(table).encode()
    return path.read_bytes()


def test_10_cli_pipeline_is_deterministic(tmp_path, monkeypatch):
    config = {
        "env": {"kind": "pointmass-relocation"},
        "n_demos": 5,
        "horizon": 30,
        "seed": 3,
        "n_eval": 5,
        "demo_counts": [3],
        "train": {"learning_rate": 1e-3, "iterations": 30, "batch": 16, "seed": 1},
    }
    # identical config means identical flag strings too, so each run uses the
    # same relative paths from its own working directory
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        (root / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        monkeypatch.chdir(root)
        manifest = "demos/demos/manifest.json"
        assert cli_main(["gen-demos", "--config", "config.json", "--out-dir", "demos"]) == 0
        assert cli_main(["fit", "--config", "config.json", "--demos", manifest,
                         "--out-dir", "fit"]) == 0
        assert cli_main(["rollout", "--model", "fit/model.json", "--demos", manifest,
                         "--out-dir", "roll"]) == 0
        assert cli_main(["train-controller", "--config", "config.json", "--demos", manifest,
                         "--out-dir", "ctrl"]) == 0
        assert cli_main(["simulate", "--config", "config.json", "--model", "fit/model.json",
                         "--controller", "ctrl/controller.json",
                         "--n-runs", "5", "--out-dir", "sim"]) == 0
        assert cli_main(["eval", "--config", "config.json", "--out-dir", "eval"]) == 0

    one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
    two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
    same_tree = one == two
    diffs = [
        str(rel) for rel in one
        if _scrubbed(tmp_path / "one" / rel) != _scrubbed(tmp_path / "two" / rel)
    ]
    ok = same_tree and not diffs
    assert _report(
        10, "cli-determinism", ok,
        f"{len(one)} files compared, mismatches={diffs or 'none'}",
    )


def test_11_persistence_round_trip(tmp_path):
    awkward = np.array([
        5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
        1.0 / 3.0, 0.1, -1e308, 1.7976931348623157e308,
    ])
    rng = np.random.default_rng(2024)
    pool = np.concatenate([rng.normal(size=100), awkward])

    layout = StateLayout(n=2, m=1, a=2)
    trajs = []
    for horizon in (5, 9, 6):
        states = tuple(
            CompositeState(rng.choice(pool, size=2), rng.choice(pool, size=1))
            for _ in range(horizon)
        )
        taus = tuple(rng.choice(pool, size=2) for _ in range(horizon - 1))
        trajs.append(Trajectory(states, taus))
    demos = DemonstrationSet(layout, tuple(trajs))
    save_demos(demos, tmp_path / "demos")
    back = load_demos(tmp_path / "demos" / "manifest.json")
    demos_ok = all(
        np.array_equal(_bits(g.full), _bits(w.full))
        for tg, tw in zip(back.trajectories, demos.trajectories)
        for g, w in zip(tg.states, tw.states)
    ) and all(
        np.array_equal(_bits(g), _bits(w))
        for tg, tw in zip(back.trajectories, demos.trajectories)
        for g, w in zip(tg.torques, tw.torques)
    )

    spec = LiftingSpec("kodex-polynomial", layout)
    p = dimension(spec)
    K = rng.choice(pool, size=(p, p))
    model = KoopmanModel(K, spec, layout)
    save_model(model, tmp_path / "model.json")
    model_ok = np.array_equal(
        _bits(load_model(tmp_path / "model.json").K.ravel()), _bits(K.ravel())
    )

    ctrl = ControllerModel(
        layer_sizes=(2, 2, 1),
        weights=(rng.choice(pool, size=(2, 2)), rng.choice(pool, size=(1, 2))),
        biases=(rng.choice(pool, size=2), rng.choice(pool, size=1)),
        input_mean=rng.choice(pool, size=2),
        input_std=np.array([5e-324, 0.1]),  # positive subnormal std survives
    )
    save_controller(ctrl, tmp_path / "ctrl.json")
    back_ctrl = load_controller(tmp_path / "ctrl.json")
    ctrl_ok = all(
        np.array_equal(_bits(g.ravel()), _bits(w.ravel()))
        for g, w in zip(
            back_ctrl.weights + back_ctrl.biases + (back_ctrl.input_mean, back_ctrl.input_std),
            ctrl.weights + ctrl.biases + (ctrl.input_mean, ctrl.input_std),
        )
    )
    ok = demos_ok and model_ok and ctrl_ok
    assert _report(
        11, "persistence-round-trip", ok,
        f"demos={'exact' if demos_ok else 'drift'}, model={'exact' if model_ok else 'drift'}, "
        f"controller={'exact' if ctrl_ok else 'drift'}",
    )
