"""
End-to-end pick-and-place imitation
===================================

The full pipeline on the planar relocation task: scripted expert
demonstrations, operator fit in the polynomial basis, torque network
training, and closed-loop evaluation on held-out initial conditions.
Everything the pipeline produces is saved to disk and read back to
show the artifacts round-trip exactly.
"""
import tempfile
import time
from pathlib import Path

import numpy as np

from koopmanix import (
    LiftingSpec,
    TrainConfig,
    evaluate_success,
    execute_policy,
    fit,
    load_controller,
    load_demos,
    load_model,
    save_controller,
    save_demos,
    save_model,
    success_rate,
    train,
)
from koopmanix.controller import forward
from koopmanix.envs import default_criterion, default_expert, generate_demos, pointmass_env, reset

t_start = time.perf_counter()

# ----------------------------------------------------------------------
# Expert demonstrations on the relocation task
# ----------------------------------------------------------------------
env = pointmass_env()
expert = default_expert(env)
demos = generate_demos(env, expert, n_demos=100, horizon=100, seed=42)
criterion = default_criterion(env)
print(f"expert success rate: {success_rate(demos.trajectories, criterion):.0f}%")

# ----------------------------------------------------------------------
# Operator fit and torque network training
# ----------------------------------------------------------------------
model = fit(demos, LiftingSpec("kodex-polynomial", env.layout))
print(f"operator: p={model.K.shape[0]} rank={model.fit_meta.rank} pairs={model.fit_meta.n_pairs}")

controller, history = train(demos, TrainConfig(learning_rate=1e-3, iterations=500, batch=256, seed=7))
print(f"training loss: {history[0]:.3e} -> {history[-1]:.3e}")

# ----------------------------------------------------------------------
# Closed-loop evaluation on 100 held-out initial conditions
# ----------------------------------------------------------------------
rng = np.random.default_rng(5000)
outcomes = []
for s in rng.integers(2**62, size=100):
    init = reset(env, seed=int(s))
    traj = execute_policy(model, controller, env, init, 100)
    outcomes.append(evaluate_success(traj, criterion))
rate = 100.0 * sum(o.success for o in outcomes) / len(outcomes)
print(f"closed-loop success rate: {rate:.0f}%")
print(f"pipeline wall time: {time.perf_counter() - t_start:.1f}s")

# ----------------------------------------------------------------------
# Artifacts round-trip through disk
# ----------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    save_demos(demos, root / "demos")
    save_model(model, root / "model.json")
    save_controller(controller, root / "controller.json")

    demos2 = load_demos(root / "demos" / "manifest.json")
    model2 = load_model(root / "model.json")
    controller2 = load_controller(root / "controller.json")

    assert np.array_equal(model2.K, model.K)
    assert len(demos2.trajectories) == len(demos.trajectories)
    x_now, x_next = demos.trajectories[0].x_r[:2]
    assert np.array_equal(forward(controller2, x_now, x_next), forward(controller, x_now, x_next))
    print("saved and reloaded demos, model, controller: identical")
