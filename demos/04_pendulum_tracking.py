"""
Imitating a pendulum stabilizer
===============================

The scripted pendulum expert cancels gravity and applies PD feedback,
so the closed loop it produces is linear in the state.  The fitted
operator therefore reproduces the expert's trajectories to machine
precision, and a small torque network trained on the same data can
track those references from fresh initial conditions.
"""
import numpy as np

from koopmanix import (
    LiftingSpec,
    TrainConfig,
    execute_policy,
    fit,
    imitation_error,
    rollout,
    success_rate,
    train,
)
from koopmanix.envs import default_criterion, default_expert, generate_demos, pendulum_env, reset

# ----------------------------------------------------------------------
# Expert demonstrations
# ----------------------------------------------------------------------
env = pendulum_env()
expert = default_expert(env)
demos = generate_demos(env, expert, n_demos=100, horizon=100, seed=4)

# ----------------------------------------------------------------------
# The operator nails the closed-loop dynamics
# ----------------------------------------------------------------------
model = fit(demos, LiftingSpec("kodex-polynomial", env.layout))
errs = []
for traj in demos.trajectories[:10]:
    ref = rollout(model, traj.states[0], traj.horizon)
    errs.append(imitation_error(ref, traj.x_r))
print(f"reference vs expert trajectory, mean error: {np.mean(errs):.2e}")
assert np.max(errs) < 1e-10

# ----------------------------------------------------------------------
# Train a torque network on (state, next state) -> torque triples
# ----------------------------------------------------------------------
config = TrainConfig(learning_rate=1e-3, iterations=500, batch=256, seed=0)
controller, history = train(demos, config)
print(f"training loss, first -> last iteration: {history[0]:.3e} -> {history[-1]:.3e}")

# ----------------------------------------------------------------------
# Closed-loop tracking from initial conditions the expert never saw
# ----------------------------------------------------------------------
criterion = default_criterion(env)
runs, errs = [], []
rng = np.random.default_rng(1234)
for s in rng.integers(2**62, size=20):
    init = reset(env, seed=int(s))
    traj = execute_policy(model, controller, env, init, 100)
    runs.append(traj)
    ref = rollout(model, init.composite, 100)
    errs.append(imitation_error(ref, traj.x_r))

print(f"closed-loop success rate: {success_rate(runs, criterion):.0f}%")
print(f"closed-loop vs reference, mean error: {np.mean(errs):.2e}")
