"""Print one sha256 per group of koopmanix outputs, to show that a change keeps their bits.

    PYTHONPATH=src python3 tools/hash_outputs.py [--demos N] [--horizon T] [--iterations K]

Run it at two commits with the same sizes and compare the lines: equal
lines mean bit-identical outputs.  Each line is `<group> <sha256>`:

- demos/<kind>/<jitter|quiet>: generate_demos of each env kind, with and
  without expert torque jitter (x_r, x_o, torques of every demo);
- envs/specs: for every env kind, make_env's spec as env_spec_to_dict
  writes it, its layout's sizes and names, default_expert's gains and
  noise scale, and default_criterion's fields (or null), as canonical JSON;
- reset/<kind>/<in|out>: x_r, x_o and internal of 20 public reset calls
  per env kind and distribution;
- step/<kind>: public step from each in-distribution state of the reset
  group under a seeded normal torque (x_r, x_o, internal and t of each
  result);
- supervision: its x_now, x_next, tau and weights on the pointmass demos;
- train/<case>/<model|history>: train on the pointmass demos, at batch 64,
  at a batch that divides the pair count, at one that leaves a one-row last
  minibatch, at full batch and at twice the pair count; model digests the
  weights, biases and input statistics, history the loss history.  A full
  batch is one minibatch of all pairs, so the last two cases print the same
  digests;
- train/pendulum/<batch-64|full-batch>/<model|history>: the same outputs of
  train on pendulum demos of the same sizes, whose output layer is one wide;
- closed-loop/<lockstep|single>: the trained controller tracking the kodex
  model of those demos, as one lockstep batch (the CLI's `_run_batch`) and
  one episode at a time;
- closed-loop/linear/<lockstep|single>: the same two runs on the linear env
  of the demos group, with an identity-lifted K and a controller trained on
  that env's demos.  A batch equals its single episodes, so the two print
  the same digest;
- rollout/pointmass: public rollout of that model from the in-distribution
  pointmass resets of the reset group;
- controller/<forward|loss|gradient-check>: that controller's forward on 20
  fixed probe transitions, its loss on the supervision triples and
  gradient_check on the first triple;
- persist/load/<torques|bare>: the pointmass demos saved with and without
  their torques and loaded back (x_r, x_o, torques of every demo);
- persist/load/<model|controller>: the kodex model and the batch-64
  controller above, saved and loaded back (K; weights, biases and input
  statistics);
- cli/<command>: every file a CLI run writes, with the wall-time fields
  (`fit_meta.wall_time_s` in model.json, `train_time_s` in eval.csv)
  removed;
- cli/flags: the output trees of gen-demos, train-controller and eval rerun
  on the same config with every setting flag they take (--n-demos,
  --horizon, --seed, --learning-rate, --iterations, --batch, --lifting,
  --pinv-tol) set to a value other than the config's, scrubbed the same way.

Every size is small by default; the whole run takes seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from koopmanix import (DemonstrationSet, LiftingSpec, ScriptedExpert, TrainConfig, Trajectory, execute_policy, fit,
                       gradient_check, load_controller, load_demos, load_model, rollout, save_controller, save_demos,
                       save_model, supervision, train)
from koopmanix.cli import _run_batch, main as cli_main
from koopmanix.controller import forward, loss
from koopmanix.envs import (
    KINDS,
    default_criterion,
    default_expert,
    env_spec_to_dict,
    generate_demos,
    linear_env_random,
    make_env,
    pendulum_env,
    pointmass_env,
    reset,
    step,
    vanderpol_env,
)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _trajectory_arrays(trajs):
    for traj in trajs:
        yield traj.x_r
        yield traj.x_o
        if traj.torques is not None:
            yield traj.torques


def _scrubbed(path: Path) -> bytes:
    """File content with the wall-time fields removed."""
    if path.name == "model.json":
        obj = json.loads(path.read_text())
        if obj.get("fit_meta"):
            obj["fit_meta"].pop("wall_time_s", None)
        return json.dumps(obj, sort_keys=True).encode()
    if path.name == "eval.csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        idx = rows[0].index("train_time_s")
        return json.dumps([[cell for i, cell in enumerate(row) if i != idx] for row in rows]).encode()
    return path.read_bytes()


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(_scrubbed(path))
    return h.hexdigest()


RESET_SEEDS = range(7000, 7020)


def _envs():
    return [linear_env_random(3, seed=5), pendulum_env(), vanderpol_env(), pointmass_env()]


def _demo_groups(n: int, horizon: int):
    for env in _envs():
        expert = default_expert(env)
        jitter = ScriptedExpert(expert.kind, expert.gains, noise_scale=expert.noise_scale or 0.5)
        quiet = ScriptedExpert(expert.kind, expert.gains)
        for label, ex in (("jitter", jitter), ("quiet", quiet)):
            demos = generate_demos(env, ex, n, horizon, seed=42)
            yield f"demos/{env.kind}/{label}", _digest(_trajectory_arrays(demos.trajectories))


def _spec_groups():
    facts = []
    for kind in KINDS:
        env = make_env(kind)
        lay, expert, criterion = env.layout, default_expert(env), default_criterion(env)
        facts.append({
            "spec": env_spec_to_dict(env),
            "layout": [lay.n, lay.m, lay.a, lay.robot_names, lay.object_names],
            "expert": [expert.gains, expert.noise_scale],
            "criterion": None if criterion is None else dataclasses.asdict(criterion),
        })
    yield "envs/specs", hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest()


def _state_arrays(state):
    return [state.composite.x_r, state.composite.x_o, np.array(state.internal, dtype=np.float64)]


def _reset_groups():
    for env in _envs():
        for distribution in ("in", "out"):
            states = [reset(env, seed, distribution) for seed in RESET_SEEDS]
            yield f"reset/{env.kind}/{distribution}", _digest(arr for s in states for arr in _state_arrays(s))


def _step_groups():
    for env in _envs():
        rng = np.random.default_rng(17)
        states = [step(env, reset(env, seed, "in"), rng.normal(size=env.layout.a)) for seed in RESET_SEEDS]
        yield f"step/{env.kind}", _digest(arr for s in states for arr in [*_state_arrays(s), np.array(s.t)])


def _closed_loop_groups(prefix: str, model, controller, env, n: int, horizon: int):
    seeds = range(5000, 5000 + n)
    lockstep = _run_batch(model, controller, env, seeds, horizon, "in")
    yield f"{prefix}/lockstep", _digest(_trajectory_arrays(lockstep))
    singles = [execute_policy(model, controller, env, reset(env, seed), horizon) for seed in seeds]
    yield f"{prefix}/single", _digest(_trajectory_arrays(singles))


def _trained(prefix: str, demos, batch, iterations: int):
    """train on demos at batch; the model, and the `<prefix>/model` and `<prefix>/history` groups."""
    model, history = train(demos, TrainConfig(learning_rate=1e-3, iterations=iterations, batch=batch, seed=7))
    groups = [(f"{prefix}/model", _digest([*model.weights, *model.biases, model.input_mean, model.input_std])),
              (f"{prefix}/history", _digest([history]))]
    return model, groups


def _model_groups(n: int, horizon: int, iterations: int):
    env = pointmass_env()
    demos = generate_demos(env, default_expert(env), n, horizon, seed=42)
    triples = supervision(demos)
    yield "supervision", _digest([triples.x_now, triples.x_next, triples.tau, triples.weights])
    P = triples.count
    batches = {"batch-64": 64, "batch-divides-P": horizon - 1, "batch-leaves-one-row": max(P - 1, 1),
               "full-batch": None, "batch-above-P": 2 * P}
    models = {}
    for label, batch in batches.items():
        models[label], groups = _trained(f"train/{label}", demos, batch, iterations)
        yield from groups
    pendulum = pendulum_env()
    pendulum_demos = generate_demos(pendulum, default_expert(pendulum), n, horizon, seed=42)
    for label, batch in (("batch-64", 64), ("full-batch", None)):
        yield from _trained(f"train/pendulum/{label}", pendulum_demos, batch, iterations)[1]
    controller = models["batch-64"]
    kodex = fit(demos, LiftingSpec("kodex-polynomial", env.layout))
    yield from _closed_loop_groups("closed-loop", kodex, controller, env, n, horizon)
    linear = _envs()[0]
    linear_demos = generate_demos(linear, default_expert(linear), n, horizon, seed=42)
    linear_controller, _ = train(linear_demos, TrainConfig(learning_rate=1e-3, iterations=iterations, batch=64, seed=7))
    identity = fit(linear_demos, LiftingSpec("identity", linear.layout))
    yield from _closed_loop_groups("closed-loop/linear", identity, linear_controller, linear, n, horizon)
    starts = [reset(env, seed, "in").composite for seed in RESET_SEEDS]
    yield "rollout/pointmass", _digest(rollout(kodex, start, horizon) for start in starts)
    k = env.layout.n
    probes = np.random.default_rng(11).normal(size=(20, 2 * k))
    yield "controller/forward", _digest(forward(controller, z[:k], z[k:]) for z in probes)
    yield "controller/loss", _digest([loss(controller, triples)])
    first = (triples.x_now[0], triples.x_next[0], triples.tau[0])
    yield "controller/gradient-check", _digest([gradient_check(controller, first)])
    bare = DemonstrationSet(demos.layout, tuple(Trajectory.from_arrays(t.x_r, t.x_o) for t in demos.trajectories))
    for label, saved in (("torques", demos), ("bare", bare)):
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_demos(save_demos(saved, tmp))
        yield f"persist/load/{label}", _digest(_trajectory_arrays(loaded.trajectories))
    with tempfile.TemporaryDirectory() as tmp:
        model = load_model(save_model(kodex, Path(tmp) / "model.json"))
        loaded = load_controller(save_controller(controller, Path(tmp) / "controller.json"))
    yield "persist/load/model", _digest([model.K])
    yield "persist/load/controller", _digest([*loaded.weights, *loaded.biases, loaded.input_mean, loaded.input_std])


def _run_cli(command: str, flags: list[str]) -> str:
    """Run one CLI command; the digest of the tree it writes to --out-dir."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([command, *flags])
    if code != 0:
        raise SystemExit(f"koopmanix {command} exited with {code}")
    return _tree_digest(Path(flags[flags.index("--out-dir") + 1]))


def _cli_groups(n: int, horizon: int, iterations: int):
    config = {
        "env": {"kind": "pointmass-relocation"},
        "n_demos": n,
        "horizon": horizon,
        "seed": 3,
        "n_runs": n,
        "n_eval": n,
        "demo_counts": sorted({max(n // 2, 1), n}),
        "train": {"learning_rate": 1e-3, "iterations": iterations, "batch": 16, "seed": 1},
    }
    manifest = "demos/demos/manifest.json"
    policy = ["--model", "fit/model.json", "--controller", "ctrl/controller.json"]
    cfg = ["--config", "config.json"]
    commands = [
        ("gen-demos", [*cfg, "--out-dir", "demos"]),
        ("fit", [*cfg, "--demos", manifest, "--out-dir", "fit"]),
        ("rollout", ["--model", "fit/model.json", "--demos", manifest, "--out-dir", "roll"]),
        ("train-controller", [*cfg, "--demos", manifest, "--out-dir", "ctrl"]),
        ("simulate", [*cfg, *policy, "--out-dir", "sim"]),
        ("retune", [*cfg, *policy, "--variation", "heavy-hand", "--out-dir", "retune"]),
        ("eval", [*cfg, "--out-dir", "eval"]),
    ]
    # each flag differs from the config value it overrides
    flagged = [
        ("gen-demos", [*cfg, "--n-demos", str(n + 1), "--horizon", str(horizon + 1), "--seed", "4",
                       "--out-dir", "flags/demos"]),
        ("train-controller", [*cfg, "--demos", manifest, "--seed", "2", "--learning-rate", "2e-3",
                              "--iterations", str(iterations + 1), "--batch", "8", "--out-dir", "flags/ctrl"]),
        ("eval", [*cfg, "--seed", "5", "--horizon", str(horizon + 1), "--lifting", "identity",
                  "--pinv-tol", "1e-9", "--out-dir", "flags/eval"]),
    ]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths, so the files that record them read alike in every run
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config, indent=2) + "\n")
            for command, flags in commands:
                yield f"cli/{command}", _run_cli(command, flags)
            for command, flags in flagged:
                _run_cli(command, flags)
            yield "cli/flags", _tree_digest(Path("flags"))
        finally:
            os.chdir(here)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--demos", type=int, default=30, help="demos per set (default 30)")
    parser.add_argument("--horizon", type=int, default=100, help="states per demo (default 100)")
    parser.add_argument("--iterations", type=int, default=20, help="training iterations (default 20)")
    args = parser.parse_args(argv)
    for groups in (_demo_groups(args.demos, args.horizon),
                   _spec_groups(),
                   _reset_groups(),
                   _step_groups(),
                   _model_groups(args.demos, args.horizon, args.iterations),
                   _cli_groups(args.demos, args.horizon, args.iterations)):
        for name, digest in groups:
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
