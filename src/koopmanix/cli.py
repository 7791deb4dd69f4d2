"""Batch pipeline driver: demos -> fit -> controller -> closed-loop evaluation.

Every subcommand reads artifacts from disk, writes its outputs plus a
reproducibility stamp (resolved-config hash, seeds, package versions; no
timestamps) into --out-dir, and exits 0 on success or 1 with a one-line
`error: <category>: <message>` on stderr.  All randomness flows from the
explicit seeds, so identical configs give byte-identical outputs except
for wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .controller import TrainConfig, train
from .envs import (
    VARIATIONS,
    default_criterion,
    default_expert,
    env_spec_from_dict,
    env_spec_to_dict,
    execute_policy,
    generate_demos,
    make_env,
    perturb_params,
    reset,
)
from .koopman import fit, rollout
from .lifting import LiftingSpec
from .metrics import evaluate_success, imitation_error
from .statespace import CompositeState, DemonstrationSet
from .persist import (
    PersistError,
    format_float,
    load_controller,
    load_demos,
    load_manifest,
    load_model,
    save_controller,
    save_demos,
    save_model,
)

logger = logging.getLogger(__name__)

LIFTING_NAMES = {"identity": "identity", "kodex": "kodex-polynomial"}
SEED_CEILING = 2**62


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"config file {path} does not exist")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise ValueError(f"config {path}: top level must be an object")
    env = obj.get("env", {})
    overrides = env.get("overrides", {}) if isinstance(env, dict) else {}
    for key, value, kind in (("env", env, dict), ("env.overrides", overrides, dict),
                             ("train", obj.get("train", {}), dict), ("demo_counts", obj.get("demo_counts", []), list)):
        if not isinstance(value, kind):
            what = "an object" if kind is dict else "a list"
            raise ValueError(f"config {path}: {key} must be {what}, got {json.dumps(value)}")
    return obj


def _pick(flag, config: dict, key: str, default):
    if flag is not None:
        return flag
    return config.get(key, default)


def _env_from_config(config: dict):
    block = config.get("env", {})
    kind = block.get("kind", "pointmass-relocation")
    overrides = dict(block.get("overrides", {}))
    return make_env(kind, **overrides)


def _env_for(args, config: dict, manifest: dict | None):
    """Env precedence: explicit config block, then the demos manifest."""
    if "env" in config:
        return _env_from_config(config)
    if manifest is not None and manifest.get("env"):
        return env_spec_from_dict(manifest["env"])
    raise ValueError("no environment: pass --config with an env block or a manifest that records one")


def _train_config(args, config: dict) -> TrainConfig:
    block = config.get("train", {})
    batch = _pick(getattr(args, "batch", None), block, "batch", TrainConfig.batch)
    return TrainConfig(
        learning_rate=float(
            _pick(getattr(args, "learning_rate", None), block, "learning_rate", TrainConfig.learning_rate)
        ),
        iterations=int(_pick(getattr(args, "iterations", None), block, "iterations", TrainConfig.iterations)),
        batch=None if batch in (None, "full") else int(batch),
        seed=int(_pick(getattr(args, "seed", None), block, "seed", TrainConfig.seed)),
        optimizer=str(_pick(getattr(args, "optimizer", None), block, "optimizer", TrainConfig.optimizer)),
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stamp(out: Path, command: str, resolved: dict, seeds) -> None:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    obj = {
        "command": command,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seeds": seeds,
        "versions": {"koopmanix": __version__, "numpy": np.__version__},
    }
    (out / "stamp.json").write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _reset_seeds(root_seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(root_seed)
    return [int(s) for s in rng.integers(SEED_CEILING, size=count)]


# ---------------------------------------------------------------- subcommands

def _cmd_gen_demos(args) -> int:
    config = _load_config(args)
    env = _env_from_config(config)
    n = int(_pick(args.n_demos, config, "n_demos", 100))
    horizon = int(_pick(args.horizon, config, "horizon", 100))
    seed = int(_pick(args.seed, config, "seed", 0))
    out = _out_dir(args)
    demos = generate_demos(env, default_expert(env), n, horizon, seed, distribution=args.distribution)
    manifest = save_demos(demos, out / "demos", env=env_spec_to_dict(env), seed=seed)
    _stamp(out, "gen-demos", {"env": env_spec_to_dict(env), "n_demos": n, "horizon": horizon,
                              "seed": seed, "distribution": args.distribution}, [seed])
    print(f"wrote {n} trajectories (horizon {horizon}, {env.kind}) to {manifest}")
    return 0


def _cmd_fit(args) -> int:
    config = _load_config(args)
    demos = load_demos(args.demos)
    lifting = LIFTING_NAMES[_pick(args.lifting, config, "lifting", "kodex")]
    tol = _pick(args.pinv_tol, config, "pinv_tol", None)
    spec = LiftingSpec(lifting, demos.layout)
    model = fit(demos, spec, rel_tolerance=None if tol is None else float(tol))
    out = _out_dir(args)
    save_model(model, out / "model.json")
    meta = model.fit_meta
    _stamp(out, "fit", {"demos": str(args.demos), "lifting": lifting, "pinv_tol": tol}, [])
    print(
        f"fit {meta.n_pairs} pairs, p={model.K.shape[0]}, rank={meta.rank}, "
        f"wall_time_s={meta.wall_time_s:.3f}"
    )
    return 0


def _cmd_rollout(args) -> int:
    model = load_model(args.model)
    demos = load_demos(args.demos)
    index = args.traj_index
    if not (0 <= index < demos.n_demos):
        raise ValueError(f"--traj-index {index} out of range for {demos.n_demos} trajectories")
    traj = demos.trajectories[index]
    horizon = args.horizon if args.horizon is not None else traj.horizon
    ref = rollout(model, CompositeState(traj.x_r[0], traj.x_o[0]), horizon, mode=args.rollout_mode)
    out = _out_dir(args)
    path = out / "reference.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"xr_{i}" for i in range(model.layout.n)])
        for t, row in enumerate(ref):
            writer.writerow([str(t + 1)] + [format_float(v) for v in row])
    _stamp(out, "rollout", {"model": str(args.model), "demos": str(args.demos),
                            "traj_index": index, "horizon": horizon,
                            "mode": args.rollout_mode}, [])
    print(f"wrote {horizon}-step reference to {path}")
    return 0


def _cmd_train_controller(args) -> int:
    config = _load_config(args)
    demos = load_demos(args.demos)
    train_cfg = _train_config(args, config)
    model, history = train(demos, train_cfg)
    out = _out_dir(args)
    save_controller(model, out / "controller.json")
    with open(out / "loss_history.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "loss"])
        for i, value in enumerate(history):
            writer.writerow([str(i), format_float(value)])
    _stamp(out, "train-controller", {"demos": str(args.demos), "train": vars(train_cfg) | {}}, [train_cfg.seed])
    print(f"trained controller: {len(history)} iterations, final loss {history[-1]:.3e}")
    return 0


def _run_batch(model, controller, env, seeds, horizon, distribution, mode):
    trajectories = []
    for s in seeds:
        init = reset(env, s, distribution)
        trajectories.append(execute_policy(model, controller, env, init, horizon, mode=mode))
    return trajectories


def _success_pct(trajectories, criterion):
    if criterion is None:
        return None, []
    flags = [bool(evaluate_success(t, criterion).success) for t in trajectories]
    return 100.0 * sum(flags) / len(flags), flags


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    model = load_model(args.model)
    controller = load_controller(args.controller)
    manifest = load_manifest(args.demos) if args.demos else None
    env = _env_for(args, config, manifest)
    n_runs = int(_pick(args.n_runs, config, "n_runs", 100))
    horizon = int(_pick(args.horizon, config, "horizon", 100))
    seed = int(_pick(args.seed, config, "seed", 0))
    out = _out_dir(args)
    seeds = _reset_seeds(seed, n_runs)
    executed = _run_batch(model, controller, env, seeds, horizon, args.distribution, args.rollout_mode)
    save_demos(DemonstrationSet(env.layout, tuple(executed)), out / "executed",
               env=env_spec_to_dict(env), seed=seed)
    rate, flags = _success_pct(executed, default_criterion(env))
    report = {
        "n_runs": n_runs,
        "distribution": args.distribution,
        "success_rate": rate,
        "successes": flags,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    _stamp(out, "simulate", {"model": str(args.model), "controller": str(args.controller),
                             "env": env_spec_to_dict(env), "n_runs": n_runs,
                             "horizon": horizon, "seed": seed,
                             "distribution": args.distribution,
                             "mode": args.rollout_mode}, seeds)
    shown = "n/a" if rate is None else f"{rate:.1f}%"
    print(f"simulated {n_runs} runs ({args.distribution}): success rate {shown}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    env = _env_from_config(config)
    counts = config.get("demo_counts", [10, 25, 50, 100, 150, 200])
    horizon = int(_pick(args.horizon, config, "horizon", 100))
    seed = int(_pick(args.seed, config, "seed", 0))
    n_eval = int(config.get("n_eval", 100))
    lifting = LIFTING_NAMES[_pick(args.lifting, config, "lifting", "kodex")]
    tol = _pick(args.pinv_tol, config, "pinv_tol", None)
    train_cfg = _train_config(args, config)
    criterion = default_criterion(env)
    out = _out_dir(args)

    rng = np.random.default_rng(seed)
    rows = []
    for count in counts:
        demo_seed = int(rng.integers(SEED_CEILING))
        eval_seeds = [int(s) for s in rng.integers(SEED_CEILING, size=n_eval)]
        demos = generate_demos(env, default_expert(env), int(count), horizon, demo_seed)
        model = fit(demos, LiftingSpec(lifting, demos.layout),
                    rel_tolerance=None if tol is None else float(tol))
        controller, _ = train(demos, train_cfg)
        errors = []
        for traj in demos.trajectories:
            ref = rollout(model, CompositeState(traj.x_r[0], traj.x_o[0]), traj.horizon)
            errors.append(imitation_error(ref, traj.x_r))
        if criterion is None:
            rate_cell = ""
        else:
            executed = _run_batch(model, controller, env, eval_seeds, horizon,
                                  args.distribution, "linear")
            rate, _ = _success_pct(executed, criterion)
            rate_cell = format_float(rate)
        rows.append([env.kind, str(count), str(demo_seed),
                     format_float(model.fit_meta.wall_time_s),
                     format_float(float(np.mean(errors))), rate_cell])
        logger.info("eval: N=%s done", count)
    path = out / "eval.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["env", "N_demos", "seed", "train_time_s", "imitation_error", "success_rate"])
        writer.writerows(rows)
    _stamp(out, "eval", {"env": env_spec_to_dict(env), "demo_counts": list(counts),
                         "horizon": horizon, "seed": seed, "n_eval": n_eval,
                         "lifting": lifting, "pinv_tol": tol,
                         "train": vars(train_cfg) | {},
                         "distribution": args.distribution}, [seed])
    print(f"wrote {len(rows)} eval rows to {path}")
    return 0


def _cmd_retune(args) -> int:
    config = _load_config(args)
    model = load_model(args.model)
    controller = load_controller(args.controller)
    manifest = load_manifest(args.demos) if args.demos else None
    env = _env_for(args, config, manifest)
    perturbed = perturb_params(env, args.variation)
    n_demos = int(_pick(args.n_demos, config, "n_demos", 100))
    horizon = int(_pick(args.horizon, config, "horizon", 100))
    seed = int(_pick(args.seed, config, "seed", 0))
    n_runs = int(_pick(args.n_runs, config, "n_runs", 100))
    train_cfg = _train_config(args, config)
    criterion = default_criterion(env)
    if criterion is None:
        raise ValueError(f"retune needs a task with a success criterion, not {env.kind}")
    out = _out_dir(args)

    fresh = generate_demos(perturbed, default_expert(perturbed), n_demos, horizon, seed + 1)
    retuned, _ = train(fresh, train_cfg)
    save_controller(retuned, out / "controller_retuned.json")

    seeds = _reset_seeds(seed, n_runs)
    before, _ = _success_pct(
        _run_batch(model, controller, perturbed, seeds, horizon, "in", "linear"), criterion
    )
    after, _ = _success_pct(
        _run_batch(model, retuned, perturbed, seeds, horizon, "in", "linear"), criterion
    )
    report = {
        "variation": args.variation,
        "n_runs": n_runs,
        "before_success_rate": before,
        "after_success_rate": after,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    _stamp(out, "retune", {"model": str(args.model), "controller": str(args.controller),
                           "env": env_spec_to_dict(env), "variation": args.variation,
                           "n_demos": n_demos, "horizon": horizon, "seed": seed,
                           "n_runs": n_runs, "train": vars(train_cfg) | {}}, seeds)
    print(f"retune {args.variation}: before {before:.1f}% -> after {after:.1f}%")
    return 0


# --------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="koopmanix",
                                     description="Koopman imitation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default="out", help="output directory (created)")

    p = sub.add_parser("gen-demos", help="run the scripted expert and save demonstrations")
    common(p)
    p.add_argument("--n-demos", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--distribution", choices=("in", "out"), default="in")
    p.set_defaults(func=_cmd_gen_demos)

    p = sub.add_parser("fit", help="fit a lifted linear model from saved demonstrations")
    common(p)
    p.add_argument("--demos", required=True, help="demos manifest.json")
    p.add_argument("--lifting", choices=tuple(LIFTING_NAMES), default=None)
    p.add_argument("--pinv-tol", type=float, default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("rollout", help="write a model's open-loop reference trajectory")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--demos", required=True, help="manifest whose trajectory provides the start state")
    p.add_argument("--traj-index", type=int, default=0)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--rollout-mode", choices=("linear", "relift"), default="linear")
    p.set_defaults(func=_cmd_rollout)

    p = sub.add_parser("train-controller", help="train the tracking controller on demonstrations")
    common(p)
    p.add_argument("--demos", required=True)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    p.set_defaults(func=_cmd_train_controller)

    p = sub.add_parser("simulate", help="closed-loop runs of model + controller")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--demos", default=None, help="manifest recording the environment")
    p.add_argument("--n-runs", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--distribution", choices=("in", "out"), default="in")
    p.add_argument("--rollout-mode", choices=("linear", "relift"), default="linear")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", help="sweep demo counts; one metrics row per count")
    common(p)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--lifting", choices=tuple(LIFTING_NAMES), default=None)
    p.add_argument("--pinv-tol", type=float, default=None)
    p.add_argument("--distribution", choices=("in", "out"), default="in")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("retune", help="re-train only the controller for a perturbed environment")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--demos", default=None, help="manifest recording the environment")
    p.add_argument("--variation", choices=tuple(VARIATIONS), required=True)
    p.add_argument("--n-demos", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--n-runs", type=int, default=None)
    p.set_defaults(func=_cmd_retune)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except PersistError as exc:
        print(f"error: persist: {exc}", file=sys.stderr)
    except FileNotFoundError as exc:
        print(f"error: missing-file: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
