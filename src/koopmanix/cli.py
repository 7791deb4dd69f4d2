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
import hashlib
import json
import logging
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .controller import TRAIN_RULES, TrainConfig, train
from .envs import (
    VARIATIONS,
    _closed_loop,
    _reset_rows,
    default_criterion,
    default_expert,
    env_spec_from_dict,
    env_spec_to_dict,
    generate_demos,
    make_env,
    perturb_params,
)
from .koopman import _check_layout, _rollout, _tolerance, fit
from .lifting import LiftingSpec
from .metrics import evaluate_success, imitation_error, outcome_summary
from .statespace import DemonstrationSet, _count, _items, _keys, _object
from .persist import (
    PersistError,
    _write,
    _write_json,
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
ENV_KIND = "pointmass-relocation"  # the env of a config without env.kind
SEED_CEILING = 2**62


def _lifting(name: str, value) -> None:
    if not (isinstance(value, str) and value in LIFTING_NAMES):
        raise ValueError(f'{name} must be "identity" or "kodex", got {value!r}')


# config key -> (default, check); check(name, value) raises a ValueError
# naming name, the key or its flag, if value is bad.  A flag named like the
# key's last part overrides it, so --seed sets both seed and train.seed.
# The train keys have TrainConfig's defaults and rules; batch also takes "full".
SETTINGS = {
    "n_demos": (100, partial(_count, low=1)),
    "horizon": (100, partial(_count, low=2)),  # a trajectory's fewest states
    "n_runs": (100, partial(_count, low=1)),
    "n_eval": (100, partial(_count, low=1)),
    "seed": (0, partial(_count, low=0)),
    "lifting": ("kodex", _lifting),
    "pinv_tol": (None, lambda name, value: value is None or _tolerance(name, value)),
    "demo_counts": ((10, 25, 50, 100, 150, 200),
                    lambda name, value: [_count(f"{name}[{i}]", n, 1) for i, n in enumerate(_items(name, value, 1))]),
    "train.learning_rate": (TrainConfig.learning_rate, TRAIN_RULES["learning_rate"]),
    "train.iterations": (TrainConfig.iterations, TRAIN_RULES["iterations"]),
    "train.batch": (TrainConfig.batch, lambda name, value: value == "full" or TRAIN_RULES["batch"](name, value)),
    "train.seed": (TrainConfig.seed, TRAIN_RULES["seed"]),
}


def _entry(config: dict, key: str) -> tuple[dict, str]:
    """The block of config that holds key, and key's name in that block."""
    block, _, name = key.rpartition(".")
    return (config.get(block, {}) if block else config), name


def _load_config(path) -> dict:
    if path is None:
        return {}
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file {path} does not exist")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    top = [key for key in SETTINGS if "." not in key]
    trained = [key.removeprefix("train.") for key in SETTINGS if key.startswith("train.")]
    try:
        _keys("top level", obj, (), (*top, "env", "train"))
        if "env" in obj:
            _keys("env", obj["env"], (), ("kind", "overrides"))
            _env_from_config(obj)  # make_env checks the kind, the override keys and their values
        _keys("train", obj.get("train", {}), (), trained)
        for key, (_, check) in SETTINGS.items():
            block, name = _entry(obj, key)
            if name in block:
                check(key, block[name])
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    return obj


def _settings(args, config: dict) -> dict:
    """Every setting: its flag if given, else config's key, else its default.

    A flag passes the same check as the config key it overrides.
    """
    resolved = {}
    for key, (default, check) in SETTINGS.items():
        block, name = _entry(config, key)
        flag = getattr(args, name, None)
        if flag is not None:
            check(f"--{name.replace('_', '-')}", flag)
        resolved[key] = flag if flag is not None else block.get(name, default)
    return resolved


def _train_config(s: dict) -> TrainConfig:
    batch = s["train.batch"]
    return TrainConfig(learning_rate=s["train.learning_rate"], iterations=s["train.iterations"],
                       batch=None if batch == "full" else batch, seed=s["train.seed"])


def _hashed_train(train_cfg: TrainConfig) -> dict:
    # "optimizer" names the one update rule, Adam; it stays in the hashed
    # settings so config_sha256 is stable for the same inputs across versions
    return vars(train_cfg) | {"optimizer": "adam"}


def _env_from_config(config: dict):
    block = config.get("env", {})
    overrides = _object("env.overrides", block.get("overrides", {}))
    return make_env(block.get("kind", ENV_KIND), **overrides)


def _load_policy(args, config: dict):
    """The model, controller and environment of a closed-loop command, the model checked against the environment.

    The environment comes from the config's env block, else from the one the
    demos manifest records.
    """
    model = load_model(args.model)
    controller = load_controller(args.controller)
    manifest = load_manifest(args.demos) if args.demos else None
    if "env" in config:
        env = _env_from_config(config)
    elif manifest is None or not manifest.get("env"):
        raise ValueError("no environment: pass --config with an env block or a manifest that records one")
    else:
        try:
            env = env_spec_from_dict(manifest["env"])
        except ValueError as exc:
            raise ValueError(f"manifest {args.demos}: {exc}") from None
    _check_layout(model, env.layout, f"env {env.kind}", f"model {args.model}")
    return model, controller, env


def _write_csv(path: Path, header: list[str], rows) -> None:
    _write(path, ["\n".join(map(",".join, [header, *rows])), "\n"])


def _stamp(out: Path, command: str, resolved: dict, seeds) -> None:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    _write_json({
        "command": command,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seeds": seeds,
        "versions": {"koopmanix": __version__, "numpy": np.__version__},
    }, out / "stamp.json")


def _reset_seeds(root_seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(root_seed)
    return [int(s) for s in rng.integers(SEED_CEILING, size=count)]


# ---------------------------------------------------------------- subcommands

def _cmd_gen_demos(args, config: dict, s: dict) -> int:
    env = _env_from_config(config)
    n, horizon, seed = s["n_demos"], s["horizon"], s["seed"]
    out = Path(args.out_dir)
    demos = generate_demos(env, default_expert(env), n, horizon, seed, distribution=args.distribution)
    manifest = save_demos(demos, out / "demos", env=env_spec_to_dict(env), seed=seed)
    _stamp(out, "gen-demos", {"env": env_spec_to_dict(env), "n_demos": n, "horizon": horizon,
                              "seed": seed, "distribution": args.distribution}, [seed])
    print(f"wrote {n} trajectories (horizon {horizon}, {env.kind}) to {manifest}")
    return 0


def _cmd_fit(args, config: dict, s: dict) -> int:
    demos = load_demos(args.demos)
    lifting, tol = LIFTING_NAMES[s["lifting"]], s["pinv_tol"]
    model = fit(demos, LiftingSpec(lifting, demos.layout), rel_tolerance=tol)
    out = Path(args.out_dir)
    save_model(model, out / "model.json")
    meta = model.fit_meta
    _stamp(out, "fit", {"demos": str(args.demos), "lifting": lifting, "pinv_tol": tol}, [])
    print(
        f"fit {meta.n_pairs} pairs, p={model.K.shape[0]}, rank={meta.rank}, "
        f"wall_time_s={meta.wall_time_s:.3f}"
    )
    return 0


def _cmd_rollout(args, config: dict, s: dict) -> int:
    model = load_model(args.model)
    demos = load_demos(args.demos)
    index = args.traj_index
    if not (0 <= index < demos.n_demos):
        raise ValueError(f"--traj-index {index} out of range for {demos.n_demos} trajectories")
    _check_layout(model, demos.layout, f"manifest {args.demos}", f"model {args.model}")
    traj = demos.trajectories[index]
    horizon = args.horizon if args.horizon is not None else traj.horizon
    ref = _rollout(model, traj.x_r[:1], traj.x_o[:1], horizon)[:, 0]
    out = Path(args.out_dir)
    path = out / "reference.csv"
    _write_csv(path, ["t"] + [f"xr_{i}" for i in range(model.layout.n)],
               ([str(t + 1)] + [format_float(v) for v in row] for t, row in enumerate(ref)))
    # "mode" names the one rollout, linear propagation; it stays in the hashed
    # settings so config_sha256 is stable for the same inputs across versions
    _stamp(out, "rollout", {"model": str(args.model), "demos": str(args.demos),
                            "traj_index": index, "horizon": horizon,
                            "mode": "linear"}, [])
    print(f"wrote {horizon}-step reference to {path}")
    return 0


def _cmd_train_controller(args, config: dict, s: dict) -> int:
    demos = load_demos(args.demos)
    train_cfg = _train_config(s)
    model, history = train(demos, train_cfg)
    out = Path(args.out_dir)
    save_controller(model, out / "controller.json")
    _write_csv(out / "loss_history.csv", ["iteration", "loss"],
               ([str(i), format_float(value)] for i, value in enumerate(history)))
    _stamp(out, "train-controller", {"demos": str(args.demos), "train": _hashed_train(train_cfg)}, [train_cfg.seed])
    print(f"trained controller: {len(history)} iterations, final loss {history[-1]:.3e}")
    return 0


def _run_batch(model, controller, env, seeds, horizon, distribution):
    """One closed-loop episode per reset seed, all stepped in one lockstep batch."""
    return _closed_loop(model, controller, env, _reset_rows(env, seeds, distribution), horizon)


def _success_pct(trajectories, criterion, label: str):
    """Success percentage and per-run flags; logs the batch's outcome summary under label."""
    if criterion is None:
        return None, []
    results = [evaluate_success(t, criterion) for t in trajectories]
    logger.info("%s: %s", label, outcome_summary(results, criterion))
    flags = [bool(r.success) for r in results]
    return 100.0 * sum(flags) / len(flags), flags


def _cmd_simulate(args, config: dict, s: dict) -> int:
    model, controller, env = _load_policy(args, config)
    n_runs, horizon, seed = s["n_runs"], s["horizon"], s["seed"]
    out = Path(args.out_dir)
    seeds = _reset_seeds(seed, n_runs)
    executed = _run_batch(model, controller, env, seeds, horizon, args.distribution)
    save_demos(DemonstrationSet(env.layout, tuple(executed)), out / "executed",
               env=env_spec_to_dict(env), seed=seed)
    rate, flags = _success_pct(executed, default_criterion(env), f"simulate ({args.distribution})")
    _write_json({"n_runs": n_runs, "distribution": args.distribution,
                 "success_rate": rate, "successes": flags}, out / "report.json")
    # "mode" names the one rollout, linear propagation; it stays in the hashed
    # settings so config_sha256 is stable for the same inputs across versions
    _stamp(out, "simulate", {"model": str(args.model), "controller": str(args.controller),
                             "env": env_spec_to_dict(env), "n_runs": n_runs,
                             "horizon": horizon, "seed": seed,
                             "distribution": args.distribution,
                             "mode": "linear"}, seeds)
    shown = "n/a" if rate is None else f"{rate:.1f}%"
    print(f"simulated {n_runs} runs ({args.distribution}): success rate {shown}")
    return 0


def _cmd_eval(args, config: dict, s: dict) -> int:
    env = _env_from_config(config)
    counts, horizon, seed, n_eval = s["demo_counts"], s["horizon"], s["seed"], s["n_eval"]
    lifting, tol = LIFTING_NAMES[s["lifting"]], s["pinv_tol"]
    train_cfg = _train_config(s)
    criterion = default_criterion(env)
    out = Path(args.out_dir)

    rng = np.random.default_rng(seed)
    rows = []
    for count in counts:
        demo_seed = int(rng.integers(SEED_CEILING))
        eval_seeds = [int(v) for v in rng.integers(SEED_CEILING, size=n_eval)]
        demos = generate_demos(env, default_expert(env), count, horizon, demo_seed)
        model = fit(demos, LiftingSpec(lifting, demos.layout), rel_tolerance=tol)
        start = time.perf_counter()
        controller, _ = train(demos, train_cfg)
        train_time = model.fit_meta.wall_time_s + time.perf_counter() - start
        trajs = demos.trajectories
        refs = _rollout(model, np.array([t.x_r[0] for t in trajs]), np.array([t.x_o[0] for t in trajs]), horizon)
        errors = [imitation_error(refs[:, i], t.x_r) for i, t in enumerate(trajs)]
        if criterion is None:
            rate_cell = ""
        else:
            executed = _run_batch(model, controller, env, eval_seeds, horizon, args.distribution)
            rate, _ = _success_pct(executed, criterion, f"eval N={count}")
            rate_cell = format_float(rate)
        rows.append([env.kind, str(count), str(demo_seed),
                     format_float(train_time),
                     format_float(float(np.mean(errors))), rate_cell])
        logger.info("eval: N=%s done", count)
    path = out / "eval.csv"
    _write_csv(path, ["env", "N_demos", "seed", "train_time_s", "imitation_error", "success_rate"], rows)
    _stamp(out, "eval", {"env": env_spec_to_dict(env), "demo_counts": list(counts),
                         "horizon": horizon, "seed": seed, "n_eval": n_eval,
                         "lifting": lifting, "pinv_tol": tol,
                         "train": _hashed_train(train_cfg),
                         "distribution": args.distribution}, [seed])
    print(f"wrote {len(rows)} eval rows to {path}")
    return 0


def _cmd_retune(args, config: dict, s: dict) -> int:
    model, controller, env = _load_policy(args, config)
    perturbed = perturb_params(env, args.variation)
    n_demos, horizon, seed, n_runs = s["n_demos"], s["horizon"], s["seed"], s["n_runs"]
    train_cfg = _train_config(s)
    criterion = default_criterion(env)
    if criterion is None:
        raise ValueError(f"retune needs a task with a success criterion, not {env.kind}")
    out = Path(args.out_dir)

    fresh = generate_demos(perturbed, default_expert(perturbed), n_demos, horizon, seed + 1)
    retuned, _ = train(fresh, train_cfg)
    save_controller(retuned, out / "controller_retuned.json")

    seeds = _reset_seeds(seed, n_runs)
    before, _ = _success_pct(
        _run_batch(model, controller, perturbed, seeds, horizon, "in"), criterion,
        f"retune {args.variation} before",
    )
    after, _ = _success_pct(
        _run_batch(model, retuned, perturbed, seeds, horizon, "in"), criterion,
        f"retune {args.variation} after",
    )
    _write_json({"variation": args.variation, "n_runs": n_runs,
                 "before_success_rate": before, "after_success_rate": after}, out / "report.json")
    _stamp(out, "retune", {"model": str(args.model), "controller": str(args.controller),
                           "env": env_spec_to_dict(env), "variation": args.variation,
                           "n_demos": n_demos, "horizon": horizon, "seed": seed,
                           "n_runs": n_runs, "train": _hashed_train(train_cfg)}, seeds)
    print(f"retune {args.variation}: before {before:.1f}% -> after {after:.1f}%")
    return 0


# --------------------------------------------------------------------- parser

# flag -> its add_argument keywords; a flag named like a setting overrides
# that config key
FLAGS = {
    "--config": {"help": "JSON config file; flags override its keys"},
    "--out-dir": {"default": "out", "help": "output directory (created)"},
    "--demos": {"help": "demos manifest.json"},
    "--model": {"help": "model.json from fit"},
    "--controller": {"help": "controller.json from train-controller"},
    "--seed": {"type": int},
    "--n-demos": {"type": int},
    "--horizon": {"type": int},
    "--n-runs": {"type": int},
    "--lifting": {"choices": tuple(LIFTING_NAMES)},
    "--pinv-tol": {"type": float},
    "--learning-rate": {"type": float},
    "--iterations": {"type": int},
    "--batch": {"type": int},
    "--traj-index": {"type": int, "default": 0},
    "--distribution": {"choices": ("in", "out"), "default": "in"},
    "--variation": {"choices": tuple(VARIATIONS)},
}

# subcommand -> (handler, help, the flags it reads besides --out-dir; "!" marks a required one)
COMMANDS = {
    "gen-demos": (_cmd_gen_demos, "run the scripted expert and save demonstrations",
                  "--config --seed --n-demos --horizon --distribution"),
    "fit": (_cmd_fit, "fit a lifted linear model from saved demonstrations",
            "--config --demos! --lifting --pinv-tol"),
    "rollout": (_cmd_rollout, "write a model's open-loop reference trajectory",
                "--model! --demos! --traj-index --horizon"),
    "train-controller": (_cmd_train_controller, "train the tracking controller on demonstrations",
                         "--config --seed --demos! --learning-rate --iterations --batch"),
    "simulate": (_cmd_simulate, "closed-loop runs of model + controller",
                 "--config --seed --model! --controller! --demos --n-runs --horizon --distribution"),
    "eval": (_cmd_eval, "sweep demo counts; one metrics row per count",
             "--config --seed --horizon --lifting --pinv-tol --distribution"),
    "retune": (_cmd_retune, "re-train only the controller for a perturbed environment",
               "--config --seed --model! --controller! --demos --variation! --n-demos --horizon --n-runs"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="koopmanix",
                                     description="Koopman imitation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split() + ["--out-dir"]:
            option = flag.rstrip("!")
            p.add_argument(option, required=flag.endswith("!"), **FLAGS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _load_config(getattr(args, "config", None))  # rollout takes no --config
        return args.func(args, config, _settings(args, config))
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
