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
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .controller import TrainConfig, train
from .envs import (
    VARIATIONS,
    _closed_loop,
    default_criterion,
    default_expert,
    env_spec_from_dict,
    env_spec_to_dict,
    generate_demos,
    make_env,
    perturb_params,
    reset,
)
from .koopman import _rollout, fit, rollout
from .lifting import LiftingSpec
from .metrics import evaluate_success, imitation_error, outcome_summary
from .statespace import CompositeState, DemonstrationSet, _is_int
from .persist import (
    PersistError,
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
SEED_CEILING = 2**62


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, float)


POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_NON_NEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")

# top-level key -> (default, accepts the JSON value, what it must be); a flag
# of the same name overrides the key
SETTINGS = {
    "n_demos": (100, *POSITIVE_INT),
    "horizon": (100, *POSITIVE_INT),
    "n_runs": (100, *POSITIVE_INT),
    "n_eval": (100, *POSITIVE_INT),
    "seed": (0, *_NON_NEGATIVE_INT),
    "lifting": ("kodex", lambda v: isinstance(v, str) and v in LIFTING_NAMES, '"identity" or "kodex"'),
    "pinv_tol": (
        None,
        lambda v: v is None or (_is_real(v) and math.isfinite(v) and v >= 0),
        "null or a finite real number >= 0",
    ),
    "demo_counts": ((10, 25, 50, 100, 150, 200), lambda v: isinstance(v, list), "a list"),
}

# train block key -> (default, accepts the JSON value, what it must be); the
# defaults are TrainConfig's
TRAIN_SETTINGS = {
    "learning_rate": (TrainConfig.learning_rate, _is_real, "a real number"),
    "iterations": (TrainConfig.iterations, _is_int, "an integer"),
    "batch": (TrainConfig.batch, lambda v: v is None or v == "full" or _is_int(v), 'an integer, null or "full"'),
    "seed": (TrainConfig.seed, *_NON_NEGATIVE_INT),
    "optimizer": (TrainConfig.optimizer, lambda v: isinstance(v, str), "a string"),
}


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
    for key, value in (("env", env), ("env.overrides", overrides), ("train", obj.get("train", {}))):
        if not isinstance(value, dict):
            raise ValueError(f"config {path}: {key} must be an object, got {json.dumps(value)}")
    for prefix, block, table in (("", obj, SETTINGS), ("train.", obj.get("train", {}), TRAIN_SETTINGS)):
        for key, (_, accepts, what) in table.items():
            if key in block and not accepts(block[key]):
                raise ValueError(f"config {path}: {prefix}{key} must be {what}, got {json.dumps(block[key])}")
    for i, count in enumerate(obj.get("demo_counts", [])):
        if not _is_int(count) or count < 1:
            raise ValueError(f"config {path}: demo_counts[{i}] must be a positive integer, got {json.dumps(count)}")
    return obj


def _check_flags(args) -> None:
    """Flags pass the same checks as the config keys they override."""
    for key, (_, accepts, what) in SETTINGS.items():
        value = getattr(args, key, None)
        if value is not None and not accepts(value):
            raise ValueError(f"--{key.replace('_', '-')} must be {what}, got {value}")


def _settings(args, block: dict, table: dict) -> dict:
    """Every setting of table: its flag if given, else block's key, else its default."""
    resolved = {}
    for key, (default, _, _) in table.items():
        flag = getattr(args, key, None)
        resolved[key] = flag if flag is not None else block.get(key, default)
    return resolved


def _train_config(args, config: dict) -> TrainConfig:
    resolved = _settings(args, config.get("train", {}), TRAIN_SETTINGS)
    return TrainConfig(**resolved | {
        "learning_rate": float(resolved["learning_rate"]),
        "batch": None if resolved["batch"] == "full" else resolved["batch"],
    })


def _env_from_config(config: dict):
    block = config.get("env", {})
    kind = block.get("kind", "pointmass-relocation")
    overrides = dict(block.get("overrides", {}))
    return make_env(kind, **overrides)


def _load_policy(args, config: dict):
    """The model, controller and environment of a closed-loop command.

    The environment comes from the config's env block, else from the one the
    demos manifest records.
    """
    model = load_model(args.model)
    controller = load_controller(args.controller)
    manifest = load_manifest(args.demos) if args.demos else None
    if "env" in config:
        return model, controller, _env_from_config(config)
    if manifest is None or not manifest.get("env"):
        raise ValueError("no environment: pass --config with an env block or a manifest that records one")
    try:
        return model, controller, env_spec_from_dict(manifest["env"])
    except ValueError as exc:
        raise ValueError(f"manifest {args.demos}: {exc}") from None


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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

def _cmd_gen_demos(args) -> int:
    config = _load_config(args)
    env = _env_from_config(config)
    s = _settings(args, config, SETTINGS)
    n, horizon, seed = s["n_demos"], s["horizon"], s["seed"]
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
    s = _settings(args, config, SETTINGS)
    lifting, tol = LIFTING_NAMES[s["lifting"]], s["pinv_tol"]
    model = fit(demos, LiftingSpec(lifting, demos.layout), rel_tolerance=tol)
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
    _write_csv(path, ["t"] + [f"xr_{i}" for i in range(model.layout.n)],
               ([str(t + 1)] + [format_float(v) for v in row] for t, row in enumerate(ref)))
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
    _write_csv(out / "loss_history.csv", ["iteration", "loss"],
               ([str(i), format_float(value)] for i, value in enumerate(history)))
    _stamp(out, "train-controller", {"demos": str(args.demos), "train": vars(train_cfg) | {}}, [train_cfg.seed])
    print(f"trained controller: {len(history)} iterations, final loss {history[-1]:.3e}")
    return 0


def _run_batch(model, controller, env, seeds, horizon, distribution, mode):
    """One closed-loop episode per reset seed, all stepped in one lockstep batch."""
    inits = [reset(env, s, distribution) for s in seeds]
    return _closed_loop(model, controller, env, inits, horizon, mode)


def _success_pct(trajectories, criterion, label: str):
    """Success percentage and per-run flags; logs the batch's outcome summary under label."""
    if criterion is None:
        return None, []
    results = [evaluate_success(t, criterion) for t in trajectories]
    logger.info("%s: %s", label, outcome_summary(results, criterion))
    flags = [bool(r.success) for r in results]
    return 100.0 * sum(flags) / len(flags), flags


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    model, controller, env = _load_policy(args, config)
    s = _settings(args, config, SETTINGS)
    n_runs, horizon, seed = s["n_runs"], s["horizon"], s["seed"]
    out = _out_dir(args)
    seeds = _reset_seeds(seed, n_runs)
    executed = _run_batch(model, controller, env, seeds, horizon, args.distribution, args.rollout_mode)
    save_demos(DemonstrationSet(env.layout, tuple(executed)), out / "executed",
               env=env_spec_to_dict(env), seed=seed)
    rate, flags = _success_pct(executed, default_criterion(env), f"simulate ({args.distribution})")
    _write_json({"n_runs": n_runs, "distribution": args.distribution,
                 "success_rate": rate, "successes": flags}, out / "report.json")
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
    s = _settings(args, config, SETTINGS)
    counts, horizon, seed, n_eval = s["demo_counts"], s["horizon"], s["seed"], s["n_eval"]
    lifting, tol = LIFTING_NAMES[s["lifting"]], s["pinv_tol"]
    train_cfg = _train_config(args, config)
    criterion = default_criterion(env)
    out = _out_dir(args)

    rng = np.random.default_rng(seed)
    rows = []
    for count in counts:
        demo_seed = int(rng.integers(SEED_CEILING))
        eval_seeds = [int(v) for v in rng.integers(SEED_CEILING, size=n_eval)]
        demos = generate_demos(env, default_expert(env), count, horizon, demo_seed)
        model = fit(demos, LiftingSpec(lifting, demos.layout), rel_tolerance=tol)
        controller, _ = train(demos, train_cfg)
        refs = _rollout(model, [CompositeState(t.x_r[0], t.x_o[0]) for t in demos.trajectories], horizon, "linear")
        errors = [imitation_error(refs[:, i], t.x_r) for i, t in enumerate(demos.trajectories)]
        if criterion is None:
            rate_cell = ""
        else:
            executed = _run_batch(model, controller, env, eval_seeds, horizon,
                                  args.distribution, "linear")
            rate, _ = _success_pct(executed, criterion, f"eval N={count}")
            rate_cell = format_float(rate)
        rows.append([env.kind, str(count), str(demo_seed),
                     format_float(model.fit_meta.wall_time_s),
                     format_float(float(np.mean(errors))), rate_cell])
        logger.info("eval: N=%s done", count)
    path = out / "eval.csv"
    _write_csv(path, ["env", "N_demos", "seed", "train_time_s", "imitation_error", "success_rate"], rows)
    _stamp(out, "eval", {"env": env_spec_to_dict(env), "demo_counts": list(counts),
                         "horizon": horizon, "seed": seed, "n_eval": n_eval,
                         "lifting": lifting, "pinv_tol": tol,
                         "train": vars(train_cfg) | {},
                         "distribution": args.distribution}, [seed])
    print(f"wrote {len(rows)} eval rows to {path}")
    return 0


def _cmd_retune(args) -> int:
    config = _load_config(args)
    model, controller, env = _load_policy(args, config)
    perturbed = perturb_params(env, args.variation)
    s = _settings(args, config, SETTINGS)
    n_demos, horizon, seed, n_runs = s["n_demos"], s["horizon"], s["seed"], s["n_runs"]
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
        _run_batch(model, controller, perturbed, seeds, horizon, "in", "linear"), criterion,
        f"retune {args.variation} before",
    )
    after, _ = _success_pct(
        _run_batch(model, retuned, perturbed, seeds, horizon, "in", "linear"), criterion,
        f"retune {args.variation} after",
    )
    _write_json({"variation": args.variation, "n_runs": n_runs,
                 "before_success_rate": before, "after_success_rate": after}, out / "report.json")
    _stamp(out, "retune", {"model": str(args.model), "controller": str(args.controller),
                           "env": env_spec_to_dict(env), "variation": args.variation,
                           "n_demos": n_demos, "horizon": horizon, "seed": seed,
                           "n_runs": n_runs, "train": vars(train_cfg) | {}}, seeds)
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
    "--optimizer": {"choices": ("adam", "sgd")},
    "--traj-index": {"type": int, "default": 0},
    "--distribution": {"choices": ("in", "out"), "default": "in"},
    "--rollout-mode": {"choices": ("linear", "relift"), "default": "linear"},
    "--variation": {"choices": tuple(VARIATIONS)},
}

# subcommand -> (handler, help, the flags it reads besides --out-dir; "!" marks a required one)
COMMANDS = {
    "gen-demos": (_cmd_gen_demos, "run the scripted expert and save demonstrations",
                  "--config --seed --n-demos --horizon --distribution"),
    "fit": (_cmd_fit, "fit a lifted linear model from saved demonstrations",
            "--config --demos! --lifting --pinv-tol"),
    "rollout": (_cmd_rollout, "write a model's open-loop reference trajectory",
                "--model! --demos! --traj-index --horizon --rollout-mode"),
    "train-controller": (_cmd_train_controller, "train the tracking controller on demonstrations",
                         "--config --seed --demos! --learning-rate --iterations --batch --optimizer"),
    "simulate": (_cmd_simulate, "closed-loop runs of model + controller",
                 "--config --seed --model! --controller! --demos --n-runs --horizon --distribution --rollout-mode"),
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
        _check_flags(args)
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
