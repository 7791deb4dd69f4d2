"""Command-line pipeline: wiring, config precedence, error lines, determinism."""

import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from koopmanix import (
    ControllerModel,
    DemonstrationSet,
    EnvSpec,
    KoopmanModel,
    LiftingSpec,
    StateLayout,
    Trajectory,
    execute_policy,
    load_controller,
    load_demos,
    load_model,
    save_demos,
    save_model,
)
from koopmanix import cli, lifting, persist
from koopmanix.cli import COMMANDS, LIFTING_NAMES, _build_parser, _reset_seeds, main
from koopmanix.envs import env_spec_from_dict, env_spec_to_dict, linear_env, make_env, pendulum_env, reset

FIXTURES = Path(__file__).parent / "fixtures"


def _write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def _drop_column(text, name):
    rows = list(csv.reader(io.StringIO(text)))
    idx = rows[0].index(name)
    return [[cell for i, cell in enumerate(row) if i != idx] for row in rows]


def test_full_pipeline(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "env": {"kind": "pointmass-relocation"},
            "n_demos": 4,
            "horizon": 40,
            "seed": 11,
            "train": {"learning_rate": 1e-3, "iterations": 40, "batch": 32, "seed": 0},
        },
    )
    demos_dir = tmp_path / "d"
    fit_dir = tmp_path / "f"
    roll_dir = tmp_path / "r"
    ctrl_dir = tmp_path / "c"
    sim_dir = tmp_path / "s"
    retune_dir = tmp_path / "v"

    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(demos_dir)]) == 0
    out = capsys.readouterr().out
    assert "wrote 4 trajectories (horizon 40, pointmass-relocation)" in out
    manifest = demos_dir / "demos" / "manifest.json"
    demos = load_demos(manifest)
    assert demos.n_demos == 4

    assert main(["fit", "--demos", str(manifest), "--out-dir", str(fit_dir)]) == 0
    out = capsys.readouterr().out
    assert "fit 156 pairs, p=48" in out  # 4 demos x 39 transitions
    model = load_model(fit_dir / "model.json")
    assert model.spec.kind == "kodex-polynomial"

    assert main([
        "rollout", "--model", str(fit_dir / "model.json"), "--demos", str(manifest),
        "--out-dir", str(roll_dir),
    ]) == 0
    capsys.readouterr()
    lines = (roll_dir / "reference.csv").read_text().splitlines()
    assert lines[0] == "t,xr_0,xr_1,xr_2,xr_3"
    assert len(lines) == 41  # header + one row per step

    assert main([
        "train-controller", "--config", str(cfg), "--demos", str(manifest),
        "--out-dir", str(ctrl_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "40 iterations" in out
    controller = load_controller(ctrl_dir / "controller.json")
    assert controller.layer_sizes == (8, 16, 16, 8, 2)
    history = (ctrl_dir / "loss_history.csv").read_text().splitlines()
    assert history[0] == "iteration,loss"
    assert len(history) == 41

    assert main([
        "simulate", "--config", str(cfg),
        "--model", str(fit_dir / "model.json"),
        "--controller", str(ctrl_dir / "controller.json"),
        "--n-runs", "4", "--out-dir", str(sim_dir),
    ]) == 0
    capsys.readouterr()
    report = json.loads((sim_dir / "report.json").read_text())
    assert report["n_runs"] == 4
    assert report["distribution"] == "in"
    assert isinstance(report["success_rate"], float)
    assert len(report["successes"]) == 4
    executed = load_demos(sim_dir / "executed" / "manifest.json")
    assert executed.n_demos == 4

    assert main([
        "retune", "--config", str(cfg),
        "--model", str(fit_dir / "model.json"),
        "--controller", str(ctrl_dir / "controller.json"),
        "--demos", str(manifest),
        "--variation", "heavy-hand",
        "--n-demos", "3", "--n-runs", "3", "--out-dir", str(retune_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "retune heavy-hand: before" in out
    report = json.loads((retune_dir / "report.json").read_text())
    assert set(report) == {"variation", "n_runs", "before_success_rate", "after_success_rate"}
    assert (retune_dir / "controller_retuned.json").exists()

    for directory in (demos_dir, fit_dir, roll_dir, ctrl_dir, sim_dir, retune_dir):
        stamp = json.loads((directory / "stamp.json").read_text())
        assert set(stamp) == {"command", "config_sha256", "seeds", "versions"}
        assert "koopmanix" in stamp["versions"] and "numpy" in stamp["versions"]


def test_flag_overrides_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"env": {"kind": "pendulum"}, "n_demos": 5, "horizon": 12, "seed": 0},
    )
    out_dir = tmp_path / "out"
    assert main([
        "gen-demos", "--config", str(cfg), "--n-demos", "2", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    assert load_demos(out_dir / "demos" / "manifest.json").n_demos == 2


def test_error_lines_and_exit_codes(tmp_path, capsys):
    assert main(["fit", "--demos", "/nonexistent/manifest.json", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: persist:")

    assert main([
        "gen-demos", "--config", "/nonexistent/config.json", "--out-dir", str(tmp_path),
    ]) == 1
    assert capsys.readouterr().err.startswith("error: missing-file:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-demos", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid:") and "line 1" in err


def test_non_object_manifest_is_a_persist_error(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("[]\n")
    assert main(["fit", "--demos", str(manifest), "--out-dir", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: persist:") and "top level must be an object" in err


def test_non_string_manifest_entry_is_a_persist_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "schema": 1,
        "layout": {"n": 1, "m": 0, "a": 1, "robot_names": None, "object_names": None},
        "trajectories": [5],
    }))
    assert main(["fit", "--demos", str(manifest), "--out-dir", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: persist:")
    assert "trajectories[0] must be a file name in the manifest's directory, got 5" in err


@pytest.mark.parametrize("command, config, key", [
    ("gen-demos", {"env": []}, "env must be an object, got []"),
    ("gen-demos", {"env": {"kind": "pendulum", "overrides": [1]}}, "env.overrides must be an object, got [1]"),
    ("train-controller", {"train": []}, "train must be an object, got []"),
    ("eval", {"demo_counts": 5}, "demo_counts must be a list or tuple, got 5"),
    ("eval", {"demo_counts": [[3]]}, "demo_counts[0] must be an integer, got [3]"),
    ("eval", {"demo_counts": [2, True]}, "demo_counts[1] must be an integer, got True"),
    ("eval", {"demo_counts": [0]}, "demo_counts[0] must be >= 1, got 0"),
    ("eval", {"demo_counts": [2.5]}, "demo_counts[0] must be an integer, got 2.5"),
    ("train-controller", {"train": {"iterations": [3]}}, "train.iterations must be an integer, got [3]"),
    ("train-controller", {"train": {"batch": True}}, "train.batch must be an integer, got True"),
    ("train-controller", {"train": {"iterations": 2.7}}, "train.iterations must be an integer, got 2.7"),
    ("train-controller", {"train": {"seed": "7"}}, "train.seed must be an integer, got '7'"),
    ("train-controller", {"train": {"learning_rate": False}}, "train.learning_rate must be a real number, got False"),
    ("train-controller", {"train": {"optimizer": "sgd"}},
     "train: unknown key 'optimizer'; accepted keys: learning_rate, iterations, batch, seed"),
    ("gen-demos", {"n_demos": [3]}, "n_demos must be an integer, got [3]"),
    ("gen-demos", {"n_demos": 2.7}, "n_demos must be an integer, got 2.7"),
    ("gen-demos", {"horizon": True}, "horizon must be an integer, got True"),
    ("gen-demos", {"n_runs": 0}, "n_runs must be >= 1, got 0"),
    ("gen-demos", {"seed": -1}, "seed must be >= 0, got -1"),
    ("fit", {"lifting": "bogus"}, 'lifting must be "identity" or "kodex", got \'bogus\''),
    ("eval", {"n_eval": 0}, "n_eval must be >= 1, got 0"),
    ("fit", {"pinv_tol": "x"}, "pinv_tol must be a real number, got 'x'"),
    ("fit", {"pinv_tol": float("nan")}, "pinv_tol must be finite, got nan"),
    ("fit", {"pinv_tol": -1e-9}, "pinv_tol must be >= 0, got -1e-09"),
    ("train-controller", {"train": {"seed": -1}}, "train.seed must be >= 0, got -1"),
    ("eval", {"demo_counts": []}, "demo_counts must hold at least 1 entry, got 0"),
    ("train-controller", {"train": {"iterations": 0}}, "train.iterations must be >= 1, got 0"),
    ("train-controller", {"train": {"learning_rate": -1}}, "train.learning_rate must be > 0, got -1.0"),
    ("train-controller", {"train": {"batch": 0}}, "train.batch must be >= 1, got 0"),
    ("fit", {"pinv_tol": 1}, "pinv_tol must be < 1, got 1.0"),
    ("fit", {"pinv_tol": 1.5}, "pinv_tol must be < 1, got 1.5"),
    ("gen-demos", [1], "top level must be an object, got [1]"),
])
def test_config_block_types_checked(tmp_path, capsys, command, config, key):
    cfg = _write_config(tmp_path, config)
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    if command in ("train-controller", "fit"):
        argv += ["--demos", str(FIXTURES / "demo_set" / "manifest.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: ") and f"config {cfg}: {key}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["gen-demos", "--n-demos", "0"], "--n-demos must be >= 1, got 0"),
    (["gen-demos", "--horizon", "-4"], "--horizon must be >= 2, got -4"),
    (["gen-demos", "--seed", "-3"], "--seed must be >= 0, got -3"),
    (["simulate", "--model", "m.json", "--controller", "c.json", "--n-runs", "0"],
     "--n-runs must be >= 1, got 0"),
    (["simulate", "--model", "m.json", "--controller", "c.json", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["retune", "--model", "m.json", "--controller", "c.json", "--variation", "heavy-hand", "--n-demos", "0"],
     "--n-demos must be >= 1, got 0"),
    (["rollout", "--model", "m.json", "--demos", "d.json", "--horizon", "0"],
     "--horizon must be >= 2, got 0"),
    (["fit", "--demos", "d.json", "--pinv-tol", "nan"],
     "--pinv-tol must be finite, got nan"),
    (["fit", "--demos", "d.json", "--pinv-tol", "1"],
     "--pinv-tol must be < 1, got 1.0"),
    # the train flags pass TrainConfig's rules before the missing demos file is read
    (["train-controller", "--demos", "missing.json", "--iterations", "0"],
     "--iterations must be >= 1, got 0"),
    (["train-controller", "--demos", "missing.json", "--learning-rate", "-1"],
     "--learning-rate must be > 0, got -1.0"),
    (["train-controller", "--demos", "missing.json", "--batch", "0"],
     "--batch must be >= 1, got 0"),
    # a trajectory has at least 2 states: refused before any input is read
    (["gen-demos", "--horizon", "1"], "--horizon must be >= 2, got 1"),
    (["simulate", "--model", "m.json", "--controller", "c.json", "--horizon", "1"],
     "--horizon must be >= 2, got 1"),
    (["rollout", "--model", "m.json", "--demos", "d.json", "--horizon", "1"],
     "--horizon must be >= 2, got 1"),
], ids=["gen-demos-n-demos", "gen-demos-horizon", "gen-demos-seed", "simulate-n-runs", "simulate-seed",
        "retune-n-demos", "rollout-horizon", "fit-pinv-tol", "fit-pinv-tol-one",
        "train-iterations", "train-learning-rate", "train-batch",
        "gen-demos-horizon-one", "simulate-horizon-one", "rollout-horizon-one"])
def test_flags_checked_like_config_keys(tmp_path, capsys, argv, message):
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: invalid: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, block, key, known", [
    ({"n_demo": 3}, "top level", "n_demo",
     "n_demos, horizon, n_runs, n_eval, seed, lifting, pinv_tol, demo_counts, env, train"),
    ({"env": {"kind": "pendulum", "overide": {"mass": 2.0}}}, "env", "overide", "kind, overrides"),
    ({"train": {"optimiser": "adam"}}, "train", "optimiser", "learning_rate, iterations, batch, seed"),
], ids=["top-level", "env", "train"])
def test_unknown_config_key_rejected(tmp_path, capsys, config, block, key, known):
    cfg = _write_config(tmp_path, config)
    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    message = f"config {cfg}: {block}: unknown key '{key}'; accepted keys: {known}"
    assert capsys.readouterr().err == f"error: invalid: {message}\n"
    assert not (tmp_path / "o").exists()


def test_train_stamp_hash_is_unchanged_by_the_fixed_optimizer(tmp_path, capsys):
    # the hashed settings keep "optimizer": "adam", so a stamp matches the
    # ones written while TrainConfig had an optimizer field
    manifest = str(FIXTURES / "demo_set" / "manifest.json")

    def stamp_hash(out):
        return json.loads((tmp_path / out / "stamp.json").read_text())["config_sha256"]

    def sha(hashed):
        return hashlib.sha256(json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()

    def hashed_train(iterations, seed):
        return {"learning_rate": 1e-4, "iterations": iterations, "batch": 64, "seed": seed, "optimizer": "adam"}

    assert main(["train-controller", "--demos", manifest, "--iterations", "2", "--seed", "3",
                 "--out-dir", str(tmp_path / "flags")]) == 0
    assert stamp_hash("flags") == sha({"demos": manifest, "train": hashed_train(2, 3)})
    # a flag overrides the train key named like its last part; --seed also sets the top-level seed
    block = {"env": {"kind": "linear", "overrides": {"dim": 2}}, "demo_counts": [2], "horizon": 5, "n_eval": 1,
             "lifting": "identity", "train": {"seed": 7, "iterations": 3}}
    cfg = str(_write_config(tmp_path, block))
    assert main(["train-controller", "--config", cfg, "--demos", manifest, "--seed", "3", "--iterations", "2",
                 "--out-dir", str(tmp_path / "over")]) == 0
    assert stamp_hash("over") == sha({"demos": manifest, "train": hashed_train(2, 3)})
    assert main(["train-controller", "--config", cfg, "--demos", manifest, "--out-dir", str(tmp_path / "cfg")]) == 0
    assert stamp_hash("cfg") == sha({"demos": manifest, "train": hashed_train(3, 7)})
    assert main(["eval", "--config", cfg, "--seed", "3", "--out-dir", str(tmp_path / "eval")]) == 0
    assert stamp_hash("eval") == sha({"env": env_spec_to_dict(make_env("linear", dim=2)), "demo_counts": [2],
                                      "horizon": 5, "seed": 3, "n_eval": 1, "lifting": "identity",
                                      "pinv_tol": None, "train": hashed_train(3, 3), "distribution": "in"})


def test_unknown_env_kind_rejected_with_the_config(tmp_path, capsys):
    # fit reads no env, yet the config's env block is checked when it is read
    cfg = _write_config(tmp_path, {"env": {"kind": "maze"}})
    assert main(["fit", "--config", str(cfg), "--demos", str(FIXTURES / "demo_set" / "manifest.json"),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: invalid: config {cfg}: unknown env kind 'maze', expected one of "
                                       "('linear', 'pendulum', 'vanderpol', 'pointmass-relocation')\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "retune"])
@pytest.mark.parametrize("kind", ["pendulum", "vanderpol"])
def test_closed_loop_commands_check_the_model_against_the_env(tmp_path, capsys, command, kind):
    # the fixture model has n=1, m=0; the episodes used to fail on a raw block's shape, naming no file
    cfg = _write_config(tmp_path, {"env": {"kind": kind}})
    model = FIXTURES / "model.json"
    argv = [command, "--config", str(cfg), "--model", str(model), "--controller", str(FIXTURES / "controller.json"),
            "--out-dir", str(tmp_path / "o")] + (["--variation", "heavy-hand"] if command == "retune" else [])
    assert main(argv) == 1
    m = 1 if kind == "pendulum" else 0
    assert capsys.readouterr().err == (
        f"error: invalid: env {kind} has layout (n=2, m={m}); model {model} needs (n=1, m=0)\n")
    assert not (tmp_path / "o").exists()


def test_unknown_env_override_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"env": {"kind": "pendulum", "overrides": {"bogus": 1}}})
    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    # checked when the config is read, against the keys the kind's factory takes
    assert capsys.readouterr().err == (f"error: invalid: config {cfg}: pendulum overrides: unknown key 'bogus'; "
                                       "accepted keys: dt, mass, length, gravity, damping\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env, want", [
    ({"kind": "pendulum", "overrides": {"mass": "heavy"}}, "pendulum param 'mass' must be a real number, got 'heavy'"),
    ({"kind": "linear", "overrides": {"dim": 2.5}}, "linear param 'dim' must be an integer, got 2.5"),
], ids=["pendulum-mass-string", "linear-dim-float"])
def test_env_override_type_rejected(tmp_path, capsys, env, want):
    cfg = _write_config(tmp_path, {"env": env})
    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: ")
    assert want in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fit", "gen-demos"])
def test_env_override_values_checked_with_the_config(tmp_path, capsys, command):
    # fit reads no env, yet the config's whole env block is checked when it is read
    cfg = _write_config(tmp_path, {"env": {"kind": "pendulum", "overrides": {"mass": "heavy"}}})
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    if command == "fit":
        argv += ["--demos", str(FIXTURES / "demo_set" / "manifest.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: invalid: config {cfg}: pendulum param 'mass' must be a real number, got 'heavy'\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config, key", [
    ("gen-demos", {"env": {"kind": "pendulum", "overrides": {"mass": float("nan")}}},
     "pendulum param 'mass' must be finite, got nan"),
    ("gen-demos", {"env": {"kind": "vanderpol", "overrides": {"dt": float("inf")}}},
     "vanderpol dt must be finite, got inf"),
    ("train-controller", {"train": {"learning_rate": float("nan")}}, "learning_rate must be finite, got nan"),
    ("train-controller", {"train": {"learning_rate": float("inf")}}, "learning_rate must be finite, got inf"),
], ids=["env-mass-nan", "env-dt-inf", "learning-rate-nan", "learning-rate-inf"])
def test_non_finite_numbers_rejected(tmp_path, capsys, command, config, key):
    cfg = _write_config(tmp_path, config)
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    if command == "train-controller":
        argv += ["--demos", str(FIXTURES / "demo_set" / "manifest.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: ") and key in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env, key, accepted", [
    ({"dt": 0.05}, "'kind'", "kind, dt, params, sampler"),
    ({"kind": "pendulum"}, "'dt'", "kind, dt, params, sampler"),
    ({"kind": "linear", "dt": 1.0, "matrix": [[0.5]]}, "'input_map'", "kind, dt, matrix, input_map, params, sampler"),
], ids=["no-kind", "no-dt", "linear-no-input-map"])
def test_manifest_env_block_missing_key(tmp_path, capsys, env, key, accepted):
    manifest = json.loads((FIXTURES / "demo_set" / "manifest.json").read_text())
    manifest["env"] = env
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main([
        "simulate", "--model", str(FIXTURES / "model.json"),
        "--controller", str(FIXTURES / "controller.json"),
        "--demos", str(path), "--out-dir", str(tmp_path / "o"),
    ]) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid: manifest {path}: env block: missing key {key}; accepted keys: {accepted}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env, message", [
    ({"kind": "pendulum", "dt": 0.05, "params": [1]}, "env params must be an object, got [1]"),
    ({"kind": "pendulum", "dt": 0.05, "sampler": {"target": [[0.6, 1.4]]}},
     "pendulum sampler 'target' must have shape (2, 2), got (1, 2)"),
    ({"kind": "pendulum", "dt": 0.05, "params": {"mass": "abc"}},
     "pendulum param 'mass' must be a real number, got 'abc'"),
    ({"kind": "pendulum", "dt": 0.05, "params": {"bogus": 1.0}},
     "env params: unknown key 'bogus'; accepted keys: mass, length, gravity, damping"),
    # an integer past the float range is not finite; float() would raise OverflowError
    ({"kind": "pendulum", "dt": 0.05, "sampler": {"target": [[0.6, 1.4], [1.4, 10**400]]}},
     f"pendulum sampler 'target'[1][1] must be finite, got {10**400}"),
    ({"kind": "linear", "dt": 1.0, "matrix": [[10**400]], "input_map": [[1.0]]},
     f"env matrix[0][0] must be finite, got {10**400}"),
], ids=["params-not-an-object", "sampler-one-range", "param-not-a-number", "unknown-param", "sampler-huge-integer",
        "matrix-huge-integer"])
def test_manifest_env_block_bad_entry(tmp_path, capsys, env, message):
    manifest = json.loads((FIXTURES / "demo_set" / "manifest.json").read_text())
    manifest["env"] = env
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main([
        "simulate", "--model", str(FIXTURES / "model.json"),
        "--controller", str(FIXTURES / "controller.json"),
        "--demos", str(path), "--out-dir", str(tmp_path / "o"),
    ]) == 1
    assert capsys.readouterr().err == f"error: invalid: manifest {path}: {message}\n"
    assert not (tmp_path / "o").exists()


# One bad array entry gets the same words from the Python constructor that owns the array and from a file:
# entry name -> (constructor given the entry, file, mutation of the file's JSON putting the entry in its place).
_LAYOUT_1D = StateLayout(1, 0, 1)
_LINEAR_SAMPLER = linear_env([[0.5]]).sampler


def _controller(weights=((3.0,),), biases=1.0, mean=0.0, std=1.0):
    return ControllerModel((1, 1), [weights], [[biases]], [mean], [std])


_ARRAY_OWNERS = {
    "K": (lambda bad: KoopmanModel([[bad]], LiftingSpec("identity", _LAYOUT_1D), _LAYOUT_1D),
          "model.json", lambda obj, bad: obj.update(K=[[bad]])),
    "weights": (lambda bad: _controller(weights=[[bad]]), "controller.json",
                lambda obj, bad: obj.update(weights=[[[bad]]])),
    "biases": (lambda bad: _controller(biases=bad), "controller.json", lambda obj, bad: obj.update(biases=[[bad]])),
    "input-mean": (lambda bad: _controller(mean=bad), "controller.json",
                   lambda obj, bad: obj["input_norm"].update(mean=[bad])),
    "input-std": (lambda bad: _controller(std=bad), "controller.json",
                  lambda obj, bad: obj["input_norm"].update(std=[bad])),
    "matrix": (lambda bad: EnvSpec("linear", 1.0, _LAYOUT_1D, {}, _LINEAR_SAMPLER, [[bad]], [[1.0]]), "manifest",
               lambda obj, bad: obj.update(env={"kind": "linear", "dt": 1.0, "matrix": [[bad]], "input_map": [[1.0]]})),
    "input-map": (lambda bad: EnvSpec("linear", 1.0, _LAYOUT_1D, {}, _LINEAR_SAMPLER, [[0.5]], [[bad]]), "manifest",
                  lambda obj, bad: obj.update(env={"kind": "linear", "dt": 1.0, "matrix": [[0.5]],
                                                   "input_map": [[bad]]})),
    "sampler": (lambda bad: EnvSpec("pendulum", 0.05, pendulum_env().layout, pendulum_env().params,
                                    {"target": ((0.6, 1.4), (1.4, bad))}), "manifest",
                lambda obj, bad: obj.update(env={"kind": "pendulum", "dt": 0.05,
                                                 "sampler": {"target": [[0.6, 1.4], [1.4, bad]]}})),
}
# each bad entry and the end of the words that name it; json writes and reads NaN and the huge integer
_BAD_ENTRIES = {"bool": (True, "must be a real number, got True"), "string": ("x", "must be a real number, got 'x'"),
                "nan": (math.nan, "must be finite, got nan"),
                "huge-integer": (10**400, f"must be finite, got {10**400}")}


def _file_message(tmp_path, capsys, source: str, mutate) -> str:
    """The message of the loader (model or controller file) or of simulate (a manifest's env block), unprefixed."""
    name = "manifest.json" if source == "manifest" else source
    obj = json.loads((FIXTURES / ("demo_set/manifest.json" if source == "manifest" else source)).read_text())
    mutate(obj)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    if source == "manifest":
        assert main(["simulate", "--model", str(FIXTURES / "model.json"), "--controller",
                     str(FIXTURES / "controller.json"), "--demos", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        return capsys.readouterr().err.removeprefix(f"error: invalid: manifest {path}: ").removesuffix("\n")
    with pytest.raises(persist.PersistError) as exc:
        (load_model if source == "model.json" else load_controller)(path)
    return str(exc.value).removeprefix(f"{path}: ").removeprefix("bad controller block: ")


@pytest.mark.parametrize("entry", _BAD_ENTRIES)
@pytest.mark.parametrize("owner", _ARRAY_OWNERS)
def test_a_bad_array_entry_reads_alike_from_code_and_from_a_file(tmp_path, capsys, owner, entry):
    build, source, mutate = _ARRAY_OWNERS[owner]
    bad, words = _BAD_ENTRIES[entry]
    with pytest.raises(ValueError) as exc:
        build(bad)
    assert str(exc.value).endswith(f"] {words}")
    assert _file_message(tmp_path, capsys, source, lambda obj: mutate(obj, bad)) == str(exc.value)


def test_rollout_index_out_of_range(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"env": {"kind": "pendulum"}, "n_demos": 2, "horizon": 10})
    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 0
    manifest = tmp_path / "d" / "demos" / "manifest.json"
    assert main(["fit", "--demos", str(manifest), "--out-dir", str(tmp_path / "f")]) == 0
    capsys.readouterr()
    assert main([
        "rollout", "--model", str(tmp_path / "f" / "model.json"),
        "--demos", str(manifest), "--traj-index", "7", "--out-dir", str(tmp_path / "r"),
    ]) == 1
    assert "error: invalid: --traj-index 7" in capsys.readouterr().err


def test_rollout_checks_the_demos_layout_against_the_model(tmp_path, capsys):
    demos = tmp_path / "demos"
    traj = Trajectory.from_arrays(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((2, 1)))
    manifest = save_demos(DemonstrationSet(StateLayout(n=2, m=1, a=1), (traj,)), demos)
    model = FIXTURES / "model.json"
    assert main(["rollout", "--model", str(model), "--demos", str(manifest), "--out-dir", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid: manifest {manifest} has layout (n=2, m=1); model {model} needs (n=1, m=0)\n")
    assert not (tmp_path / "r").exists()


def test_simulate_needs_an_environment(tmp_path, capsys):
    assert main([
        "simulate", "--model", str(FIXTURES / "model.json"),
        "--controller", str(FIXTURES / "controller.json"),
        "--out-dir", str(tmp_path),
    ]) == 1
    assert "error: invalid: no environment" in capsys.readouterr().err


def test_failed_simulate_leaves_no_out_dir(tmp_path, capsys):
    # the fixture model is K = 2 I on a 1-dim state, so its reference overflows
    cfg = _write_config(tmp_path, {"env": {"kind": "linear", "overrides": {"dim": 1}}})
    assert main([
        "simulate", "--config", str(cfg), "--model", str(FIXTURES / "model.json"),
        "--controller", str(FIXTURES / "controller.json"), "--horizon", "3000",
        "--out-dir", str(tmp_path / "out"),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: invalid: non-finite reference state at step 1026 of 3000 (spectral radius of K 2.0 > 1)\n")
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["compress"])


# subcommand -> (values for its required flags, the defaults of the flags it may omit)
PARSER_SURFACE = {
    "gen-demos": ({}, {"config": None, "seed": None, "n_demos": None, "horizon": None, "distribution": "in"}),
    "fit": ({"demos": "d.json"}, {"config": None, "lifting": None, "pinv_tol": None}),
    "rollout": ({"model": "m.json", "demos": "d.json"},
                {"traj_index": 0, "horizon": None}),
    "train-controller": ({"demos": "d.json"}, {"config": None, "seed": None, "learning_rate": None,
                                               "iterations": None, "batch": None}),
    "simulate": ({"model": "m.json", "controller": "c.json"},
                 {"config": None, "seed": None, "demos": None, "n_runs": None, "horizon": None,
                  "distribution": "in"}),
    "eval": ({}, {"config": None, "seed": None, "horizon": None, "lifting": None, "pinv_tol": None,
                  "distribution": "in"}),
    "retune": ({"model": "m.json", "controller": "c.json", "variation": "heavy-hand"},
               {"config": None, "seed": None, "demos": None, "n_demos": None, "horizon": None, "n_runs": None}),
}


def _flag_args(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key.replace('_', '-')}", value)]


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | flags besides `--out-dir` |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in table.splitlines()]
    assert rows == [[name, flags] for name, (_, _, flags) in COMMANDS.items()]


def test_lifting_kind_tables_agree():
    # every kind can be written (an ordering tag) and chosen (a CLI name), and
    # every tag and name belongs to a kind
    assert set(persist.ORDERING_TAGS) == set(lifting.KINDS)
    assert len(set(persist.ORDERING_TAGS.values())) == len(lifting.KINDS)
    assert set(LIFTING_NAMES.values()) == set(lifting.KINDS)


def test_parser_lists_every_subcommand():
    assert "{" + ",".join(PARSER_SURFACE) + "}" in _build_parser().format_usage()


@pytest.mark.parametrize("command", PARSER_SURFACE)
def test_parser_surface(command, capsys):
    required, defaults = PARSER_SURFACE[command]
    parsed = vars(_build_parser().parse_args([command] + _flag_args(required)))
    assert parsed.pop("command") == command
    assert parsed.pop("func").__name__ == "_cmd_" + command.replace("-", "_")
    assert parsed == required | defaults | {"out_dir": "out"}
    for key in required:
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args([command] + _flag_args({k: v for k, v in required.items() if k != key}))
        assert exc.value.code == 2
        assert f"--{key.replace('_', '-')}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["rollout", "--model", "m.json", "--demos", "d.json", "--config", "/nonexistent.json"], "--config"),
    (["rollout", "--model", "m.json", "--demos", "d.json", "--seed", "3"], "--seed"),
    (["fit", "--demos", "d.json", "--seed", "3"], "--seed"),
    (["rollout", "--model", "m.json", "--demos", "d.json", "--rollout-mode", "linear"], "--rollout-mode"),
    (["simulate", "--model", "m.json", "--controller", "c.json", "--rollout-mode", "linear"], "--rollout-mode"),
    (["train-controller", "--demos", "d.json", "--optimizer", "adam"], "--optimizer"),
], ids=["rollout-config", "rollout-seed", "fit-seed", "rollout-rollout-mode", "simulate-rollout-mode",
        "train-controller-optimizer"])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_overflow_is_one_error_line(tmp_path, capsys):
    # kodex lifts x to [x, x^2, x^3]: 1e200 overflows the lift, and K = 10 I
    # overflows the reference once 10^t passes the largest double
    layout = StateLayout(n=1, m=0, a=1)
    for name, x in (("big", [1e200, 1.0, 2.0]), ("ok", [1.0, 2.0, 3.0])):
        traj = Trajectory.from_arrays(np.array(x)[:, None], np.empty((3, 0)), np.zeros((2, 1)))
        save_demos(DemonstrationSet(layout, (traj,)), tmp_path / name)
    save_model(KoopmanModel(10.0 * np.eye(3), LiftingSpec("kodex-polynomial", layout), layout),
               tmp_path / "model.json")
    assert main(["fit", "--demos", str(tmp_path / "big" / "manifest.json"), "--out-dir", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == "error: invalid: lifted values overflow in trajectory 0\n"
    assert main(["rollout", "--model", str(tmp_path / "model.json"), "--demos", str(tmp_path / "ok" / "manifest.json"),
                 "--horizon", "400", "--out-dir", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        "error: invalid: non-finite reference state at step 310 of 400 (spectral radius of K 10.0 > 1)\n")


def test_non_integer_layout_size_is_a_persist_error(tmp_path, capsys):
    manifest = json.loads((FIXTURES / "demo_set" / "manifest.json").read_text())
    manifest["layout"]["n"] = 2.7
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["fit", "--demos", str(path), "--out-dir", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == f"error: persist: {path}: bad layout block: layout size n must be an integer, got 2.7\n"


def test_gen_demos_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"env": {"kind": "pendulum"}, "n_demos": 3, "horizon": 15, "seed": 7})
    for out in ("one", "two"):
        assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / out)]) == 0
    capsys.readouterr()
    for rel in ("stamp.json", "demos/manifest.json", "demos/traj_0000.csv", "demos/traj_0002.csv"):
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()


def test_eval_deterministic_except_wall_time(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "env": {"kind": "linear", "overrides": {"dim": 3, "seed": 5}},
            "demo_counts": [3, 5],
            "horizon": 20,
            "seed": 2,
            "n_eval": 4,
            "lifting": "identity",
            "train": {"iterations": 10, "batch": "full"},
        },
    )
    for out in ("one", "two"):
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / out)]) == 0
    capsys.readouterr()

    first = (tmp_path / "one" / "eval.csv").read_text()
    second = (tmp_path / "two" / "eval.csv").read_text()
    assert _drop_column(first, "train_time_s") == _drop_column(second, "train_time_s")
    rows = list(csv.reader(io.StringIO(first)))
    assert rows[0] == ["env", "N_demos", "seed", "train_time_s", "imitation_error", "success_rate"]
    assert [r[1] for r in rows[1:]] == ["3", "5"]
    assert all(r[0] == "linear" for r in rows[1:])
    assert all(r[5] == "" for r in rows[1:])  # no success criterion for this kind

    stamp_one = (tmp_path / "one" / "stamp.json").read_bytes()
    assert stamp_one == (tmp_path / "two" / "stamp.json").read_bytes()


def test_eval_train_time_counts_the_controller_training(tmp_path, capsys, monkeypatch):
    # train_time_s sums the K fit and the controller's training, so a slower train shows in it
    fast_train = cli.train

    def slow_train(demos, config):
        time.sleep(0.2)
        return fast_train(demos, config)

    monkeypatch.setattr(cli, "train", slow_train)
    cfg = _write_config(tmp_path, {"env": {"kind": "linear", "overrides": {"dim": 2}}, "demo_counts": [2],
                                   "horizon": 5, "n_eval": 1, "lifting": "identity", "train": {"iterations": 1}})
    assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    rows = list(csv.DictReader(io.StringIO((tmp_path / "o" / "eval.csv").read_text())))
    assert float(rows[0]["train_time_s"]) >= 0.2


def test_overlong_csv_cell_is_read(tmp_path, capsys):
    # csv refused a cell longer than csv.field_size_limit(); np.loadtxt reads it
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "schema": 1,
        "layout": {"n": 1, "m": 0, "a": 1, "robot_names": None, "object_names": None},
        "trajectories": ["traj_0000.csv"],
    }))
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1," + "0" * csv.field_size_limit() + "1.5,1.0\n2,1.5,\n")
    assert main(["fit", "--demos", str(manifest), "--out-dir", str(tmp_path / "f")]) == 0
    assert capsys.readouterr().err == ""
    assert load_model(tmp_path / "f" / "model.json").fit_meta.n_pairs == 1


def _pointmass_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "env": {"kind": "pointmass-relocation"}, "n_demos": 20, "horizon": 60, "seed": 5,
        "train": {"learning_rate": 1e-3, "iterations": 60, "batch": 128, "seed": 0},
    })
    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 0
    manifest = tmp_path / "d" / "demos" / "manifest.json"
    assert main(["fit", "--demos", str(manifest), "--out-dir", str(tmp_path / "f")]) == 0
    assert main(["train-controller", "--config", str(cfg), "--demos", str(manifest),
                 "--out-dir", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    return cfg, manifest


def test_simulate_batch_equals_episodes_run_one_at_a_time(tmp_path, capsys):
    cfg, manifest = _pointmass_artifacts(tmp_path, capsys)
    assert main(["simulate", "--config", str(cfg), "--model", str(tmp_path / "f" / "model.json"),
                 "--controller", str(tmp_path / "c" / "controller.json"), "--n-runs", "6",
                 "--horizon", "40", "--distribution", "out", "--out-dir", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    executed = load_demos(tmp_path / "s" / "executed" / "manifest.json")
    env = env_spec_from_dict(json.loads(manifest.read_text())["env"])
    model, controller = load_model(tmp_path / "f" / "model.json"), load_controller(tmp_path / "c" / "controller.json")
    for seed, got in zip(_reset_seeds(5, 6), executed.trajectories):
        one = execute_policy(model, controller, env, reset(env, seed, "out"), 40)
        for have, want in ((got.x_r, one.x_r), (got.x_o, one.x_o), (got.torques, one.torques)):
            assert np.array_equal(have.view(np.int64), want.view(np.int64))


def test_batches_log_why_runs_failed(tmp_path, capsys, caplog):
    cfg, _ = _pointmass_artifacts(tmp_path, capsys)
    with caplog.at_level("INFO", logger="koopmanix.cli"):
        assert main(["simulate", "--config", str(cfg), "--model", str(tmp_path / "f" / "model.json"),
                     "--controller", str(tmp_path / "c" / "controller.json"), "--n-runs", "5",
                     "--horizon", "30", "--out-dir", str(tmp_path / "s")]) == 0
        assert main(["retune", "--config", str(cfg), "--model", str(tmp_path / "f" / "model.json"),
                     "--controller", str(tmp_path / "c" / "controller.json"), "--variation", "heavy-hand",
                     "--n-demos", "3", "--n-runs", "4", "--horizon", "30", "--out-dir", str(tmp_path / "v")]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "koopmanix.cli"]
    # horizon 30 leaves at most 30 satisfied steps, short of the 36 success needs
    assert [line.split(": ")[0] for line in lines] == [
        "simulate (in)", "retune heavy-hand before", "retune heavy-hand after"]
    assert lines[0].startswith("simulate (in): 0/5 succeeded; failed runs: satisfied steps ")
    assert "(need > 35), closest " in lines[0] and lines[0].endswith("(need < 0.1)")
    assert lines[1].startswith("retune heavy-hand before: 0/4 succeeded; failed runs:")
