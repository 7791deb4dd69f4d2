"""Command-line pipeline: wiring, config precedence, error lines, determinism."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from koopmanix import (
    DemonstrationSet,
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
from koopmanix.cli import _build_parser, _reset_seeds, main
from koopmanix.envs import env_spec_from_dict, reset

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
    assert err.startswith("error: persist:") and "trajectories[0] must be a file name, got 5" in err


@pytest.mark.parametrize("command, config, key", [
    ("gen-demos", {"env": []}, "env must be an object, got []"),
    ("gen-demos", {"env": {"kind": "pendulum", "overrides": [1]}}, "env.overrides must be an object, got [1]"),
    ("train-controller", {"train": []}, "train must be an object, got []"),
    ("eval", {"demo_counts": 5}, "demo_counts must be a list, got 5"),
    ("eval", {"demo_counts": [[3]]}, "demo_counts[0] must be a positive integer, got [3]"),
    ("eval", {"demo_counts": [2, True]}, "demo_counts[1] must be a positive integer, got true"),
    ("eval", {"demo_counts": [0]}, "demo_counts[0] must be a positive integer, got 0"),
    ("eval", {"demo_counts": [2.5]}, "demo_counts[0] must be a positive integer, got 2.5"),
    ("train-controller", {"train": {"iterations": [3]}}, "train.iterations must be an integer, got [3]"),
    ("train-controller", {"train": {"batch": True}}, 'train.batch must be an integer, null or "full", got true'),
    ("train-controller", {"train": {"iterations": 2.7}}, "train.iterations must be an integer, got 2.7"),
    ("train-controller", {"train": {"seed": "7"}}, 'train.seed must be an integer, got "7"'),
    ("train-controller", {"train": {"learning_rate": False}}, "train.learning_rate must be a real number, got false"),
    ("train-controller", {"train": {"optimizer": 1}}, "train.optimizer must be a string, got 1"),
    ("gen-demos", {"n_demos": [3]}, "n_demos must be a positive integer, got [3]"),
    ("gen-demos", {"n_demos": 2.7}, "n_demos must be a positive integer, got 2.7"),
    ("gen-demos", {"horizon": True}, "horizon must be a positive integer, got true"),
    ("gen-demos", {"n_runs": 0}, "n_runs must be a positive integer, got 0"),
    ("gen-demos", {"seed": -1}, "seed must be a non-negative integer, got -1"),
    ("fit", {"lifting": "bogus"}, 'lifting must be "identity" or "kodex", got "bogus"'),
    ("eval", {"n_eval": 0}, "n_eval must be a positive integer, got 0"),
    ("fit", {"pinv_tol": "x"}, 'pinv_tol must be null or a finite real number >= 0, got "x"'),
    ("fit", {"pinv_tol": float("nan")}, "pinv_tol must be null or a finite real number >= 0, got NaN"),
    ("fit", {"pinv_tol": -1e-9}, "pinv_tol must be null or a finite real number >= 0, got -1e-09"),
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
    (["gen-demos", "--n-demos", "0"], "--n-demos must be a positive integer, got 0"),
    (["gen-demos", "--horizon", "-4"], "--horizon must be a positive integer, got -4"),
    (["gen-demos", "--seed", "-3"], "--seed must be a non-negative integer, got -3"),
    (["simulate", "--model", "m.json", "--controller", "c.json", "--n-runs", "0"],
     "--n-runs must be a positive integer, got 0"),
    (["simulate", "--model", "m.json", "--controller", "c.json", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1"),
    (["retune", "--model", "m.json", "--controller", "c.json", "--variation", "heavy-hand", "--n-demos", "0"],
     "--n-demos must be a positive integer, got 0"),
    (["rollout", "--model", "m.json", "--demos", "d.json", "--horizon", "0"],
     "--horizon must be a positive integer, got 0"),
    (["fit", "--demos", "d.json", "--pinv-tol", "nan"],
     "--pinv-tol must be null or a finite real number >= 0, got nan"),
], ids=["gen-demos-n-demos", "gen-demos-horizon", "gen-demos-seed", "simulate-n-runs", "simulate-seed",
        "retune-n-demos", "rollout-horizon", "fit-pinv-tol"])
def test_flags_checked_like_config_keys(tmp_path, capsys, argv, message):
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: invalid: {message}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_env_override_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"env": {"kind": "pendulum", "overrides": {"bogus": 1}}})
    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: ")
    assert "'pendulum'" in err and "'bogus'" in err and "mass" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env, key, want", [
    ({"kind": "pendulum", "overrides": {"mass": "heavy"}}, "'mass'", "a real number"),
    ({"kind": "linear", "overrides": {"dim": 2.5}}, "'dim'", "an integer"),
], ids=["pendulum-mass-string", "linear-dim-float"])
def test_env_override_type_rejected(tmp_path, capsys, env, key, want):
    cfg = _write_config(tmp_path, {"env": env})
    assert main(["gen-demos", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: ")
    assert f"env kind {env['kind']!r}: override {key} must be {want}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config, key", [
    ("gen-demos", {"env": {"kind": "pendulum", "overrides": {"mass": float("nan")}}},
     "pendulum param 'mass' must be finite, got nan"),
    ("gen-demos", {"env": {"kind": "vanderpol", "overrides": {"dt": float("inf")}}},
     "dt must be finite and > 0, got inf"),
    ("train-controller", {"train": {"learning_rate": float("nan")}}, "learning_rate must be finite and > 0, got nan"),
    ("train-controller", {"train": {"learning_rate": float("inf")}}, "learning_rate must be finite and > 0, got inf"),
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


@pytest.mark.parametrize("env, key", [
    ({"dt": 0.05}, "'kind'"),
    ({"kind": "pendulum"}, "'dt'"),
    ({"kind": "linear", "dt": 1.0, "matrix": [[0.5]]}, "'input_map'"),
], ids=["no-kind", "no-dt", "linear-no-input-map"])
def test_manifest_env_block_missing_key(tmp_path, capsys, env, key):
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
    assert err == f"error: invalid: manifest {path}: env block has no {key} key\n"
    assert not (tmp_path / "o").exists()


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


def test_simulate_needs_an_environment(tmp_path, capsys):
    assert main([
        "simulate", "--model", str(FIXTURES / "model.json"),
        "--controller", str(FIXTURES / "controller.json"),
        "--out-dir", str(tmp_path),
    ]) == 1
    assert "error: invalid: no environment" in capsys.readouterr().err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["compress"])


# subcommand -> (values for its required flags, the defaults of the flags it may omit)
PARSER_SURFACE = {
    "gen-demos": ({}, {"config": None, "seed": None, "n_demos": None, "horizon": None, "distribution": "in"}),
    "fit": ({"demos": "d.json"}, {"config": None, "lifting": None, "pinv_tol": None}),
    "rollout": ({"model": "m.json", "demos": "d.json"},
                {"traj_index": 0, "horizon": None, "rollout_mode": "linear"}),
    "train-controller": ({"demos": "d.json"}, {"config": None, "seed": None, "learning_rate": None,
                                               "iterations": None, "batch": None, "optimizer": None}),
    "simulate": ({"model": "m.json", "controller": "c.json"},
                 {"config": None, "seed": None, "demos": None, "n_runs": None, "horizon": None,
                  "distribution": "in", "rollout_mode": "linear"}),
    "eval": ({}, {"config": None, "seed": None, "horizon": None, "lifting": None, "pinv_tol": None,
                  "distribution": "in"}),
    "retune": ({"model": "m.json", "controller": "c.json", "variation": "heavy-hand"},
               {"config": None, "seed": None, "demos": None, "n_demos": None, "horizon": None, "n_runs": None}),
}


def _flag_args(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key.replace('_', '-')}", value)]


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
], ids=["rollout-config", "rollout-seed", "fit-seed"])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_overflow_is_one_error_line(tmp_path, capsys):
    # kodex lifts x to [x, x^2, x^3]: 1e200 overflows the lift, and K = 10 I
    # overflows the relifted reference once x^3 passes the largest double
    layout = StateLayout(n=1, m=0, a=1)
    for name, x in (("big", [1e200, 1.0, 2.0]), ("ok", [1.0, 2.0, 3.0])):
        traj = Trajectory.from_arrays(np.array(x)[:, None], np.empty((3, 0)), np.zeros((2, 1)))
        save_demos(DemonstrationSet(layout, (traj,)), tmp_path / name)
    save_model(KoopmanModel(10.0 * np.eye(3), LiftingSpec("kodex-polynomial", layout), layout),
               tmp_path / "model.json")
    assert main(["fit", "--demos", str(tmp_path / "big" / "manifest.json"), "--out-dir", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == "error: invalid: lifted values overflow in trajectory 0\n"
    assert main(["rollout", "--model", str(tmp_path / "model.json"), "--demos", str(tmp_path / "ok" / "manifest.json"),
                 "--rollout-mode", "relift", "--horizon", "400", "--out-dir", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        "error: invalid: non-finite reference state at step 105 of 400 (spectral radius of K 10 > 1)\n")


def test_non_integer_layout_size_is_a_persist_error(tmp_path, capsys):
    manifest = json.loads((FIXTURES / "demo_set" / "manifest.json").read_text())
    manifest["layout"]["n"] = 2.7
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["fit", "--demos", str(path), "--out-dir", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == f"error: persist: {path}: bad layout block: n must be an integer, got 2.7\n"


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


def test_overlong_csv_cell_is_a_persist_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "schema": 1,
        "layout": {"n": 1, "m": 0, "a": 1, "robot_names": None, "object_names": None},
        "trajectories": ["traj_0000.csv"],
    }))
    (tmp_path / "traj_0000.csv").write_text("t,xr_0,tau_0\n1," + "0" * csv.field_size_limit() + "1.5,1.0\n2,1.5,\n")
    assert main(["fit", "--demos", str(manifest), "--out-dir", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: persist: {tmp_path / 'traj_0000.csv'}: line 2: field larger than field limit")
    assert "Traceback" not in err


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
