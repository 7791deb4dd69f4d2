"""Command-line pipeline: wiring, config precedence, error lines, determinism."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from koopmanix import load_controller, load_demos, load_model
from koopmanix.cli import main

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
])
def test_config_block_types_checked(tmp_path, capsys, command, config, key):
    cfg = _write_config(tmp_path, config)
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    if command == "train-controller":
        argv += ["--demos", str(FIXTURES / "demo_set" / "manifest.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: ") and f"config {cfg}: {key}" in err
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
