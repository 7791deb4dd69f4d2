"""Self-test of the benchmark at tiny sizes (seconds, not minutes).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
from koopmanix import CompositeState, ControllerModel, DemonstrationSet, Trajectory  # noqa: E402
from koopmanix import persist  # noqa: E402
from clock import KERNEL_REF_S, SpeedClock  # noqa: E402
from spans import repeatable, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "pipeline": {"n_demos": 4, "horizon": 40, "iterations": 3, "batch": 16, "episodes": 3},
    "operator": {"n_demos": 6, "horizon": 20, "linear_dim": 3, "counts": (3, 6)},
    "closed-loop": {"n_demos": 4, "horizon": 40, "iterations": 3, "batch": 16, "episodes": 3},
}
# end-to-end metrics each workload reports beyond the ones on the result line
REPORTED = {
    "pipeline": {"episodes_per_s": "1/s", "success_pct": "%", "train_loss_final": "loss"},
    "operator": {"lift_err_ratio": "ratio"},
    "closed-loop": {"episodes_per_s": "1/s", "episode_ms_p50": "ms", "episode_ms_p90": "ms",
                    "episode_samples": "count", "success_pct": "%"},
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, trace=False, replace=None):
    return run.run_workload(name, 0, 0.0, trace, sizes=TINY[name], replace=replace)


def test_benchmark_json_lists_what_the_runs_emit():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.per_layer_catalog()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_metric_with_its_unit(name):
    result, detail = tiny(name)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    want = {**dict(run.END_TO_END), **REPORTED[name]}
    assert {k: m["unit"] for k, m in detail["metrics"].items()} == want
    assert {k: m["unit"] for k, m in detail["raw"].items()} == {"raw_setup_s": "s", "raw_wall_s": "s"}
    if not WORKLOADS[name].SCALE_WALL:
        assert result["metrics"]["wall_s"]["value"] == detail["raw"]["raw_wall_s"]["value"]
    assert detail["failed_op_ratio"]["attempted"] == result["attempted"] > 0

    result, detail = tiny(name, trace=True)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(run.per_layer_catalog())
    kinds = {k: m["kind"] for k, m in detail["per_layer"].items()}
    assert "probe" in kinds.values() and "span" in kinds.values()
    assert detail["provenance"]["nproc"] >= 1 and detail["provenance"]["numpy"]


def test_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        _, detail = tiny("operator", trace=True)
        counts.append({k: m["value"] for k, m in detail["per_layer"].items() if m["kind"].startswith("count")})
    assert repeatable(counts[0]) == repeatable(counts[1])
    assert abs(counts[0]["persist.artifact.bytes"] - counts[1]["persist.artifact.bytes"]) <= 8
    assert counts[0]["koopman.fit.p"] == 12 and counts[0]["persist.save_demos.bytes"] > 0


def test_scaled_time_is_wall_time_over_the_median_kernel():
    clock = SpeedClock()
    clock.start()
    sum(range(10**5))
    raw, scaled = clock.stop()
    assert raw > 0 and len(clock.kernels) >= 2
    assert scaled == pytest.approx(raw * KERNEL_REF_S / np.median(clock.kernels))


def test_self_time_excludes_children_and_their_wrapper_time():
    # parent spans 0..10 s; its child spans 2..4 s, with 1 s of wrapper work
    # (span bookkeeping and count hook) outside that interval
    spans = [["envs.execute_policy", None, 0.0, 10.0, False, 0.0],
             ["controller.forward", 0, 2.0, 4.0, False, 1.0]]
    busy, probes = self_times(spans, 0)
    assert busy == {"envs.execute_policy": 7.0, "controller.forward": 2.0} and probes == set()


def _nudged(arr, index=0):
    out = np.array(arr, dtype=np.float64)
    out[index] = np.nextafter(out[index], np.inf)
    return out


def _corrupt_demos(manifest):
    demos = persist.load_demos(manifest)
    first = demos.trajectories[0]
    state = first.states[0]
    bad = Trajectory((CompositeState(_nudged(state.x_r), state.x_o),) + first.states[1:], first.torques)
    return DemonstrationSet(demos.layout, (bad,) + demos.trajectories[1:])


def _corrupt_controller(path):
    ctrl = persist.load_controller(path)
    weights = (np.array(ctrl.weights[0]),) + ctrl.weights[1:]
    weights[0][0] = _nudged(weights[0][0])
    return ControllerModel(ctrl.layer_sizes, weights, ctrl.biases, ctrl.input_mean, ctrl.input_std)


@pytest.mark.parametrize("name, qual, corrupt, check", [
    ("operator", "persist.load_demos", _corrupt_demos, "operator: loaded linear demos equal saved bit for bit"),
    ("pipeline", "persist.load_controller", _corrupt_controller,
     "pipeline: loaded controller equals saved bit for bit"),
])
def test_a_corrupted_output_counts_as_failed(name, qual, corrupt, check):
    clean, clean_detail = tiny(name)
    result, detail = tiny(name, replace={qual: corrupt})
    failing = {c["name"] for c in detail["checks"] if not c["ok"]}
    assert check in failing
    assert check not in {c["name"] for c in clean_detail["checks"] if not c["ok"]}
    assert result["failed"] > clean["failed"] and not result["correct"]
    assert detail["failed_op_ratio"]["failed"] == result["failed"]


def test_exits_nonzero_without_the_package():
    # a checkout holding only BENCHMARK.json and perfbench/, as a bare copy would
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "operator", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                              timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
