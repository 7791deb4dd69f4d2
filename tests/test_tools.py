"""tools/hash_outputs.py: runs end to end at tiny sizes and prints the same digests twice."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "hash_outputs.py"

GROUPS = [
    *(f"demos/{kind}/{label}" for kind in ("linear", "pendulum", "vanderpol", "pointmass-relocation")
      for label in ("jitter", "quiet")),
    "envs/specs",
    *(f"reset/{kind}/{distribution}" for kind in ("linear", "pendulum", "vanderpol", "pointmass-relocation")
      for distribution in ("in", "out")),
    *(f"step/{kind}" for kind in ("linear", "pendulum", "vanderpol", "pointmass-relocation")),
    "supervision",
    *(f"train/{case}/{part}" for case in ("batch-64", "batch-divides-P", "batch-leaves-one-row", "full-batch",
                                          "batch-above-P", "pendulum/batch-64", "pendulum/full-batch")
      for part in ("model", "history")),
    "closed-loop/lockstep",
    "closed-loop/single",
    "closed-loop/linear/lockstep",
    "closed-loop/linear/single",
    "rollout/pointmass",
    *(f"controller/{call}" for call in ("forward", "loss", "gradient-check")),
    *(f"persist/load/{label}" for label in ("torques", "bare", "model", "controller")),
    *(f"cli/{command}" for command in ("gen-demos", "fit", "rollout", "train-controller", "simulate",
                                       "retune", "eval")),
    "cli/flags",
]


def test_hash_outputs_prints_one_repeatable_digest_per_group(capsys):
    spec = importlib.util.spec_from_file_location("hash_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = ["--demos", "3", "--horizon", "8", "--iterations", "2"]
    assert tool.main(argv) == 0
    first = capsys.readouterr().out
    assert tool.main(argv) == 0
    assert capsys.readouterr().out == first
    lines = [line.split(" ") for line in first.splitlines()]
    assert [name for name, _ in lines] == GROUPS
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
    digests = dict(lines)
    for part in ("model", "history"):  # a full batch is one minibatch of all pairs
        assert digests[f"train/batch-above-P/{part}"] == digests[f"train/full-batch/{part}"]
    # every kind's plant steps each row as its own product, so a batch equals its single episodes
    assert digests["closed-loop/linear/lockstep"] == digests["closed-loop/linear/single"]
