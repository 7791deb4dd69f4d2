"""On-disk formats for demonstrations, models, and controllers.

Trajectories are one CSV each plus a JSON manifest; models and controllers
are single JSON files.  Every float is written as the shortest decimal
string that parses back to the identical binary value (Python's repr), so
a save/load cycle is value-exact, including subnormals and signed zeros.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .controller import ControllerModel
from .koopman import FitMeta, KoopmanModel
from .lifting import KINDS, LiftingSpec, dimension
from .statespace import CompositeState, DemonstrationSet, StateLayout, Trajectory, require_valid

SCHEMA_VERSION = 1

# Ordering tags name the slot convention baked into K.  A model written
# under one tag must never be read back under another: the matrix entries
# are meaningless if the observable order changed.
ORDERING_TAGS = {
    "identity": "identity-v1",
    "kodex-polynomial": "kodex-v1",
    "monomial-list": "monomial-v1",
}


class PersistError(ValueError):
    """Malformed or inconsistent file; message names the file and position."""


def format_float(value: float) -> str:
    """Shortest decimal that parses back to the same double; every float written to CSV uses it."""
    return repr(float(value))


def _require_finite(arr, path: Path, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise PersistError(f"{path}: {what} contains non-finite values")


def _layout_to_dict(layout: StateLayout) -> dict:
    return {
        "n": layout.n,
        "m": layout.m,
        "a": layout.a,
        "robot_names": list(layout.robot_names) if layout.robot_names else None,
        "object_names": list(layout.object_names) if layout.object_names else None,
    }


def _layout_from_dict(obj: dict, path: Path) -> StateLayout:
    try:
        return StateLayout(
            n=int(obj["n"]),
            m=int(obj["m"]),
            a=int(obj["a"]),
            robot_names=tuple(obj["robot_names"]) if obj.get("robot_names") else None,
            object_names=tuple(obj["object_names"]) if obj.get("object_names") else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"{path}: bad layout block: {exc}") from exc


def _write_json(obj: dict, path: Path) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise PersistError(f"{path}: refusing to write non-finite values") from exc
    path.write_text(text + "\n", encoding="utf-8")


def _read_json(path: Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise PersistError(f"{path}: no such file")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise PersistError(f"{path}: top level must be an object")
    return obj


def _check_schema(obj: dict, path: Path) -> None:
    version = obj.get("schema")
    if version != SCHEMA_VERSION:
        raise PersistError(f"{path}: schema version {version!r}, expected {SCHEMA_VERSION}")


# ------------------------------------------------------------ demonstrations

def _header(layout: StateLayout) -> list[str]:
    return (
        ["t"]
        + [f"xr_{i}" for i in range(layout.n)]
        + [f"xo_{i}" for i in range(layout.m)]
        + [f"tau_{i}" for i in range(layout.a)]
    )


def _write_trajectory(traj: Trajectory, layout: StateLayout, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(layout))
        horizon = traj.horizon
        for t, state in enumerate(traj.states):
            row = [str(t + 1)]
            row += [format_float(v) for v in state.x_r]
            row += [format_float(v) for v in state.x_o]
            if traj.torques is not None and t < horizon - 1:
                row += [format_float(v) for v in traj.torques[t]]
            else:
                row += [""] * layout.a
            writer.writerow(row)


def _parse_cell(cell: str, path: Path, line: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise PersistError(f"{path}: line {line}, column {column}: bad float {cell!r}")


def _read_trajectory(path: Path, layout: StateLayout) -> Trajectory:
    path = Path(path)
    if not path.exists():
        raise PersistError(f"{path}: no such file")
    expected = _header(layout)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != expected:
        raise PersistError(f"{path}: line 1: header does not match layout {expected}")
    states = []
    torques = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(expected):
            raise PersistError(
                f"{path}: line {lineno}: {len(row)} cells, expected {len(expected)}"
            )
        t = lineno - 1
        if row[0] != str(t):
            raise PersistError(f"{path}: line {lineno}: t={row[0]!r}, expected {t}")
        values = {
            name: cell for name, cell in zip(expected[1:], row[1:], strict=True)
        }
        x_r = np.array(
            [_parse_cell(values[f"xr_{i}"], path, lineno, f"xr_{i}") for i in range(layout.n)]
        )
        x_o = np.array(
            [_parse_cell(values[f"xo_{i}"], path, lineno, f"xo_{i}") for i in range(layout.m)]
        )
        states.append(CompositeState(x_r, x_o))
        tau_cells = [values[f"tau_{i}"] for i in range(layout.a)]
        if all(cell == "" for cell in tau_cells):
            torques.append(None)
        elif any(cell == "" for cell in tau_cells):
            raise PersistError(f"{path}: line {lineno}: partially empty torque cells")
        else:
            torques.append(
                np.array(
                    [_parse_cell(c, path, lineno, f"tau_{i}") for i, c in enumerate(tau_cells)]
                )
            )
    if len(states) < 2:
        raise PersistError(f"{path}: a trajectory needs at least 2 rows, got {len(states)}")
    if torques[-1] is not None:
        raise PersistError(f"{path}: line {len(rows)}: final row must have empty torque cells")
    body = torques[:-1]
    if all(tq is None for tq in body):
        recorded = None
    elif any(tq is None for tq in body):
        missing = body.index(None) + 2
        raise PersistError(f"{path}: line {missing}: torque cells empty on a non-final row")
    else:
        recorded = tuple(body)
    return Trajectory(tuple(states), recorded)


def save_demos(
    demos: DemonstrationSet,
    directory,
    env: dict | None = None,
    seed: int | None = None,
) -> Path:
    """Write one CSV per trajectory plus manifest.json; returns the manifest path."""
    try:
        require_valid(demos)
    except ValueError as exc:
        raise PersistError(f"refusing to save invalid demos: {exc}") from None
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, traj in enumerate(demos.trajectories):
        name = f"traj_{i:04d}.csv"
        _write_trajectory(traj, demos.layout, directory / name)
        names.append(name)
    manifest = {
        "schema": SCHEMA_VERSION,
        "layout": _layout_to_dict(demos.layout),
        "trajectories": names,
        "env": env,
        "seed": seed,
    }
    path = directory / "manifest.json"
    _write_json(manifest, path)
    return path


def load_manifest(manifest_path) -> dict:
    """Raw manifest dict (callers needing env/seed read them from here)."""
    path = Path(manifest_path)
    obj = _read_json(path)
    _check_schema(obj, path)
    return obj


def load_demos(manifest_path) -> DemonstrationSet:
    path = Path(manifest_path)
    obj = load_manifest(path)
    layout = _layout_from_dict(obj.get("layout", {}), path)
    names = obj.get("trajectories")
    if not isinstance(names, list) or not names:
        raise PersistError(f"{path}: manifest lists no trajectories")
    trajectories = tuple(_read_trajectory(path.parent / name, layout) for name in names)
    demos = DemonstrationSet(layout, trajectories)
    try:
        require_valid(demos)
    except ValueError as exc:
        raise PersistError(f"{path}: loaded demos are invalid: {exc}") from None
    return demos


# -------------------------------------------------------------------- models

def save_model(model: KoopmanModel, path) -> Path:
    path = Path(path)
    _require_finite(model.K, path, "K")
    lifting = {
        "kind": model.spec.kind,
        "n": model.layout.n,
        "m": model.layout.m,
        "ordering": ORDERING_TAGS[model.spec.kind],
    }
    if model.spec.monomials is not None:
        lifting["monomials"] = [list(mono) for mono in model.spec.monomials]
    meta = None
    if model.fit_meta is not None:
        meta = {
            "n_demos": model.fit_meta.n_demos,
            "n_pairs": model.fit_meta.n_pairs,
            "wall_time_s": model.fit_meta.wall_time_s,
            "rank": model.fit_meta.rank,
            "cond": model.fit_meta.cond if math.isfinite(model.fit_meta.cond) else None,
        }
    obj = {
        "schema": SCHEMA_VERSION,
        "layout": _layout_to_dict(model.layout),
        "lifting": lifting,
        "K": [[float(v) for v in row] for row in model.K],
        "fit_meta": meta,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(obj, path)
    return path


def load_model(path) -> KoopmanModel:
    path = Path(path)
    obj = _read_json(path)
    _check_schema(obj, path)
    layout = _layout_from_dict(obj.get("layout", {}), path)
    lifting = obj.get("lifting")
    if not isinstance(lifting, dict):
        raise PersistError(f"{path}: missing lifting block")
    kind = lifting.get("kind")
    if kind not in KINDS:
        raise PersistError(f"{path}: unknown lifting kind {kind!r}")
    tag = lifting.get("ordering")
    if tag != ORDERING_TAGS[kind]:
        raise PersistError(
            f"{path}: ordering tag {tag!r} does not match {ORDERING_TAGS[kind]!r}; "
            "K was written under a different observable order"
        )
    if lifting.get("n") != layout.n or lifting.get("m") != layout.m:
        raise PersistError(f"{path}: lifting dims disagree with layout")
    monomials = lifting.get("monomials")
    spec = LiftingSpec(
        kind,
        layout,
        tuple(tuple(int(e) for e in mono) for mono in monomials) if monomials else None,
    )
    K = np.array(obj.get("K"), dtype=np.float64)
    p = dimension(spec)
    if K.ndim != 2 or K.shape != (p, p):
        raise PersistError(f"{path}: K has shape {K.shape}, expected ({p}, {p})")
    _require_finite(K, path, "K")
    meta = obj.get("fit_meta")
    fit_meta = None
    if meta is not None:
        try:
            fit_meta = FitMeta(
                n_demos=int(meta["n_demos"]),
                n_pairs=int(meta["n_pairs"]),
                wall_time_s=float(meta["wall_time_s"]),
                rank=int(meta["rank"]),
                cond=float(meta["cond"]) if meta["cond"] is not None else math.inf,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(f"{path}: bad fit_meta block: {exc}") from exc
    return KoopmanModel(K, spec, layout, fit_meta)


# --------------------------------------------------------------- controllers

def save_controller(model: ControllerModel, path) -> Path:
    path = Path(path)
    for arr, what in ((model.input_mean, "input mean"), (model.input_std, "input std")):
        _require_finite(arr, path, what)
    for i, (w, b) in enumerate(zip(model.weights, model.biases, strict=True)):
        _require_finite(w, path, f"layer {i} weights")
        _require_finite(b, path, f"layer {i} biases")
    obj = {
        "schema": SCHEMA_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [[[float(v) for v in row] for row in w] for w in model.weights],
        "biases": [[float(v) for v in b] for b in model.biases],
        "input_norm": {
            "mean": [float(v) for v in model.input_mean],
            "std": [float(v) for v in model.input_std],
        },
        "activation": model.activation,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(obj, path)
    return path


def load_controller(path) -> ControllerModel:
    path = Path(path)
    obj = _read_json(path)
    _check_schema(obj, path)
    try:
        sizes = tuple(int(s) for s in obj["layer_sizes"])
        weights = tuple(np.array(w, dtype=np.float64) for w in obj["weights"])
        biases = tuple(np.array(b, dtype=np.float64) for b in obj["biases"])
        norm = obj["input_norm"]
        mean = np.array(norm["mean"], dtype=np.float64)
        std = np.array(norm["std"], dtype=np.float64)
        activation = obj["activation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"{path}: bad controller block: {exc}") from exc
    try:
        return ControllerModel(sizes, weights, biases, mean, std, activation)
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from exc
