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
import os
from pathlib import Path

import numpy as np

from .controller import ControllerModel
from .koopman import FitMeta, KoopmanModel
from .lifting import KINDS, LiftingSpec, dimension
from .statespace import DemonstrationSet, StateLayout, Trajectory, _is_int, require_valid

SCHEMA_VERSION = 1

# Ordering tags name the slot convention baked into K.  A model written
# under one tag must never be read back under another: the matrix entries
# are meaningless if the observable order changed.
ORDERING_TAGS = {
    "identity": "identity-v1",
    "kodex-polynomial": "kodex-v1",
}

# The one activation a controller file may name: the network's hidden layers
# are rectified.
_ACTIVATION = "relu"


class PersistError(ValueError):
    """Malformed or inconsistent file; message names the file and position."""


def format_float(value: float) -> str:
    """Shortest decimal that parses back to the same double: the form of every float in the CSV files."""
    return repr(float(value))


def _int(value, key: str) -> int:
    """value itself if it is a JSON integer; int() would truncate 2.7 and parse "2"."""
    if not _is_int(value):
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _array(value, key: str, ndim: int = 1) -> np.ndarray:
    """A float64 vector (ndim 1) or matrix (ndim 2) from a JSON list of numbers or of equal-length such lists.

    np.array would read true as 1.0 and "1.5" as 1.5, and its errors for a
    ragged list or a word name no key.
    """
    rows = value if ndim == 2 else [value]
    # json.loads gives int or float for a number; a bool is neither type
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) == len(rows[0]) and set(map(type, row)) <= {int, float}
            for row in rows)):
        raise ValueError(f"{key} must be a list of {'equal-length lists of ' if ndim == 2 else ''}numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{key} holds an integer too large for a float") from None


def _names(value, key: str) -> tuple[str, ...] | None:
    """A layout's names: a list of strings, or null; an empty list reads as null."""
    if value is not None and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{key} must be a list of strings or null, got {json.dumps(value)}")
    return tuple(value) if value else None


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
            n=_int(obj["n"], "n"),
            m=_int(obj["m"], "m"),
            a=_int(obj["a"], "a"),
            robot_names=_names(obj.get("robot_names"), "robot_names"),
            object_names=_names(obj.get("object_names"), "object_names"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"{path}: bad layout block: {exc}") from exc


def _write_json(obj: dict, path: Path) -> None:
    """Write obj as indented JSON, streamed into a temporary file beside path
    and then moved onto it.

    No string of the whole document is built.  A non-finite value is refused
    with no file left behind and an existing path untouched.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            try:
                json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise PersistError(f"{path}: refusing to write non-finite values") from exc
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_json(path) -> dict:
    """The top-level object of a JSON file written at SCHEMA_VERSION."""
    path = Path(path)
    if not path.exists():
        raise PersistError(f"{path}: no such file")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise PersistError(f"{path}: top level must be an object")
    version = obj.get("schema")
    if version != SCHEMA_VERSION:
        raise PersistError(f"{path}: schema version {version!r}, expected {SCHEMA_VERSION}")
    return obj


# ------------------------------------------------------------ demonstrations

def _header(layout: StateLayout) -> list[str]:
    return (
        ["t"]
        + [f"xr_{i}" for i in range(layout.n)]
        + [f"xo_{i}" for i in range(layout.m)]
        + [f"tau_{i}" for i in range(layout.a)]
    )


def _write_trajectory(traj: Trajectory, layout: StateLayout, path: Path) -> None:
    # The bytes csv.writer writes for format_float cells: repr of a Python
    # float is format_float, and no cell needs quoting.  A row without
    # torques ends in `a` empty cells.
    states = np.concatenate([traj.x_r, traj.x_o], axis=1)
    empty = "," * layout.a
    if traj.torques is None:
        body, end = states[:-1], empty
    else:
        body, end = np.concatenate([states[:-1], traj.torques], axis=1), ""
    lines = [",".join(_header(layout))]
    lines += [f"{t},{','.join(map(repr, row.tolist()))}{end}" for t, row in enumerate(body, start=1)]
    lines += [f"{traj.horizon},{','.join(map(repr, states[-1].tolist()))}{empty}", ""]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def _parse_trajectory(text: str, layout: StateLayout) -> Trajectory | None:
    """Parse a trajectory file with torques, as the writer lays it out, with numpy's C parser; else None.

    None means the file has quotes, carriage returns, no final newline,
    fewer than 2 rows, a blank line, a `t` cell other than the bare row
    number, a cell numpy rejects, a wrong row width, or torque cells that are
    not filled on every row but the last.  The per-cell reader then decides
    the file, so every error keeps its line and column.  Every cell numpy
    accepts, float() accepts with the same bits.
    """
    if '"' in text or "\r" in text or not text.endswith("\n"):
        return None
    header, *rows = text.split("\n")[:-1]
    if header != ",".join(_header(layout)) or len(rows) < 2:
        return None
    # csv.reader rejects a cell longer than this, so such a file is not well formed
    if max(map(len, rows)) > csv.field_size_limit():
        return None
    if not all(row.startswith(f"{t},") for t, row in enumerate(rows, start=1)):
        return None
    # the final row's empty torque cells become zeros so that every row parses at full width
    a = layout.a
    if not rows[-1].endswith("," * a):
        return None
    rows[-1] = rows[-1][:-a] + ",0" * a
    n, d = layout.n, layout.n + layout.m
    try:
        values = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), 1 + d + a):
        return None
    return Trajectory.from_arrays(values[:, 1 : 1 + n], values[:, 1 + n : 1 + d], values[:-1, 1 + d :])


def _read_trajectory(path: Path, layout: StateLayout) -> Trajectory:
    if not path.exists():
        raise PersistError(f"{path}: no such file")
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    traj = _parse_trajectory(text, layout)
    return traj if traj is not None else _read_trajectory_cells(path, layout)


def _parse_cell(cell: str, path: Path, line: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise PersistError(f"{path}: line {line}, column {column}: bad float {cell!r}")


def _read_trajectory_cells(path: Path, layout: StateLayout) -> Trajectory:
    """The per-cell reader: accepts any CSV quoting and reports the line and column of a fault."""
    expected = _header(layout)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            raise PersistError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or rows[0] != expected:
        raise PersistError(f"{path}: line 1: header does not match layout {expected}")
    d = layout.n + layout.m
    T = len(rows) - 1
    # row t holds [x_r | x_o | tau]; has_tau[t] is False where the torque cells are empty
    values = np.empty((T, d + layout.a))
    has_tau = np.zeros(T, dtype=bool)
    for t, row in enumerate(rows[1:]):
        lineno = t + 2
        if len(row) != len(expected):
            raise PersistError(f"{path}: line {lineno}: {len(row)} cells, expected {len(expected)}")
        if row[0] != str(t + 1):
            raise PersistError(f"{path}: line {lineno}: t={row[0]!r}, expected {t + 1}")
        has_tau[t] = all(cell != "" for cell in row[1 + d :])
        for j in range(d + layout.a if has_tau[t] else d):
            values[t, j] = _parse_cell(row[1 + j], path, lineno, expected[1 + j])
        if not has_tau[t] and any(cell != "" for cell in row[1 + d :]):
            raise PersistError(f"{path}: line {lineno}: partially empty torque cells")
    if T < 2:
        raise PersistError(f"{path}: a trajectory needs at least 2 rows, got {T}")
    if has_tau[-1]:
        raise PersistError(f"{path}: line {len(rows)}: final row must have empty torque cells")
    body = has_tau[:-1]
    if body.any() and not body.all():
        missing = int(np.argmin(body)) + 2
        raise PersistError(f"{path}: line {missing}: torque cells empty on a non-final row")
    recorded = values[:-1, d:] if body.all() else None
    return Trajectory.from_arrays(values[:, : layout.n], values[:, layout.n : d], recorded)


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
    names = [f"traj_{i:04d}.csv" for i in range(demos.n_demos)]
    for traj, name in zip(demos.trajectories, names):
        _write_trajectory(traj, demos.layout, directory / name)
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
    return _read_json(manifest_path)


def load_demos(manifest_path) -> DemonstrationSet:
    path = Path(manifest_path)
    obj = load_manifest(path)
    layout = _layout_from_dict(obj.get("layout", {}), path)
    names = obj.get("trajectories")
    if not isinstance(names, list) or not names:
        raise PersistError(f"{path}: manifest lists no trajectories")
    for i, name in enumerate(names):
        if not isinstance(name, str) or not name:
            raise PersistError(f"{path}: trajectories[{i}] must be a file name, got {name!r}")
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
        "K": model.K.tolist(),
        "fit_meta": meta,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(obj, path)
    return path


def load_model(path) -> KoopmanModel:
    path = Path(path)
    obj = _read_json(path)
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
    spec = LiftingSpec(kind, layout)
    try:
        K = _array(obj.get("K"), "K", ndim=2)
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from None
    p = dimension(spec)
    if K.ndim != 2 or K.shape != (p, p):
        raise PersistError(f"{path}: K has shape {K.shape}, expected ({p}, {p})")
    _require_finite(K, path, "K")
    meta = obj.get("fit_meta")
    fit_meta = None
    if meta is not None:
        try:
            fit_meta = FitMeta(
                n_demos=_int(meta["n_demos"], "n_demos"),
                n_pairs=_int(meta["n_pairs"], "n_pairs"),
                wall_time_s=float(meta["wall_time_s"]),
                rank=_int(meta["rank"], "rank"),
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
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_norm": {"mean": model.input_mean.tolist(), "std": model.input_std.tolist()},
        "activation": _ACTIVATION,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(obj, path)
    return path


def load_controller(path) -> ControllerModel:
    path = Path(path)
    obj = _read_json(path)
    try:
        sizes = tuple(_int(s, f"layer_sizes[{i}]") for i, s in enumerate(obj["layer_sizes"]))
        weights = tuple(_array(w, f"weights[{i}]", ndim=2) for i, w in enumerate(obj["weights"]))
        biases = tuple(_array(b, f"biases[{i}]") for i, b in enumerate(obj["biases"]))
        norm = obj["input_norm"]
        mean = _array(norm["mean"], "input_norm.mean")
        std = _array(norm["std"], "input_norm.std")
        activation = obj["activation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"{path}: bad controller block: {exc}") from exc
    if activation != _ACTIVATION:
        raise PersistError(f"{path}: unsupported activation {activation!r}, expected {_ACTIVATION!r}")
    try:
        return ControllerModel(sizes, weights, biases, mean, std)
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from exc
