"""On-disk formats for demonstrations, models, and controllers.

Trajectories are one CSV each plus a JSON manifest; models and controllers
are single JSON files.  Every float is written as the shortest decimal
string that parses back to the identical binary value (Python's repr), so
a save/load cycle is value-exact, including subnormals and signed zeros.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .controller import ControllerModel
from .koopman import FitMeta, KoopmanModel
from .lifting import KINDS, LiftingSpec
from .statespace import DemonstrationSet, StateLayout, Trajectory, _count, _keys, _real, require_valid

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


def _same(value, expected) -> bool:
    """value equals expected and has its type: in Python True == 1 == 1.0, but a file's tag or size is the integer."""
    return type(value) is type(expected) and value == expected


def _layout_to_dict(layout: StateLayout) -> dict:
    return {
        "n": layout.n,
        "m": layout.m,
        "a": layout.a,
        "robot_names": list(layout.robot_names) if layout.robot_names else None,
        "object_names": list(layout.object_names) if layout.object_names else None,
    }


def _block(path: Path, label: str, block, names, optional=()) -> dict:
    """block, a keyed block of the file at path, checked by statespace._keys; its error names path."""
    try:
        return _keys(label, block, names, optional)
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from None


def _layout_from_dict(obj, path: Path) -> StateLayout:
    obj = _block(path, "layout", obj, ("n", "m", "a"), ("robot_names", "object_names"))
    try:
        return StateLayout(**obj)
    except ValueError as exc:
        raise PersistError(f"{path}: bad layout block: {exc}") from exc


def _write(path: Path, chunks) -> None:
    """Write text chunks to path: streamed into a temporary file, then moved onto it.

    The one writer of every file.  The temporary file sits in path's nearest
    existing directory, so the move stays on one filesystem, and path's
    missing directories are made only once the last chunk is written.  If
    the chunks raise, no file and no new directory is left, and an existing
    path is untouched.
    """
    tmp = next(d for d in path.parents if d.is_dir()) / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(obj: dict, path: Path) -> None:
    """Write obj as indented JSON in the chunks json.dump writes, so no string of the whole document is built.

    A non-finite value is refused; _write then leaves no file and no new directory.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(obj)
    try:
        _write(path, itertools.chain(chunks, ["\n"]))
    except ValueError as exc:
        raise PersistError(f"{path}: refusing to write non-finite values") from exc


def _read_json(path: Path, names, optional=()) -> dict:
    """The top-level object of a JSON file written at SCHEMA_VERSION: it holds schema and names, and may hold optional.

    The version is read first, so a file of another version is named as such
    whatever keys it holds.
    """
    if not path.exists():
        raise PersistError(f"{path}: no such file")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if isinstance(obj, dict) and not _same(obj.get("schema"), SCHEMA_VERSION):
        raise PersistError(f"{path}: schema version {obj.get('schema')!r}, expected {SCHEMA_VERSION}")
    return _block(path, "top level", obj, ("schema", *names), optional)


# ------------------------------------------------------------ demonstrations

def _header(layout: StateLayout) -> list[str]:
    return (
        ["t"]
        + [f"xr_{i}" for i in range(layout.n)]
        + [f"xo_{i}" for i in range(layout.m)]
        + [f"tau_{i}" for i in range(layout.a)]
    )


def _write_trajectory(traj: Trajectory, layout: StateLayout, path: Path) -> None:
    # repr of a Python float is format_float; a row without torques ends in
    # `a` empty cells.  These are the bytes csv.writer writes when no cell
    # needs quoting.
    states = np.concatenate([traj.x_r, traj.x_o], axis=1)
    empty = "," * layout.a
    if traj.torques is None:
        body, end = states[:-1], empty
    else:
        body, end = np.concatenate([states[:-1], traj.torques], axis=1), ""
    lines = [",".join(_header(layout))]
    lines += [f"{t},{','.join(map(repr, row.tolist()))}{end}" for t, row in enumerate(body, start=1)]
    lines.append(f"{traj.horizon},{','.join(map(repr, states[-1].tolist()))}{empty}")
    _write(path, ["\n".join(lines), "\n"])


def _cells(line: str) -> list[str]:
    """A row's cells as np.loadtxt splits them, which closes a `"` left open at the end of the line."""
    return list(np.loadtxt([line], dtype=object, delimiter=",", quotechar='"', comments=None, ndmin=1)) if line else []


def _unquoted(line: str) -> str:
    """line with its quoted cells unwrapped, unless a `"` does more than wrap a cell free of `,` and `"`."""
    cells = _cells(line) if '"' in line and line.count('"') % 2 == 0 else []
    return ",".join(cells) if cells and not any("," in cell or '"' in cell for cell in cells) else line


def _read_trajectory(path: Path, layout: StateLayout) -> Trajectory:
    """One trajectory CSV, parsed once by np.loadtxt, or a PersistError naming its first fault.

    Before the parse, cheap checks read the header, two or more rows, bare `t` cells, and empty torque cells
    on the final row or on every row.  A `"` left after unwrapping quoted cells fails the parse.
    """
    if not path.exists():
        raise PersistError(f"{path}: no such file")
    text = path.read_text(encoding="utf-8")  # universal newlines end rows at CRLF, CR or LF, as csv does
    lines = text.removesuffix("\n").split("\n")
    header, *rows = [_unquoted(line) for line in lines] if '"' in text else lines
    n, d, a = layout.n, layout.n + layout.m, layout.a
    torqueless = all(row.endswith("," * a) for row in rows)
    if (header == ",".join(_header(layout)) and len(rows) >= 2 and rows[-1].endswith("," * a)
            and all(row.startswith(f"{t},") for t, row in enumerate(rows, start=1))):
        for i in range(len(rows)) if torqueless else [-1]:  # zeros in empty torque cells: every row has full width
            rows[i] = rows[i][:-a] + ",0" * a
        try:
            values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None and values.shape == (len(rows), 1 + d + a):
            torques = None if torqueless else values[:-1, 1 + d :]
            return Trajectory.from_arrays(values[:, 1 : 1 + n], values[:, 1 + n : 1 + d], torques)
    raise PersistError(f"{path}: {_first_fault(lines, layout)}")


def _first_fault(lines: list[str], layout: StateLayout) -> str:
    """The first fault of a trajectory file in file order, naming its line; no array is built."""
    expected = _header(layout)
    if _cells(lines[0]) != expected or lines[0].count('"') % 2:
        return f"line 1: header does not match layout {expected}"
    d = layout.n + layout.m
    has_tau = []  # whether each row's torque cells are filled
    for lineno, line in enumerate(lines[1:], start=2):
        row = _cells(line)
        if len(row) != len(expected):
            return f"line {lineno}: {len(row)} cells, expected {len(expected)}"
        if row[0] != str(lineno - 1):
            return f"line {lineno}: t={row[0]!r}, expected {lineno - 1}"
        has_tau.append(all(row[1 + d :]))
        for j in range(1, len(row) if has_tau[-1] else 1 + d):  # a bad float is a cell np.loadtxt cannot read
            try:
                np.loadtxt([line], delimiter=",", quotechar='"', comments=None, usecols=j)
            except ValueError:
                return f"line {lineno}, column {expected[j]}: bad float {row[j]!r}"
        if not has_tau[-1] and any(row[1 + d :]):
            return f"line {lineno}: partially empty torque cells"
        if line.count('"') % 2:  # csv would carry the quote on to the next line
            return f"line {lineno}: unbalanced quote"
    if len(has_tau) < 2:
        return f"a trajectory needs at least 2 rows, got {len(has_tau)}"
    if has_tau[-1]:
        return f"line {len(lines)}: final row must have empty torque cells"
    if any(has_tau) and not all(has_tau[:-1]):
        return f"line {has_tau.index(False) + 2}: torque cells empty on a non-final row"
    raise AssertionError("np.loadtxt refused a trajectory file in which no fault was found")


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
    path = directory / "manifest.json"
    names = [f"traj_{i:04d}.csv" for i in range(demos.n_demos)]
    # refused before any file is written, so a bad env or seed leaves no file
    try:
        seed = None if seed is None else _count("seed", seed, 0)
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from None
    manifest = {
        "schema": SCHEMA_VERSION,
        "layout": _layout_to_dict(demos.layout),
        "trajectories": names,
        "env": env,
        "seed": seed,
    }
    try:
        json.dumps(manifest, allow_nan=False)
    except ValueError:
        raise PersistError(f"{path}: refusing to write non-finite values") from None
    except TypeError as exc:
        raise PersistError(f"{path}: {exc}") from None
    # an old manifest would list a mix of new and old CSVs if a write below fails
    path.unlink(missing_ok=True)
    for traj, name in zip(demos.trajectories, names):
        _write_trajectory(traj, demos.layout, directory / name)
    _write_json(manifest, path)
    return path


def load_manifest(manifest_path) -> dict:
    """Raw manifest dict (callers needing env/seed read them from here); env and seed may be left out."""
    return _read_json(Path(manifest_path), ("layout", "trajectories"), ("env", "seed"))


def load_demos(manifest_path) -> DemonstrationSet:
    path = Path(manifest_path)
    obj = load_manifest(path)
    layout = _layout_from_dict(obj["layout"], path)
    names = obj["trajectories"]
    if not isinstance(names, list) or not names:
        raise PersistError(f"{path}: manifest lists no trajectories")
    for i, name in enumerate(names):  # checked before any CSV is read, so no entry leads out of the directory
        if not (isinstance(name, str) and name not in ("", "..") and Path(name).name == name):
            raise PersistError(f"{path}: trajectories[{i}] must be a file name in the manifest's directory, "
                               f"got {name!r}")
    trajectories = tuple(_read_trajectory(path.parent / name, layout) for name in names)
    demos = DemonstrationSet(layout, trajectories)
    try:
        require_valid(demos)
    except ValueError as exc:
        raise PersistError(f"{path}: loaded demos are invalid: {exc}") from None
    return demos


# -------------------------------------------------------------------- models

def _fit_meta(meta, path: Path) -> FitMeta | None:
    """A model file's fit_meta block, or None for null; a cond of null reads as +inf, and a number must be finite."""
    if meta is None:
        return None
    meta = _block(path, "fit_meta", meta, ("n_demos", "n_pairs", "wall_time_s", "rank", "cond"))
    try:
        return FitMeta(**(meta | {"cond": math.inf if meta["cond"] is None else _real("cond", meta["cond"])}))
    except ValueError as exc:
        raise PersistError(f"{path}: bad fit_meta block: {exc}") from exc


def _fit_meta_block(meta: FitMeta) -> dict:
    """The fit_meta block that records meta; a cond of +inf is written as null, which load reads back as +inf."""
    return vars(meta) | {"cond": None if meta.cond == math.inf else meta.cond}


def save_model(model: KoopmanModel, path) -> Path:
    path = Path(path)
    lifting = {
        "kind": model.spec.kind,
        "n": model.layout.n,
        "m": model.layout.m,
        "ordering": ORDERING_TAGS[model.spec.kind],
    }
    obj = {
        "schema": SCHEMA_VERSION,
        "layout": _layout_to_dict(model.layout),
        "lifting": lifting,
        "K": model.K.tolist(),
        "fit_meta": None if model.fit_meta is None else _fit_meta_block(model.fit_meta),
    }
    _write_json(obj, path)
    return path


def load_model(path) -> KoopmanModel:
    path = Path(path)
    obj = _read_json(path, ("layout", "lifting", "K"), ("fit_meta",))
    layout = _layout_from_dict(obj["layout"], path)
    lifting = _block(path, "lifting", obj["lifting"], ("kind", "n", "m", "ordering"))
    kind = lifting["kind"]
    if kind not in KINDS:
        raise PersistError(f"{path}: unknown lifting kind {kind!r}")
    tag = lifting["ordering"]
    if tag != ORDERING_TAGS[kind]:
        raise PersistError(
            f"{path}: ordering tag {tag!r} does not match {ORDERING_TAGS[kind]!r}; "
            "K was written under a different observable order"
        )
    if not (_same(lifting["n"], layout.n) and _same(lifting["m"], layout.m)):
        raise PersistError(f"{path}: lifting dims disagree with layout")
    meta = _fit_meta(obj.get("fit_meta"), path)
    try:
        return KoopmanModel(obj["K"], LiftingSpec(kind, layout), layout, meta)
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from None


# --------------------------------------------------------------- controllers

def save_controller(model: ControllerModel, path) -> Path:
    path = Path(path)
    obj = {
        "schema": SCHEMA_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_norm": {"mean": model.input_mean.tolist(), "std": model.input_std.tolist()},
        "activation": _ACTIVATION,
    }
    _write_json(obj, path)
    return path


def load_controller(path) -> ControllerModel:
    path = Path(path)
    obj = _read_json(path, ("layer_sizes", "weights", "biases", "input_norm", "activation"))
    norm = _block(path, "input_norm", obj["input_norm"], ("mean", "std"))
    try:
        model = ControllerModel(obj["layer_sizes"], obj["weights"], obj["biases"], norm["mean"], norm["std"])
    except ValueError as exc:
        raise PersistError(f"{path}: bad controller block: {exc}") from exc
    if obj["activation"] != _ACTIVATION:
        raise PersistError(f"{path}: unsupported activation {obj['activation']!r}, expected {_ACTIVATION!r}")
    return model
